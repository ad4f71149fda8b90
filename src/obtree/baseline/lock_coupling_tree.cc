// Copyright 2026 The obtree Authors.

#include "obtree/baseline/lock_coupling_tree.h"

#include <cassert>

namespace obtree {

RwLatchTable::RwLatchTable() : chunks_(kMaxChunks) {
  for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
}

RwLatchTable::~RwLatchTable() {
  for (auto& c : chunks_) delete c.load(std::memory_order_relaxed);
}

std::shared_mutex* RwLatchTable::Latch(PageId id) {
  const size_t chunk_index = id >> kChunkBits;
  assert(chunk_index < kMaxChunks);
  Chunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    Chunk* fresh = new Chunk();
    if (chunks_[chunk_index].compare_exchange_strong(
            chunk, fresh, std::memory_order_acq_rel)) {
      chunk = fresh;
    } else {
      delete fresh;  // lost the race; `chunk` holds the winner
    }
  }
  return &chunk->latches[id & (kChunkSize - 1)];
}

LockCouplingTree::LockCouplingTree(const TreeOptions& options)
    : options_(options),
      init_status_(options.Validate()),
      stats_(new StatsCollector()),
      epoch_(new EpochManager()),
      latches_(new RwLatchTable()),
      size_(0) {
  if (!init_status_.ok()) options_ = TreeOptions();
  pager_ = std::make_unique<PageManager>(epoch_.get(), stats_.get(), nullptr,
                                         0, NodeBytes(options_.capacity()));
  Result<PageId> root = pager_->Allocate();
  assert(root.ok());
  Page page;
  page.Clear();
  Node* node = page.As<Node>();
  node->Init(0, kMinusInfinity, kPlusInfinity, kInvalidPageId);
  node->set_root(true);
  pager_->Put(*root, page);
  PrimeBlockData pb;
  pb.num_levels = 1;
  pb.leftmost[0] = *root;
  prime_.Write(pb);
}

LockCouplingTree::~LockCouplingTree() = default;

void LockCouplingTree::CountLatch() const {
  stats_->Add(StatId::kLocksAcquired);
}

PageId LockCouplingTree::SplitChild(Page* parent, PageId parent_page,
                                    Page* child, PageId child_page) {
  Node* pn = parent->As<Node>();
  Node* cn = child->As<Node>();
  Result<PageId> right_page = pager_->Allocate();
  assert(right_page.ok());
  Page right_buf;
  Node* right = right_buf.As<Node>();
  cn->SplitInto(right, *right_page);
  const bool ok = pn->InsertChildSplit(cn->high, *right_page);
  assert(ok);
  (void)ok;
  stats_->Add(StatId::kSplits);
  pager_->Put(*right_page, right_buf);
  pager_->Put(child_page, *child);
  pager_->Put(parent_page, *parent);
  return *right_page;
}

PageId LockCouplingTree::AcquireRootForWrite(Page* page) {
  Node* node = page->As<Node>();
  for (;;) {
    const PrimeBlockData pb = prime_.Read();
    const PageId root_page = pb.root();
    latches_->Latch(root_page)->lock();
    CountLatch();
    pager_->Get(root_page, page);
    if (!node->is_root()) {
      latches_->Latch(root_page)->unlock();  // lost a root-split race
      continue;
    }
    if (node->count < options_.capacity() ||
        node->level + 2 > kMaxLevels) {
      return root_page;  // usable as-is (or at the height limit)
    }

    // Preventive root split: the old root splits in place and a new root
    // is published above it while we hold the old root's write latch.
    Result<PageId> right_page = pager_->Allocate();
    Result<PageId> new_root_page = pager_->Allocate();
    assert(right_page.ok() && new_root_page.ok());
    Page right_buf;
    Node* right = right_buf.As<Node>();
    node->SplitInto(right, *right_page);
    node->set_root(false);
    stats_->Add(StatId::kSplits);
    pager_->Put(*right_page, right_buf);
    pager_->Put(root_page, *page);

    Page root_buf;
    Node* new_root = root_buf.As<Node>();
    new_root->Init(static_cast<uint16_t>(node->level + 1), kMinusInfinity,
                   kPlusInfinity, kInvalidPageId);
    new_root->set_root(true);
    new_root->entries[0] = Entry{node->high, root_page};
    new_root->entries[1] = Entry{right->high, *right_page};
    new_root->count = 2;
    pager_->Put(*new_root_page, root_buf);
    PrimeBlockData updated = prime_.Read();
    updated.leftmost[updated.num_levels] = *new_root_page;
    updated.num_levels++;
    prime_.Write(updated);
    stats_->Add(StatId::kRootCreations);
    latches_->Latch(root_page)->unlock();
    // Retry from the new root.
  }
}

Status LockCouplingTree::Insert(Key key, Value value) {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kInserts);
  EpochManager::Guard guard(epoch_.get());

  Page page;
  Node* node = page.As<Node>();
  PageId current = AcquireRootForWrite(&page);

  // Descend with write-latch coupling, splitting full children before
  // stepping into them, so the leaf insert can never propagate upward.
  while (!node->is_leaf()) {
    PageId child_page = node->ChildFor(key);
    latches_->Latch(child_page)->lock();
    CountLatch();
    Page child_buf;
    pager_->Get(child_page, &child_buf);
    Node* child = child_buf.As<Node>();
    if (child->count >= options_.capacity()) {
      const PageId right_page =
          SplitChild(&page, current, &child_buf, child_page);
      if (key > child->high) {
        // The key now belongs to the new right sibling.
        latches_->Latch(right_page)->lock();
        CountLatch();
        latches_->Latch(child_page)->unlock();
        child_page = right_page;
        pager_->Get(child_page, &child_buf);
      }
    }
    latches_->Latch(current)->unlock();
    current = child_page;
    page = child_buf;
  }

  Status result;
  if (node->FindLeafValue(key).has_value()) {
    result = Status::AlreadyExists("key already in the tree");
  } else {
    node->InsertLeafEntry(key, value);
    pager_->Put(current, page);
    size_.fetch_add(1, std::memory_order_relaxed);
  }
  latches_->Latch(current)->unlock();
  return result;
}

Result<Value> LockCouplingTree::Search(Key key) const {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kSearches);
  EpochManager::Guard guard(epoch_.get());

  Page page;
  const Node* node = page.As<Node>();
  PageId current;
  for (;;) {
    const PrimeBlockData pb = prime_.Read();
    current = pb.root();
    latches_->Latch(current)->lock_shared();
    CountLatch();
    pager_->Get(current, &page);
    if (node->is_root()) break;
    latches_->Latch(current)->unlock_shared();
  }
  while (!node->is_leaf()) {
    const PageId child = node->ChildFor(key);
    latches_->Latch(child)->lock_shared();
    CountLatch();
    latches_->Latch(current)->unlock_shared();
    current = child;
    pager_->Get(current, &page);
  }
  std::optional<Value> v = node->FindLeafValue(key);
  latches_->Latch(current)->unlock_shared();
  if (!v.has_value()) return Status::NotFound();
  return *v;
}

Status LockCouplingTree::Delete(Key key) {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kDeletes);
  EpochManager::Guard guard(epoch_.get());

  // Read-couple down to the leaf's parent, then write-latch the leaf (the
  // trivial deletion restructures nothing above it).
  Page page;
  Node* node = page.As<Node>();
  PageId current;
  for (;;) {
    const PrimeBlockData pb = prime_.Read();
    current = pb.root();
    if (pb.num_levels == 1) {
      latches_->Latch(current)->lock();
      CountLatch();
      pager_->Get(current, &page);
      if (node->is_root()) break;
      latches_->Latch(current)->unlock();
      continue;
    }
    latches_->Latch(current)->lock_shared();
    CountLatch();
    pager_->Get(current, &page);
    if (node->is_root()) break;
    latches_->Latch(current)->unlock_shared();
  }
  bool shared = !node->is_leaf();
  while (!node->is_leaf()) {
    const PageId child = node->ChildFor(key);
    const bool child_is_leaf = node->level == 1;
    if (child_is_leaf) {
      latches_->Latch(child)->lock();
    } else {
      latches_->Latch(child)->lock_shared();
    }
    CountLatch();
    latches_->Latch(current)->unlock_shared();
    shared = !child_is_leaf;
    current = child;
    pager_->Get(current, &page);
  }

  Status result;
  if (!node->RemoveLeafEntry(key)) {
    result = Status::NotFound();
  } else {
    pager_->Put(current, page);
    size_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (shared) {
    latches_->Latch(current)->unlock_shared();
  } else {
    latches_->Latch(current)->unlock();
  }
  return result;
}

size_t LockCouplingTree::Scan(Key lo, Key hi,
                              const std::function<bool(Key, Value)>& visitor)
    const {
  if (lo < 1) lo = 1;
  if (hi > kMaxUserKey) hi = kMaxUserKey;
  if (lo > hi) return 0;
  stats_->Add(StatId::kSearches);
  EpochManager::Guard guard(epoch_.get());

  // Read-couple down to the first leaf, then latch-couple along the links.
  Page page;
  const Node* node = page.As<Node>();
  PageId current;
  for (;;) {
    const PrimeBlockData pb = prime_.Read();
    current = pb.root();
    latches_->Latch(current)->lock_shared();
    CountLatch();
    pager_->Get(current, &page);
    if (node->is_root()) break;
    latches_->Latch(current)->unlock_shared();
  }
  while (!node->is_leaf()) {
    const PageId child = node->ChildFor(lo);
    latches_->Latch(child)->lock_shared();
    CountLatch();
    latches_->Latch(current)->unlock_shared();
    current = child;
    pager_->Get(current, &page);
  }

  size_t visited = 0;
  Key next_key = lo;
  for (;;) {
    for (uint32_t i = node->LowerBound(next_key); i < node->count; ++i) {
      if (node->entries[i].key > hi) {
        latches_->Latch(current)->unlock_shared();
        return visited;
      }
      ++visited;
      if (!visitor(node->entries[i].key, node->entries[i].value)) {
        latches_->Latch(current)->unlock_shared();
        return visited;
      }
    }
    if (node->high >= hi || node->link == kInvalidPageId) {
      latches_->Latch(current)->unlock_shared();
      return visited;
    }
    next_key = node->high + 1;
    const PageId next = node->link;
    latches_->Latch(next)->lock_shared();
    CountLatch();
    latches_->Latch(current)->unlock_shared();
    current = next;
    pager_->Get(current, &page);
  }
}

}  // namespace obtree
