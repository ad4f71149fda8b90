// Copyright 2026 The obtree Authors.

#include "obtree/baseline/lehman_yao_tree.h"

#include <cassert>
#include <thread>

namespace obtree {

LehmanYaoTree::LehmanYaoTree(const TreeOptions& options)
    : options_(options),
      init_status_(options.Validate()),
      stats_(new StatsCollector()),
      epoch_(new EpochManager()),
      size_(0) {
  if (!init_status_.ok()) options_ = TreeOptions();
  pager_ = std::make_unique<PageManager>(epoch_.get(), stats_.get());
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

LehmanYaoTree::~LehmanYaoTree() = default;

PageId LehmanYaoTree::Descend(Key key, std::vector<PageId>* stack) const {
  const PrimeBlockData pb = prime_.Read();
  PageId current = pb.root();
  Page page;
  const Node* node = page.As<Node>();
  for (;;) {
    pager_->Get(current, &page);
    if (key > node->high) {
      // Without compression nodes never move left, so plain link chasing
      // (no locks, no restarts) is sufficient.
      stats_->Add(StatId::kLinkFollows);
      current = node->link;
      continue;
    }
    if (node->is_leaf()) return current;
    if (stack != nullptr) stack->push_back(current);
    current = node->ChildFor(key);
  }
}

void LehmanYaoTree::MoveRightLocked(Key key, PageId* current,
                                    Page* page) const {
  Node* node = page->As<Node>();
  while (key > node->high) {
    const PageId next = node->link;
    assert(next != kInvalidPageId);
    pager_->Lock(next);    // lock the neighbor BEFORE releasing this node:
    pager_->Unlock(*current);  // Lehman-Yao lock coupling
    stats_->Add(StatId::kLinkFollows);
    *current = next;
    pager_->Get(*current, page);
  }
}

Status LehmanYaoTree::Insert(Key key, Value value) {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kInserts);
  EpochManager::Guard guard(epoch_.get());

  std::vector<PageId> stack;
  PageId current = Descend(key, &stack);
  pager_->Lock(current);
  Page page;
  pager_->Get(current, &page);
  Node* node = page.As<Node>();
  MoveRightLocked(key, &current, &page);

  if (node->FindLeafValue(key).has_value()) {
    pager_->Unlock(current);
    return Status::AlreadyExists("key already in the tree");
  }

  Key ins_key = key;
  uint64_t down_ptr = value;
  for (;;) {
    if (node->count < options_.capacity()) {
      if (node->is_leaf()) {
        node->InsertLeafEntry(ins_key, static_cast<Value>(down_ptr));
      } else {
        node->InsertChildSplit(ins_key, static_cast<PageId>(down_ptr));
      }
      pager_->Put(current, page);
      pager_->Unlock(current);
      size_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    // Split. Rearrange into A + B, write B then A (B becomes reachable the
    // instant A lands).
    Result<PageId> right_page = pager_->Allocate();
    if (!right_page.ok()) {
      pager_->Unlock(current);
      return right_page.status();
    }
    if (node->is_leaf()) {
      node->InsertLeafEntry(ins_key, static_cast<Value>(down_ptr));
    } else {
      node->InsertChildSplit(ins_key, static_cast<PageId>(down_ptr));
    }
    Page right_buf;
    Node* right = right_buf.As<Node>();
    node->SplitInto(right, *right_page);
    stats_->Add(StatId::kSplits);

    if (node->is_root()) {
      // Root split: build the new root while still holding the old root's
      // lock, then rewrite the prime block.
      if (node->level + 2 > kMaxLevels) {
        pager_->Unlock(current);
        return Status::ResourceExhausted("tree height limit reached");
      }
      node->set_root(false);
      pager_->Put(*right_page, right_buf);
      pager_->Put(current, page);
      Result<PageId> root_page = pager_->Allocate();
      if (!root_page.ok()) {
        pager_->Unlock(current);
        return root_page.status();
      }
      Page root_buf;
      Node* root = root_buf.As<Node>();
      root->Init(static_cast<uint16_t>(node->level + 1), kMinusInfinity,
                 kPlusInfinity, kInvalidPageId);
      root->set_root(true);
      root->entries[0] = Entry{node->high, current};
      root->entries[1] = Entry{right->high, *right_page};
      root->count = 2;
      pager_->Put(*root_page, root_buf);
      PrimeBlockData pb = prime_.Read();
      pb.leftmost[pb.num_levels] = *root_page;
      pb.num_levels++;
      prime_.Write(pb);
      stats_->Add(StatId::kRootCreations);
      pager_->Unlock(current);
      size_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    pager_->Put(*right_page, right_buf);
    pager_->Put(current, page);

    // THE Lehman-Yao hand-off: keep the child locked while locking and
    // moving right at the parent level, and only then release the child.
    // This is what makes an inserter hold 2-3 locks simultaneously and is
    // precisely what Sagiv's overtaking argument removes.
    const PageId old_node = current;
    ins_key = node->high;
    down_ptr = *right_page;
    const uint32_t next_level = node->level + 1;

    if (!stack.empty()) {
      current = stack.back();
      stack.pop_back();
    } else {
      for (;;) {
        const PrimeBlockData pb = prime_.Read();
        if (pb.num_levels > next_level) {
          current = pb.leftmost[next_level];
          break;
        }
        std::this_thread::yield();
      }
    }
    pager_->Lock(current);
    pager_->Get(current, &page);
    MoveRightLocked(ins_key, &current, &page);
    pager_->Unlock(old_node);
  }
}

Result<Value> LehmanYaoTree::Search(Key key) const {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kSearches);
  EpochManager::Guard guard(epoch_.get());
  const PageId leaf = Descend(key, nullptr);
  Page page;
  pager_->Get(leaf, &page);
  const Node* node = page.As<Node>();
  // The leaf may have split between Descend and Get; chase links.
  PageId current = leaf;
  while (key > node->high) {
    current = node->link;
    stats_->Add(StatId::kLinkFollows);
    pager_->Get(current, &page);
  }
  std::optional<Value> v = node->FindLeafValue(key);
  if (!v.has_value()) return Status::NotFound();
  return *v;
}

Status LehmanYaoTree::Delete(Key key) {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kDeletes);
  EpochManager::Guard guard(epoch_.get());
  PageId current = Descend(key, nullptr);
  pager_->Lock(current);
  Page page;
  pager_->Get(current, &page);
  Node* node = page.As<Node>();
  MoveRightLocked(key, &current, &page);
  if (!node->RemoveLeafEntry(key)) {
    pager_->Unlock(current);
    return Status::NotFound();
  }
  pager_->Put(current, page);
  pager_->Unlock(current);
  size_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

size_t LehmanYaoTree::Scan(Key lo, Key hi,
                           const std::function<bool(Key, Value)>& visitor)
    const {
  if (lo < 1) lo = 1;
  if (hi > kMaxUserKey) hi = kMaxUserKey;
  if (lo > hi) return 0;
  stats_->Add(StatId::kSearches);
  EpochManager::Guard guard(epoch_.get());

  PageId current = Descend(lo, nullptr);
  Page page;
  const Node* node = page.As<Node>();
  size_t visited = 0;
  Key next_key = lo;
  for (;;) {
    pager_->Get(current, &page);
    if (next_key > node->high) {
      current = node->link;
      if (current == kInvalidPageId) return visited;
      continue;
    }
    for (uint32_t i = node->LowerBound(next_key); i < node->count; ++i) {
      if (node->entries[i].key > hi) return visited;
      ++visited;
      if (!visitor(node->entries[i].key, node->entries[i].value)) {
        return visited;
      }
    }
    if (node->high >= hi || node->link == kInvalidPageId) return visited;
    next_key = node->high + 1;
    current = node->link;
  }
}

}  // namespace obtree
