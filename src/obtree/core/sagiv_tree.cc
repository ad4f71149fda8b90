// Copyright 2026 The obtree Authors.

#include "obtree/core/sagiv_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <thread>

#include "obtree/core/compression_queue.h"
#include "obtree/storage/file_store.h"

namespace obtree {

namespace {

// Hard bound on pointer-chasing steps in a single descent attempt. A valid
// tree never approaches this; it converts corruption into Status::Internal
// instead of a hang. Torn reads count as steps, so it also bounds re-reads.
constexpr int kMaxStepsPerAttempt = 1 << 22;

// Safety valve: an operation that restarts (or waits for a level) more
// than this many times reports Status::Internal instead of looping
// forever. The paper proves restarts finite for finite schedules; this
// guards against bugs.
constexpr int kMaxRestarts = 1 << 20;

// Fault tolerance: a descent re-issues a failed page fetch (an injected
// fault, or a store read error) this many times before the operation
// surfaces Status::Unavailable, backing off from kFetchRetryBackoffUs and
// doubling per attempt (capped at 64x).
constexpr int kFetchRetryLimit = 4;
constexpr uint64_t kFetchRetryBackoffUs = 2;

// Torn peeks a paper-lock holder tolerates on one node before it gives the
// lock back and restarts (or, on the append fast path, misses). Only an
// in-flight reuse of a stale page can tear a locked page, and that resolves
// in a few version bumps; the bound keeps a protocol bug from spinning
// while holding a lock.
constexpr int kLockedPeekRetryLimit = 8;

// Where an unlocked descent proceeds from one node, as decided from an
// optimistic (unvalidated) in-place image. kTorn marks an image too
// inconsistent to classify (e.g. ChildFor fell off the entries): the
// reader re-reads the node instead of acting. It is also the default so
// an unstable guard (put in flight) takes the same re-read path.
struct Route {
  enum Kind {
    kArrived,               // node is the live target: level + range match
    kChild,                 // descend into `next`
    kLink,                  // moveright through `next`
    kMerge,                 // deleted node: recover through merge pointer
    kRestartStale,          // wrong node (level/low): restart from the root
    kRestartRightmost,      // nil link but key > high: restart
    kRestartNoMergeTarget,  // deleted, merge pointer not posted: restart
    kTorn,                  // image inconsistent: re-read this node
  } kind = kTorn;
  PageId next = kInvalidPageId;
};

// The paper's next(A, v) evaluated on a possibly-torn image. Reads only
// header words (plus one binary search for the child case) and never
// chases a pointer itself; the caller validates the page version before
// following `next` anywhere.
Route RouteForKey(const NodeView& view, Key key, uint32_t target_level) {
  Route r;
  if (view.is_deleted()) {
    const PageId target = view.merge_target();
    if (target == kInvalidPageId) {
      r.kind = Route::kRestartNoMergeTarget;
    } else {
      r.kind = Route::kMerge;
      r.next = target;
    }
    return r;
  }
  if (view.level() < target_level || key <= view.low()) {
    r.kind = Route::kRestartStale;
    return r;
  }
  if (key > view.high()) {
    const PageId link = view.link();
    if (link == kInvalidPageId) {
      r.kind = Route::kRestartRightmost;
    } else {
      r.kind = Route::kLink;
      r.next = link;
    }
    return r;
  }
  if (view.level() == target_level) {
    r.kind = Route::kArrived;
    return r;
  }
  const PageId child = view.ChildFor(key);
  if (child == kInvalidPageId) {
    r.kind = Route::kTorn;  // count ran out mid-rewrite
    return r;
  }
  r.kind = Route::kChild;
  r.next = child;
  return r;
}

// The restart cause a Route restart kind charges (shared by the route
// dispatchers: the descents and the locked acquire). kTorn maps to kNone.
SagivTree::RestartCause CauseFor(Route::Kind kind) {
  switch (kind) {
    case Route::kRestartStale:
      return SagivTree::RestartCause::kStaleNode;
    case Route::kRestartRightmost:
      return SagivTree::RestartCause::kRightmostStale;
    case Route::kRestartNoMergeTarget:
      return SagivTree::RestartCause::kMissingMergeTarget;
    default:
      return SagivTree::RestartCause::kNone;
  }
}

// Follows a kLink route right (moveright) or a kMerge route through a
// deleted node's merge pointer (§5.2), counting the hop; returns the page
// to read next.
PageId Hop(StatsCollector* stats, const Route& route) {
  stats->Add(route.kind == Route::kLink ? StatId::kLinkFollows
                                        : StatId::kMergePointerFollows);
  return route.next;
}

// Per-thread descent stack shared by Insert/Delete: the movedown stack
// was a heap allocation on every mutation otherwise. The in_use flag
// hands a nested mutation (e.g. an Insert issued from a Scan visitor) a
// plain local vector instead.
struct TlWriteBuffers {
  std::vector<PageId> stack;
  bool in_use = false;
};
thread_local TlWriteBuffers tl_write_buffers;

// Hands out the thread-local descent stack (cleared) if free, else the
// caller-provided fallback.
class TlStackLease {
 public:
  explicit TlStackLease(std::vector<PageId>* fallback)
      : claimed_(!tl_write_buffers.in_use),
        stack_(claimed_ ? &tl_write_buffers.stack : fallback) {
    if (claimed_) tl_write_buffers.in_use = true;
    stack_->clear();
  }
  ~TlStackLease() {
    if (claimed_) tl_write_buffers.in_use = false;
  }
  std::vector<PageId>* stack() const { return stack_; }

 private:
  bool claimed_;
  std::vector<PageId>* stack_;
};

}  // namespace

SagivTree::SagivTree(const TreeOptions& options)
    : options_(options),
      init_status_(options.Validate()),
      stats_(new StatsCollector()),
      epoch_(new EpochManager()),
      queue_(nullptr),
      size_(0),
      rightmost_hint_(kInvalidPageId),
      max_key_hint_(kMinusInfinity),
      frontier_seq_(0) {
  if (!init_status_.ok()) options_ = TreeOptions();
  if (!options_.storage_dir.empty()) {
    Result<std::unique_ptr<FileStore>> store =
        FileStore::Open(options_.storage_dir);
    if (store.ok()) {
      file_store_ = std::move(*store);
    } else {
      // Record the failure and degrade to an in-memory tree; callers that
      // need durability check init_status() (ConcurrentMap surfaces it).
      init_status_ = store.status();
    }
  }
  pager_ = std::make_unique<PageManager>(
      epoch_.get(), stats_.get(), file_store_.get(),
      options_.buffer_pool_pages, NodeBytes(options_.capacity()));

  if (file_store_ != nullptr && file_store_->has_checkpoint()) {
    // Adopt the committed checkpoint instead of building a fresh root.
    const StoreMeta& meta = file_store_->recovered_meta();
    pager_->RestoreFromMeta(meta);
    PrimeBlockData pb;
    pb.num_levels = static_cast<uint32_t>(meta.leftmost.size());
    for (size_t i = 0; i < meta.leftmost.size() && i < kMaxLevels; ++i) {
      pb.leftmost[i] = meta.leftmost[i];
    }
    prime_.Write(pb);
    // Arm the append watermark (stale-low, it would arm the fast path below
    // the stored max); RecoverSizeFromLeaves sets the rightmost hint.
    NoteMaxKey(meta.max_key);
    // The manifest's tree_size can be off by operations whose size bump
    // had not landed when the checkpoint barrier cut; the leaf chain is
    // the authority.
    RecoverSizeFromLeaves();
    recovered_ = true;
    stats_->Add(StatId::kRecoveries);
    return;
  }

  // An empty tree is a single root leaf covering (-inf, +inf].
  Result<PageId> root = pager_->Allocate();
  assert(root.ok());
  Page page;
  page.Clear();
  Node* node = page.As<Node>();
  node->Init(/*lvl=*/0, kMinusInfinity, kPlusInfinity, kInvalidPageId);
  node->set_root(true);
  pager_->Put(*root, page);

  PrimeBlockData pb;
  pb.num_levels = 1;
  pb.leftmost[0] = *root;
  prime_.Write(pb);
  rightmost_hint_.store(*root, std::memory_order_release);
}

void SagivTree::RecoverSizeFromLeaves() {
  // Single-threaded (construction); suppress fault evaluation so an armed
  // injector cannot fail the recovery walk.
  FaultInjector::ScopedExemption exempt;
  const PrimeBlockData pb = prime_.Read();
  if (pb.num_levels == 0) return;
  uint64_t keys = 0;
  Page page;
  PageId id = pb.leftmost[0];
  PageId rightmost = id;
  // The frontier bounds the walk: a manifest naming more pages than the
  // arena holds would already have failed RestoreFromMeta's chunk setup,
  // and a link cycle (corruption) must not hang construction.
  const size_t max_steps = pager_->allocated_pages() + 1;
  for (size_t steps = 0; id != kInvalidPageId && steps < max_steps; ++steps) {
    if (!pager_->Get(id, &page).ok()) break;
    const Node* node = page.As<Node>();
    if (!node->is_deleted()) keys += node->count;
    rightmost = id;
    id = node->link;
  }
  size_.store(keys, std::memory_order_relaxed);
  rightmost_hint_.store(rightmost, std::memory_order_release);
}

Status SagivTree::Checkpoint() {
  return pager_->Checkpoint([this](StoreMeta* meta) {
    const PrimeBlockData pb = prime_.Read();
    meta->leftmost.assign(pb.leftmost, pb.leftmost + pb.num_levels);
    meta->tree_size = size_.load(std::memory_order_relaxed);
    meta->max_key = max_key_hint_.load(std::memory_order_relaxed);
  });
}

uint64_t SagivTree::checkpoint_epoch() const {
  return file_store_ != nullptr ? file_store_->checkpoint_epoch() : 0;
}

SagivTree::~SagivTree() = default;

void SagivTree::AttachCompressionQueue(CompressionQueue* queue) {
  queue_.store(queue, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Descending
// ---------------------------------------------------------------------------

void SagivTree::RetryFaultedFetch(PageId id,
                                  PageManager::ReadGuard* g) const {
  // Transient fetch failure (injected, or a store read error): bounded
  // retry with exponential backoff before the operation surfaces
  // Unavailable. A corrupt image reads back the same on every try, so
  // DataLoss surfaces at once. A torn read is not a fault; the caller
  // just re-reads.
  if (g->fault().IsDataLoss()) return;
  for (int attempt = 0; attempt < kFetchRetryLimit; ++attempt) {
    stats_->Add(StatId::kFetchRetries);
    const int shift = attempt < 6 ? attempt : 6;
    std::this_thread::sleep_for(
        std::chrono::microseconds(kFetchRetryBackoffUs << shift));
    *g = pager_->OptimisticRead(id);
    if (!g->faulted()) return;
  }
  stats_->Add(StatId::kFetchGiveups);
}

void SagivTree::CountRestart(RestartCause cause) const {
  stats_->Add(StatId::kRestarts);
  switch (cause) {
    case RestartCause::kStaleNode:
      stats_->Add(StatId::kRestartsStaleNode);
      break;
    case RestartCause::kRightmostStale:
      stats_->Add(StatId::kRestartsRightmostStale);
      break;
    case RestartCause::kMissingMergeTarget:
      stats_->Add(StatId::kRestartsMissingMergeTarget);
      break;
    case RestartCause::kNone:
      break;
  }
}

Status SagivTree::AwaitLevel(uint32_t level, bool wait,
                             PrimeBlockData* pb) const {
  for (int waits = 0; pb->num_levels <= level; ++waits) {
    if (!wait) return Status::NotFound("level does not exist");
    if (waits >= kMaxRestarts) return Status::Internal("level never appeared");
    std::this_thread::yield();
    *pb = prime_.Read();
  }
  return Status::OK();
}

template <typename Probe>
Result<PageId> SagivTree::Descend(Key key, uint32_t level,
                                  std::vector<PageId>* stack_out,
                                  bool wait_for_level,
                                  EpochManager::Guard* repin,
                                  const Probe& probe) const {
  for (int restarts = 0;;) {
    if (stack_out) stack_out->clear();
    PrimeBlockData pb = prime_.Read();
    if (pb.num_levels <= level) {
      const Status s = AwaitLevel(level, wait_for_level, &pb);
      if (!s.ok()) return s;
    }
    PageId current = pb.root();
    RestartCause cause = RestartCause::kNone;
    for (int steps = 0; cause == RestartCause::kNone; ++steps) {
      if (steps > kMaxStepsPerAttempt) {
        return Status::Internal("descent did not terminate");
      }
      const PageManager::ReadGuard g = FetchPage(current);
      if (g.faulted()) return g.fault();
      Route route;  // defaults to kTorn for the unstable-guard case
      if (g.stable()) {
        const NodeView view(g.page()->As<Node>());
        route = RouteForKey(view, key, level);
        // The probe reads the arrived node under the same version as the
        // routing decision: one validation covers both. Nothing read above
        // may be trusted until the version validates; in particular
        // route.next is followed only on a clean check.
        if (route.kind == Route::kArrived) probe(view);
        if (route.kind != Route::kTorn && !g.Validate()) {
          route.kind = Route::kTorn;
        }
      }
      if (route.kind == Route::kTorn) {
        stats_->Add(StatId::kOptimisticRetries);
        continue;  // re-read the same node
      }
      stats_->Add(StatId::kOptimisticValidations);
      switch (route.kind) {
        case Route::kArrived:
          return current;
        case Route::kChild:
          if (stack_out) stack_out->push_back(current);
          current = route.next;
          break;
        case Route::kLink:
        case Route::kMerge:
          current = Hop(stats_.get(), route);
          break;
        default:
          cause = CauseFor(route.kind);  // a restart kind
          break;
      }
    }
    CountRestart(cause);
    if (++restarts > kMaxRestarts) {
      return Status::Internal("too many restarts in descent");
    }
    // Re-pin: a restarted search may legally observe a fresher tree, and
    // releasing the old pin lets reclamation advance (Section 5.3).
    if (repin != nullptr) repin->Refresh();
  }
}

Result<PageId> SagivTree::internal_FindNodeAtLevel(
    Key key, uint32_t level, std::vector<PageId>* stack_out,
    bool wait_for_level) const {
  return Descend(key, level, stack_out, wait_for_level, /*repin=*/nullptr,
                 [](const NodeView&) {});
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

Result<Value> SagivTree::Search(Key key) const {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kSearches);
  EpochManager::Guard guard(epoch_.get());
  std::optional<Value> value;
  const Result<PageId> leaf =
      Descend(key, /*level=*/0, /*stack_out=*/nullptr, /*wait_for_level=*/true,
              &guard, [&](const NodeView& view) {
                value = view.FindLeafValue(key);
              });
  if (!leaf.ok()) return leaf.status();
  if (!value.has_value()) return Status::NotFound();
  return *value;
}

size_t SagivTree::Scan(Key lo, Key hi,
                       const std::function<bool(Key, Value)>& visitor,
                       bool* stopped) const {
  if (stopped != nullptr) *stopped = false;
  if (lo < 1) lo = 1;
  if (hi > kMaxUserKey) hi = kMaxUserKey;
  if (lo > hi) return 0;
  stats_->Add(StatId::kSearches);
  EpochManager::Guard guard(epoch_.get());

  size_t visited = 0;
  int restarts = 0;
  Key next_key = lo;
  PageId current = kInvalidPageId;  // invalid: start again at the root

  // A leaf's pairs in [next_key, hi] are harvested kScanChunk at a time,
  // each chunk validated against the one version the guard took and only
  // then delivered — the visitor never sees an unvalidated pair. When a
  // later chunk tears (the visitor itself may have written the leaf), the
  // page is re-read from the last delivered key + 1, so delivery stays
  // ascending and never repeats a pair. The first leaf is reached from the
  // root by the same route loop, so it is read once. A failed fetch ends
  // the scan with what was delivered.
  Entry chunk[kScanChunk];

  int steps = 0;
  for (;;) {
    if (current == kInvalidPageId) {
      PrimeBlockData pb = prime_.Read();
      if (!AwaitLevel(/*level=*/0, /*wait=*/true, &pb).ok()) return visited;
      current = pb.root();
      steps = 0;
    }
    if (++steps > kMaxStepsPerAttempt) return visited;
    const PageManager::ReadGuard g = FetchPage(current);
    if (g.faulted()) return visited;
    Route route;  // defaults to kTorn for the unstable-guard case
    Key leaf_high = 0;
    PageId leaf_link = kInvalidPageId;
    if (g.stable()) {
      const NodeView view(g.page()->As<Node>());
      route = RouteForKey(view, next_key, /*target_level=*/0);
      if (route.kind != Route::kArrived) {
        if (route.kind != Route::kTorn && !g.Validate()) {
          route.kind = Route::kTorn;
        }
      } else {
        // Deliver this leaf's pairs in [next_key, hi] chunk by chunk; the
        // route, high and link are trusted once the first chunk validates.
        leaf_high = view.high();
        leaf_link = view.link();
        const uint32_t n = view.count();
        for (uint32_t from = view.LowerBound(next_key);;) {
          const uint32_t to = std::min<uint32_t>(from + kScanChunk, n);
          const uint32_t got = view.CopyEntries(from, to, hi, chunk);
          if (!g.Validate()) {
            route.kind = Route::kTorn;  // re-read from next_key
            break;
          }
          stats_->Add(StatId::kOptimisticValidations);
          for (uint32_t i = 0; i < got; ++i) {
            ++visited;
            if (!visitor(chunk[i].key, chunk[i].value)) {
              if (stopped != nullptr) *stopped = true;
              return visited;
            }
          }
          if (got < to - from) return visited;  // the next key is past hi
          if (got > 0) {
            next_key = chunk[got - 1].key + 1;
            steps = 0;  // the steps bound is per positioning attempt
          }
          if (to == n) break;
          from = to;
        }
      }
    }
    switch (route.kind) {
      case Route::kTorn:
        stats_->Add(StatId::kOptimisticRetries);
        continue;  // re-read the same page
      case Route::kArrived:
        break;  // the leaf is delivered
      case Route::kChild:
        stats_->Add(StatId::kOptimisticValidations);
        current = route.next;
        continue;
      case Route::kLink:
      case Route::kMerge:
        stats_->Add(StatId::kOptimisticValidations);
        current = Hop(stats_.get(), route);
        continue;
      default:  // a restart kind
        stats_->Add(StatId::kOptimisticValidations);
        CountRestart(CauseFor(route.kind));
        if (++restarts > kMaxRestarts) return visited;
        guard.Refresh();
        current = kInvalidPageId;
        continue;
    }
    if (leaf_high >= hi) return visited;
    next_key = leaf_high + 1;
    steps = 0;
    // Fast path: follow the leaf link (the route above re-checks that it
    // still covers next_key); a nil link forces a fresh descent.
    current = leaf_link;
    if (current != kInvalidPageId) stats_->Add(StatId::kLinkFollows);
  }
}

// ---------------------------------------------------------------------------
// Insertion (Figs. 5 and 6)
// ---------------------------------------------------------------------------

Result<PageId> SagivTree::AcquireTargetInPlace(Key key, uint32_t level,
                                               PageId start,
                                               std::vector<PageId>* stack,
                                               int* restarts,
                                               const Node** live,
                                               bool wait_for_level) const {
  PageId current = start;
  for (int steps = 0;; ++steps) {
    if (steps > kMaxStepsPerAttempt) {
      return Status::Internal("moveright did not terminate");
    }
    // Contention-aware acquisition: a bounded test-and-test-and-set spin
    // (TryLockSpin) first. When the lock stays contended through the spin
    // budget, the holder is mutating THIS node right now — quite possibly
    // splitting a hot leaf, after which this node is the wrong target
    // anyway. So before parking, re-route optimistically from the live
    // image: a link/merge hop or a restart discovered here costs one node
    // access and zero sleeps, where blocking first would park the writer,
    // wake it into a stale target, and restart it anyway (the convoy +
    // restart-storm pattern this discipline exists to break). Only a node
    // that still looks like the target is worth the parking Lock.
    bool locked = pager_->TryLockSpin(current);
    Route route;  // kTorn when unstable/faulted/unvalidated: no signal
    if (!locked) {
      const PageManager::ReadGuard peek = pager_->OptimisticRead(current);
      if (peek.stable()) {
        route = RouteForKey(NodeView(peek.page()->As<Node>()), key, level);
        if (!peek.Validate()) route.kind = Route::kTorn;
      }
      // kArrived (still the target), kChild (reused as a higher-level node
      // — let the locked inspection classify it), or kTorn: wait for the
      // holder. A hop or a restart needs no lock.
      if (route.kind == Route::kArrived || route.kind == Route::kChild ||
          route.kind == Route::kTorn) {
        pager_->Lock(current);
        locked = true;
      }
    }
    // Inspect the live page without copying it. The paper lock excludes
    // every mutator EXCEPT the reuse pipeline of a stale page (Retire ->
    // Allocate zeroing -> initializing Put run without it), so reads stay
    // atomic-and-validated until the image proves live; from then on the
    // lock alone pins the node. Every peek — retries included — counts
    // as a node access, exactly like the unlocked descents.
    const Node* node_image = nullptr;
    for (int peeks = 0; locked; ++peeks) {
      const PageManager::ReadGuard g = pager_->PeekLocked(current);
      route = Route{};  // kTorn: also covers the unstable-guard case
      if (g.stable()) {
        node_image = g.page()->As<Node>();
        route = RouteForKey(NodeView(node_image), key, level);
        // Under the lock, a node of a HIGHER level than the target is a
        // reused page, not a descent point: restart.
        if (route.kind == Route::kChild) route.kind = Route::kRestartStale;
        if (route.kind != Route::kTorn && !g.Validate()) {
          route.kind = Route::kTorn;
        }
      }
      if (route.kind != Route::kTorn) break;
      stats_->Add(StatId::kOptimisticRetries);
      if (peeks >= kLockedPeekRetryLimit) {
        // Still torn: give the lock back and restart from the root below.
        stats_->Add(StatId::kInplaceFallbacks);
        break;
      }
    }
    if (route.kind == Route::kArrived) {
      *live = node_image;
      return current;  // locked; *live pinned until Unlock
    }
    if (locked) pager_->Unlock(current);
    if (route.kind == Route::kLink || route.kind == Route::kMerge) {
      current = Hop(stats_.get(), route);
      continue;
    }
    // A restart kind, or kTorn past the peek bound.
    CountRestart(CauseFor(route.kind));
    if (++(*restarts) > kMaxRestarts) {
      return Status::Internal("too many restarts acquiring target node");
    }
    Result<PageId> r =
        internal_FindNodeAtLevel(key, level, stack, wait_for_level);
    if (!r.ok()) return r.status();
    current = *r;
  }
}

void SagivTree::InsertIntoSafeInPlace(PageId page_id, Key key,
                                      uint64_t down_ptr, AscentState* st) {
  PageManager::WriteGuard wg = pager_->BeginWrite(page_id);
  Node* node = wg.page()->As<Node>();
  size_t bytes;
  if (node->is_leaf()) {
    bytes = node->InsertLeafEntryInPlace(key, static_cast<Value>(down_ptr));
  } else {
    bytes = node->InsertChildSplitInPlace(key, static_cast<PageId>(down_ptr));
    assert(bytes > 0);  // separator collision = protocol violation
  }
  wg.Release();
  pager_->Unlock(page_id);
  stats_->Add(StatId::kInplaceWrites);
  stats_->Add(StatId::kWriteBytesInplace, bytes);
  st->completed = true;
}

// Split point for the full locked node `node` about to take `key`,
// honoring the append_leaves tail bias: when the node is the rightmost of
// its level (nil link) and `key` lands past its largest key — for a leaf
// its last entry; for an internal node its last FINITE separator, since a
// rightmost internal node's final entry is the +inf upper bound — split
// at the high end, keeping all but one entry of the merged sequence on
// the left. The retiring left node ends ~full instead of half-full, and
// the near-empty new rightmost node (legal: rightmost nodes are exempt
// from the half-full invariant) absorbs the next run of appends. Returns
// 0 (midpoint) when the bias does not apply.
uint32_t SagivTree::TailSplitKeep(const Node* node, Key key) const {
  const uint32_t n = node->count;
  if (!options_.append_leaves || node->link != kInvalidPageId || n < 2) {
    return 0;
  }
  const bool max_extending = node->is_leaf() ? key > node->entries[n - 1].key
                                             : key > node->entries[n - 2].key;
  return max_extending ? n : 0;
}

Status SagivTree::InsertIntoUnsafe(const Node* live, PageId page_id, Key key,
                                   uint64_t down_ptr, AscentState* st) {
  // A root split also builds the new root R: allocate B and R before
  // anything changes, so a failure leaves the tree as it was.
  const bool split_root = live->is_root();
  Status s;
  if (split_root && live->level + 2 > kMaxLevels) {
    s = Status::ResourceExhausted("tree height limit reached");
  }
  PageId fresh[2] = {kInvalidPageId, kInvalidPageId};  // B, then R
  for (int i = 0; s.ok() && i < (split_root ? 2 : 1); ++i) {
    Result<PageId> p = pager_->Allocate();
    if (p.ok()) {
      fresh[i] = *p;
    } else {
      s = p.status();
    }
  }
  if (!s.ok()) {
    pager_->Unlock(page_id);
    return s;
  }
  const PageId right_page = fresh[0];

  // A rightmost-leaf split births a node B that is live-looking (leaf,
  // nil link, +inf high) — exactly what TryAppendFast's locked
  // validation accepts — yet unreachable until A's rewrite publishes the
  // link. An appender could reach B's page id through a stale
  // rightmost_hint_ (Allocate may have handed us a retired page some
  // hint still names), validate B's post-put image, and append a key no
  // concurrent search can find yet. Open the frontier publication epoch
  // (odd) before B's put and close it (even) after A's: the odd bump is
  // sequenced before B's release-store, so any appender whose acquire
  // read validates B's image inside the window sees an odd-or-advanced
  // epoch and misses. No second lock — insertions keep the paper's
  // one-lock discipline.
  const bool frontier_leaf = live->is_leaf() && live->link == kInvalidPageId;
  if (frontier_leaf) frontier_seq_.fetch_add(1, std::memory_order_release);

  // B is built straight from the locked live image of A with the new
  // entry merged in, and only its live prefix is put: Allocate zeroed the
  // rest of the page. Then A is rewritten in place, one put under one
  // write guard. B's put comes first, so the instant A's new link lands,
  // B is reachable through it (Fig. 3). One lock throughout.
  const uint32_t keep = TailSplitKeep(live, key);
  Page right_buf;
  Node* right = right_buf.As<Node>();
  size_t bytes = live->SplitRightWith(key, down_ptr, keep, right);
  pager_->Put(right_page, right_buf, bytes);
  {
    PageManager::WriteGuard wg = pager_->BeginWrite(page_id);
    Node* node = wg.page()->As<Node>();
    bytes += node->SplitLeftInPlace(key, down_ptr, keep, right_page);
    // The root bit moves to R in the same rewrite.
    if (split_root) bytes += node->ClearRootInPlace();
  }
  // The lock pins A: `live` now reads the rewritten left half.
  const Key sep = live->high;
  stats_->Add(StatId::kSplits);
  if (keep != 0) stats_->Add(StatId::kTailSplits);
  if (live->is_leaf()) {
    stats_->RecordLeafFill(live->count * 100 / options_.capacity());
  }
  if (frontier_leaf) {
    frontier_seq_.fetch_add(1, std::memory_order_release);
    if (options_.append_leaves) {
      // The split frontier moved: B is the rightmost leaf. Publish the
      // hint only now — a hint readable before A's put would hand
      // appenders a node no concurrent search can reach yet.
      rightmost_hint_.store(right_page, std::memory_order_release);
    }
  }

  if (split_root) {
    // Build the new root R = (current, v, q, u, nil) — in entry form
    // [(high(A) -> A), (high(B) -> B)] — and only then rewrite the prime
    // block. We still hold the lock on the old root, which is what
    // licenses the prime-block rewrite (Section 3.3).
    const PageId root_page = fresh[1];
    Page root_buf;
    Node* root = root_buf.As<Node>();
    root->Init(static_cast<uint16_t>(live->level + 1), kMinusInfinity,
               kPlusInfinity, kInvalidPageId);
    root->set_root(true);
    root->entries[0] = Entry{sep, page_id};
    root->entries[1] = Entry{right->high, right_page};
    root->count = 2;
    pager_->Put(root_page, root_buf, NodeBytes(2));
    bytes += NodeBytes(2);

    PrimeBlockData pb = prime_.Read();
    assert(pb.num_levels == live->level + 1u);
    pb.leftmost[pb.num_levels] = root_page;
    pb.num_levels++;
    prime_.Write(pb);
    stats_->Add(StatId::kRootCreations);
    st->completed = true;
  } else {
    st->sep = sep;
    st->new_child = right_page;
  }
  pager_->Unlock(page_id);
  stats_->Add(StatId::kWriteBytesCopied, bytes);
  return Status::OK();
}

void SagivTree::NoteMaxKey(Key key) {
  Key cur = max_key_hint_.load(std::memory_order_relaxed);
  while (key > cur && !max_key_hint_.compare_exchange_weak(
                          cur, key, std::memory_order_relaxed)) {
  }
}

Status SagivTree::TryAppendFast(Key key, Value value, bool* done) {
  *done = false;
  // Snapshot the frontier publication epoch before anything else. An odd
  // value means a rightmost-leaf split is mid-publication somewhere: its
  // fresh right node already looks like the live rightmost leaf but is
  // not link-reachable yet, so nothing the lock-and-validate below could
  // establish is trustworthy — miss immediately.
  const uint64_t seq = frontier_seq_.load(std::memory_order_acquire);
  if (seq & 1) {
    stats_->Add(StatId::kAppendFastMisses);
    return Status::OK();
  }
  const PageId hint = rightmost_hint_.load(std::memory_order_acquire);
  pager_->Lock(hint);
  // The hint is unverified: the page may have split, been merged away, or
  // been retired and reused as anything since it was cached. Re-establish
  // the truth under the lock through PeekLocked validation (a reuse
  // pipeline can rewrite even a locked page; same discipline as
  // AcquireTargetInPlace): the node must still be the live rightmost leaf
  // — not deleted, level 0, nil link, high = +inf — with room to grow,
  // and `key` must extend its max (which also proves the key absent from
  // the whole tree: every other leaf holds smaller keys). Once an image
  // validates, the lock alone pins it: marking a page deleted (the
  // precondition for retiring and reusing it) needs this lock.
  //
  // One hazard survives the lock: page reuse may have handed this very
  // page id to a concurrent frontier split as its new right node B,
  // whose initializing put lands without B's lock held — a validation
  // here could accept B's live-looking image while B is still
  // unreachable (no link points at it until the splitter rewrites the
  // left node). The epoch closes that window: the splitter bumps it odd
  // before B's put, and that bump is visible to any reader whose
  // validated image is B's (release put / acquire read), so re-checking
  // the epoch after a successful validation rejects exactly those
  // images. A stable epoch across snapshot and re-check proves the
  // validated node was link-reachable.
  for (int peeks = 0;; ++peeks) {
    const PageManager::ReadGuard g = pager_->PeekLocked(hint);
    bool is_target = false;
    bool torn = true;
    if (g.stable()) {
      const NodeView view(g.page()->As<Node>());
      const uint32_t n = view.count();
      is_target = !view.is_deleted() && view.is_leaf() &&
                  view.link() == kInvalidPageId &&
                  view.high() == kPlusInfinity && n < options_.capacity() &&
                  key > (n > 0 ? view.entry_key(n - 1) : view.low());
      torn = !g.Validate();
    }
    if (!torn) {
      if (!is_target) break;  // stale hint (or leaf full): miss
      if (frontier_seq_.load(std::memory_order_acquire) != seq) {
        break;  // frontier split began or completed meanwhile: miss
      }
      PageManager::WriteGuard wg = pager_->BeginWrite(hint);
      const size_t bytes =
          wg.page()->As<Node>()->AppendLeafEntryInPlace(key, value);
      wg.Release();
      pager_->Unlock(hint);
      stats_->Add(StatId::kInplaceWrites);
      stats_->Add(StatId::kWriteBytesInplace, bytes);
      stats_->Add(StatId::kAppendFastHits);
      size_.fetch_add(1, std::memory_order_relaxed);
      NoteMaxKey(key);
      *done = true;
      return Status::OK();
    }
    stats_->Add(StatId::kOptimisticRetries);
    if (peeks >= kLockedPeekRetryLimit) {
      stats_->Add(StatId::kInplaceFallbacks);
      break;  // miss
    }
  }
  pager_->Unlock(hint);
  stats_->Add(StatId::kAppendFastMisses);
  return Status::OK();
}

Status SagivTree::Insert(Key key, Value value) {
  return InsertOrOverwrite(key, value, /*overwrite=*/false);
}

Status SagivTree::Upsert(Key key, Value value) {
  return InsertOrOverwrite(key, value, /*overwrite=*/true);
}

Status SagivTree::InsertOrOverwrite(Key key, Value value, bool overwrite) {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  // An upsert is an insert that may degenerate to a value overwrite; it
  // counts as one logical insert either way.
  stats_->Add(StatId::kInserts);
  EpochManager::Guard guard(epoch_.get());
  // One checkpoint-gate hold for the WHOLE insert (descent, splits,
  // parent ascent) so a checkpoint can never capture a half-split.
  PageManager::MutatorScope mutator_scope(pager_.get());

  // Rightmost fast path: a key beyond every key ever inserted can only
  // belong at the end of the rightmost leaf (so an upsert of it is a
  // plain insert) — try to append there without descending. A miss
  // (stale hint) falls through to the normal descent, which refreshes
  // the hint below.
  const bool max_extending =
      options_.append_leaves &&
      key > max_key_hint_.load(std::memory_order_relaxed);
  if (max_extending) {
    bool done = false;
    Status s = TryAppendFast(key, value, &done);
    if (done) return s;
  }

  std::vector<PageId> local_stack;
  TlStackLease stack_lease(&local_stack);
  std::vector<PageId>& stack = *stack_lease.stack();
  Result<PageId> found = internal_FindNodeAtLevel(key, 0, &stack);
  if (!found.ok()) return found.status();
  if (max_extending) {
    // Best effort: a max-extending key's descent normally lands on the
    // current rightmost leaf (every max-extending commit raises the
    // watermark, so keys above it sort past everything stored). A racing
    // larger insert that has committed but not yet noted itself can
    // still make this cache a non-rightmost leaf; the locked validation
    // rejects such a hint, costing only a miss.
    rightmost_hint_.store(*found, std::memory_order_release);
  }
  Status s = InsertCommit(key, value, *found, &stack, overwrite);
  if (s.ok() && max_extending) NoteMaxKey(key);
  return s;
}

Status SagivTree::InsertCommit(Key key, Value value, PageId start,
                               std::vector<PageId>* stack_in, bool overwrite) {
  std::vector<PageId>& stack = *stack_in;
  PageId current = start;
  Key ins_key = key;
  uint64_t down_ptr = value;
  uint32_t level = 0;
  int restarts = 0;

  for (;;) {  // the "repeat ... until completed" of Fig. 5
    // `view` is the locked live node: plain reads are safe under the lock.
    const Node* view = nullptr;
    Result<PageId> target =
        AcquireTargetInPlace(ins_key, level, current, &stack, &restarts, &view);
    if (!target.ok()) return target.status();
    current = *target;

    if (level == 0) {
      const uint32_t idx = view->LowerBound(ins_key);
      if (idx < view->count && view->entries[idx].key == ins_key) {
        if (!overwrite) {
          pager_->Unlock(current);
          return Status::AlreadyExists("key already in the tree");
        }
        // Upsert replace case: overwrite the value under the lock we
        // already hold — same critical section as the presence check, so
        // the key is never transiently absent. Size is unchanged.
        PageManager::WriteGuard wg = pager_->BeginWrite(current);
        const size_t bytes =
            wg.page()->As<Node>()->SetLeafValueAtInPlace(idx, value);
        wg.Release();
        pager_->Unlock(current);
        stats_->Add(StatId::kInplaceWrites);
        stats_->Add(StatId::kWriteBytesInplace, bytes);
        return Status::OK();
      }
    }

    AscentState st;
    if (view->count < options_.capacity()) {
      InsertIntoSafeInPlace(current, ins_key, down_ptr, &st);
    } else {
      Status s = InsertIntoUnsafe(view, current, ins_key, down_ptr, &st);
      if (!s.ok()) return s;
    }
    if (st.completed) {
      size_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    // Move one level up: to the node we came down through, or — if the
    // stack is exhausted — to the leftmost node of the next higher level
    // (waiting for it to exist if a root creation is still in flight,
    // Section 3.3).
    ins_key = st.sep;
    down_ptr = st.new_child;
    level++;
    if (!stack.empty()) {
      current = stack.back();
      stack.pop_back();
    } else {
      PrimeBlockData pb = prime_.Read();
      const Status s = AwaitLevel(level, /*wait=*/true, &pb);
      if (!s.ok()) return s;
      current = pb.leftmost[level];
    }
  }
}

// ---------------------------------------------------------------------------
// Deletion (Section 4, plus the §5.4 enqueue hook)
// ---------------------------------------------------------------------------

Status SagivTree::Delete(Key key) {
  if (key < 1 || key > kMaxUserKey) {
    return Status::InvalidArgument("key out of range");
  }
  stats_->Add(StatId::kDeletes);
  EpochManager::Guard guard(epoch_.get());
  PageManager::MutatorScope mutator_scope(pager_.get());

  // The movedown stack only feeds the §5.4 under-full enqueue, which runs
  // exactly when a compression queue is attached.
  CompressionQueue* queue = queue_.load(std::memory_order_acquire);
  const bool want_stack = queue != nullptr;

  std::vector<PageId> local_stack;
  TlStackLease stack_lease(&local_stack);
  std::vector<PageId>* stack = want_stack ? stack_lease.stack() : nullptr;
  Result<PageId> found = internal_FindNodeAtLevel(key, 0, stack);
  if (!found.ok()) return found.status();

  int restarts = 0;
  // `view` is the locked live leaf; after the removal it reflects the new
  // count/high.
  const Node* view = nullptr;
  Result<PageId> target =
      AcquireTargetInPlace(key, 0, *found, stack, &restarts, &view);
  if (!target.ok()) return target.status();
  const PageId leaf = *target;

  // One search serves both the presence check and the removal: the lock
  // pins the live image, so the index cannot shift in between.
  const uint32_t idx = view->LowerBound(key);
  if (idx >= view->count || view->entries[idx].key != key) {
    pager_->Unlock(leaf);
    return Status::NotFound();
  }
  PageManager::WriteGuard wg = pager_->BeginWrite(leaf);
  const size_t bytes = wg.page()->As<Node>()->RemoveLeafEntryAtInPlace(idx);
  wg.Release();
  stats_->Add(StatId::kInplaceWrites);
  stats_->Add(StatId::kWriteBytesInplace, bytes);
  size_.fetch_sub(1, std::memory_order_relaxed);

  // §5.4: while still holding the lock, record the leaf for compression if
  // it fell below half full.
  if (want_stack && view->count < options_.min_entries && !view->is_root()) {
    CompressionTask task;
    task.node = leaf;
    task.level = 0;
    task.high = view->high;
    task.stamp = guard.start_time();
    // Copy, not move: the stack may be the shared thread-local buffer.
    task.stack = *stack;
    queue->Push(std::move(task), /*update_if_present=*/true);
    stats_->Add(StatId::kQueueEnqueues);
  }
  pager_->Unlock(leaf);
  return Status::OK();
}

}  // namespace obtree
