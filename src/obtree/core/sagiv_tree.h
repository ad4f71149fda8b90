// Copyright 2026 The obtree Authors.
//
// SagivTree: the paper's primary contribution. A B-link tree supporting
// fully concurrent searches, insertions, and deletions where
//
//   * readers acquire NO locks and may read nodes locked by updaters; they
//     also copy no pages: the unlocked descents read node headers and the
//     one binary-search slot they need in place through
//     PageManager::OptimisticRead, validating the seqlock version before
//     trusting anything and re-reading a node whose read tore;
//   * an insertion holds AT MOST ONE lock at any instant (Section 3) —
//     updaters may overtake one another on the way up the tree; the
//     no-split/no-merge mutations also copy no pages: the lock-holding
//     writer edits the live page in place, bracketed by seqlock odd/even
//     bumps (PageManager::BeginWrite); only splits and root changes take
//     the get/put copy cycle;
//   * deletions remove the record from its leaf under one lock (Section 4)
//     and optionally enqueue under-full leaves for the queue-driven
//     compressor of Section 5.4;
//   * a process routed to a wrong node (possible once compressors run)
//     restarts instead of lock-coupling (Section 5.2): deleted nodes carry
//     a merge pointer, and every node stores its low value so "wrong node"
//     is detectable.
//
// Compression itself lives in ScanCompressor (Section 5.1-5.2) and
// QueueCompressor (Section 5.4); they operate on this class through the
// internal_* accessors.

#ifndef OBTREE_CORE_SAGIV_TREE_H_
#define OBTREE_CORE_SAGIV_TREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "obtree/core/options.h"
#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/common.h"
#include "obtree/util/epoch.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"

namespace obtree {

class CompressionQueue;
class FileStore;

/// Concurrent B-link tree with overtaking (Sagiv, 1986).
class SagivTree {
 public:
  /// Creates an empty tree (a single root leaf). Options are validated;
  /// invalid options fall back to defaults with the failure retrievable
  /// via init_status().
  explicit SagivTree(const TreeOptions& options = TreeOptions());
  ~SagivTree();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(SagivTree);

  /// Status of construction (InvalidArgument if options were bad).
  const Status& init_status() const { return init_status_; }

  /// Insert (key, value). Keys must lie in [1, kMaxUserKey].
  /// Returns AlreadyExists if the key is present (tree unchanged).
  Status Insert(Key key, Value value);

  /// Insert-or-replace in ONE descent: the same single-lock insertion
  /// protocol as Insert, except that finding the key already present in
  /// the locked leaf overwrites its value (one word store in place)
  /// instead of returning AlreadyExists. Atomic:
  /// there is no window where the key is absent, and concurrent readers
  /// see either the old or the new value, never neither.
  Status Upsert(Key key, Value value);

  /// Look up a key. Returns the value or NotFound (Unavailable when a page
  /// fetch keeps failing through its bounded retries). Lock-free and
  /// copy-free: the descent validates page versions instead of copying
  /// 4 KB per node visited.
  Result<Value> Search(Key key) const;

  /// Delete a key. Returns NotFound if absent. No restructuring happens
  /// here (Section 4); compression is a separate concurrent process.
  Status Delete(Key key);

  /// Pairs a scan copies out of a leaf, validates and delivers at a time.
  static constexpr uint32_t kScanChunk = 32;

  /// Visit live (key, value) pairs with lo <= key <= hi in ascending key
  /// order, following leaf links. The visitor returns false to stop early;
  /// *stopped (when given) reports whether it did. Returns the number of
  /// pairs visited. Concurrent updates may or may not be observed: each
  /// delivered chunk of up to kScanChunk pairs is a validated snapshot of
  /// its leaf, and a leaf torn between chunks resumes after the last
  /// delivered key, so no pair is repeated or delivered out of order.
  size_t Scan(Key lo, Key hi, const std::function<bool(Key, Value)>& visitor,
              bool* stopped = nullptr) const;

  /// Number of keys currently stored (exact when quiescent).
  uint64_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// Current tree height in levels (1 = a lone root leaf).
  uint32_t Height() const { return prime_.Read().num_levels; }

  const TreeOptions& options() const { return options_; }
  StatsCollector* stats() const { return stats_.get(); }
  EpochManager* epoch() const { return epoch_.get(); }

  // --- persistence (options().storage_dir) --------------------------------

  /// Write a crash-consistent checkpoint of the tree to its FileStore:
  /// drains in-flight mutators (readers keep running), flushes every
  /// dirty page, and atomically commits the manifest. On OK the
  /// checkpoint is durable and contains every operation that returned
  /// before this call started (and possibly some concurrent ones).
  /// FailedPrecondition when the tree has no storage_dir.
  Status Checkpoint();

  /// True when construction found and adopted a committed checkpoint in
  /// options().storage_dir.
  bool recovered_from_checkpoint() const { return recovered_; }

  /// Epoch of the newest committed checkpoint (0 = none / not persistent).
  uint64_t checkpoint_epoch() const;

  /// The persistent backend, or nullptr for an in-memory tree.
  FileStore* file_store() const { return file_store_.get(); }

  /// Attach the compression queue that deletions feed: while a queue is
  /// attached, a deletion that leaves a non-root leaf under-full enqueues
  /// it (Section 5.4). The queue must outlive all subsequent operations.
  /// Pass nullptr to detach.
  void AttachCompressionQueue(CompressionQueue* queue);
  CompressionQueue* compression_queue() const {
    return queue_.load(std::memory_order_acquire);
  }

  // --- internal surface (compressors, checker, tests) ---------------------

  PageManager* internal_pager() const { return pager_.get(); }
  PrimeBlock* internal_prime() { return &prime_; }
  const PrimeBlock* internal_prime() const { return &prime_; }

  /// Descend from the root to the node at `level` where `key` belongs
  /// (low < key <= high among live nodes), following child pointers, links
  /// and merge pointers. If stack_out != nullptr, it receives the pages
  /// through which the descent came down at each level above `level`
  /// (deepest last), as produced by the paper's movedown-and-stack.
  /// Does not lock or copy: every node is read in place and validated.
  /// Returns the page id, Unavailable when a fetch keeps failing, or
  /// Internal after too many restarts; callers that need the node
  /// contents re-read them under their own lock afterwards.
  ///
  /// If the tree currently has fewer than level+1 levels: with
  /// wait_for_level (the insertion ascent semantics of Section 3.3) the
  /// call waits for the level to appear; without it the call returns
  /// NotFound (the §5.4 "whole level deleted" probe used by compressors).
  Result<PageId> internal_FindNodeAtLevel(Key key, uint32_t level,
                                          std::vector<PageId>* stack_out,
                                          bool wait_for_level = true) const;

  /// Lock the live node at `level` whose key range contains `key`,
  /// starting the moveright from `start` (restarting from the root when
  /// routed wrong); see AcquireTargetInPlace. On success the node is
  /// paper-locked and *live points at its live image. Used by the
  /// insertion/deletion paths and by the queue compressor's parent search
  /// (Section 5.4).
  Result<PageId> internal_AcquireTargetInPlace(Key key, uint32_t level,
                                               PageId start,
                                               std::vector<PageId>* stack,
                                               int* restarts,
                                               const Node** live,
                                               bool wait_for_level) const {
    return AcquireTargetInPlace(key, level, start, stack, restarts, live,
                                wait_for_level);
  }

  /// Adjust the logical size counter (used by compressors never; by tests
  /// rebuilding state). Positive or negative delta.
  void internal_AdjustSize(int64_t delta) {
    size_.fetch_add(static_cast<uint64_t>(delta), std::memory_order_relaxed);
  }

  /// Record a bulk load's outcome for the append fast-path hints:
  /// `max_key` is the largest loaded key and `rightmost_leaf` the page
  /// holding it. Keeps max_key_hint_ from going stale-low (which would
  /// arm the fast path for keys below the loaded max and poison
  /// rightmost_hint_ with non-rightmost leaves) and points the first
  /// max-extending insert straight at the loaded frontier.
  void internal_NoteBulkLoad(Key max_key, PageId rightmost_leaf) {
    NoteMaxKey(max_key);
    rightmost_hint_.store(rightmost_leaf, std::memory_order_release);
  }

  // Why a descent gave up on its current node and restarted from the
  // root; drives the per-cause restart counters. An implementation
  // detail, public only so sagiv_tree.cc's file-local route-dispatch
  // helpers can name it.
  enum class RestartCause {
    kNone,
    kStaleNode,           // wrong level, or key <= low: a reused page or
                          // data moved left by compression (§5.2 case (2))
    kRightmostStale,      // nil link yet key > high: stale rightmost node
    kMissingMergeTarget,  // deleted node whose merge pointer is not posted
  };

 private:
  void CountRestart(RestartCause cause) const;

  // --- append-optimized rightmost fast path (options().append_leaves) ----
  //
  // The hint pair below is pure optimization state: correctness never
  // depends on it. rightmost_hint_ names a page that WAS the rightmost
  // leaf at some point — and, crucially, was REACHABLE when stored: the
  // split paths publish it only after the left sibling's rewrite makes
  // the new node link-reachable (see InsertIntoUnsafe). max_key_hint_ is
  // a key that WAS >= every stored key at some point (monotone under
  // inserts, possibly stale-high after deletes — which only disarms the
  // fast path, never misroutes it; every max-extending insert, and
  // BulkLoad, raises it). TryAppendFast re-establishes
  // the truth under the paper lock before touching anything — and, for
  // the one hazard the lock cannot see (a half-published frontier split
  // whose fresh right node looks live before it is link-reachable),
  // cross-checks frontier_seq_, the split-publication epoch below.

  // Attempt the rightmost-append fast path for (key, value): lock the
  // hinted page, validate under the lock that it is still the live
  // rightmost leaf (not deleted, level 0, nil link, high = +inf, not
  // full) and that `key` extends its max, then append in place under a
  // seqlock write bracket. On success sets *done and returns the insert's
  // status (kAppendFastHits). Any validation failure unlocks, counts
  // kAppendFastMisses, leaves *done false, and the caller runs the normal
  // descent. The caller holds the epoch guard and has counted kInserts.
  Status TryAppendFast(Key key, Value value, bool* done);

  // Raise max_key_hint_ to at least `key` (relaxed CAS-max).
  void NoteMaxKey(Key key);

  // Insert (overwrite = false) and Upsert (overwrite = true): the
  // rightmost fast path when `key` is max-extending, else the lock-free
  // descent and then InsertCommit.
  Status InsertOrOverwrite(Key key, Value value, bool overwrite);

  // The locked second half of Insert/Upsert (the Fig. 5 "repeat until
  // completed" loop), starting from a descent's level-0 result `start`
  // with its movedown stack. With `overwrite`, a key found present in
  // the locked leaf has its value replaced in the same critical section
  // (the Upsert semantics) instead of returning AlreadyExists. The
  // caller holds an epoch guard and has counted the logical op.
  Status InsertCommit(Key key, Value value, PageId start,
                      std::vector<PageId>* stack, bool overwrite);

  // Fault-tolerant optimistic page read for the lock-free descents: the
  // one place a faulted read (ReadGuard::faulted) is retried, up to
  // kFetchRetryLimit times (sagiv_tree.cc) with exponential backoff
  // (kFetchRetries per retry, kFetchGiveups on exhaustion); a corrupt
  // page (DataLoss) is not retried. A guard that is still faulted on
  // return means the caller surfaces its fault(); an unfaulted one may
  // still be torn (unstable or failing Validate), and the caller
  // re-reads. The fast path stays inline: it runs once per node visited.
  PageManager::ReadGuard FetchPage(PageId id) const {
    PageManager::ReadGuard g = pager_->OptimisticRead(id);
    if (g.faulted()) RetryFaultedFetch(id, &g);
    return g;
  }
  void RetryFaultedFetch(PageId id, PageManager::ReadGuard* g) const;

  // Lock the live node at `level` in whose range `key` falls, starting
  // the moveright from `start`, WITHOUT copying its page. Contention-aware
  // acquisition: a bounded TryLockSpin first; if the lock stays contended
  // through the spin budget, the routing decision is re-checked
  // optimistically from the live image (the holder may be splitting this
  // very node) and only a node that still looks like the target is
  // waited for with a parking Lock. The locked inspection reads through
  // NodeView + PeekLocked validation, because a stale page can be reused
  // (zeroed and rewritten) underneath even a lock holder; once an image
  // validates as the live target, the lock alone pins it, so on success
  // *live points at the live image and plain (non-atomic) reads of it
  // are safe until Unlock. A peek that keeps tearing past a file-local
  // bound unlocks and restarts from the root (StatId::kInplaceFallbacks).
  // `stack` (may be null) is refreshed by restarts; `wait_for_level` is
  // passed to their descents.
  Result<PageId> AcquireTargetInPlace(Key key, uint32_t level, PageId start,
                                      std::vector<PageId>* stack,
                                      int* restarts, const Node** live,
                                      bool wait_for_level = true) const;

  // The insertion finishers of Fig. 6. Either completes the logical insert
  // or prepares (sep, new_child) for the next level. All unlock `page_id`
  // before returning.
  struct AscentState {
    bool completed = false;
    Key sep = 0;            // separator to post one level up
    PageId new_child = kInvalidPageId;
  };
  // The split finishers: `page` is a private copy of the locked `page_id`.
  Status InsertIntoUnsafe(Page* page, PageId page_id, Key key,
                          uint64_t down_ptr, AscentState* st);
  Status InsertIntoUnsafeRoot(Page* page, PageId page_id, Key key,
                              uint64_t down_ptr, AscentState* st);

  // The no-split finisher (requires a lock obtained via
  // AcquireTargetInPlace): seqlock odd, apply the entry edit to the live
  // page through relaxed atomic stores, seqlock even, unlock. One node
  // access (PageManager::BeginWrite) instead of a get + put.
  void InsertIntoSafeInPlace(PageId page_id, Key key, uint64_t down_ptr,
                             AscentState* st);

  // Apply the pair insertion to a node image: a leaf insert at level 0, a
  // child-split post above.
  static void ApplyInsert(Node* node, Key key, uint64_t down_ptr);

  // Tail-biased split point (0 = midpoint) for a post-ApplyInsert node;
  // see the definition for the bias rule.
  uint32_t TailSplitKeep(const Node* node, Key key) const;

  // Recovery helper: rebuild size_ (and sanity-check reachability) by
  // walking the level-0 link chain of a freshly recovered tree. Runs
  // before any concurrency exists; fault evaluation is suppressed.
  void RecoverSizeFromLeaves();

  TreeOptions options_;
  Status init_status_;

  std::unique_ptr<StatsCollector> stats_;
  std::unique_ptr<EpochManager> epoch_;
  std::unique_ptr<FileStore> file_store_;  // before pager_: outlives it
  std::unique_ptr<PageManager> pager_;
  bool recovered_ = false;
  PrimeBlock prime_;

  // From here on, the fields a mutation writes or an append reads: every
  // insert bumps size_, and every append reads the hints below and may
  // raise max_key_hint_. They share one cache line of their own, so a
  // write moves that one line and never invalidates the read-mostly
  // fields above (prime_ is read by every descent).
  alignas(64) std::atomic<CompressionQueue*> queue_;
  std::atomic<uint64_t> size_;

  // Append fast-path hints (see TryAppendFast). rightmost_hint_ is
  // refreshed by descents and rightmost-leaf splits; max_key_hint_ only
  // ever rises (a deleted max leaves it stale-high, which merely keeps
  // the fast path off until a larger key arrives).
  std::atomic<PageId> rightmost_hint_;
  std::atomic<Key> max_key_hint_;
  // Frontier-split publication epoch (seqlock parity protocol, but over
  // the TREE's rightmost frontier rather than a page). A split of the
  // rightmost leaf bumps this odd before the new right node B's
  // initializing put and even again after the left node's link-publishing
  // put (InsertIntoUnsafe / InsertIntoUnsafeRoot). TryAppendFast misses
  // whenever the epoch is odd or moved across its locked validation:
  // B's image is live-looking (leaf, nil link, +inf high) from its first
  // put, yet unreachable until the link lands — and page reuse can hand a
  // stale rightmost_hint_ exactly that page id, so the paper lock alone
  // cannot rule the window out. The epoch can, without a second lock:
  // any validation that observes B's image inside the window also
  // observes an odd-or-advanced epoch (B's put carries the odd bump via
  // its release/acquire page write). Insertions therefore still hold at
  // most one lock, the paper's Section 3 claim.
  std::atomic<uint64_t> frontier_seq_;
};

}  // namespace obtree

#endif  // OBTREE_CORE_SAGIV_TREE_H_
