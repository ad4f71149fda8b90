// Copyright 2026 The obtree Authors.
//
// Sharded operation counters. These drive the paper's quantitative claims:
// how many locks an operation acquires, the maximum number of locks a
// process holds simultaneously (1 for Sagiv insertions vs. up to 3 for
// Lehman-Yao), how often searches follow links or restart, and how much
// restructuring the compressors perform.

#ifndef OBTREE_UTIL_STATS_H_
#define OBTREE_UTIL_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obtree/util/common.h"
#include "obtree/util/histogram.h"

namespace obtree {

/// Identifiers for the counters a tree maintains.
///
/// Attribution rules (who increments what, and on which tree):
///   * Physical counters (kGets/kPuts/kLocks*/kInplace*/kWriteBytes*)
///     count PAGE-LAYER events and accrue on the tree that owns the page,
///     regardless of which thread — user op, compressor, or pool worker —
///     touched it.
///   * Logical counters (kSearches/kInserts/kDeletes, kBatchOps) count one
///     per USER-LEVEL call on the tree the call was routed to, before the
///     operation runs — a restarted or failed op still counts once, never
///     twice. An Upsert counts as one kInserts either way.
///   * Outcome pairs (kAppendFastHits/kAppendFastMisses,
///     kOptimisticValidations/kOptimisticRetries, kFetchRetries/
///     kFetchGiveups) are disjoint: one attempt increments exactly one
///     side, so rates are hits / (hits + misses) with no double counting.
///     A fast-path miss also proceeds down the normal path, where it may
///     increment that path's counters — misses are not failures.
///   * A ShardedMap's Stats() sums its shards' counters.
enum class StatId : int {
  kGets = 0,             ///< page reads (the paper's get)
  kPuts,                 ///< page writes (the paper's put)
  kLocksAcquired,        ///< paper-lock acquisitions
  kLocksContended,       ///< acquisitions that found the paper lock
                         ///< held (the spin/park slow path ran)
  kLockParks,            ///< contended acquisitions that exhausted the
                         ///< spin budget and slept (futex park) at
                         ///< least once before acquiring
  kLinkFollows,          ///< moveright steps through link pointers
  kRestarts,             ///< operations restarted from the root (total)
  kRestartsStaleNode,    ///< restarts: routed to a node whose level or key
                         ///< range no longer matches (reused page or data
                         ///< moved left by compression, §5.2 case (2))
  kRestartsRightmostStale,  ///< restarts: a node claiming to be rightmost
                            ///< (nil link) no longer covers the key
  kRestartsMissingMergeTarget,  ///< restarts: deleted node with no merge
                                ///< pointer yet (§5.1 window)
  kOptimisticValidations,  ///< optimistic in-place reads validated clean
  kOptimisticRetries,    ///< optimistic reads discarded (version moved or
                         ///< a put was in flight) and re-attempted
  kOptimisticFallbacks,  ///< always 0: nothing counts it; kept because
                         ///< perfbench/src/common.cc reads it
  kInplaceWrites,        ///< no-split mutations applied to the live page
                         ///< under the seqlock (PageManager::BeginWrite);
                         ///< splits, which rewrite their node in place
                         ///< too, count kSplits instead
  kInplaceFallbacks,     ///< locked peeks that kept tearing past their
                         ///< retry bound (racing page reuse) and gave the
                         ///< lock back: the write restarted from the root,
                         ///< or the append fast path missed
  kWriteBytesInplace,    ///< bytes stored by in-place mutations
  kWriteBytesCopied,     ///< bytes stored by splits on the insert path:
                         ///< the new node's live prefix, the split
                         ///< node's rewritten words, and a new root's
                         ///< prefix (no page is copied out)
  kAppendFastHits,       ///< inserts completed by the rightmost fast path
                         ///< (options().append_leaves): descent skipped,
                         ///< key appended to the hinted rightmost leaf
  kAppendFastMisses,     ///< fast-path attempts whose locked validation
                         ///< failed (hint stale: leaf split, merged away,
                         ///< page reused, or leaf full) — the insert then
                         ///< took the normal descent, whose counters it
                         ///< increments as usual
  kMergePointerFollows,  ///< deleted node hops recovered via merge pointer
  kSplits,               ///< node splits (tail-biased ones included)
  kTailSplits,           ///< the subset of kSplits that were tail-biased
                         ///< (rightmost node, max-extending key: the old
                         ///< node keeps all but one entry)
  kMerges,               ///< compression merges (B absorbed into A)
  kRedistributions,      ///< compression redistributions
  kNodesRetired,         ///< nodes marked deleted
  kNodesReclaimed,       ///< retired nodes whose pages were released
  kRootCreations,        ///< new roots created by insertions
  kRootCollapses,        ///< root removals by compression
  kCompressWaits,        ///< compress-level "wait for two in F" events
  kQueueEnqueues,        ///< compression queue pushes
  kQueueRequeues,        ///< nodes put back on the queue
  kQueueDiscards,        ///< queue entries discarded as stale
  kPoolTasksDrained,     ///< queue entries (or scan passes that found
                         ///< work) a BackgroundPool worker ran for this
                         ///< tree; monotone across Detach, so a pool's
                         ///< drains can be read per tree
  kFaultsInjected,       ///< faults fired into this tree's page layer by
                         ///< the FaultInjector (errors only; stalls are
                         ///< invisible here)
  kFetchRetries,         ///< page fetches re-issued after an Unavailable
                         ///< result (bounded retry-with-backoff)
  kFetchGiveups,         ///< fetches that exhausted the retry budget and
                         ///< surfaced Unavailable to the operation
  kSearches,             ///< logical search operations
  kInserts,              ///< logical insert operations
  kDeletes,              ///< logical delete operations
  kBatchOps,             ///< keys read through ConcurrentMap::MultiGet
                         ///< (each counts once, on top of its kSearches)
  kBatchPagesCoalesced,  ///< always 0: nothing counts it (a batch is a
                         ///< loop of single ops and shares no page
                         ///< reads); kept because perfbench/src/common.cc
                         ///< reads it
  kStoreReads,           ///< page images faulted into the arena from the
                         ///< FileStore (pread + verify)
  kStoreWrites,          ///< page images staged to the FileStore: dirty
                         ///< evictions plus checkpoint flushes
  kPagesEvicted,         ///< resident pages the buffer-pool clock evicted
                         ///< to stay within TreeOptions::buffer_pool_pages
  kCheckpoints,          ///< successful Checkpoint() barriers (manifest
                         ///< committed)
  kRecoveries,           ///< trees rebuilt from a committed checkpoint at
                         ///< construction
  kNumStats,
};

inline constexpr int kNumStatIds = static_cast<int>(StatId::kNumStats);

/// Human-readable name of a counter.
const char* StatName(StatId id);

/// Point-in-time copy of all counters plus the lock-depth high-water mark.
struct StatsSnapshot {
  std::array<uint64_t, kNumStatIds> counters{};
  uint64_t max_locks_held = 0;

  uint64_t Get(StatId id) const {
    return counters[static_cast<size_t>(id)];
  }

  /// Difference between this snapshot and an earlier one.
  StatsSnapshot Delta(const StatsSnapshot& earlier) const;

  /// Multi-line rendering of the non-zero counters.
  std::string ToString() const;
};

/// Point-in-time counters of a BackgroundPool: how much a machine-sized
/// worker set did. Every field is a cumulative count since the pool
/// started, monotone non-decreasing while the pool lives (Stop freezes
/// them). The per-shard split lives in each tree's own counters
/// (StatId::kPoolTasksDrained), which survive Detach.
struct PoolStatsSnapshot {
  int threads = 0;             ///< workers the pool runs (0 = no pool)
  uint64_t rounds = 0;         ///< scheduling rounds across all workers
  uint64_t tasks_drained = 0;  ///< queue entries processed (all outcomes)
                               ///< plus scan passes that found work
  uint64_t restructures = 0;   ///< merges/redistributions/root collapses
  uint64_t idle_sleeps = 0;    ///< rounds that found no work and slept

  /// Fraction of scheduling rounds that went to sleep instead of working.
  double IdleRatio() const {
    return rounds > 0
               ? static_cast<double>(idle_sleeps) / static_cast<double>(rounds)
               : 0.0;
  }

  /// One-line rendering of the counters.
  std::string ToString() const;
};

/// Thread-safe sharded counter set. Increments are relaxed atomics on the
/// calling thread's shard (its ThisThreadIndex() modulo kShards, so the
/// first kShards threads each own one); reads sum all shards.
class StatsCollector {
 public:
  StatsCollector();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(StatsCollector);

  /// Add `n` to counter `id`.
  void Add(StatId id, uint64_t n = 1);

  /// Raise the lock-depth high-water mark to at least `depth`.
  void RecordLockDepth(uint64_t depth);

  /// Record the wall time (ns) a contended paper-lock acquisition spent
  /// waiting — spin and park included. Uncontended acquisitions record
  /// nothing (the hot path never reads a clock).
  void RecordLockWait(uint64_t ns) { lock_wait_ns_.Add(ns); }

  /// Point-in-time copy of the lock-wait histogram (p50/p99/max of the
  /// contended-acquisition wait times, in ns).
  Histogram LockWaitHistogram() const { return lock_wait_ns_.Snapshot(); }

  /// Record the fill percentage (entries * 100 / capacity) of the LEFT
  /// node of a leaf split — the node the split frontier just retired. A
  /// midpoint split records ~50, a tail-biased split ~100, so this
  /// histogram is the live view of steady-state leaf fill that
  /// TreeShape's offline walk confirms.
  void RecordLeafFill(uint64_t pct) { leaf_fill_pct_.Add(pct); }

  /// Point-in-time copy of the leaf-fill histogram (percent, 0-100).
  Histogram LeafFillHistogram() const { return leaf_fill_pct_.Snapshot(); }

  /// Sum of counter `id` across shards.
  uint64_t Get(StatId id) const;

  uint64_t max_locks_held() const {
    return max_locks_held_.load(std::memory_order_relaxed);
  }

  StatsSnapshot Snapshot() const;

  /// Zero every counter (not linearizable w.r.t. concurrent increments;
  /// intended for use between benchmark phases).
  void Reset();

 private:
  static constexpr int kShards = 64;

  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumStatIds> counters{};
  };

  static int ShardIndex();

  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> max_locks_held_;
  AtomicHistogram lock_wait_ns_;
  AtomicHistogram leaf_fill_pct_;
};

}  // namespace obtree

#endif  // OBTREE_UTIL_STATS_H_
