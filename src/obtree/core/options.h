// Copyright 2026 The obtree Authors.
//
// Tunables shared by the Sagiv tree, its compressors, and the baselines.
// Only the choices a caller makes are options: the node order k, the
// append path, persistence and the buffer pool. Restart, retry and lock
// bounds are constants of the code that uses them.

#ifndef OBTREE_CORE_OPTIONS_H_
#define OBTREE_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "obtree/node/node.h"
#include "obtree/util/status.h"

namespace obtree {

/// How a map keeps nodes at least half full (Section 5).
enum class CompressionMode {
  /// No compression: deletions never restructure (the Lehman-Yao
  /// behavior the paper improves on).
  kNone,
  /// One background process periodically sweeps the whole tree
  /// (Sections 5.1-5.2).
  kBackgroundScan,
  /// Deletions enqueue under-full nodes; worker threads drain a shared
  /// queue (Section 5.4, deployment (2); one worker = deployment (1)).
  kQueueWorkers,
};

/// Configuration of a tree instance.
struct TreeOptions {
  /// The paper's k: every node (except the root) holds between k and 2k
  /// entries. Must satisfy 2 <= k <= kMaxMinEntries (2k+1 entries must fit
  /// a page during a split-with-insert). k = 1 is rejected: our uniform
  /// node layout gives internal nodes 2k children (the paper's layout
  /// gives them 2k+1), and 2-children internal nodes degenerate under
  /// monotone insertion patterns.
  uint32_t min_entries = 60;

  /// When true (default), the tree optimizes the monotonic-insert pattern
  /// (auto-increment IDs, timestamps) two ways. (1) Rightmost fast path:
  /// an insert whose key exceeds the tree's current max skips the full
  /// descent — it locks a cached rightmost-leaf hint, validates under the
  /// lock that the node is still the live rightmost leaf (nil link,
  /// high = +inf) and that the key extends its max, and appends in place
  /// (Node::AppendLeafEntryInPlace: no tail shift, count published last
  /// under the usual seqlock bracketing). A stale hint — the leaf split,
  /// was merged away, or its page was reused — simply fails validation
  /// and the insert falls back to the normal descent, which refreshes the
  /// hint (StatId::kAppendFastHits / kAppendFastMisses). (2) Tail-biased
  /// splits: when the splitting node is the rightmost of its level and
  /// the incoming key is its new max, the split keeps all but the last
  /// entry on the left instead of half (StatId::kTailSplits), lifting
  /// steady-state leaf fill from ~50% to ~100% on monotonic load (the
  /// rightmost node of a level is exempt from the half-full invariant, so
  /// the near-empty new node is legal and fills with the next appends).
  /// Uniform and mixed workloads are unaffected: the fast path only arms
  /// for max-extending keys and the split bias only for rightmost nodes.
  bool append_leaves = true;

  /// Persistence: when non-empty, the tree's pages are backed by a
  /// FileStore rooted at this directory (created if absent).
  /// Construction recovers the newest committed checkpoint if the
  /// directory holds one; Checkpoint() becomes available (see
  /// docs/PERSISTENCE.md). Empty (the default) keeps the tree purely in
  /// memory: pages live only in the PageManager's frame arena.
  std::string storage_dir;

  /// Buffer-pool budget for a persistent tree: the number of page images
  /// kept resident in RAM, and so the size of the frame arena that holds
  /// them (N frames of 4 KiB + 64 B, plus PageManager::kFrameSlack
  /// frames; each page also has 16 bytes of metadata). Above the budget, a CLOCK sweep
  /// evicts pages not accessed since its last pass (staging dirty ones to
  /// the store) and reuses their frames; later accesses fault them back
  /// in (StatId::kPagesEvicted / kStoreReads). 0 = every page stays
  /// resident (no eviction). Ignored without storage_dir.
  /// When non-zero, values below 64 are rejected: the working set of one
  /// descent (root-to-leaf path + split spine) must fit with slack or
  /// the pool thrashes pathologically.
  uint32_t buffer_pool_pages = 0;

  /// Largest admissible k: 2k+1 entries must fit a page mid-split.
  static constexpr uint32_t kMaxMinEntries = (Node::kMaxEntries - 1) / 2;

  /// Node capacity (2k).
  uint32_t capacity() const { return 2 * min_entries; }

  /// Validate option values.
  Status Validate() const {
    if (min_entries < 2 || min_entries > kMaxMinEntries) {
      return Status::InvalidArgument("min_entries out of range");
    }
    if (buffer_pool_pages != 0 && buffer_pool_pages < 64) {
      return Status::InvalidArgument(
          "buffer_pool_pages must be 0 (unbounded) or >= 64");
    }
    return Status::OK();
  }
};

/// Configuration of the online shard rebalancer (core/shard_rebalancer.h,
/// protocol and tuning playbook in docs/REBALANCING.md). The rebalancer
/// periodically snapshots per-shard load — logical op counters, paper-lock
/// contention, and BackgroundPool drain/boost rates — computes a hotness
/// score per shard, and migrates boundary key ranges under live traffic:
/// a hot shard is split (its upper half drains into a fresh tree), cold
/// adjacent shards are merged (the right tree drains into the left).
struct RebalanceOptions {
  /// Master switch. Off by default: the partition stays exactly as
  /// construction laid it out and ShardedMap adds zero routing overhead.
  /// On, every operation additionally pins a map-level epoch slot
  /// (~two CAS per op) so boundary swaps can wait out in-flight ops.
  bool enabled = false;

  /// Controller period in milliseconds: how often loads are snapshotted
  /// and at most one split/merge decision is taken. Shorter periods react
  /// faster but amplify sampling noise; see docs/REBALANCING.md for
  /// tuning guidance.
  uint32_t period_ms = 50;

  /// A shard is hot when its share of the period's operations exceeds
  /// hotness_threshold times the fair share (1/num_shards). 2.0 means
  /// "twice the traffic a balanced partition would give it". Must be
  /// > 1.0 or every shard of a balanced map would qualify.
  double hotness_threshold = 2.0;

  /// Two ADJACENT shards are cold — and merged — when their combined
  /// share of the period's operations is below cold_threshold times one
  /// fair share. Keep cold_threshold * hotness_threshold well below 2.0
  /// (i.e. a just-split pair must not immediately re-merge) or the
  /// controller can oscillate; Validate() enforces the safe ordering.
  double cold_threshold = 0.5;

  /// Bounds on the number of key-range partitions the controller may
  /// create or coalesce. Splits stop at max_shards, merges at
  /// min_shards. max_shards does NOT bound memory: every tree a split
  /// creates or a merge retires, and every superseded routing table and
  /// migration, lives until the map is destroyed, so a controller that
  /// keeps splitting and merging grows the map's memory without bound
  /// (ROADMAP.md, "A rebalancing map's memory is bounded by its live
  /// shards").
  uint32_t min_shards = 1;
  uint32_t max_shards = 64;

  /// Periods whose total operation delta falls below this are ignored
  /// (no split/merge): an idle or barely-used map must not be
  /// restructured on sampling noise.
  uint64_t min_ops_per_period = 2048;

  /// Keys a shard must hold before it is worth splitting (draining a
  /// nearly-empty hot shard moves contention, not data, and the split
  /// would churn the routing table for nothing).
  uint64_t min_keys_to_split = 512;

  /// Keys moved per migration batch. Each batch opens the migration's
  /// in-flight window (batch epoch) once; concurrent ops landing on the
  /// batch's key range wait it out (kMigrationRetries). Larger batches
  /// amortize scan cost but widen the window a racing op can wait on.
  uint32_t migration_batch = 256;

  /// Periods the controller stays quiet after a split or merge. The
  /// first quiet period also re-baselines the load snapshot, so the
  /// migration's own inserts/deletes never feed the next hotness score.
  uint32_t cooldown_periods = 2;

  /// Self-healing: consecutive failed batches a migration tolerates
  /// (each retried with backoff from the same scan position) before the
  /// whole migration aborts and rolls back to the donor.
  uint32_t migration_retry_limit = 3;

  /// Circuit breaker: after this many CONSECUTIVE failed split/merge
  /// actions (a failure = migration aborted + rolled back; a skipped
  /// action — e.g. nothing to merge — does not count) the controller
  /// stops attempting actions entirely.
  uint32_t max_consecutive_failures = 3;

  /// Periods the tripped breaker stays open before re-arming (half-open:
  /// the next action's outcome decides whether it trips again).
  uint32_t breaker_cooldown_periods = 16;

  Status Validate() const {
    if (period_ms == 0) {
      return Status::InvalidArgument("rebalance period_ms must be positive");
    }
    if (hotness_threshold <= 1.0) {
      return Status::InvalidArgument("hotness_threshold must exceed 1.0");
    }
    if (cold_threshold < 0.0 || cold_threshold * hotness_threshold >= 2.0) {
      return Status::InvalidArgument(
          "cold_threshold must be >= 0 and cold_threshold * "
          "hotness_threshold < 2 (anti-oscillation)");
    }
    if (min_shards < 1 || max_shards < min_shards) {
      return Status::InvalidArgument(
          "need 1 <= min_shards <= max_shards");
    }
    if (migration_batch < 1) {
      return Status::InvalidArgument("migration_batch must be positive");
    }
    if (max_consecutive_failures < 1) {
      return Status::InvalidArgument(
          "max_consecutive_failures must be positive");
    }
    return Status::OK();
  }
};

/// Configuration of a ShardedMap: a key-range-partitioned front-end over
/// `num_shards` independent trees (see api/sharded_map.h).
struct ShardOptions {
  /// Tunables applied to every shard's tree.
  TreeOptions tree;

  /// Number of key-space partitions. Must be a power of two in
  /// [1, kMaxShards]; each shard is an independent SagivTree with its own
  /// locks, pager, and compression deployment.
  uint32_t num_shards = 4;

  /// Upper bound of the expected user key range. The key space
  /// [1, key_space_hint] is split into num_shards equal contiguous
  /// ranges; keys above the hint route to the last shard (correct but
  /// unbalanced), so size the hint to the workload's key space.
  Key key_space_hint = 1u << 20;

  /// Compression deployment replicated per shard.
  CompressionMode compression = CompressionMode::kQueueWorkers;

  /// Size of the one background-maintenance pool that drains every
  /// shard's compression queue (core/background_pool.h); ignored for
  /// kNone. 0 (the default) derives the size from the machine: the
  /// OBTREE_POOL_THREADS environment variable if set, else a
  /// hardware_concurrency-based share. The pool keeps the process's
  /// background-thread count fixed no matter how many shards exist.
  int pool_threads = 0;

  /// Online shard rebalancing (default off). When enabled, num_shards is
  /// only the INITIAL partition: the rebalancer splits hot shards and
  /// merges cold neighbors at runtime, within
  /// [rebalance.min_shards, rebalance.max_shards].
  RebalanceOptions rebalance;

  static constexpr uint32_t kMaxShards = 1u << 10;

  /// Validate option values (shard count and hint; TreeOptions are
  /// validated by each shard's tree).
  Status Validate() const {
    if (num_shards < 1 || num_shards > kMaxShards ||
        (num_shards & (num_shards - 1)) != 0) {
      return Status::InvalidArgument(
          "num_shards must be a power of two in [1, kMaxShards]");
    }
    if (key_space_hint < num_shards) {
      return Status::InvalidArgument("key_space_hint smaller than shards");
    }
    if (pool_threads < 0) {
      return Status::InvalidArgument("pool_threads must be >= 0 (0 = auto)");
    }
    if (rebalance.enabled) {
      Status s = rebalance.Validate();
      if (!s.ok()) return s;
      if (num_shards > rebalance.max_shards) {
        return Status::InvalidArgument(
            "num_shards exceeds rebalance.max_shards");
      }
      if (!tree.storage_dir.empty()) {
        // A rebalance migration moves keys between shard trees with no
        // cross-shard checkpoint barrier, so per-shard manifests could
        // commit a key in two shards (or neither). Until checkpoints
        // span shards atomically, the combination is rejected.
        return Status::InvalidArgument(
            "rebalancing cannot be combined with storage_dir persistence");
      }
    }
    return tree.Validate();
  }
};

}  // namespace obtree

#endif  // OBTREE_CORE_OPTIONS_H_
