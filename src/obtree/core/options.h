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
  /// them (N frames of PageManager::FrameStride(NodeBytes(capacity()))
  /// bytes, 1984 B at k = 60, plus PageManager::kFrameSlack frames; each
  /// page also has 16 bytes of metadata). Above the budget, a CLOCK sweep
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
    return tree.Validate();
  }
};

}  // namespace obtree

#endif  // OBTREE_CORE_OPTIONS_H_
