// Copyright 2026 The obtree Authors.
//
// ShardedMap: a key-range-partitioned front-end over N independent
// SagivTree shards. A single tree serializes contending updaters on hot
// nodes and funnels every descent through one root; sharding splits the
// key space into contiguous ranges, each served by its own tree with its
// own locks, page manager, and compression deployment, so disjoint-range
// operations never touch shared mutable state.
//
//   [1, W] [W+1, 2W] ... [(N-1)W+1, +inf)        W = key_space_hint / N
//      |        |               |
//   shard 0  shard 1  ...    shard N-1           (each a ConcurrentMap:
//                                                 SagivTree + compressors)
//
// The partition is fixed at construction: a map holds num_shards trees
// and their lower bounds for its whole life. A point operation
// binary-searches the lower bounds and goes to exactly one shard. Range
// scans visit only the shards whose ranges intersect [lo, hi], in shard
// order; because the partition is ordered, concatenating per-shard
// results yields globally ascending keys without a heap merge. Stats and
// TreeShape aggregate across shards. The surface is the point operations
// plus Scan; a batch of keys is a loop over them, each routed on its own.
//
//   obtree::ShardOptions options;
//   options.num_shards = 8;
//   options.key_space_hint = 10'000'000;   // expected key range
//   obtree::ShardedMap map(options);
//   map.Insert(42, handle);

#ifndef OBTREE_API_SHARDED_MAP_H_
#define OBTREE_API_SHARDED_MAP_H_

#include <functional>
#include <memory>
#include <vector>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/options.h"
#include "obtree/util/common.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"

namespace obtree {

class BackgroundPool;
struct TreeShape;

/// Thread-safe ordered map, partitioned across independent tree shards.
class ShardedMap {
 public:
  explicit ShardedMap(const ShardOptions& options = ShardOptions());
  ~ShardedMap();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(ShardedMap);

  /// Construction status (InvalidArgument if options were rejected; the
  /// map then degrades to the default ShardOptions topology).
  const Status& init_status() const { return init_status_; }

  /// Insert a new key. AlreadyExists if present.
  Status Insert(Key key, Value value);

  /// Point lookup. Lock-free within the owning shard.
  Result<Value> Get(Key key) const;

  /// Remove a key. NotFound if absent.
  Status Erase(Key key);

  /// Insert-or-replace, atomic within the owning shard (the shard runs
  /// ConcurrentMap::Upsert — one descent, presence check and overwrite in
  /// the same locked critical section).
  Status Upsert(Key key, Value value);

  /// Tree-style aliases: Search IS Get and Delete IS Erase, with
  /// identical semantics and costs. They exist for the duck-typed
  /// workload driver and SagivTree-vocabulary callers; new code should
  /// prefer Get/Erase.
  Result<Value> Search(Key key) const { return Get(key); }
  Status Delete(Key key) { return Erase(key); }

  /// Visit pairs with lo <= key <= hi in globally ascending order,
  /// traversing only the shards whose ranges intersect [lo, hi]. The
  /// visitor returns false to stop; no later shard is then touched.
  /// Returns pairs visited. Within a shard the contract is
  /// ConcurrentMap::Scan's: each delivered chunk is a validated snapshot
  /// of its leaf, and a torn leaf resumes after the last delivered key.
  size_t Scan(Key lo, Key hi,
              const std::function<bool(Key, Value)>& visitor) const;

  /// Total keys across shards.
  uint64_t Size() const;
  /// True when every shard is empty.
  bool Empty() const { return Size() == 0; }

  /// Tallest shard height (levels).
  uint32_t Height() const;

  /// Run every shard's compression to a fixpoint (blocks the caller).
  void CompressNow();

  // --- persistence (options.tree.storage_dir) -----------------------------
  //
  // With a storage_dir, shard i persists into <storage_dir>/shard-<i>.

  /// Checkpoint every shard in turn (ConcurrentMap::Checkpoint per
  /// shard). Returns the first failure. Each shard's checkpoint is
  /// individually atomic; the map-level guarantee is per-key — every
  /// operation that returned before this call started is captured.
  Status Checkpoint();

  /// True when any shard recovered from a committed checkpoint.
  bool recovered_from_checkpoint() const;

  /// Operation counters summed across shards; max_locks_held is the max.
  StatsSnapshot Stats() const;

  /// Counters of the shared background-maintenance pool: rounds, tasks
  /// drained, restructures, idle ratio. Empty (threads == 0) with
  /// compression off. The per-shard split is in each shard's
  /// pool_tasks_drained tree counter.
  PoolStatsSnapshot PoolStats() const;

  /// Structural statistics aggregated across shards: heights max,
  /// node/key counts sum, per-level node counts sum element-wise,
  /// avg_leaf_fill weighted by each shard's leaf count.
  TreeShape Shape() const;

  /// Full structural validation of every shard, each under
  /// ConcurrentMap::ValidateStructure's contract: background maintenance
  /// is paused around the audit, but foreground writers must be
  /// quiescent. Returns the first shard failure, annotated with the shard
  /// index.
  Status ValidateStructure() const;

  // --- sharding introspection (tests, benches) ---------------------------

  /// Number of key-range partitions: options.num_shards, fixed for the
  /// map's life.
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// The shard whose range contains `key`.
  uint32_t ShardIndex(Key key) const {
    return static_cast<uint32_t>(RouteIndex(key));
  }

  /// Smallest key routed to `shard` (its range is
  /// [ShardLowerBound(s), ShardLowerBound(s+1) - 1], unbounded above for
  /// the last shard).
  Key ShardLowerBound(uint32_t shard) const { return shards_[shard].lo; }

  /// Direct access to one shard's map / tree (benchmarks, validation).
  ConcurrentMap* shard(uint32_t i) { return shards_[i].map.get(); }
  const ConcurrentMap* shard(uint32_t i) const { return shards_[i].map.get(); }

  /// The shared maintenance pool, or nullptr with compression off.
  BackgroundPool* pool() const { return pool_.get(); }

  /// Background maintenance workers serving this map: the shared pool's
  /// fixed size, independent of num_shards (0 with compression off).
  int background_thread_count() const;

  const ShardOptions& options() const { return options_; }

 private:
  /// One shard: the smallest key it serves and its tree. Every operation
  /// reads these rows, so each fills a cache line of its own and no field
  /// another thread writes (a neighbouring heap object, such as the pool's
  /// mutex) can share their lines.
  struct alignas(64) Shard {
    Key lo;
    std::unique_ptr<ConcurrentMap> map;
  };

  /// Index of the last shard whose lower bound is <= key (always exists:
  /// shards_[0].lo == 1, and keys below it route to shard 0).
  size_t RouteIndex(Key key) const;

  /// The rows of options_'s partition: num_shards equal ranges over
  /// [1, key_space_hint], each with a ConcurrentMap attached to pool_.
  std::vector<Shard> MakeShards() const;

  Status init_status_;
  ShardOptions options_;  ///< as given, or the defaults if rejected
  /// Declared before the shards so it is destroyed after them: each
  /// shard's destructor detaches itself from the (still-live) pool.
  std::unique_ptr<BackgroundPool> pool_;
  /// Sorted by lo; shard i serves keys in [shards_[i].lo,
  /// shards_[i + 1].lo). Built once by the constructor.
  const std::vector<Shard> shards_;
};

}  // namespace obtree

#endif  // OBTREE_API_SHARDED_MAP_H_
