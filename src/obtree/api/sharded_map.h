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
// Every map routes through a routing table of shard lower bounds: a point
// operation binary-searches it and goes to exactly one shard. Range scans
// visit only the shards whose ranges intersect [lo, hi], in shard order;
// because the partition is ordered, concatenating per-shard results
// yields globally ascending keys without a heap merge. Stats and
// TreeShape aggregate across shards.
//
// With options.rebalance.enabled the partition becomes DYNAMIC: a
// ShardRebalancer thread watches per-shard load (op counters, paper-lock
// contention, BackgroundPool drain/boost rates), splits hot shards and
// merges cold neighbors by migrating boundary key ranges under live
// traffic. It publishes each new partition by swapping the table, so
// operations on such a map pin a routing epoch while they hold a table
// snapshot; a map without a rebalancer never replaces its table and skips
// the pin. During a migration, operations on the moving range run a
// donor-first double lookup so every interleaving stays correct. The full
// protocol, its invariants, and the operator playbook are in
// docs/REBALANCING.md.
//
//   obtree::ShardOptions options;
//   options.num_shards = 8;
//   options.key_space_hint = 10'000'000;   // expected key range
//   obtree::ShardedMap map(options);
//   map.Insert(42, handle);

#ifndef OBTREE_API_SHARDED_MAP_H_
#define OBTREE_API_SHARDED_MAP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/options.h"
#include "obtree/core/shard_rebalancer.h"
#include "obtree/util/common.h"
#include "obtree/util/epoch.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"

namespace obtree {

class BackgroundPool;
struct TreeShape;

/// Thread-safe ordered map, partitioned across independent tree shards.
class ShardedMap : private ShardRebalancer::Host {
 public:
  explicit ShardedMap(const ShardOptions& options = ShardOptions());
  ~ShardedMap() override;
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
  /// the same locked critical section). Keys inside a migration's
  /// unsettled zone fall back to a dual-zone erase+insert that is NOT
  /// atomic (a reader may briefly observe the key absent); the fallback
  /// is bounded to the migration window.
  Status Upsert(Key key, Value value);

  /// Tree-style aliases: Search IS Get and Delete IS Erase, with
  /// identical semantics and costs. They exist for the duck-typed
  /// workload driver and SagivTree-vocabulary callers; new code should
  /// prefer Get/Erase.
  Result<Value> Search(Key key) const { return Get(key); }
  Status Delete(Key key) { return Erase(key); }

  // --- batched operations ---------------------------------------------------
  //
  // Each Multi* call is a loop over this map's own single-op calls, in
  // submission order. Every op routes on its own and, on a rebalancing map,
  // takes its own routing-epoch pin, so a concurrent table swap waits for
  // at most one op of a batch; a key in a migration's unsettled zone runs
  // the dual-lookup protocol exactly as a single call does. Results,
  // costs and counters are those of the same calls made one by one, plus
  // one kBatchOps per op (counted on the map, not on a shard).

  /// Batched Get: result.values[i] corresponds to keys[i].
  BatchResult MultiGet(const std::vector<Key>& keys) const;

  /// Batched Insert: result.statuses[i] as Insert(keys[i], values[i]).
  /// keys and values must be the same length (else every status is
  /// InvalidArgument).
  BatchResult MultiInsert(const std::vector<Key>& keys,
                          const std::vector<Value>& values);

  /// Batched Erase: result.statuses[i] as Erase(keys[i]).
  BatchResult MultiErase(const std::vector<Key>& keys);

  /// Batched Upsert: result.statuses[i] as Upsert(keys[i], values[i]).
  /// Same length requirement as MultiInsert.
  BatchResult MultiUpsert(const std::vector<Key>& keys,
                          const std::vector<Value>& values);

  /// Visit pairs with lo <= key <= hi in globally ascending order,
  /// traversing only the shards whose ranges intersect [lo, hi]. The
  /// visitor returns false to stop; no later shard is then touched.
  /// Returns pairs visited. Within a shard the contract is
  /// ConcurrentMap::Scan's: each delivered chunk is a validated snapshot
  /// of its leaf, and a torn leaf resumes after the last delivered key.
  /// During a migration the moving range is served by a chunked two-way
  /// merge of donor and receiver (see docs/REBALANCING.md for the
  /// consistency contract of scans that overlap an in-flight batch).
  size_t Scan(Key lo, Key hi,
              const std::function<bool(Key, Value)>& visitor) const;

  /// Collect up to `limit` pairs starting at `from` (pagination helper).
  std::vector<std::pair<Key, Value>> ScanLimit(Key from, size_t limit) const;

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
  // Persistence requires a STATIC topology: ShardOptions::Validate
  // rejects rebalance.enabled combined with storage_dir (there is no
  // cross-shard checkpoint barrier, so a migration concurrent with a
  // checkpoint could be captured on neither side).

  /// Checkpoint every shard in turn (ConcurrentMap::Checkpoint per
  /// shard). Returns the first failure. Each shard's checkpoint is
  /// individually atomic; the map-level guarantee is per-key — every
  /// operation that returned before this call started is captured.
  Status Checkpoint();

  /// True when any shard recovered from a committed checkpoint.
  bool recovered_from_checkpoint() const;

  /// Operation counters summed across shards; max_locks_held is the max.
  /// Sums over every tree the map has EVER created — including donors
  /// retired by a merge — so all counters stay monotone across
  /// rebalancing actions.
  StatsSnapshot Stats() const;

  /// Counters of the shared background-maintenance pool: tasks drained,
  /// boost/steal counts, idle ratio. Empty (threads == 0) with
  /// compression off. The per-shard split is in each shard's
  /// pool_tasks_drained / pool_boosts tree counters.
  PoolStatsSnapshot PoolStats() const;

  /// Structural statistics aggregated across shards: heights max,
  /// node/key counts sum, per-level node counts sum element-wise,
  /// avg_leaf_fill weighted by each shard's leaf count.
  TreeShape Shape() const;

  /// Full structural validation of every shard (quiescent only). Returns
  /// the first shard failure, annotated with the shard index.
  Status ValidateStructure() const;

  // --- sharding introspection (tests, benches, rebalancing tools) --------

  /// Number of key-range partitions this map serves. Fixed at
  /// options.num_shards unless rebalancing is enabled, in which case it
  /// moves within [rebalance.min_shards, rebalance.max_shards].
  uint32_t num_shards() const {
    return static_cast<uint32_t>(table()->entries.size());
  }

  /// The shard whose range contains `key` (index into the CURRENT
  /// partition; stale the moment a rebalance swaps the table).
  uint32_t ShardIndex(Key key) const;

  /// Smallest key routed to `shard` (its range is
  /// [ShardLowerBound(s), ShardLowerBound(s+1) - 1], unbounded above for
  /// the last shard).
  Key ShardLowerBound(uint32_t shard) const {
    return table()->entries[shard].lo;
  }

  /// Direct access to one shard's map / tree (benchmarks, validation).
  ConcurrentMap* shard(uint32_t i) { return table()->entries[i].tree; }
  const ConcurrentMap* shard(uint32_t i) const {
    return table()->entries[i].tree;
  }

  /// The shared maintenance pool, or nullptr with compression off.
  BackgroundPool* pool() const { return pool_.get(); }

  /// The rebalancing controller, or nullptr unless
  /// options.rebalance.enabled (tests drive TickForTest through this).
  ShardRebalancer* rebalancer() const { return rebalancer_.get(); }

  /// The most recent migration failure (OK if none yet). Set when a
  /// migration aborts after exhausting its batch retries or deadline and
  /// rolls back; operators poll this next to Stats()'s
  /// migration_aborts / rebalance_breaker_trips counters.
  Status LastRebalanceError() const {
    std::lock_guard<std::mutex> lk(last_error_mu_);
    return last_rebalance_error_;
  }

  /// Background maintenance workers serving this map: the shared pool's
  /// fixed size, independent of num_shards (0 with compression off).
  int background_thread_count() const;

  const ShardOptions& options() const { return options_; }

  // --- test hooks ---------------------------------------------------------

  /// Called from the migration thread at named points ("table-swap",
  /// "batch-begin", "key-moved", "batch-end") with the key involved.
  /// Tests use it to freeze a migration mid-window and race operations
  /// against it. Must be installed BEFORE any migration starts and may
  /// block; never called when unset. Not for production use.
  using MigrationHook = std::function<void(const char* point, Key key)>;
  void SetMigrationHookForTest(MigrationHook hook);

  /// Force one split/merge synchronously, bypassing the controller policy
  /// (but not the mechanism: same migration protocol, same table swap).
  /// Requires rebalancing to be enabled; returns false when the action is
  /// structurally impossible or the migration aborted. Tests only.
  bool DebugSplitShard(uint32_t index) {
    return SplitShard(index) == ShardRebalancer::ActionResult::kOk;
  }
  bool DebugMergeShards(uint32_t left) {
    return MergeShards(left) == ShardRebalancer::ActionResult::kOk;
  }

 private:
  /// One in-flight (or completed) key-range migration. Readers hold raw
  /// pointers to these from routing-table snapshots, so migrations are
  /// never freed before the map itself (migrations_ graveyard).
  ///
  /// State, in publication order (see docs/REBALANCING.md §3):
  ///   keys in [lo, drained_below)          moved; receiver authoritative
  ///   keys in [batch_lo, batch_hi], seq odd  in flight; wait out the batch
  ///   remaining keys in [lo, hi]           still in the donor
  struct ShardMigration {
    Key lo = 0;                         ///< migrating range, inclusive
    Key hi = 0;
    ConcurrentMap* donor = nullptr;     ///< keys drain OUT of this tree
    ConcurrentMap* receiver = nullptr;  ///< ... INTO this tree
    /// Keys below this are fully migrated (monotone; starts at lo).
    std::atomic<Key> drained_below{0};
    /// Seqlock over the in-flight batch: odd while the migrator is
    /// between "removed from donor" and "batch fully inserted into
    /// receiver" for the keys in [batch_lo, batch_hi].
    std::atomic<uint64_t> batch_seq{0};
    std::atomic<Key> batch_lo{0};
    std::atomic<Key> batch_hi{0};
    /// Set once the whole range has drained; the entry's tree (the
    /// receiver) is then authoritative for every key.
    std::atomic<bool> done{false};
    /// Keys actually moved donor -> receiver (rollback accounting).
    std::atomic<uint64_t> keys_moved{0};
  };

  /// One row of the routing table: keys in [lo, next row's lo) are served
  /// by `tree`. While `mig` is set (and not done), `tree` is the
  /// migration's receiver and operations run the donor-first double
  /// lookup instead of a plain single-tree call.
  struct RouteEntry {
    Key lo = 1;
    ConcurrentMap* tree = nullptr;
    ShardMigration* mig = nullptr;
  };

  /// Immutable once published. Swapped atomically; superseded tables are
  /// retired to tables_ and freed only at map destruction, so a reader
  /// may dereference a stale snapshot indefinitely.
  struct RoutingTable {
    std::vector<RouteEntry> entries;  ///< sorted by lo; entries[0].lo == 1
  };

  using ActionResult = ShardRebalancer::ActionResult;

  // ShardRebalancer::Host (controller thread; serialized by admin_mu_).
  std::vector<ShardLoad> SnapshotLoads() override;
  ActionResult SplitShard(size_t index) override;
  ActionResult MergeShards(size_t left) override;

  /// seq_cst: on a rebalancing map this load follows the Guard's pin, the
  /// load half of the pin's store-then-load pair that PublishTable's grace
  /// period relies on. On x86 it is a plain load, as acquire would be.
  const RoutingTable* table() const {
    return table_.load(std::memory_order_seq_cst);
  }

  /// Last entry with entry.lo <= key (always exists: entries[0].lo == 1).
  static const RouteEntry& Route(const RoutingTable* t, Key key);
  static size_t RouteIndex(const RoutingTable* t, Key key);

  /// The current table, pinned into `pin` on a rebalancing map for as long
  /// as the caller keeps `pin`. A map without a rebalancer never replaces
  /// its table, so its operations leave `pin` empty.
  const RoutingTable* PinTable(std::optional<EpochManager::Guard>* pin) const;

  /// Scan body over one table snapshot (from PinTable).
  size_t ScanTable(const RoutingTable* t, Key lo, Key hi,
                   const std::function<bool(Key, Value)>& visitor) const;

  /// True when `key` no longer needs the double lookup: no migration, the
  /// migration finished, or the key's prefix has fully drained.
  static bool Settled(const ShardMigration* mig, Key key);

  /// Spin-yield while an in-flight migration batch covers `key` (counted
  /// as StatId::kMigrationRetries on the donor when it actually waited).
  static void WaitOutBatch(const ShardMigration* mig, Key key);

  // Double-lookup protocols for keys in a migration's unsettled zone
  // (correctness argument per interleaving: docs/REBALANCING.md §4).
  Result<Value> DualGet(const RouteEntry& e, Key key) const;
  Status DualInsert(const RouteEntry& e, Key key, Value value);
  Status DualErase(const RouteEntry& e, Key key);
  Status DualUpsert(const RouteEntry& e, Key key, Value value);

  /// Chunked ascending merge of donor + receiver over [lo, hi] for scans
  /// crossing a live migration. Returns false if the visitor stopped.
  bool ScanMergedRange(const ShardMigration* mig, Key lo, Key hi,
                       const std::function<bool(Key, Value)>& visitor,
                       size_t* visited) const;

  /// Publish a new routing table (admin_mu_ held). With wait_grace, block
  /// until every operation that may have routed through a previous table
  /// has finished — after it returns, all traffic sees the new topology.
  void PublishTable(std::unique_ptr<RoutingTable> next, bool wait_grace);

  /// Drain mig's range donor -> receiver in batches (admin_mu_ held).
  /// Self-healing: each batch has a bounded retry budget with backoff,
  /// the whole migration a wall-clock deadline. Returns false if it
  /// aborted instead of draining — the caller must then roll back
  /// (docs/REBALANCING.md §10). On abort, `drained_below` is never past a
  /// key that failed to move, so invariant I1 still holds.
  bool RunMigration(ShardMigration* mig);

  /// Land an in-hand key (already removed from the donor, batch window
  /// open): receiver first, exempt from fault injection after a few
  /// honored attempts, donor as the last resort. Returns true if it
  /// landed in the receiver, false if it fell back into the donor.
  static bool LandKey(ShardMigration* mig, Key key, Value value);

  /// Allocate the reversed migration used by an abort rollback: keys
  /// drain back out of `aborted`'s receiver into its donor over the full
  /// original range (admin_mu_ held).
  ShardMigration* MakeRollback(const ShardMigration* aborted);

  void SetLastRebalanceError(Status s) {
    std::lock_guard<std::mutex> lk(last_error_mu_);
    last_rebalance_error_ = std::move(s);
  }

  /// Build a ConcurrentMap with this map's per-shard options.
  std::unique_ptr<ConcurrentMap> MakeTree();

  /// Distinct live trees: every routing-table tree plus the donors of
  /// unfinished migrations (table snapshot passed in by the caller).
  std::vector<ConcurrentMap*> LiveTrees(const RoutingTable* t) const;

  void FireHook(const char* point, Key key);

  ShardOptions options_;
  Status init_status_;
  bool dynamic_ = false;  ///< rebalancing on: table_ swaps, ops pin
  /// Declared before the tree graveyard so it is destroyed after them:
  /// each tree's destructor detaches itself from the (still-live) pool.
  std::unique_ptr<BackgroundPool> pool_;
  /// Every tree ever created, live or retired (merge donors). Guarded by
  /// trees_mu_ for mutation + whole-vector reads; elements are never
  /// removed before destruction.
  mutable std::mutex trees_mu_;
  std::vector<std::unique_ptr<ConcurrentMap>> trees_;
  /// Every routing table ever published (the current one is tables_.back()
  /// at rest) and every migration ever run. Readers hold raw pointers
  /// into these from table snapshots; freed only on destruction.
  std::vector<std::unique_ptr<RoutingTable>> tables_;
  std::vector<std::unique_ptr<ShardMigration>> migrations_;
  std::atomic<RoutingTable*> table_{nullptr};
  /// Map-level grace-period clock: on a rebalancing map every operation
  /// pins a Guard while it may hold a routing-table snapshot, and
  /// PublishTable waits until all pre-swap pins release.
  mutable EpochManager table_epoch_;
  /// Serializes topology changes: controller actions and Debug* calls.
  std::mutex admin_mu_;
  MigrationHook migration_hook_;
  mutable std::mutex last_error_mu_;
  Status last_rebalance_error_;
  /// kBatchOps of this map's Multi* calls, summed into Stats().
  mutable std::atomic<uint64_t> batch_ops_{0};
  /// Declared last so it is destroyed FIRST: its destructor joins the
  /// controller thread before any state it steers goes away.
  std::unique_ptr<ShardRebalancer> rebalancer_;
};

}  // namespace obtree

#endif  // OBTREE_API_SHARDED_MAP_H_
