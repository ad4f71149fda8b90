// Copyright 2026 The obtree Authors.
//
// ShardRebalancer: the online controller half of shard rebalancing
// (protocol and tuning playbook in docs/REBALANCING.md). Once per period
// it snapshots per-shard load through the Host interface — logical op
// counters, paper-lock contention, and BackgroundPool drain/boost rates —
// scores each shard against the fair share, and asks the host to split
// the hottest shard or merge the coldest adjacent pair. The host (in
// practice api/sharded_map.h) owns the actual key migration; this class
// owns only the policy and the low-rate controller thread, so it lives in
// the core layer with no dependency on the api layer above it.
//
// The controller takes AT MOST ONE action per period, and every action is
// followed by cooldown_periods of enforced quiet during which the load
// baseline is re-taken — the migration's own inserts and deletes
// therefore never feed the next hotness score.

#ifndef OBTREE_CORE_SHARD_REBALANCER_H_
#define OBTREE_CORE_SHARD_REBALANCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obtree/core/options.h"
#include "obtree/util/common.h"

namespace obtree {

/// One shard's load sample, as returned by Host::SnapshotLoads(). All
/// counter fields are cumulative (the controller diffs consecutive
/// snapshots); `keys` is a point-in-time size.
struct ShardLoad {
  /// Stable identity of the backing tree. Consecutive snapshots are
  /// joined on this, so a shard keeps its history across table swaps; a
  /// sample whose id has no baseline entry (a tree the controller has
  /// never seen) makes the whole period observe-only.
  const void* id = nullptr;
  uint64_t ops = 0;          ///< logical searches + inserts + deletes
  uint64_t contention = 0;   ///< paper-lock contended acquisitions
  uint64_t pool_drains = 0;  ///< BackgroundPool tasks drained for the shard
                             ///< (the tree's kPoolTasksDrained)
  uint64_t pool_boosts = 0;  ///< off-turn pool picks (depth boost / steal;
                             ///< the tree's kPoolBoosts)
  uint64_t keys = 0;         ///< keys currently stored
};

/// Periodic split/merge controller (see file comment).
class ShardRebalancer {
 public:
  /// How one host action ended. The distinction between kSkipped and
  /// kFailed drives the circuit breaker: a skip ("not possible right
  /// now" — range of width one, at max_shards) is benign and resets
  /// nothing, while a failure (a migration that started and had to be
  /// aborted/rolled back) counts toward tripping the breaker.
  enum class ActionResult { kOk, kSkipped, kFailed };

  /// What the controller needs from the sharded map it steers. Calls
  /// arrive on the controller thread (or from TickForTest), one at a
  /// time, never concurrently with each other.
  class Host {
   public:
    virtual ~Host() = default;

    /// Current per-shard loads, in routing-table order (index adjacency
    /// is key-range adjacency — the merge decision relies on it).
    virtual std::vector<ShardLoad> SnapshotLoads() = 0;

    /// Split shard `index` by migrating its upper half into a fresh
    /// tree. Synchronous: returns after the migration completes (or
    /// aborts). kSkipped if the split is not currently possible; the
    /// controller just waits for the next period.
    virtual ActionResult SplitShard(size_t index) = 0;

    /// Merge shard `left + 1` into shard `left` (the right tree drains
    /// into the left). Synchronous; kSkipped if not currently possible.
    virtual ActionResult MergeShards(size_t left) = 0;
  };

  /// Neither starts the thread (call Start) nor validates options — the
  /// owner is expected to have run RebalanceOptions::Validate().
  ShardRebalancer(Host* host, const RebalanceOptions& options);

  /// Equivalent to Stop().
  ~ShardRebalancer();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(ShardRebalancer);

  /// Spawn the controller thread (one Tick per period_ms). Idempotent.
  void Start();

  /// Stop and join the controller thread. Idempotent; returns with no
  /// Tick in flight, so the host may tear down.
  void Stop();

  /// Run exactly one controller evaluation synchronously (deterministic
  /// tests drive the policy with this instead of Start()). Safe alongside
  /// the periodic thread — ticks are serialized internally.
  void TickForTest() { Tick(); }

  // Lifetime action counters (policy introspection; the per-tree
  // StatId::kRebalanceSplits/kRebalanceMerges counters are maintained by
  // the host's migration code, not here).
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }
  uint64_t periods() const {
    return periods_.load(std::memory_order_relaxed);
  }

  // Degradation introspection (see the breaker state machine in
  // docs/ARCHITECTURE.md). failed_actions counts host actions that
  // returned kFailed; breaker_trips counts closed->open transitions.
  uint64_t failed_actions() const {
    return failed_actions_.load(std::memory_order_relaxed);
  }
  uint64_t breaker_trips() const {
    return breaker_trips_.load(std::memory_order_relaxed);
  }
  /// True while the breaker refuses actions (observe-only ticks).
  bool breaker_open() const {
    return breaker_open_flag_.load(std::memory_order_relaxed);
  }

 private:
  void RunLoop();
  void Tick();
  /// Apply one action result to the breaker state. Returns result so the
  /// call nests around the host call. Caller holds tick_mu_.
  ActionResult NoteAction(ActionResult result);

  Host* const host_;
  const RebalanceOptions options_;

  std::mutex tick_mu_;  ///< serializes Tick (thread vs. TickForTest)
  /// Previous snapshot keyed by ShardLoad::id. Cleared after every
  /// split/merge so the next period is observe-only.
  std::unordered_map<const void*, ShardLoad> baseline_;
  uint32_t cooldown_ = 0;  ///< periods left before acting again

  // Circuit breaker (all under tick_mu_). Closed: act normally, counting
  // consecutive kFailed results. Open: act on nothing for
  // kBreakerCooldownPeriods ticks. Half-open: one probe action is
  // allowed; kFailed re-trips immediately, kOk closes the breaker.
  uint32_t consecutive_failures_ = 0;
  bool breaker_open_ = false;
  bool half_open_ = false;
  uint32_t breaker_reopen_in_ = 0;

  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> periods_{0};
  std::atomic<uint64_t> failed_actions_{0};
  std::atomic<uint64_t> breaker_trips_{0};
  std::atomic<bool> breaker_open_flag_{false};  ///< lock-free mirror

  std::mutex mu_;  ///< guards stop_ for the cv wait
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace obtree

#endif  // OBTREE_CORE_SHARD_REBALANCER_H_
