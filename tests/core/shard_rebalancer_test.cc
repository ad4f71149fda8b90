// Copyright 2026 The obtree Authors.
//
// Online shard rebalancing: controller policy (split hot / merge cold),
// the live-migration protocol's mid-window interleavings (driven through
// the migration test hook), and an 8-thread churn stress that doubles as
// the TSan race check for the routing-table swap and dual-lookup paths.

#include "obtree/core/shard_rebalancer.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "obtree/api/sharded_map.h"
#include "obtree/core/background_pool.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

// A rebalancing-enabled config whose controller thread is effectively
// parked (one-hour period): tests drive policy deterministically through
// TickForTest and mechanism through DebugSplitShard/DebugMergeShards.
ShardOptions RebalancingShards(uint32_t num_shards, Key key_space_hint) {
  ShardOptions opt;
  opt.num_shards = num_shards;
  opt.key_space_hint = key_space_hint;
  opt.compression = CompressionMode::kNone;
  opt.tree.min_entries = 3;
  opt.rebalance.enabled = true;
  opt.rebalance.period_ms = 3'600'000;
  opt.rebalance.min_shards = 1;
  opt.rebalance.max_shards = 16;
  opt.rebalance.min_ops_per_period = 100;
  opt.rebalance.min_keys_to_split = 10;
  opt.rebalance.cooldown_periods = 0;
  return opt;
}

void FillRange(ShardedMap* map, Key lo, Key hi) {
  for (Key k = lo; k <= hi; ++k) {
    ASSERT_TRUE(map->Insert(k, k * 10).ok()) << k;
  }
}

void ExpectAllPresent(const ShardedMap& map, Key lo, Key hi) {
  for (Key k = lo; k <= hi; ++k) {
    Result<Value> r = map.Get(k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, k * 10) << k;
  }
  Key prev = 0;
  size_t count = 0;
  map.Scan(lo, hi, [&](Key k, Value v) {
    EXPECT_GT(k, prev);
    EXPECT_EQ(v, k * 10);
    prev = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, hi - lo + 1);
}

TEST(RebalanceOptionsTest, Validation) {
  RebalanceOptions opt;
  EXPECT_TRUE(opt.Validate().ok());
  opt.period_ms = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RebalanceOptions();
  opt.hotness_threshold = 1.0;  // every balanced shard would qualify
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RebalanceOptions();
  opt.hotness_threshold = 3.0;
  opt.cold_threshold = 0.7;  // 3.0 * 0.7 >= 2: a split could re-merge
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RebalanceOptions();
  opt.min_shards = 8;
  opt.max_shards = 4;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RebalanceOptions();
  opt.migration_batch = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());

  // ShardOptions only accepts an initial shard count the rebalancer may
  // legally keep.
  ShardOptions sharded;
  sharded.rebalance.enabled = true;
  sharded.rebalance.max_shards = 2;
  sharded.num_shards = 4;
  EXPECT_TRUE(sharded.Validate().IsInvalidArgument());
}

TEST(ShardRebalancerTest, DisabledMapsHaveNoControllerAndRefuseDebugActions) {
  ShardOptions opt;
  opt.num_shards = 2;
  opt.key_space_hint = 400;
  opt.compression = CompressionMode::kNone;
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  EXPECT_EQ(map.rebalancer(), nullptr);
  EXPECT_FALSE(map.DebugSplitShard(0));
  EXPECT_FALSE(map.DebugMergeShards(0));
  EXPECT_EQ(map.num_shards(), 2u);
}

TEST(ShardRebalancerTest, ManualSplitMigratesUpperHalf) {
  ShardedMap map(RebalancingShards(2, 400));
  ASSERT_TRUE(map.init_status().ok());
  FillRange(&map, 1, 200);  // all in shard 0 ([1, 200])

  ASSERT_TRUE(map.DebugSplitShard(0));
  EXPECT_EQ(map.num_shards(), 3u);
  // Median split of 1..200: the new shard starts at 101.
  EXPECT_EQ(map.ShardLowerBound(0), 1u);
  EXPECT_EQ(map.ShardLowerBound(1), 101u);
  EXPECT_EQ(map.ShardLowerBound(2), 201u);
  EXPECT_EQ(map.ShardIndex(100), 0u);
  EXPECT_EQ(map.ShardIndex(101), 1u);
  EXPECT_EQ(map.shard(0)->Size(), 100u);
  EXPECT_EQ(map.shard(1)->Size(), 100u);

  ExpectAllPresent(map, 1, 200);
  EXPECT_EQ(map.Size(), 200u);
  EXPECT_TRUE(map.ValidateStructure().ok());

  const StatsSnapshot stats = map.Stats();
  EXPECT_EQ(stats.Get(StatId::kRebalanceSplits), 1u);
  EXPECT_EQ(stats.Get(StatId::kKeysMigrated), 100u);

  // Routing still works for fresh traffic on both sides of the new
  // boundary.
  ASSERT_TRUE(map.Insert(350, 3500).ok());
  EXPECT_EQ(*map.Get(350), 3500u);
  EXPECT_TRUE(map.Insert(150, 1).IsAlreadyExists());
}

TEST(ShardRebalancerTest, ManualMergeDrainsRightIntoLeft) {
  ShardedMap map(RebalancingShards(4, 400));
  ASSERT_TRUE(map.init_status().ok());
  FillRange(&map, 1, 400);

  ASSERT_TRUE(map.DebugMergeShards(0));  // [101, 200] drains into shard 0
  EXPECT_EQ(map.num_shards(), 3u);
  EXPECT_EQ(map.ShardLowerBound(0), 1u);
  EXPECT_EQ(map.ShardLowerBound(1), 201u);
  EXPECT_EQ(map.shard(0)->Size(), 200u);

  ExpectAllPresent(map, 1, 400);
  EXPECT_EQ(map.Size(), 400u);
  EXPECT_TRUE(map.ValidateStructure().ok());

  const StatsSnapshot stats = map.Stats();
  EXPECT_EQ(stats.Get(StatId::kRebalanceMerges), 1u);
  EXPECT_EQ(stats.Get(StatId::kKeysMigrated), 100u);
}

TEST(ShardRebalancerTest, SplitThenMergeRoundTripKeepsEveryKey) {
  ShardedMap map(RebalancingShards(2, 400));
  FillRange(&map, 1, 200);
  ASSERT_TRUE(map.DebugSplitShard(0));
  ASSERT_TRUE(map.DebugMergeShards(0));
  EXPECT_EQ(map.num_shards(), 2u);
  ExpectAllPresent(map, 1, 200);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

TEST(ShardRebalancerTest, SplitRefusedOnEmptyOrUnsplittableShards) {
  ShardedMap map(RebalancingShards(2, 400));
  EXPECT_FALSE(map.DebugSplitShard(0));  // empty shard
  EXPECT_FALSE(map.DebugSplitShard(7));  // no such shard
  ASSERT_TRUE(map.Insert(5, 50).ok());
  EXPECT_FALSE(map.DebugSplitShard(0));  // one key cannot split
}

TEST(ShardRebalancerTest, SplitTreesJoinTheSharedPool) {
  ShardOptions opt = RebalancingShards(2, 400);
  opt.compression = CompressionMode::kQueueWorkers;
  opt.pool_threads = 2;
  opt.tree.min_entries = 3;
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  ASSERT_NE(map.pool(), nullptr);
  EXPECT_EQ(map.pool()->num_sources(), 2u);
  FillRange(&map, 1, 200);
  ASSERT_TRUE(map.DebugSplitShard(0));
  // The receiver attached itself to the pool; the thread count is still
  // the pool's fixed size.
  EXPECT_EQ(map.pool()->num_sources(), 3u);
  EXPECT_EQ(map.background_thread_count(), 2);
  // A merge retires the donor FROM the pool (Quiesce).
  ASSERT_TRUE(map.DebugMergeShards(0));
  EXPECT_EQ(map.pool()->num_sources(), 2u);
  ExpectAllPresent(map, 1, 200);
}

// Policy: a hotspot shard's op share exceeds the threshold -> the
// controller splits it. Driven deterministically through TickForTest (the
// controller thread itself is parked on a one-hour period).
TEST(ShardRebalancerTest, ControllerSplitsTheHotShard) {
  ShardOptions opt = RebalancingShards(2, 10'000);
  opt.rebalance.hotness_threshold = 1.5;
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  ASSERT_NE(map.rebalancer(), nullptr);
  for (Key k = 1; k <= 10'000; k += 10) {
    ASSERT_TRUE(map.Insert(k, k * 10).ok());
  }

  map.rebalancer()->TickForTest();  // first tick only baselines
  EXPECT_EQ(map.rebalancer()->splits(), 0u);

  // Hammer shard 0's range ([1, 5000]).
  for (int i = 0; i < 5000; ++i) {
    map.Get(static_cast<Key>(1 + (i * 7) % 5000));
  }
  map.rebalancer()->TickForTest();
  EXPECT_EQ(map.rebalancer()->splits(), 1u);
  EXPECT_EQ(map.num_shards(), 3u);
  // The split halves shard 0's keys, not its key range blindly.
  EXPECT_GT(map.ShardLowerBound(1), 1u);
  EXPECT_LE(map.ShardLowerBound(1), 5001u);
  EXPECT_EQ(map.Size(), 1000u);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

// Policy: an adjacent pair with (almost) no traffic merges once nothing
// is hot enough to split.
TEST(ShardRebalancerTest, ControllerMergesTheColdPair) {
  ShardOptions opt = RebalancingShards(4, 400);
  opt.rebalance.hotness_threshold = 50.0;     // block splits...
  opt.rebalance.cold_threshold = 0.03;        // ... 50 * 0.03 < 2
  opt.rebalance.min_keys_to_split = 1 << 30;  // ... doubly so
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  FillRange(&map, 1, 400);

  map.rebalancer()->TickForTest();  // baseline
  for (int i = 0; i < 3000; ++i) {
    map.Get(static_cast<Key>(201 + (i * 13) % 200));  // shards 2 and 3 only
  }
  map.rebalancer()->TickForTest();
  EXPECT_EQ(map.rebalancer()->merges(), 1u);
  EXPECT_EQ(map.num_shards(), 3u);
  ExpectAllPresent(map, 1, 400);
}

// A shard's pool load must stay monotone when the shard leaves the pool
// (Quiesce): a load that dropped to zero would wrap the next tick's
// unsigned drain delta to ~1.8e19 and make the controller split a shard
// that is no hotter than its peers.
TEST(ShardRebalancerTest, QuiescedShardIsNotScoredHot) {
  ShardOptions opt = RebalancingShards(4, 4000);
  opt.compression = CompressionMode::kQueueWorkers;
  opt.pool_threads = 2;
  opt.tree.min_entries = 2;
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  FillRange(&map, 1, 4000);

  // Churn shard 0 ([1, 1000]) until the pool has drained work for it.
  ConcurrentMap* shard0 = map.shard(0);
  auto drained = [&]() {
    return shard0->Stats().Get(StatId::kPoolTasksDrained);
  };
  for (int round = 0; round < 100 && drained() == 0; ++round) {
    for (Key k = 1; k <= 1000; ++k) {
      if (k % 10 != 0) (void)map.Erase(k);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (Key k = 1; k <= 1000; ++k) (void)map.Insert(k, k * 10);
  }
  ASSERT_GT(drained(), 0u);
  testutil::WaitForStableCounter(drained,
                                 [&]() { return shard0->queue()->Empty(); });
  map.rebalancer()->TickForTest();  // baseline
  EXPECT_EQ(map.rebalancer()->splits(), 0u);

  shard0->Quiesce();
  for (int pass = 0; pass < 2; ++pass) {
    for (Key k = 1; k <= 4000; ++k) ASSERT_TRUE(map.Get(k).ok()) << k;
  }
  map.rebalancer()->TickForTest();
  EXPECT_EQ(map.rebalancer()->splits(), 0u);
  EXPECT_EQ(map.num_shards(), 4u);
  ExpectAllPresent(map, 1, 4000);
}

// Mechanism: freeze the migrator INSIDE the batch window, right after a
// key left the donor and before it reached the receiver, and race
// operations against the frozen migration.
TEST(ShardRebalancerTest, OperationsInTheDoubleLookupWindow) {
  ShardOptions opt = RebalancingShards(2, 400);
  opt.rebalance.migration_batch = 8;  // small in-flight window
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  FillRange(&map, 1, 200);

  std::mutex mu;
  std::condition_variable cv;
  bool frozen = false;
  bool released = false;
  bool fired_once = false;
  Key moved_key = 0;
  map.SetMigrationHookForTest([&](const char* point, Key k) {
    if (std::strcmp(point, "key-moved") != 0) return;
    std::unique_lock<std::mutex> lk(mu);
    if (fired_once) return;
    fired_once = true;
    moved_key = k;
    frozen = true;
    cv.notify_all();
    cv.wait(lk, [&]() { return released; });
  });

  std::thread splitter([&]() { ASSERT_TRUE(map.DebugSplitShard(0)); });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&]() { return frozen; });
  }
  // Migration of [101, 200] is frozen: moved_key (the median, 101) is in
  // NEITHER tree right now, and the batch window [101, 108] is open.
  EXPECT_EQ(moved_key, 101u);

  // A search for the in-flight key must WAIT the window out — it cannot
  // report NotFound for a key that logically exists.
  std::atomic<bool> got_value{false};
  std::thread searcher([&]() {
    Result<Value> r = map.Get(moved_key);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, moved_key * 10);
    got_value.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(got_value.load());  // still parked in the window

  // Keys still in the donor stay fully operational mid-migration: reads
  // hit, duplicate inserts refuse — no waiting.
  EXPECT_EQ(*map.Get(150), 1500u);
  EXPECT_TRUE(map.Insert(150, 1).IsAlreadyExists());
  // And so do keys of the untouched lower half and the other shard.
  EXPECT_EQ(*map.Get(50), 500u);
  ASSERT_TRUE(map.Insert(300, 3000).ok());

  // A scan overlapping the frozen window terminates (bounded retries) and
  // stays strictly ascending; the one in-flight key may be skipped.
  Key prev = 0;
  size_t scanned = 0;
  map.Scan(1, 200, [&](Key k, Value v) {
    EXPECT_GT(k, prev);
    EXPECT_EQ(v, k * 10);
    prev = k;
    ++scanned;
    return true;
  });
  EXPECT_GE(scanned, 199u);
  EXPECT_LE(scanned, 200u);

  {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
  }
  cv.notify_all();
  searcher.join();
  splitter.join();
  EXPECT_TRUE(got_value.load());
  // The waiting search was accounted as a migration retry on the donor.
  EXPECT_GE(map.Stats().Get(StatId::kMigrationRetries), 1u);

  ExpectAllPresent(map, 1, 200);
  EXPECT_EQ(*map.Get(300), 3000u);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

// Stress: 8 threads of hotspot-skewed churn (gets, inserts, erases,
// upserts, scans) while the controller splits and merges on a 2 ms
// period. Run under TSan in CI, this is the race check for the table
// swap, the epoch grace period, and every dual-lookup path. Correctness
// oracle: values always equal key * 10, scans are strictly ascending, and
// the final scan count equals Size().
TEST(ShardRebalancerStress, EightThreadChurnUnderLiveRebalancing) {
  ShardOptions opt;
  opt.num_shards = 2;
  opt.key_space_hint = 16'384;
  opt.compression = CompressionMode::kQueueWorkers;
  opt.pool_threads = 2;
  opt.tree.min_entries = 3;
  opt.rebalance.enabled = true;
  opt.rebalance.period_ms = 2;
  opt.rebalance.hotness_threshold = 1.5;
  opt.rebalance.cold_threshold = 0.4;
  opt.rebalance.min_shards = 1;
  opt.rebalance.max_shards = 16;
  opt.rebalance.min_ops_per_period = 256;
  opt.rebalance.min_keys_to_split = 64;
  opt.rebalance.migration_batch = 32;
  opt.rebalance.cooldown_periods = 1;
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  for (Key k = 2; k <= 16'384; k += 2) {
    ASSERT_TRUE(map.Insert(k, k * 10).ok());
  }

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10'000;
  std::atomic<uint64_t> value_mismatches{0};
  std::atomic<uint64_t> order_violations{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(0x5eed + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        // 90% of traffic on the first eighth of the key space: the
        // hotspot the controller is expected to split.
        const Key span = rng.Uniform(10) < 9 ? 2'048 : 16'384;
        const Key k = 1 + rng.Uniform(span);
        const uint32_t dice = rng.Uniform(100);
        if (dice < 50) {
          Result<Value> r = map.Get(k);
          if (r.ok() && *r != k * 10) value_mismatches.fetch_add(1);
        } else if (dice < 70) {
          map.Insert(k, k * 10);
        } else if (dice < 85) {
          map.Erase(k);
        } else if (dice < 95) {
          map.Upsert(k, k * 10);
        } else {
          Key prev = 0;
          map.Scan(k, k + 64, [&](Key sk, Value sv) {
            if (sk <= prev || sv != sk * 10) order_violations.fetch_add(1);
            prev = sk;
            return true;
          });
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Park the controller and detach every shard from the pool (blocks
  // until no worker is mid-rearrange) so the final checks run against a
  // quiescent map.
  map.rebalancer()->Stop();
  for (uint32_t i = 0; i < map.num_shards(); ++i) map.shard(i)->Quiesce();

  EXPECT_EQ(value_mismatches.load(), 0u);
  EXPECT_EQ(order_violations.load(), 0u);

  Key prev = 0;
  uint64_t scanned = 0;
  map.Scan(1, kMaxUserKey, [&](Key k, Value v) {
    EXPECT_GT(k, prev);
    EXPECT_EQ(v, k * 10);
    prev = k;
    ++scanned;
    return true;
  });
  EXPECT_EQ(scanned, map.Size());
  EXPECT_TRUE(map.ValidateStructure().ok());
  // The hotspot should have attracted at least one split.
  EXPECT_GE(map.rebalancer()->splits() + map.rebalancer()->merges(), 1u);
}

// --- self-healing: migration abort/rollback and the circuit breaker --------

class MigrationFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }
};

TEST_F(MigrationFaultTest, SplitAbortRollsBackToDonor) {
  // Every migration batch fails from the first one: the migration aborts
  // with zero keys moved and the topology snaps back to the donor.
  ShardedMap map(RebalancingShards(2, 400));
  ASSERT_TRUE(map.init_status().ok());
  FillRange(&map, 1, 200);

  FaultSpec fail;
  fail.action = FaultAction::kError;
  FaultInjector::Instance().Arm("migration-batch", fail);

  EXPECT_FALSE(map.DebugSplitShard(0));  // aborted, not skipped
  FaultInjector::Instance().DisarmAll();

  EXPECT_EQ(map.num_shards(), 2u);  // stillborn shard left the table
  EXPECT_EQ(map.shard(0)->Size(), 200u);
  ExpectAllPresent(map, 1, 200);
  EXPECT_TRUE(map.ValidateStructure().ok());
  EXPECT_GE(map.Stats().Get(StatId::kMigrationAborts), 1u);
  EXPECT_TRUE(map.LastRebalanceError().IsAborted());
}

TEST_F(MigrationFaultTest, MidMigrationAbortRollsMovedKeysBack) {
  // The first batch succeeds, then every later batch fails: the abort
  // happens with keys already in the receiver, and the rollback must
  // drain them back into the donor (counted as kMigrationRollbackKeys).
  ShardOptions opt = RebalancingShards(2, 400);
  opt.rebalance.migration_batch = 32;  // the 100-key upper half spans batches
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  FillRange(&map, 1, 200);

  map.SetMigrationHookForTest([](const char* point, Key) {
    if (std::strcmp(point, "batch-end") == 0 &&
        FaultInjector::Instance().ArmedSites().empty()) {
      FaultSpec fail;
      fail.action = FaultAction::kError;
      FaultInjector::Instance().Arm("migration-batch", fail);
    }
  });

  EXPECT_FALSE(map.DebugSplitShard(0));
  FaultInjector::Instance().DisarmAll();
  map.SetMigrationHookForTest(nullptr);

  EXPECT_EQ(map.num_shards(), 2u);
  EXPECT_EQ(map.shard(0)->Size(), 200u);  // every key back in the donor
  ExpectAllPresent(map, 1, 200);
  EXPECT_TRUE(map.ValidateStructure().ok());
  const StatsSnapshot stats = map.Stats();
  EXPECT_GE(stats.Get(StatId::kMigrationAborts), 1u);
  EXPECT_GE(stats.Get(StatId::kMigrationRollbackKeys), 1u);
  EXPECT_GE(stats.Get(StatId::kKeysMigrated), 1u);  // batch 1 did move
}

TEST_F(MigrationFaultTest, DegradedMapStillServesTraffic) {
  // Aborted rebalancing is degradation, not an outage: reads and writes
  // keep working against the rolled-back topology.
  ShardedMap map(RebalancingShards(2, 400));
  ASSERT_TRUE(map.init_status().ok());
  FillRange(&map, 1, 200);

  FaultSpec fail;
  fail.action = FaultAction::kError;
  FaultInjector::Instance().Arm("migration-batch", fail);
  EXPECT_FALSE(map.DebugSplitShard(0));
  FaultInjector::Instance().DisarmAll();

  for (Key k = 201; k <= 260; ++k) ASSERT_TRUE(map.Insert(k, k * 10).ok());
  for (Key k = 1; k <= 30; ++k) ASSERT_TRUE(map.Erase(k).ok());
  ExpectAllPresent(map, 31, 260);
  EXPECT_EQ(map.Size(), 230u);

  // And the NEXT split (faults cleared) succeeds on the same range.
  ASSERT_TRUE(map.DebugSplitShard(0));
  ExpectAllPresent(map, 31, 260);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

// Scripted host: returns a fixed hot-shard load pattern and a scripted
// sequence of action results, recording how often it was asked to act.
class ScriptedHost : public ShardRebalancer::Host {
 public:
  using ActionResult = ShardRebalancer::ActionResult;

  explicit ScriptedHost(ActionResult result) : result_(result) {}

  std::vector<ShardLoad> SnapshotLoads() override {
    // Cumulative counters: shard 0 gains 10'000 ops per period, shard 1
    // gains 100 — shard 0 is persistently hot and splittable.
    ops_ += 10'000;
    std::vector<ShardLoad> loads(2);
    loads[0].id = &hot_id_;
    loads[0].ops = ops_;
    loads[0].keys = 100'000;
    loads[1].id = &cold_id_;
    loads[1].ops = ops_ / 100;
    loads[1].keys = 100'000;
    return loads;
  }

  ActionResult SplitShard(size_t) override {
    ++actions_;
    return result_;
  }
  ActionResult MergeShards(size_t) override {
    ++actions_;
    return result_;
  }

  void set_result(ActionResult r) { result_ = r; }
  int actions() const { return actions_; }

 private:
  ActionResult result_;
  int actions_ = 0;
  uint64_t ops_ = 0;
  int hot_id_ = 0;
  int cold_id_ = 0;
};

// Breaker-test options: with only two shards the default hotness
// threshold (2.0) is unreachable (hot > 2 * fair means hot > hot + cold),
// so lower it; every post-baseline tick then decides "split shard 0".
RebalanceOptions BreakerOptions() {
  RebalanceOptions opt;
  opt.enabled = true;
  opt.hotness_threshold = 1.2;
  opt.cold_threshold = 0.5;  // 1.2 * 0.5 < 2: passes Validate
  opt.min_ops_per_period = 10;
  opt.min_keys_to_split = 10;
  opt.cooldown_periods = 0;
  return opt;
}

// The controller's breaker constants (shard_rebalancer.cc).
constexpr int kMaxConsecutiveFailures = 3;
constexpr int kBreakerCooldownPeriods = 16;

TEST(ShardRebalancerBreakerTest, TripsOpensAndRearmsHalfOpen) {
  using ActionResult = ShardRebalancer::ActionResult;
  const RebalanceOptions opt = BreakerOptions();
  ASSERT_TRUE(opt.Validate().ok());

  ScriptedHost host(ActionResult::kFailed);
  ShardRebalancer reb(&host, opt);

  // A failed action clears the baseline (rollback traffic must not feed
  // the next score), so every failure is followed by one observe-only
  // tick before the controller can act again.
  reb.TickForTest();  // no baseline yet, observe-only
  EXPECT_EQ(host.actions(), 0);
  for (int f = 1; f < kMaxConsecutiveFailures; ++f) {
    reb.TickForTest();  // failure f
    EXPECT_EQ(host.actions(), f);
    EXPECT_FALSE(reb.breaker_open()) << "failure " << f;
    reb.TickForTest();  // observe-only (baseline retaken)
    EXPECT_EQ(host.actions(), f);
  }
  reb.TickForTest();  // the last consecutive failure trips the breaker
  EXPECT_EQ(host.actions(), kMaxConsecutiveFailures);
  EXPECT_TRUE(reb.breaker_open());
  EXPECT_EQ(reb.breaker_trips(), 1u);
  EXPECT_EQ(reb.failed_actions(),
            static_cast<uint64_t>(kMaxConsecutiveFailures));

  // Open window: kBreakerCooldownPeriods ticks with no host actions.
  for (int i = 0; i < kBreakerCooldownPeriods; ++i) {
    reb.TickForTest();
    EXPECT_EQ(host.actions(), kMaxConsecutiveFailures) << "open tick " << i;
    EXPECT_TRUE(reb.breaker_open());
  }

  // Half-open probe fails -> re-trip on that single failure.
  reb.TickForTest();
  EXPECT_EQ(host.actions(), kMaxConsecutiveFailures + 1);
  EXPECT_TRUE(reb.breaker_open());
  EXPECT_EQ(reb.breaker_trips(), 2u);

  // Wait out the second open window, then let the probe succeed.
  for (int i = 0; i < kBreakerCooldownPeriods; ++i) reb.TickForTest();
  EXPECT_EQ(host.actions(), kMaxConsecutiveFailures + 1);
  host.set_result(ActionResult::kOk);
  reb.TickForTest();  // successful half-open probe -> closed
  EXPECT_EQ(host.actions(), kMaxConsecutiveFailures + 2);
  EXPECT_FALSE(reb.breaker_open());
  EXPECT_EQ(reb.splits() + reb.merges(), 1u);
  reb.TickForTest();  // observe-only (action cleared the baseline)
  reb.TickForTest();  // normal action, breaker stays closed
  EXPECT_EQ(host.actions(), kMaxConsecutiveFailures + 3);
  EXPECT_FALSE(reb.breaker_open());
  EXPECT_EQ(reb.breaker_trips(), 2u);
}

TEST(ShardRebalancerBreakerTest, SkippedActionsDoNotTrip) {
  using ActionResult = ShardRebalancer::ActionResult;
  const RebalanceOptions opt = BreakerOptions();
  ASSERT_TRUE(opt.Validate().ok());

  ScriptedHost host(ActionResult::kSkipped);
  ShardRebalancer reb(&host, opt);
  // kSkipped neither clears the baseline nor starts a cooldown, so every
  // tick after the first keeps trying (and none of them count as failures).
  for (int i = 0; i < 10; ++i) reb.TickForTest();
  EXPECT_EQ(host.actions(), 9);
  EXPECT_FALSE(reb.breaker_open());
  EXPECT_EQ(reb.breaker_trips(), 0u);
  EXPECT_EQ(reb.failed_actions(), 0u);
}

}  // namespace
}  // namespace obtree
