// Copyright 2026 The obtree Authors.

#include "obtree/api/sharded_map.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "obtree/core/background_pool.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/random.h"
#include "obtree/workload/driver.h"

namespace obtree {
namespace {

using testutil::LiveThreadCount;

ShardOptions SmallShards(uint32_t num_shards, Key key_space_hint,
                         CompressionMode mode = CompressionMode::kNone,
                         uint32_t k = 3) {
  ShardOptions opt;
  opt.num_shards = num_shards;
  opt.key_space_hint = key_space_hint;
  opt.compression = mode;
  opt.tree.min_entries = k;
  return opt;
}

// Routing through the table must place every key where the equal-width
// division of [1, key_space_hint] does: ShardIndex(k) == min((k - 1) / W,
// n - 1) with W = ceil(hint / n), and a key inserted through the map lives
// in exactly the shard ShardIndex names. Checks each boundary key +-1 and
// kMaxUserKey.
void ExpectDivisionRouting(ShardedMap* map, Key hint) {
  const uint64_t n = map->num_shards();
  const uint64_t width = hint / n + (hint % n != 0);
  std::set<Key> keys = {1, kMaxUserKey};
  for (uint64_t s = 1; s < n; ++s) {
    const Key lo = s * width + 1;
    ASSERT_EQ(map->ShardLowerBound(static_cast<uint32_t>(s)), lo);
    keys.insert({lo - 1, lo, lo + 1});
  }
  for (Key k : keys) {
    const uint64_t want = std::min<uint64_t>((k - 1) / width, n - 1);
    EXPECT_EQ(map->ShardIndex(k), want) << "key " << k;
    ASSERT_TRUE(map->Insert(k, k ^ 0x5a).ok()) << "key " << k;
  }
  for (Key k : keys) {
    const uint32_t owner = map->ShardIndex(k);
    for (uint32_t s = 0; s < n; ++s) {
      EXPECT_EQ(map->shard(s)->Get(k).ok(), s == owner) << "key " << k;
    }
    EXPECT_EQ(*map->Get(k), k ^ 0x5a) << "key " << k;
  }
  EXPECT_EQ(map->Size(), keys.size());
}

TEST(ShardOptionsTest, ValidatesShardCount) {
  ShardOptions opt;
  EXPECT_TRUE(opt.Validate().ok());
  opt.num_shards = 3;  // not a power of two
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.num_shards = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.num_shards = ShardOptions::kMaxShards * 2;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.num_shards = 8;
  opt.key_space_hint = 4;  // fewer keys than shards
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(ShardedMapTest, RejectedOptionsDegradeToDefaults) {
  ShardOptions bad;
  bad.num_shards = 5;
  ShardedMap map(bad);
  EXPECT_TRUE(map.init_status().IsInvalidArgument());
  EXPECT_EQ(map.num_shards(), ShardOptions().num_shards);
  // Still a working map.
  ASSERT_TRUE(map.Insert(1, 2).ok());
  EXPECT_EQ(*map.Get(1), 2u);
}

TEST(ShardedMapTest, RoutingAtShardBoundaries) {
  // 4 shards over [1, 400]: widths of 100, so the boundaries are
  // 100|101, 200|201, 300|301.
  ShardedMap map(SmallShards(4, 400));
  ASSERT_TRUE(map.init_status().ok());
  EXPECT_EQ(map.num_shards(), 4u);
  EXPECT_EQ(map.ShardLowerBound(0), 1u);
  EXPECT_EQ(map.ShardLowerBound(1), 101u);
  EXPECT_EQ(map.ShardLowerBound(3), 301u);

  EXPECT_EQ(map.ShardIndex(1), 0u);
  EXPECT_EQ(map.ShardIndex(100), 0u);
  EXPECT_EQ(map.ShardIndex(101), 1u);
  EXPECT_EQ(map.ShardIndex(200), 1u);
  EXPECT_EQ(map.ShardIndex(201), 2u);
  EXPECT_EQ(map.ShardIndex(400), 3u);
  // Keys beyond the hint route to the last shard (correct, unbalanced).
  EXPECT_EQ(map.ShardIndex(401), 3u);
  EXPECT_EQ(map.ShardIndex(kMaxUserKey), 3u);

  const std::vector<Key> boundary_keys = {1,   99,  100, 101, 199, 200,
                                          201, 299, 300, 301, 400, 401,
                                          50'000};
  for (Key k : boundary_keys) {
    ASSERT_TRUE(map.Insert(k, k * 10).ok()) << k;
  }
  for (Key k : boundary_keys) {
    Result<Value> r = map.Get(k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, k * 10);
    // The key must live in exactly the shard the router names.
    const uint32_t owner = map.ShardIndex(k);
    for (uint32_t s = 0; s < map.num_shards(); ++s) {
      EXPECT_EQ(map.shard(s)->Get(k).ok(), s == owner) << "key " << k;
    }
  }
  EXPECT_EQ(map.Size(), boundary_keys.size());
  for (Key k : boundary_keys) EXPECT_TRUE(map.Erase(k).ok());
  EXPECT_TRUE(map.Empty());

  // The same placement for a hint the shard count does not divide
  // (1001 / 8: W = 126, the last range is short) and for the narrowest
  // table, key_space_hint == num_shards (W = 1).
  ExpectDivisionRouting(&map, 400);
  ShardedMap uneven(SmallShards(8, 1001));
  ExpectDivisionRouting(&uneven, 1001);
  ShardedMap narrow(SmallShards(4, 4));
  ASSERT_TRUE(narrow.init_status().ok());
  ExpectDivisionRouting(&narrow, 4);
}

// Key 0 (kMinusInfinity) and kPlusInfinity are outside the user key
// range: they route to the first and the last shard, and every point op
// must reject them.
TEST(ShardedMapTest, OutOfRangeKeysRejected) {
  ShardedMap map(SmallShards(4, 400));
  ASSERT_TRUE(map.init_status().ok());
  EXPECT_EQ(map.ShardIndex(0), 0u);
  EXPECT_EQ(map.ShardIndex(kPlusInfinity), 3u);
  for (Key k : {kMinusInfinity, kPlusInfinity}) {
    EXPECT_TRUE(map.Insert(k, 1).IsInvalidArgument()) << k;
    EXPECT_TRUE(map.Get(k).status().IsInvalidArgument()) << k;
    EXPECT_TRUE(map.Erase(k).IsInvalidArgument()) << k;
    EXPECT_TRUE(map.Upsert(k, 1).IsInvalidArgument()) << k;
  }
  EXPECT_TRUE(map.Empty());
}

TEST(ShardedMapTest, DuplicateAndMissingKeysMatchSingleTreeSemantics) {
  ShardedMap map(SmallShards(4, 1000));
  ASSERT_TRUE(map.Insert(500, 1).ok());
  EXPECT_TRUE(map.Insert(500, 2).IsAlreadyExists());
  EXPECT_EQ(*map.Get(500), 1u);
  EXPECT_TRUE(map.Get(501).status().IsNotFound());
  EXPECT_TRUE(map.Erase(501).IsNotFound());
  ASSERT_TRUE(map.Upsert(500, 7).ok());
  EXPECT_EQ(*map.Get(500), 7u);
}

TEST(ShardedMapTest, CrossShardScanIsGloballyOrdered) {
  ShardedMap map(SmallShards(8, 8000));
  // Insert keys scattered over every shard, in shuffled order.
  std::vector<Key> keys;
  for (Key k = 7; k <= 8000; k += 13) keys.push_back(k);
  Random rng(99);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.UniformRange(1, i) - 1]);
  }
  for (Key k : keys) ASSERT_TRUE(map.Insert(k, k + 1).ok());

  Key prev = 0;
  size_t seen = 0;
  const size_t visited = map.Scan(1, kMaxUserKey, [&](Key k, Value v) {
    EXPECT_GT(k, prev);  // strictly ascending across shard boundaries
    EXPECT_EQ(v, k + 1);
    prev = k;
    ++seen;
    return true;
  });
  EXPECT_EQ(visited, keys.size());
  EXPECT_EQ(seen, keys.size());

  // Bounded scan clipped to an interior range spanning two shards.
  prev = 999;
  size_t bounded = 0;
  map.Scan(1000, 3000, [&](Key k, Value) {
    EXPECT_GE(k, 1000u);
    EXPECT_LE(k, 3000u);
    EXPECT_GT(k, prev);
    prev = k;
    ++bounded;
    return true;
  });
  size_t expect_bounded = 0;
  for (Key k : keys) {
    if (k >= 1000 && k <= 3000) ++expect_bounded;
  }
  EXPECT_EQ(bounded, expect_bounded);

  // Early stop terminates the shard walk.
  size_t stopped_after = 0;
  const size_t early = map.Scan(1, kMaxUserKey, [&](Key, Value) {
    return ++stopped_after < 10;
  });
  EXPECT_EQ(early, 10u);
}

// A visitor that stops on the last key of shard s ends the walk there:
// shard s+1's tree is never even searched, and Scan's return value is the
// number of pairs delivered.
TEST(ShardedMapTest, ScanStopAtShardEndDoesNotTouchNextShard) {
  ShardedMap map(SmallShards(4, 400, CompressionMode::kNone, /*k=*/60));
  for (Key k = 1; k <= 400; ++k) ASSERT_TRUE(map.Insert(k, k + 1).ok());
  for (uint32_t s = 0; s + 1 < map.num_shards(); ++s) {
    const Key last = map.ShardLowerBound(s + 1) - 1;
    const uint64_t next_searches =
        map.shard(s + 1)->tree()->stats()->Get(StatId::kSearches);
    size_t seen = 0;
    Key prev = 0;
    const size_t visited = map.Scan(1, kMaxUserKey, [&](Key k, Value v) {
      EXPECT_EQ(k, prev + 1);
      EXPECT_EQ(v, k + 1);
      prev = k;
      ++seen;
      return k != last;
    });
    EXPECT_EQ(prev, last) << "shard " << s;
    EXPECT_EQ(visited, seen) << "shard " << s;
    EXPECT_EQ(visited, static_cast<size_t>(last)) << "shard " << s;
    EXPECT_EQ(map.shard(s + 1)->tree()->stats()->Get(StatId::kSearches),
              next_searches)
        << "shard " << s + 1 << " was searched after the visitor stopped";
  }
  // A scan that runs to its end reports every pair, across all shards.
  size_t seen = 0;
  EXPECT_EQ(map.Scan(50, 350,
                     [&](Key, Value) {
                       ++seen;
                       return true;
                     }),
            301u);
  EXPECT_EQ(seen, 301u);
}

// Pages of 7 pairs, each a Scan whose visitor stops after the 7th,
// straddle shard boundaries and together deliver every key once in order.
TEST(ShardedMapTest, ScanPagesAcrossShards) {
  ShardedMap map(SmallShards(4, 100));
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  Key from = 1;
  size_t total = 0;
  Key prev = 0;
  while (true) {
    size_t page = 0;
    const size_t visited = map.Scan(from, kMaxUserKey, [&](Key k, Value) {
      EXPECT_GT(k, prev);
      prev = k;
      return ++page < 7;
    });
    EXPECT_EQ(visited, page);
    if (page == 0) break;
    total += page;
    from = prev + 1;
  }
  EXPECT_EQ(total, 100u);
}

TEST(ShardedMapTest, AggregatesStatsAndShape) {
  ShardedMap map(SmallShards(4, 4000));
  for (Key k = 1; k <= 4000; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  for (Key k = 1; k <= 10; ++k) (void)map.Get(k * 300);

  const StatsSnapshot stats = map.Stats();
  EXPECT_EQ(stats.Get(StatId::kInserts), 4000u);
  EXPECT_EQ(stats.Get(StatId::kSearches), 10u);

  const TreeShape shape = map.Shape();
  EXPECT_EQ(shape.num_keys, 4000u);
  EXPECT_EQ(shape.height, map.Height());
  ASSERT_FALSE(shape.nodes_per_level.empty());
  // Leaves across shards must cover all keys at small k.
  EXPECT_GT(shape.nodes_per_level[0], 4u);
  EXPECT_GT(shape.avg_leaf_fill, 0.3);
  uint64_t per_shard_sum = 0;
  for (uint32_t s = 0; s < map.num_shards(); ++s) {
    per_shard_sum += map.shard(s)->Size();
  }
  EXPECT_EQ(per_shard_sum, 4000u);
}

TEST(ShardedMapTest, PerShardCompressionCollapsesHeights) {
  ShardedMap map(
      SmallShards(4, 8000, CompressionMode::kQueueWorkers, /*k=*/2));
  for (Key k = 1; k <= 8000; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  const uint32_t tall = map.Height();
  for (Key k = 1; k <= 8000; ++k) ASSERT_TRUE(map.Erase(k).ok());
  map.CompressNow();
  EXPECT_LE(map.Height(), 2u);
  EXPECT_LT(map.Height(), tall);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

TEST(ShardedMapTest, TreeCheckerInvariantsHoldPerShard) {
  ShardedMap map(SmallShards(4, 2000, CompressionMode::kNone, /*k=*/2));
  Random rng(42);
  for (int i = 0; i < 6000; ++i) {
    const Key k = rng.UniformRange(1, 2000);
    if (rng.NextDouble() < 0.7) {
      (void)map.Insert(k, k);
    } else {
      (void)map.Erase(k);
    }
  }
  // Aggregate validation plus an explicit per-shard TreeChecker pass.
  EXPECT_TRUE(map.ValidateStructure().ok());
  for (uint32_t s = 0; s < map.num_shards(); ++s) {
    TreeChecker checker(map.shard(s)->tree());
    EXPECT_TRUE(checker.CheckStructure().ok()) << "shard " << s;
  }
}

TEST(ShardedMapTest, ConcurrentMixedWorkloadAcrossShards) {
  ShardOptions opt =
      SmallShards(4, 4000, CompressionMode::kQueueWorkers, /*k=*/2);
  ShardedMap map(opt);
  std::atomic<uint64_t> checksum_failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&map, &checksum_failures, t]() {
      Random rng(7 + static_cast<uint64_t>(t));
      for (int i = 0; i < 12000; ++i) {
        const Key k = rng.UniformRange(1, 4000);
        const double p = rng.NextDouble();
        if (p < 0.4) {
          (void)map.Insert(k, k);
        } else if (p < 0.8) {
          (void)map.Erase(k);
        } else if (p < 0.95) {
          Result<Value> r = map.Get(k);
          if (r.ok() && *r != k) checksum_failures.fetch_add(1);
        } else {
          Key prev = 0;
          map.Scan(k, k + 500, [&](Key key, Value) {
            if (key <= prev) checksum_failures.fetch_add(1);
            prev = key;
            return true;
          });
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(checksum_failures.load(), 0u);
  map.CompressNow();
  EXPECT_TRUE(map.ValidateStructure().ok())
      << map.ValidateStructure().ToString();
  uint64_t counted = 0;
  map.Scan(1, kMaxUserKey, [&](Key, Value) {
    ++counted;
    return true;
  });
  EXPECT_EQ(counted, map.Size());
}

TEST(ShardedMapTest, DriverTargetsShardedMap) {
  // The duck-typed workload driver accepts a ShardedMap directly (the
  // sharded-target mode): preload, run a mixed phase, read aggregated
  // counter deltas.
  ShardedMap map(SmallShards(4, 20'000, CompressionMode::kNone, /*k=*/8));
  WorkloadSpec spec = WorkloadSpec::Mixed5050();
  spec.key_space = 20'000;
  spec.preload = 5'000;
  PreloadTree(&map, spec, 2);
  EXPECT_GT(map.Size(), 0u);
  const DriverResult result =
      RunWorkload(&map, spec, /*threads=*/2, /*ops_per_thread=*/5'000);
  EXPECT_EQ(result.total_ops, 10'000u);
  const uint64_t logical_ops = result.stats.Get(StatId::kSearches) +
                               result.stats.Get(StatId::kInserts) +
                               result.stats.Get(StatId::kDeletes);
  EXPECT_EQ(logical_ops, 10'000u);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

TEST(ShardedMapTest, HotSpotDistributionTargetsOneShard) {
  // The kHotSpot generator with hot_key_fraction = 1/4 must aim ~90% of
  // keys at shard 0 of a 4-shard map.
  WorkloadSpec spec = WorkloadSpec::ShardHotSpot(4);
  spec.key_space = 40'000;
  ShardedMap map(SmallShards(4, 40'000));
  OpGenerator gen(spec, /*seed=*/3, /*thread_id=*/0, /*num_threads=*/1);
  uint64_t hot = 0;
  const int kDraws = 20'000;
  for (int i = 0; i < kDraws; ++i) {
    if (map.ShardIndex(gen.Next().key) == 0) ++hot;
  }
  const double hot_fraction = static_cast<double>(hot) / kDraws;
  // 90% aimed + ~2.5% of the uniform remainder; allow generous slack.
  EXPECT_GT(hot_fraction, 0.85);
  EXPECT_LT(hot_fraction, 0.98);
}

TEST(ShardedMapTest, HugeKeySpaceHintDoesNotOverflowRouting) {
  // key_space_hint near 2^64 must still split into 4 nonempty ranges
  // (a naive ceil division (hint + n - 1) / n wraps to width 1).
  ShardedMap map(SmallShards(4, kMaxUserKey));
  EXPECT_EQ(map.ShardIndex(1), 0u);
  EXPECT_EQ(map.ShardIndex(kMaxUserKey / 2), 1u);
  EXPECT_EQ(map.ShardIndex(kMaxUserKey), 3u);
  EXPECT_GT(map.ShardLowerBound(1), 1u);
  ASSERT_TRUE(map.Insert(kMaxUserKey, 9).ok());
  ASSERT_TRUE(map.Insert(1, 7).ok());
  EXPECT_EQ(*map.Get(kMaxUserKey), 9u);
  EXPECT_EQ(map.shard(0)->Size(), 1u);
  EXPECT_EQ(map.shard(3)->Size(), 1u);

  ShardedMap fresh(SmallShards(4, kMaxUserKey));
  ExpectDivisionRouting(&fresh, kMaxUserKey);
}

TEST(ShardedMapTest, SharedPoolBoundsBackgroundThreads) {
  // The headline scaling property: background maintenance threads stay at
  // pool_threads no matter how many shards exist. 16 shards x 1 worker
  // would be 16 threads in the old topology; the shared pool runs 4.
  const int baseline = testutil::SettledThreadCount();
  {
    ShardOptions opt =
        SmallShards(16, 16'000, CompressionMode::kQueueWorkers);
    opt.pool_threads = 4;
    ShardedMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    ASSERT_NE(map.pool(), nullptr);
    EXPECT_EQ(map.pool()->thread_count(), 4);
    EXPECT_EQ(map.background_thread_count(), 4);
    EXPECT_EQ(map.pool()->num_sources(), 16u);
    for (uint32_t s = 0; s < map.num_shards(); ++s) {
      EXPECT_EQ(map.shard(s)->background_thread_count(), 0) << "shard " << s;
      EXPECT_EQ(map.shard(s)->attached_pool(), map.pool());
    }
    if (baseline > 0) {
      EXPECT_EQ(LiveThreadCount(), baseline + 4);  // exactly the workers
    }

    // The pool actually maintains the shards: churn, then wait for queues
    // to drain and heights to collapse.
    for (Key k = 1; k <= 16'000; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
    for (Key k = 1; k <= 16'000; ++k) ASSERT_TRUE(map.Erase(k).ok());
    map.CompressNow();
    EXPECT_LE(map.Height(), 2u);
    EXPECT_TRUE(map.ValidateStructure().ok());

    // Quiesce before comparing drain counters: a pool worker finishing an
    // in-flight task between the two snapshots would skew an immediate
    // equality check. Once the counters are stable across a sleep, the
    // pool-wide total and the per-tree attribution must agree.
    testutil::WaitForStableCounter(
        [&]() { return map.PoolStats().tasks_drained; },
        [&]() {
          return map.Stats().Get(StatId::kPoolTasksDrained) ==
                 map.PoolStats().tasks_drained;
        });
    const PoolStatsSnapshot pool_stats = map.PoolStats();
    EXPECT_EQ(pool_stats.threads, 4);
    EXPECT_GT(pool_stats.rounds, 0u);
    EXPECT_EQ(map.pool()->num_sources(), 16u);
    // Per-shard drain counters sum to the pool total, and surface through
    // the aggregated Stats too.
    uint64_t per_shard_sum = 0;
    for (uint32_t s = 0; s < map.num_shards(); ++s) {
      per_shard_sum += map.shard(s)->Stats().Get(StatId::kPoolTasksDrained);
    }
    EXPECT_EQ(per_shard_sum, pool_stats.tasks_drained);
    EXPECT_EQ(map.Stats().Get(StatId::kPoolTasksDrained),
              pool_stats.tasks_drained);
  }
  // Shards detached and the pool joined its workers on destruction.
  if (baseline > 0) {
    EXPECT_EQ(testutil::WaitForThreadCount(baseline), baseline);
  }
}

TEST(ShardedMapTest, PoolOptionsValidate) {
  ShardOptions opt;
  opt.pool_threads = -1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.pool_threads = 0;
  EXPECT_TRUE(opt.Validate().ok());
  // Compression off => no pool at all.
  ShardedMap none(SmallShards(4, 1000, CompressionMode::kNone));
  EXPECT_EQ(none.pool(), nullptr);
  EXPECT_EQ(none.background_thread_count(), 0);
}

TEST(ShardedMapTest, SingleShardDegeneratesToOneTree) {
  ShardedMap map(SmallShards(1, 1000));
  EXPECT_EQ(map.num_shards(), 1u);
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  EXPECT_EQ(map.ShardIndex(1), 0u);
  EXPECT_EQ(map.ShardIndex(kMaxUserKey), 0u);
  EXPECT_EQ(map.shard(0)->Size(), 100u);
  EXPECT_TRUE(map.ValidateStructure().ok());

  ShardedMap fresh(SmallShards(1, 1000));
  ExpectDivisionRouting(&fresh, 1000);
}

}  // namespace
}  // namespace obtree
