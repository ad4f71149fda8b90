// Copyright 2026 The obtree Authors.

#include "obtree/api/concurrent_map.h"

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "obtree/core/background_pool.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

MapOptions SmallNodes(CompressionMode mode, uint32_t k = 3) {
  MapOptions opt;
  opt.tree.min_entries = k;
  opt.compression = mode;
  return opt;
}

TEST(ConcurrentMapTest, BasicCrud) {
  ConcurrentMap map;
  ASSERT_TRUE(map.init_status().ok());
  EXPECT_TRUE(map.Empty());
  ASSERT_TRUE(map.Insert(1, 100).ok());
  ASSERT_TRUE(map.Insert(2, 200).ok());
  EXPECT_EQ(map.Size(), 2u);
  EXPECT_EQ(*map.Get(1), 100u);
  EXPECT_TRUE(map.Get(3).status().IsNotFound());
  EXPECT_TRUE(map.Erase(1).ok());
  EXPECT_TRUE(map.Get(1).status().IsNotFound());
  EXPECT_TRUE(map.Erase(1).IsNotFound());
}

TEST(ConcurrentMapTest, UpsertReplaces) {
  ConcurrentMap map;
  ASSERT_TRUE(map.Upsert(5, 1).ok());
  EXPECT_EQ(*map.Get(5), 1u);
  ASSERT_TRUE(map.Upsert(5, 2).ok());
  EXPECT_EQ(*map.Get(5), 2u);
  EXPECT_EQ(map.Size(), 1u);
}

TEST(ConcurrentMapTest, ScanLimitPaginates) {
  ConcurrentMap map;
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  auto page1 = map.ScanLimit(1, 10);
  ASSERT_EQ(page1.size(), 10u);
  EXPECT_EQ(page1.front().first, 1u);
  EXPECT_EQ(page1.back().first, 10u);
  auto page2 = map.ScanLimit(page1.back().first + 1, 10);
  ASSERT_EQ(page2.size(), 10u);
  EXPECT_EQ(page2.front().first, 11u);
  auto empty = map.ScanLimit(101, 10);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(map.ScanLimit(1, 0).empty());
}

TEST(ConcurrentMapTest, QueueWorkersCompactInBackground) {
  ConcurrentMap map(SmallNodes(CompressionMode::kQueueWorkers, 2));
  for (Key k = 1; k <= 3000; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  const uint32_t tall = map.Height();
  for (Key k = 1; k <= 3000; ++k) ASSERT_TRUE(map.Erase(k).ok());
  // Give the background workers a moment, then force a fixpoint.
  map.CompressNow();
  EXPECT_LE(map.Height(), 2u);
  EXPECT_LT(map.Height(), tall);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

TEST(ConcurrentMapTest, BackgroundScanCompacts) {
  ConcurrentMap map(SmallNodes(CompressionMode::kBackgroundScan, 2));
  for (Key k = 1; k <= 2000; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  for (Key k = 1; k <= 2000; ++k) ASSERT_TRUE(map.Erase(k).ok());
  map.CompressNow();
  EXPECT_LE(map.Height(), 2u);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

TEST(ConcurrentMapTest, NoCompressionLeavesSkeleton) {
  ConcurrentMap map(SmallNodes(CompressionMode::kNone, 2));
  for (Key k = 1; k <= 2000; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  const uint32_t tall = map.Height();
  for (Key k = 1; k <= 2000; ++k) ASSERT_TRUE(map.Erase(k).ok());
  EXPECT_EQ(map.Height(), tall);  // Section 4 semantics: no restructuring
  EXPECT_TRUE(map.ValidateStructure().ok());
  map.CompressNow();  // explicit compression still available
  EXPECT_LE(map.Height(), 2u);
}

TEST(ConcurrentMapTest, ShapeReportsOccupancy) {
  ConcurrentMap map(SmallNodes(CompressionMode::kNone, 3));
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  const TreeShape shape = map.Shape();
  EXPECT_EQ(shape.num_keys, 500u);
  EXPECT_EQ(shape.height, map.Height());
  EXPECT_GT(shape.avg_leaf_fill, 0.3);
}

TEST(ConcurrentMapTest, ConcurrentMixedWithBackgroundWorkers) {
  // Section 5.4's deployment (2): several workers serve the map's queue.
  BackgroundPool pool(2);
  ConcurrentMap map(SmallNodes(CompressionMode::kQueueWorkers, 2), &pool);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&map, t]() {
      Random rng(60 + static_cast<uint64_t>(t));
      for (int i = 0; i < 15000; ++i) {
        const Key k = rng.UniformRange(1, 1200);
        const double p = rng.NextDouble();
        if (p < 0.4) {
          (void)map.Insert(k, k);
        } else if (p < 0.8) {
          (void)map.Erase(k);
        } else {
          Result<Value> r = map.Get(k);
          if (r.ok()) {
            ASSERT_EQ(*r, k);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
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

// ScanLimit pages resume past the last delivered key, so paging through
// a map whose even keys vanish meanwhile delivers keys in strictly
// ascending order and every stable (odd) key exactly once.
TEST(ConcurrentMapTest, ScanLimitPagesSurviveConcurrentDeletes) {
  MapOptions opt = SmallNodes(CompressionMode::kQueueWorkers, 2);
  ConcurrentMap map(opt);
  for (Key k = 1; k <= 4000; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  std::thread deleter([&map]() {
    for (Key k = 2; k <= 4000; k += 2) (void)map.Erase(k);
  });
  Key prev = 0;
  size_t odd_seen = 0;
  for (Key from = 1;;) {
    const auto page = map.ScanLimit(from, 64);
    if (page.empty()) break;
    for (const auto& kv : page) {
      ASSERT_GT(kv.first, prev);  // strictly ascending, no duplicates
      prev = kv.first;
      if (kv.first % 2 == 1) ++odd_seen;
    }
    from = page.back().first + 1;
  }
  deleter.join();
  EXPECT_EQ(odd_seen, 2000u);
}

TEST(ConcurrentMapTest, AttachesToExternalBackgroundPool) {
  // Two maps share one pool; neither spawns threads of its own. One map
  // dies mid-traffic (the detach-before-teardown path) and the survivor
  // keeps being served.
  BackgroundPool pool(2);
  auto doomed = std::make_unique<ConcurrentMap>(
      SmallNodes(CompressionMode::kQueueWorkers), &pool);
  ConcurrentMap survivor(SmallNodes(CompressionMode::kQueueWorkers), &pool);
  EXPECT_EQ(doomed->background_thread_count(), 0);
  EXPECT_EQ(survivor.background_thread_count(), 0);
  EXPECT_EQ(survivor.attached_pool(), &pool);
  EXPECT_EQ(pool.num_sources(), 2u);

  for (Key k = 1; k <= 2000; ++k) {
    ASSERT_TRUE(doomed->Insert(k, k).ok());
    ASSERT_TRUE(survivor.Insert(k, k).ok());
  }
  for (Key k = 1; k <= 2000; ++k) ASSERT_TRUE(doomed->Erase(k).ok());
  doomed.reset();  // detaches; pool workers must never touch it again
  EXPECT_EQ(pool.num_sources(), 1u);

  for (Key k = 1; k <= 2000; ++k) ASSERT_TRUE(survivor.Erase(k).ok());
  survivor.CompressNow();
  EXPECT_LE(survivor.Height(), 2u);
  EXPECT_TRUE(survivor.ValidateStructure().ok());
  // A scan-maintained map can share the same pool (queue-less source).
  ConcurrentMap scanned(SmallNodes(CompressionMode::kBackgroundScan), &pool);
  EXPECT_EQ(scanned.background_thread_count(), 0);
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(scanned.Insert(k, k).ok());
  EXPECT_TRUE(scanned.ValidateStructure().ok());
}

TEST(ConcurrentMapTest, StandaloneMapRunsItsOwnPool) {
  // Without a shared pool the map builds its own: exactly one worker
  // (Section 5.4's deployment (1)), gone after Quiesce or destruction.
  const MapOptions opt = SmallNodes(CompressionMode::kQueueWorkers);
  const int baseline = testutil::SettledThreadCount();
  {
    ConcurrentMap map(opt);
    EXPECT_EQ(map.background_thread_count(), 1);
    ASSERT_NE(map.attached_pool(), nullptr);
    EXPECT_EQ(map.attached_pool()->num_sources(), 1u);
    if (baseline > 0) {
      EXPECT_EQ(testutil::LiveThreadCount(), baseline + 1);
    }
    map.Quiesce();
    EXPECT_EQ(map.background_thread_count(), 0);
    EXPECT_EQ(map.attached_pool(), nullptr);
    if (baseline > 0) {
      EXPECT_EQ(testutil::WaitForThreadCount(baseline), baseline);
    }
    // Still a working map; under-full nodes just stop being compacted.
    ASSERT_TRUE(map.Insert(1, 1).ok());
    ASSERT_TRUE(map.Erase(1).ok());
  }
  {
    ConcurrentMap map(opt);
    if (baseline > 0) {
      EXPECT_EQ(testutil::LiveThreadCount(), baseline + 1);
    }
  }
  if (baseline > 0) {
    EXPECT_EQ(testutil::WaitForThreadCount(baseline), baseline);
  }
}

TEST(ConcurrentMapTest, StatsExposed) {
  ConcurrentMap map;
  ASSERT_TRUE(map.Insert(1, 1).ok());
  (void)map.Get(1);
  const StatsSnapshot snap = map.Stats();
  EXPECT_EQ(snap.Get(StatId::kInserts), 1u);
  EXPECT_EQ(snap.Get(StatId::kSearches), 1u);
}

// --- MultiGet ---------------------------------------------------------------

MapOptions PlainMap() {
  MapOptions opt;
  opt.compression = CompressionMode::kNone;
  opt.tree.min_entries = 32;
  return opt;
}

// Even keys in [2, 2n] present with value key + 1; odd keys absent.
void PreloadEven(ConcurrentMap* map, Key n) {
  for (Key k = 1; k <= n; ++k) {
    ASSERT_TRUE(map->Insert(2 * k, 2 * k + 1).ok());
  }
}

TEST(ConcurrentMapTest, MultiGetAgreesWithSingleOpLoop) {
  ConcurrentMap map(PlainMap());
  PreloadEven(&map, 5'000);  // height >= 2 with 32-entry minimum nodes

  // Mixed present/absent keys.
  std::vector<Key> keys;
  Random rng(123);
  for (int i = 0; i < 200; ++i) keys.push_back(1 + rng.Next() % 10'000);

  const BatchResult r = map.MultiGet(keys);
  ASSERT_EQ(r.values.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Result<Value> single = map.Get(keys[i]);
    ASSERT_EQ(r.values[i].ok(), single.ok()) << "key " << keys[i];
    if (single.ok()) {
      EXPECT_EQ(*r.values[i], *single) << "key " << keys[i];
    } else {
      EXPECT_TRUE(r.values[i].status().IsNotFound()) << "key " << keys[i];
    }
    // Search IS Get, on the map type too.
    EXPECT_EQ(map.Search(keys[i]).ok(), single.ok());
  }

  EXPECT_EQ(map.Stats().Get(StatId::kBatchOps), keys.size());

  // Delete IS Erase: both remove a present key and report NotFound after.
  ASSERT_TRUE(map.Delete(2).ok());
  EXPECT_TRUE(map.Erase(2).IsNotFound());
  EXPECT_TRUE(map.Delete(2).IsNotFound());
}

TEST(ConcurrentMapTest, MultiGetCostsExactlyItsSingleOps) {
  // Two identical maps: a MultiGet on one and a Get loop over the same
  // keys on the other must read the same pages and count the same
  // logical ops, out-of-range keys included (they count no search).
  ConcurrentMap batched(PlainMap());
  ConcurrentMap serial(PlainMap());
  PreloadEven(&batched, 5'000);
  PreloadEven(&serial, 5'000);

  std::vector<Key> keys;
  Random rng(321);
  for (int i = 0; i < 100; ++i) keys.push_back(1 + rng.Next() % 10'000);
  keys.push_back(0);
  keys.push_back(kMaxUserKey + 1);

  const StatsSnapshot b0 = batched.Stats();
  const StatsSnapshot s0 = serial.Stats();
  const BatchResult r = batched.MultiGet(keys);
  std::vector<Result<Value>> singles;
  for (Key k : keys) singles.push_back(serial.Get(k));
  const StatsSnapshot bd = batched.Stats().Delta(b0);
  const StatsSnapshot sd = serial.Stats().Delta(s0);

  ASSERT_EQ(r.values.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(r.values[i].ok(), singles[i].ok()) << "key " << keys[i];
    if (singles[i].ok()) {
      EXPECT_EQ(*r.values[i], *singles[i]) << "key " << keys[i];
    } else {
      EXPECT_EQ(r.values[i].status().code(), singles[i].status().code())
          << "key " << keys[i];
    }
  }
  for (StatId id : {StatId::kGets, StatId::kSearches,
                    StatId::kOptimisticValidations}) {
    EXPECT_EQ(bd.Get(id), sd.Get(id)) << StatName(id);
  }
  EXPECT_EQ(sd.Get(StatId::kSearches), keys.size() - 2);
  EXPECT_EQ(bd.Get(StatId::kBatchOps), keys.size());
  EXPECT_EQ(sd.Get(StatId::kBatchOps), 0u);
}

TEST(ConcurrentMapTest, MultiGetEmptySingleAndOutOfRange) {
  ConcurrentMap map(PlainMap());
  ASSERT_TRUE(map.Insert(10, 11).ok());

  EXPECT_EQ(map.MultiGet({}).size(), 0u);
  EXPECT_TRUE(map.MultiGet({}).all_ok());

  // A batch of one agrees with the single-op call.
  const BatchResult one = map.MultiGet({10});
  ASSERT_EQ(one.values.size(), 1u);
  EXPECT_EQ(*one.values[0], 11u);

  // Out-of-range keys fail per-op, not per-batch.
  const BatchResult bad = map.MultiGet({10, 0, kMaxUserKey + 1});
  EXPECT_TRUE(bad.values[0].ok());
  EXPECT_TRUE(bad.values[1].status().IsInvalidArgument());
  EXPECT_TRUE(bad.values[2].status().IsInvalidArgument());
}

TEST(ConcurrentMapTest, MultiGetPartialFailureUnderFaultInjection) {
  ConcurrentMap map(PlainMap());
  PreloadEven(&map, 5'000);

  std::vector<Key> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(2 * (i + 1));

  // A bounded burst of page-fetch failures: the earliest ops eat the
  // fires (each through its fetch-retry budget) and report Unavailable,
  // while later batch-mates run after the injector has stopped firing
  // and succeed. Per-op independence is the contract under test.
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.probability = 1.0;
  spec.max_fires = 30;
  FaultInjector::Instance().Arm("get", spec);
  const BatchResult r = map.MultiGet(keys);
  FaultInjector::Instance().DisarmAll();

  ASSERT_EQ(r.values.size(), keys.size());
  size_t failed = 0;
  size_t succeeded = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (r.values[i].ok()) {
      ++succeeded;
      EXPECT_EQ(*r.values[i], keys[i] + 1) << "key " << keys[i];
    } else {
      ++failed;
      EXPECT_TRUE(r.values[i].status().IsUnavailable()) << "key " << keys[i];
    }
  }
  EXPECT_GT(failed, 0u) << "injector never surfaced a per-op error";
  EXPECT_GT(succeeded, 0u) << "one op's failure disturbed its batch-mates";

  // The same batch with the injector quiet is fully served.
  EXPECT_TRUE(map.MultiGet(keys).all_ok());
}

TEST(ConcurrentMapTest, UpsertIsAtomicUnderConcurrentReaders) {
  // Upsert overwrites the value inside the same locked critical section
  // as the presence check, so a hammered key must never read NotFound.
  ConcurrentMap map(PlainMap());
  const Key hot = 4'242;
  ASSERT_TRUE(map.Insert(hot, 1).ok());
  for (Key k = 1; k <= 2'000; ++k) {
    ASSERT_TRUE(map.Upsert(2 * k, k).ok());  // give the tree some height
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> misses{0};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      if (!map.Get(hot).ok()) misses.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t]() {
      for (uint64_t i = 1; i <= 4'000; ++i) {
        ASSERT_TRUE(map.Upsert(hot, i * 4 + static_cast<uint64_t>(t)).ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(misses.load(), 0u) << "a reader observed the key absent mid-upsert";
  EXPECT_EQ(map.Size(), 2'001u);  // upserts never change the count
}

}  // namespace
}  // namespace obtree
