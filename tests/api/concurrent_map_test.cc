// Copyright 2026 The obtree Authors.

#include "obtree/api/concurrent_map.h"

#include <memory>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "obtree/core/background_pool.h"
#include "obtree/core/tree_checker.h"
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

TEST(CursorTest, IteratesAllPairsInOrder) {
  ConcurrentMap map;
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(map.Insert(k * 3, k).ok());
  ConcurrentMap::Cursor cursor(&map);
  Key key;
  Value value;
  Key prev = 0;
  size_t n = 0;
  while (cursor.Next(&key, &value)) {
    EXPECT_GT(key, prev);
    EXPECT_EQ(value, key / 3);
    prev = key;
    ++n;
  }
  EXPECT_EQ(n, 500u);
  EXPECT_FALSE(cursor.Next(&key, &value));  // stays exhausted
}

TEST(CursorTest, StartAndSeek) {
  ConcurrentMap map;
  for (Key k = 10; k <= 100; k += 10) ASSERT_TRUE(map.Insert(k, k).ok());
  ConcurrentMap::Cursor cursor(&map, 35);
  Key key;
  Value value;
  ASSERT_TRUE(cursor.Next(&key, &value));
  EXPECT_EQ(key, 40u);
  cursor.Seek(95);
  ASSERT_TRUE(cursor.Next(&key, &value));
  EXPECT_EQ(key, 100u);
  EXPECT_FALSE(cursor.Next(&key, &value));
  cursor.Seek(1);  // rewinding revives an exhausted cursor
  ASSERT_TRUE(cursor.Next(&key, &value));
  EXPECT_EQ(key, 10u);
}

TEST(CursorTest, EmptyMap) {
  ConcurrentMap map;
  ConcurrentMap::Cursor cursor(&map);
  Key key;
  Value value;
  EXPECT_FALSE(cursor.Next(&key, &value));
}

TEST(CursorTest, SurvivesConcurrentDeletes) {
  MapOptions opt = SmallNodes(CompressionMode::kQueueWorkers, 2);
  ConcurrentMap map(opt);
  for (Key k = 1; k <= 4000; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
  // Odd keys are stable; even keys vanish while the cursor walks.
  std::thread deleter([&map]() {
    for (Key k = 2; k <= 4000; k += 2) (void)map.Erase(k);
  });
  ConcurrentMap::Cursor cursor(&map);
  Key key;
  Value value;
  Key prev = 0;
  size_t odd_seen = 0;
  while (cursor.Next(&key, &value)) {
    ASSERT_GT(key, prev);  // strictly ascending, no duplicates
    prev = key;
    if (key % 2 == 1) ++odd_seen;
  }
  deleter.join();
  EXPECT_EQ(odd_seen, 2000u);  // every stable key delivered exactly once
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

}  // namespace
}  // namespace obtree
