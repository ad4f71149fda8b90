// Copyright 2026 The obtree Authors.
//
// Tests of the optimistic in-place read path: Search/Scan descend without
// copying pages, validating seqlock versions instead. The invariant under
// test is the tentpole safety claim — a VALIDATED read never surfaces a
// torn value — hammered against concurrent inserts, deletes, splits, and
// the compressors' merge/retire/reuse cycle. Every insert stores
// value = key + 1, so any torn or misrouted read is detectable.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

TreeOptions SmallNodes() {
  TreeOptions options;
  options.min_entries = 4;  // deep trees: more splits, merges, stale routes
  return options;
}

TEST(OptimisticReadTest, OptimisticModeCountsValidations) {
  SagivTree tree(SmallNodes());
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Search(k).ok());
  EXPECT_GT(tree.stats()->Get(StatId::kOptimisticValidations), 0u);
}

// The tentpole safety property: searches running against concurrent
// inserts, deletes, splits, merges and page reuse never return a torn
// value — every hit is exactly key + 1, every miss a clean NotFound.
TEST(OptimisticReadTest, ConcurrentSearchNeverReturnsTornValue) {
  MapOptions options;
  options.tree = SmallNodes();
  options.compression = CompressionMode::kQueueWorkers;
  options.compression_threads = 1;
  ConcurrentMap map(options);
  constexpr Key kSpace = 20'000;
  for (Key k = 2; k <= kSpace; k += 2) {
    ASSERT_TRUE(map.Insert(k, k + 1).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> bad_value{false};
  // Two mutators churn odd keys (insert/delete cycles) so leaves split,
  // underfill, merge, and get retired/reused while readers descend.
  std::vector<std::thread> mutators;
  for (int t = 0; t < 2; ++t) {
    mutators.emplace_back([&map, t, &stop]() {
      Random rng(17 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = (rng.Uniform(kSpace / 2) * 2 + 1);  // odd keys
        if (rng.Uniform(2) == 0) {
          (void)map.Insert(k, k + 1);
        } else {
          (void)map.Erase(k);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&map, t, &bad_value]() {
      Random rng(101 + t);
      for (int i = 0; i < 30'000; ++i) {
        const Key k = rng.Uniform(kSpace) + 1;
        Result<Value> v = map.Get(k);
        if (v.ok() && *v != k + 1) {
          bad_value.store(true);
          return;
        }
        if (!v.ok() && !v.status().IsNotFound()) {
          bad_value.store(true);
          return;
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true);
  for (auto& m : mutators) m.join();
  EXPECT_FALSE(bad_value.load());
  // Even (untouched) keys must all still be present.
  for (Key k = 2; k <= kSpace; k += 2) {
    Result<Value> v = map.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    ASSERT_EQ(*v, k + 1);
  }
  EXPECT_GT(map.Stats().Get(StatId::kOptimisticValidations), 0u);
}

// Scans under churn: pairs arrive strictly ascending, inside the range,
// and with untorn values.
TEST(OptimisticReadTest, ConcurrentScanStaysSortedAndUntorn) {
  MapOptions options;
  options.tree = SmallNodes();
  options.compression = CompressionMode::kQueueWorkers;
  options.compression_threads = 1;
  ConcurrentMap map(options);
  constexpr Key kSpace = 10'000;
  for (Key k = 2; k <= kSpace; k += 2) {
    ASSERT_TRUE(map.Insert(k, k + 1).ok());
  }

  std::atomic<bool> stop{false};
  std::thread mutator([&map, &stop]() {
    Random rng(23);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = (rng.Uniform(kSpace / 2) * 2 + 1);
      if (rng.Uniform(2) == 0) {
        (void)map.Insert(k, k + 1);
      } else {
        (void)map.Erase(k);
      }
    }
  });

  Random rng(7);
  bool ok = true;
  for (int i = 0; i < 300 && ok; ++i) {
    const Key lo = rng.Uniform(kSpace) + 1;
    const Key hi = std::min<Key>(lo + 500, kSpace);
    Key last = 0;
    map.Scan(lo, hi, [&](Key k, Value v) {
      if (k < lo || k > hi || k <= last || v != k + 1) ok = false;
      last = k;
      return ok;
    });
  }
  stop.store(true);
  mutator.join();
  EXPECT_TRUE(ok);
}

// Heavy churn on a small tree tears many reads; each torn node is simply
// re-read, and every result must still be exact.
TEST(OptimisticReadTest, TornReadsRereadUnderChurn) {
  SagivTree tree(SmallNodes());
  constexpr Key kSpace = 4'000;
  for (Key k = 2; k <= kSpace; k += 2) {
    ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  }
  std::atomic<bool> stop{false};
  std::thread mutator([&tree, &stop]() {
    Random rng(5);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = (rng.Uniform(kSpace / 2) * 2 + 1);
      if (rng.Uniform(2) == 0) {
        (void)tree.Insert(k, k + 1);
      } else {
        (void)tree.Delete(k);
      }
    }
  });
  Random rng(3);
  bool ok = true;
  for (int i = 0; i < 20'000 && ok; ++i) {
    const Key k = rng.Uniform(kSpace) + 1;
    Result<Value> v = tree.Search(k);
    if (v.ok()) {
      ok = (*v == k + 1);
    } else {
      ok = v.status().IsNotFound();
    }
  }
  stop.store(true);
  mutator.join();
  EXPECT_TRUE(ok);
}

// Reentrancy: a visitor that scans the same tree from inside a scan (the
// thread-local harvest buffer must not be clobbered by the inner call).
TEST(OptimisticReadTest, ReentrantScanFromVisitor) {
  SagivTree tree(SmallNodes());
  for (Key k = 1; k <= 1000; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  size_t outer = 0;
  size_t inner_total = 0;
  tree.Scan(1, 500, [&](Key k, Value v) {
    EXPECT_EQ(v, k + 1);
    ++outer;
    size_t inner = 0;
    tree.Scan(600, 700, [&inner](Key, Value) {
      ++inner;
      return true;
    });
    inner_total += inner;
    return outer < 10;
  });
  EXPECT_EQ(outer, 10u);
  EXPECT_EQ(inner_total, 10u * 101u);
}

}  // namespace
}  // namespace obtree
