// Copyright 2026 The obtree Authors.
//
// Tests of the in-place write path: Insert/Delete mutate the live page
// under the paper lock, bracketed by seqlock odd/even bumps
// (PageManager::BeginWrite), instead of copying the full page out and
// back. The invariant under test is the tentpole safety claim — no
// optimistic reader may ever VALIDATE a torn image produced by an
// in-place writer — hammered against concurrent inserts, deletes,
// splits, scans, and the compressors' merge/retire/reuse cycle. Every
// insert stores value = key + 1, so any torn or misrouted read is
// detectable.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/compression_queue.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

TreeOptions SmallNodes() {
  TreeOptions options;
  options.min_entries = 4;  // deep trees: more splits, merges, stale routes
  return options;
}

TEST(InplaceWriteTest, InplaceModeCountsStats) {
  SagivTree tree(SmallNodes());
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 1; k <= 250; ++k) ASSERT_TRUE(tree.Delete(k).ok());
  const StatsSnapshot snap = tree.stats()->Snapshot();
  EXPECT_GT(snap.Get(StatId::kInplaceWrites), 0u);
  EXPECT_GT(snap.Get(StatId::kWriteBytesInplace), 0u);
  // Splits keep copy semantics, so some copied bytes still accrue...
  EXPECT_GT(snap.Get(StatId::kSplits), 0u);
  // ...but the no-split mutations dominate: far less copy traffic than
  // the 8 KB-per-mutation regime (750 mutations * 8 KB = 6 MB).
  EXPECT_LT(snap.Get(StatId::kWriteBytesCopied), 750u * 8192u / 2);
}

TEST(InplaceWriteTest, UnderfullLeafStillEnqueuedForCompression) {
  TreeOptions options = SmallNodes();
  SagivTree tree(options);
  CompressionQueue queue;
  tree.AttachCompressionQueue(&queue);
  for (Key k = 1; k <= 200; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 1; k <= 180; ++k) ASSERT_TRUE(tree.Delete(k).ok());
  EXPECT_GT(tree.stats()->Get(StatId::kQueueEnqueues), 0u);
  EXPECT_GT(queue.Size(), 0u);
  tree.AttachCompressionQueue(nullptr);
}

// The tentpole safety property: optimistic readers racing IN-PLACE
// writers (plus the compressors' merge/retire/reuse churn) never
// validate a torn image — every hit is exactly key + 1, every miss a
// clean NotFound.
TEST(InplaceWriteTest, ConcurrentReadersNeverSeeTornInplaceWrites) {
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
  // Three mutators churn odd keys so leaves shift in place constantly
  // AND split/underfill/merge/get-reused underneath the readers.
  std::vector<std::thread> mutators;
  for (int t = 0; t < 3; ++t) {
    mutators.emplace_back([&map, t, &stop]() {
      Random rng(29 + t);
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
      Random rng(211 + t);
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
  // One scanner: pairs must arrive ascending, in range, untorn.
  std::thread scanner([&map, &bad_value, &stop, kSpace]() {
    Random rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key lo = rng.Uniform(kSpace) + 1;
      const Key hi = std::min<Key>(lo + 400, kSpace);
      Key last = 0;
      map.Scan(lo, hi, [&](Key k, Value v) {
        if (k < lo || k > hi || k <= last || v != k + 1) {
          bad_value.store(true);
          return false;
        }
        last = k;
        return true;
      });
    }
  });
  for (auto& r : readers) r.join();
  stop.store(true);
  for (auto& m : mutators) m.join();
  scanner.join();
  EXPECT_FALSE(bad_value.load());
  // Even (untouched) keys must all still be present.
  for (Key k = 2; k <= kSpace; k += 2) {
    Result<Value> v = map.Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    ASSERT_EQ(*v, k + 1);
  }
  EXPECT_GT(map.Stats().Get(StatId::kInplaceWrites), 0u);
}

// Writer-vs-writer: concurrent Inserts/Deletes on overlapping ranges with
// in-place mutations must serialize through the paper lock — the final
// tree is exactly the set both writers agreed on, structure valid.
TEST(InplaceWriteTest, ConcurrentWritersSerializeThroughPaperLock) {
  SagivTree tree(SmallNodes());
  constexpr Key kSpace = 8'000;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&tree, t]() {
      // Each thread owns keys == t (mod 4): no logical conflicts, but
      // heavy physical conflicts on shared leaves.
      for (Key k = static_cast<Key>(t) + 1; k <= kSpace; k += 4) {
        ASSERT_TRUE(tree.Insert(k, k + 1).ok()) << k;
      }
      for (Key k = static_cast<Key>(t) + 1; k <= kSpace; k += 8) {
        ASSERT_TRUE(tree.Delete(k).ok()) << k;
      }
    });
  }
  for (auto& w : writers) w.join();
  uint64_t expected = 0;
  for (Key k = 1; k <= kSpace; ++k) {
    const bool deleted = ((k - 1) % 8) < 4;  // first of each pair of strides
    if (!deleted) {
      ++expected;
      auto v = tree.Search(k);
      ASSERT_TRUE(v.ok()) << k;
      EXPECT_EQ(*v, k + 1);
    } else {
      EXPECT_TRUE(tree.Search(k).status().IsNotFound()) << k;
    }
  }
  EXPECT_EQ(tree.Size(), expected);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace obtree
