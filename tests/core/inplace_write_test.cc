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
#include "obtree/core/scan_compressor.h"
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
  // Splits store the new node's live prefix and the changed words of the
  // split node, so split bytes still accrue...
  EXPECT_GT(snap.Get(StatId::kSplits), 0u);
  EXPECT_GT(snap.Get(StatId::kWriteBytesCopied), 0u);
  // ...but far less than the 8 KB-per-mutation regime of a page-copy
  // cycle (750 mutations * 8 KB = 6 MB).
  EXPECT_LT(snap.Get(StatId::kWriteBytesCopied), 750u * 8192u / 2);
}

// The paper's cost units for a split (§2.2, Figs. 5-6): one get of the
// locked node A and two puts, B's and then A's. An insert that splits a
// leaf, but not its parent, is compared with an insert into the same leaf
// that does not split: both descend the same path and post one entry in
// place (a locked peek and a put, at the leaf or at the parent), so the
// difference is what the split itself costs.
TEST(InplaceWriteTest, LeafSplitCostsOneGetAndTwoPuts) {
  TreeOptions options;
  options.min_entries = 4;        // capacity 8
  options.append_leaves = false;  // midpoint splits, no fast path
  SagivTree tree(options);
  // Ascending inserts leave every leaf but the last with 5 entries; the
  // leftmost leaf holds 2, 4, ..., 10 and its parent 5 separators.
  for (Key k = 2; k <= 200; k += 2) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  ASSERT_EQ(tree.Height(), 3u);
  ASSERT_TRUE(tree.Insert(3, 4).ok());
  ASSERT_TRUE(tree.Insert(5, 6).ok());

  struct Cost {
    uint64_t gets, puts, splits, bytes, link_follows, restarts;
  };
  auto measure = [&tree](Key k) {
    const StatsSnapshot before = tree.stats()->Snapshot();
    EXPECT_TRUE(tree.Insert(k, k + 1).ok());
    const StatsSnapshot d = tree.stats()->Snapshot().Delta(before);
    return Cost{d.Get(StatId::kGets),        d.Get(StatId::kPuts),
                d.Get(StatId::kSplits),      d.Get(StatId::kWriteBytesCopied),
                d.Get(StatId::kLinkFollows), d.Get(StatId::kRestarts)};
  };
  const Cost fill = measure(7);   // the leaf now holds 8: full
  const Cost split = measure(9);  // 9 entries: 5 stay, 4 move to B
  ASSERT_EQ(fill.splits, 0u);
  ASSERT_EQ(split.splits, 1u);  // the parent took the separator in place
  ASSERT_EQ(fill.link_follows + split.link_follows, 0u);
  ASSERT_EQ(fill.restarts + split.restarts, 0u);
  EXPECT_EQ(fill.gets, tree.Height() + 1);  // descent + locked peek
  EXPECT_EQ(fill.puts, 1u);
  // The parent's post costs what the leaf's post cost in `fill`, so
  // the rest is the split's own: A's locked peek (no copy-out of A), and
  // the puts of B and then A.
  EXPECT_EQ(split.gets - fill.gets, 1u);
  EXPECT_EQ(split.puts - fill.puts, 2u);
  // Key 9 lands on B's side: B's live prefix, plus A's high, link and
  // count words.
  EXPECT_EQ(split.bytes, NodeBytes(4) + sizeof(Key) + sizeof(PageId) +
                             sizeof(uint32_t));
  for (Key k = 2; k <= 10; ++k) {
    Result<Value> v = tree.Search(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k + 1);
  }
  EXPECT_TRUE(TreeChecker(&tree).CheckStructure().ok());
}

// The paper's cost units for the readers on a quiescent tree: a search
// reads and validates each node on its root-to-leaf path once. A scan
// descends the same way and delivers from its first leaf on that one
// read, then pays one get and one link follow per further leaf; each leaf
// of at most kScanChunk pairs is one validated chunk.
// Nothing tears, hops right or restarts when no writer runs.
TEST(ReadCostTest, QuiescentReadsCostOneGetPerNode) {
  TreeOptions options;
  options.min_entries = 4;        // capacity 8
  options.append_leaves = false;  // midpoint splits: every leaf holds 5
  SagivTree tree(options);
  for (Key k = 2; k <= 200; k += 2) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  ASSERT_EQ(tree.Height(), 3u);

  auto delta = [&tree](const StatsSnapshot& before) {
    return tree.stats()->Snapshot().Delta(before);
  };
  for (Key k : {2, 3, 100, 101, 200, 201}) {
    const StatsSnapshot before = tree.stats()->Snapshot();
    const Result<Value> v = tree.Search(k);
    const StatsSnapshot d = delta(before);
    EXPECT_EQ(v.ok(), k % 2 == 0) << k;
    EXPECT_EQ(d.Get(StatId::kGets), tree.Height()) << k;
    EXPECT_EQ(d.Get(StatId::kOptimisticValidations), tree.Height()) << k;
    EXPECT_EQ(d.Get(StatId::kOptimisticRetries), 0u) << k;
    EXPECT_EQ(d.Get(StatId::kLinkFollows), 0u) << k;
    EXPECT_EQ(d.Get(StatId::kRestarts), 0u) << k;
  }

  // Count the leaves a scan of [lo, hi] touches from the leaf chain.
  auto leaves_over = [&tree](Key lo, Key hi) {
    uint64_t leaves = 0;
    Page page;
    PageId id = *tree.internal_FindNodeAtLevel(lo, 0, nullptr);
    for (; id != kInvalidPageId; ++leaves) {
      tree.internal_pager()->Get(id, &page);
      if (page.As<Node>()->high >= hi) return leaves + 1;
      id = page.As<Node>()->link;
    }
    return leaves;
  };
  for (const auto& range : {std::pair<Key, Key>{2, 4}, {2, 200}, {51, 149}}) {
    const uint64_t leaves = leaves_over(range.first, range.second);
    const StatsSnapshot before = tree.stats()->Snapshot();
    const size_t visited =
        tree.Scan(range.first, range.second, [](Key, Value) { return true; });
    const StatsSnapshot d = delta(before);
    EXPECT_EQ(visited, range.second / 2 - (range.first - 1) / 2);
    EXPECT_EQ(d.Get(StatId::kGets), tree.Height() + leaves - 1)
        << range.first << ".." << range.second << " over " << leaves;
    EXPECT_EQ(d.Get(StatId::kOptimisticValidations),
              tree.Height() + leaves - 1);
    EXPECT_EQ(d.Get(StatId::kLinkFollows), leaves - 1);
    EXPECT_EQ(d.Get(StatId::kOptimisticRetries), 0u);
    EXPECT_EQ(d.Get(StatId::kRestarts), 0u);
  }
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

// Splits in place while optimistic readers watch: one writer inserts and
// erases keys between a fixed set of present keys, and after each round
// merges the emptied leaves back (a ScanCompressor pass), so the leaves
// over the range split again and again, each split putting B and then
// rewriting A in place. A Search of a present key must always find it,
// and a Scan of the range must deliver every present key, ascending, with
// no torn pair.
TEST(InplaceWriteTest, ReadersNeverMissKeysOfALeafSplitInPlace) {
  TreeOptions options;
  options.min_entries = 4;  // capacity 8: a split every few inserts
  SagivTree tree(options);
  constexpr Key kLo = 1'000;
  constexpr Key kStride = 64;  // present keys: kLo, kLo + 64, ...
  constexpr Key kPresent = 8;  // a handful of leaves, all splitting
  constexpr Key kHi = kLo + kStride * (kPresent - 1);
  for (Key k = kLo; k <= kHi; k += kStride) {
    ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread writer([&tree, &stop]() {
    Random rng(5);
    std::vector<Key> mine;
    for (int round = 0; round < 3000; ++round) {
      for (int i = 0; i < 24; ++i) {
        const Key k = kLo + rng.Uniform(kHi - kLo);
        if (k % kStride == kLo % kStride) continue;  // a present key
        if (tree.Insert(k, k + 1).ok()) mine.push_back(k);
      }
      for (Key k : mine) (void)tree.Delete(k);
      mine.clear();
      ScanCompressor(&tree).FullPass();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&tree, &stop, &bad]() {
      while (!stop.load(std::memory_order_relaxed)) {
        for (Key k = kLo; k <= kHi; k += kStride) {
          Result<Value> v = tree.Search(k);
          if (!v.ok() || *v != k + 1) bad.store(true);
        }
      }
    });
  }
  readers.emplace_back([&tree, &stop, &bad]() {
    while (!stop.load(std::memory_order_relaxed)) {
      Key last = 0;
      Key present = 0;
      tree.Scan(kLo, kHi, [&](Key k, Value v) {
        if (k <= last || k < kLo || k > kHi || v != k + 1) bad.store(true);
        if (k % kStride == kLo % kStride) ++present;
        last = k;
        return true;
      });
      if (present != kPresent) bad.store(true);
    }
  });
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_FALSE(bad.load());
  EXPECT_GT(tree.stats()->Get(StatId::kSplits), 1000u);
  EXPECT_EQ(tree.Size(), kPresent);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
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
