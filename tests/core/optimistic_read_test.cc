// Copyright 2026 The obtree Authors.
//
// Tests of the optimistic in-place read path: Search/Scan descend without
// copying pages, validating seqlock versions instead. The invariant under
// test is the tentpole safety claim — a VALIDATED read never surfaces a
// torn value — hammered against concurrent inserts, deletes, splits, and
// the compressors' merge/retire/reuse cycle. Every insert stores
// value = key + 1, so any torn or misrouted read is detectable.

#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
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
// with untorn values, and every untouched (even) key in range arrives.
// Small nodes put each leaf in one chunk; default nodes (up to 120 pairs
// a leaf) make a scan cross several chunks of one leaf, so a leaf torn
// between chunks must resume after the last delivered key.
void ConcurrentScanCheck(const TreeOptions& tree_options) {
  MapOptions options;
  options.tree = tree_options;
  options.compression = CompressionMode::kQueueWorkers;
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
    Key next_even = lo + (lo & 1);
    map.Scan(lo, hi, [&](Key k, Value v) {
      if (k < lo || k > hi || k <= last || v != k + 1) ok = false;
      if (k % 2 == 0) {
        if (k != next_even) ok = false;
        next_even = k + 2;
      }
      last = k;
      return ok;
    });
    if (next_even <= hi) ok = false;  // an untouched key went missing
  }
  stop.store(true);
  mutator.join();
  EXPECT_TRUE(ok);
}

TEST(OptimisticReadTest, ConcurrentScanStaysSortedAndUntorn) {
  ConcurrentScanCheck(SmallNodes());
  ConcurrentScanCheck(TreeOptions());  // scans span several chunks a leaf
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

// Reentrancy: a visitor that scans the same tree from inside a scan (each
// call harvests into its own stack chunk).
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


// --- chunked delivery -------------------------------------------------------
//
// Ascending inserts fill every leaf to capacity (2k = 120 pairs at the
// default k = 60), so leaf j holds keys 120j+1 .. 120j+120 and a scan from
// a leaf's first key crosses chunk boundaries at 32, 64 and 96 pairs.

constexpr Key kFullLeaf = 120;

void LoadFullLeaves(SagivTree* tree, Key n) {
  for (Key k = 1; k <= n; ++k) ASSERT_TRUE(tree->Insert(k, k + 1).ok());
}

std::vector<std::pair<Key, Value>> ScanCollect(const SagivTree& tree, Key lo,
                                               Key hi, size_t stop_after,
                                               bool* stopped) {
  std::vector<std::pair<Key, Value>> out;
  const size_t n = tree.Scan(
      lo, hi,
      [&](Key k, Value v) {
        out.emplace_back(k, v);
        return out.size() < stop_after;
      },
      stopped);
  EXPECT_EQ(n, out.size());
  return out;
}

std::vector<std::pair<Key, Value>> ModelRange(const std::map<Key, Value>& m,
                                              Key lo, Key hi,
                                              size_t stop_after) {
  std::vector<std::pair<Key, Value>> out;
  for (auto it = m.lower_bound(lo);
       it != m.end() && it->first <= hi && out.size() < stop_after; ++it) {
    out.emplace_back(it->first, it->second);
  }
  return out;
}

TEST(OptimisticReadTest, ChunkedScanMatchesModel) {
  SagivTree tree;
  constexpr Key kN = 10 * kFullLeaf;
  LoadFullLeaves(&tree, kN);
  // The precondition the chunk boundaries below rely on: leaf 0 is exactly
  // keys 1..120, so scanning it follows no link and one more key does.
  const uint64_t links0 = tree.stats()->Get(StatId::kLinkFollows);
  ASSERT_EQ(tree.Scan(1, kFullLeaf, [](Key, Value) { return true; }),
            kFullLeaf);
  ASSERT_EQ(tree.stats()->Get(StatId::kLinkFollows), links0);
  ASSERT_EQ(tree.Scan(1, kFullLeaf + 1, [](Key, Value) { return true; }),
            kFullLeaf + 1);
  ASSERT_EQ(tree.stats()->Get(StatId::kLinkFollows), links0 + 1);

  std::map<Key, Value> model;
  for (Key k = 1; k <= kN; ++k) model[k] = k + 1;
  constexpr size_t kAll = static_cast<size_t>(-1);
  const size_t kChunk = SagivTree::kScanChunk;
  // Starts at a leaf's first key, mid-leaf, and 5 keys before a leaf end.
  for (const Key lo : {Key{1}, Key{5}, kFullLeaf + 1, 2 * kFullLeaf - 4}) {
    // hi inside chunk 1, inside chunk 2, on each chunk boundary, past the
    // leaf, and unbounded.
    for (const Key span : {Key{10}, Key{kChunk} - 1, Key{kChunk},
                           Key{kChunk} + 8, 2 * Key{kChunk}, 3 * Key{kChunk},
                           Key{300}}) {
      const Key hi = lo + span - 1;
      for (const size_t stop_after :
           {size_t{1}, kChunk - 1, kChunk, kChunk + 1, 2 * kChunk,
            2 * kChunk + 1, kAll}) {
        bool stopped = true;
        const auto got = ScanCollect(tree, lo, hi, stop_after, &stopped);
        const auto want = ModelRange(model, lo, hi, stop_after);
        ASSERT_EQ(got, want) << "lo=" << lo << " hi=" << hi
                             << " stop_after=" << stop_after;
        // The visitor stopped iff it returned false on the last pair.
        EXPECT_EQ(stopped, stop_after != kAll && got.size() == stop_after)
            << "lo=" << lo << " hi=" << hi << " stop_after=" << stop_after;
      }
    }
    bool stopped = true;
    EXPECT_EQ(ScanCollect(tree, lo, kMaxUserKey, kAll, &stopped),
              ModelRange(model, lo, kMaxUserKey, kAll));
    EXPECT_FALSE(stopped);
  }

  // The top of the key space: the last delivered key is kMaxUserKey, and
  // a chunk ends exactly on it.
  SagivTree top;
  std::map<Key, Value> top_model;
  for (Key k = kMaxUserKey - 2 * kChunk + 1;; ++k) {
    ASSERT_TRUE(top.Insert(k, 3).ok());
    top_model[k] = 3;
    if (k == kMaxUserKey) break;
  }
  for (const size_t stop_after : {kChunk, 2 * kChunk, kAll}) {
    bool stopped = true;
    EXPECT_EQ(ScanCollect(top, 1, kMaxUserKey, stop_after, &stopped),
              ModelRange(top_model, 1, kMaxUserKey, stop_after));
  }
}

// The visitor writes the leaf under scan right after the first chunk is
// delivered: the second chunk tears, the page is re-read from the last
// delivered key + 1, and the rest of the leaf is delivered as it now is —
// ascending, without repeats, with every untouched key.
TEST(OptimisticReadTest, ScanResumesAfterMidLeafTear) {
  SagivTree tree;
  // Even keys only, so the visitor can add an odd key without a split.
  std::map<Key, Value> model;
  for (Key k = 2; k <= 2 * 4 * kFullLeaf; k += 2) {
    ASSERT_TRUE(tree.Insert(k, k + 1).ok());
    model[k] = k + 1;
  }
  // All in leaf 0 (keys 2..240). Erasing two delivered keys shifts every
  // later entry, so resuming at the old index would skip pairs.
  const std::vector<Key> kErasedDelivered = {10, 20};
  const Key kErased = 100;   // beyond chunk 1
  const Key kAdded = 81;     // new key
  const Key kUpdated = 90;   // existing key, new value
  const Key kLo = 2;
  const Key kHi = 400;
  const uint64_t retries0 = tree.stats()->Get(StatId::kOptimisticRetries);
  std::vector<std::pair<Key, Value>> got;
  const size_t n = tree.Scan(kLo, kHi, [&](Key k, Value v) {
    got.emplace_back(k, v);
    if (got.size() == SagivTree::kScanChunk) {
      for (const Key e : kErasedDelivered) EXPECT_TRUE(tree.Delete(e).ok());
      EXPECT_TRUE(tree.Delete(kErased).ok());
      EXPECT_TRUE(tree.Insert(kAdded, 7).ok());
      EXPECT_TRUE(tree.Upsert(kUpdated, 9).ok());
    }
    return true;
  });
  EXPECT_EQ(n, got.size());
  EXPECT_GE(tree.stats()->Get(StatId::kOptimisticRetries) - retries0, 1u);

  // Chunk 1 (keys 2..64) saw the old leaf; everything after it the new.
  auto want = ModelRange(model, kLo, 64, static_cast<size_t>(-1));
  model.erase(kErased);
  model[kAdded] = 7;
  model[kUpdated] = 9;
  for (const auto& kv : ModelRange(model, 65, kHi, static_cast<size_t>(-1))) {
    want.push_back(kv);
  }
  EXPECT_EQ(got, want);
  for (size_t i = 1; i < got.size(); ++i) {
    ASSERT_LT(got[i - 1].first, got[i].first);
  }
}

// A FileStore tree with the smallest pool the options admit: after the
// first chunk the visitor reads far keys across more leaves than the pool
// holds, so the scanned leaf is evicted under the scan. The next chunk
// fails validation, the leaf is faulted back in, and the result is exact.
TEST(OptimisticReadTest, ScanSurvivesEvictionBetweenChunks) {
  const std::string dir =
      ::testing::TempDir() + "obtree_optimistic_scan_evict";
  std::filesystem::remove_all(dir);
  {
    TreeOptions options;
    options.storage_dir = dir;
    options.buffer_pool_pages = 64;  // the floor Validate() admits
    SagivTree tree(options);
    ASSERT_TRUE(tree.init_status().ok());
    constexpr Key kN = 200 * kFullLeaf;  // ~200 leaves, 3x the pool
    LoadFullLeaves(&tree, kN);

    const uint64_t retries0 = tree.stats()->Get(StatId::kOptimisticRetries);
    const Key lo = 50 * kFullLeaf + 1;
    const Key hi = lo + 2 * kFullLeaf - 1;
    std::vector<std::pair<Key, Value>> got;
    tree.Scan(lo, hi, [&](Key k, Value v) {
      got.emplace_back(k, v);
      if (got.size() == SagivTree::kScanChunk) {
        for (Key far = 100 * kFullLeaf + 1; far <= kN; far += kFullLeaf) {
          Result<Value> r = tree.Search(far);
          EXPECT_TRUE(r.ok() && *r == far + 1) << far;
        }
      }
      return true;
    });
    std::vector<std::pair<Key, Value>> want;
    for (Key k = lo; k <= hi; ++k) want.emplace_back(k, k + 1);
    EXPECT_EQ(got, want);
    EXPECT_GE(tree.stats()->Get(StatId::kOptimisticRetries) - retries0, 1u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obtree
