// Copyright 2026 The obtree Authors.
//
// Tests of the append-optimized leaf mode (TreeOptions::append_leaves):
// the rightmost-insert fast path (descent skipped, locked validation of
// the cached hint, Node::AppendLeafEntryInPlace under the seqlock) and
// tail-biased splits. The invariants under test: append mode changes
// performance, never results (modes agree op-for-op with append off); a
// stale hint — invalidated by splits, erases, or compression merges —
// can only cost a miss, never a misplaced key; tail-biased splits lift
// steady-state leaf fill to >= 85% on monotonic load; and the fast path
// stays torn-image-safe against optimistic readers, scanners, and
// compression churn (the 8-thread TSan stress).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/compression_queue.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/random.h"
#include "obtree/workload/generator.h"

namespace obtree {
namespace {

TreeOptions SmallNodes(bool append) {
  TreeOptions options;
  options.min_entries = 4;  // deep trees: more splits, stale hints
  options.append_leaves = append;
  return options;
}

// Pause a protocol thread at the entry of the Nth "put" hook event after
// arming — id-agnostic, so tests need no knowledge of which page id a
// split's Allocate hands out (it may be fresh or reused).
class PutWindowGate {
 public:
  void Arm(int nth) {
    std::lock_guard<std::mutex> l(mu_);
    nth_ = nth;
    puts_ = 0;
    armed_ = true;
    paused_ = false;
    released_ = false;
  }

  // Called from the PageManager hook (protocol thread).
  void OnHook(const char* op, PageId /*page*/) {
    if (std::strcmp(op, "put") != 0) return;
    std::unique_lock<std::mutex> l(mu_);
    if (!armed_ || ++puts_ < nth_) return;
    armed_ = false;
    paused_ = true;
    cv_.notify_all();
    cv_.wait(l, [&] { return released_; });
  }

  void AwaitPaused() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return paused_; });
  }

  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int nth_ = 0;
  int puts_ = 0;
  bool armed_ = false;
  bool paused_ = false;
  bool released_ = false;
};

// Append mode must be invisible in results: drive an append-on and an
// append-off tree through the same monotonic insert stream plus deletes
// and re-inserts, and compare everything.
TEST(AppendLeafTest, ModesAgreeOnMonotonicLoad) {
  SagivTree on(SmallNodes(true));
  SagivTree off(SmallNodes(false));
  constexpr Key kN = 5'000;
  for (Key k = 1; k <= kN; ++k) {
    ASSERT_TRUE(on.Insert(k, k + 1).ok()) << k;
    ASSERT_TRUE(off.Insert(k, k + 1).ok()) << k;
    // Duplicate re-insert of the current max must fail identically (the
    // fast path never arms for key == max).
    EXPECT_EQ(on.Insert(k, 0).code(), off.Insert(k, 0).code());
  }
  for (Key k = 3; k <= kN; k += 3) {
    EXPECT_EQ(on.Delete(k).ok(), off.Delete(k).ok()) << k;
  }
  EXPECT_EQ(on.Size(), off.Size());
  for (Key k = 1; k <= kN; ++k) {
    auto vo = on.Search(k);
    auto vf = off.Search(k);
    ASSERT_EQ(vo.ok(), vf.ok()) << k;
    if (vo.ok()) {
      EXPECT_EQ(*vo, k + 1);
    }
  }
  Status s = TreeChecker(&on).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = TreeChecker(&off).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Mixed load: random inserts/deletes/upserts interleaved with bursts of
// max-extending keys, so the fast path keeps arming and disarming.
TEST(AppendLeafTest, ModesAgreeOnMixedLoad) {
  SagivTree on(SmallNodes(true));
  SagivTree off(SmallNodes(false));
  Random rng(42);
  Key next_max = 100'000;  // monotonic burst sequence, above random range
  for (int i = 0; i < 20'000; ++i) {
    const uint32_t dice = rng.Uniform(10);
    if (dice < 4) {
      const Key k = rng.Uniform(50'000) + 1;
      EXPECT_EQ(on.Insert(k, k + 1).code(), off.Insert(k, k + 1).code());
    } else if (dice < 6) {
      const Key k = rng.Uniform(50'000) + 1;
      EXPECT_EQ(on.Delete(k).code(), off.Delete(k).code());
    } else if (dice < 8) {
      const Key k = rng.Uniform(50'000) + 1;
      EXPECT_EQ(on.Upsert(k, i).code(), off.Upsert(k, i).code());
    } else {
      const Key k = ++next_max;
      EXPECT_EQ(on.Insert(k, k + 1).code(), off.Insert(k, k + 1).code());
    }
  }
  EXPECT_EQ(on.Size(), off.Size());
  for (Key k = 1; k <= 50'000; ++k) {
    auto vo = on.Search(k);
    auto vf = off.Search(k);
    ASSERT_EQ(vo.ok(), vf.ok()) << k;
    if (vo.ok()) {
      EXPECT_EQ(*vo, *vf);
    }
  }
  Status s = TreeChecker(&on).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// The acceptance claim: pure monotonic load leaves the tree >= 85% full
// (midpoint splits cap it at ~50%), with the fast path serving nearly
// every insert and every split tail-biased.
TEST(AppendLeafTest, TailSplitsKeepLeavesFull) {
  SagivTree tree(SmallNodes(true));
  constexpr Key kN = 4'000;
  for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());

  const StatsSnapshot snap = tree.stats()->Snapshot();
  // Every insert that found room in the rightmost leaf is a hit; only
  // the one insert per split (full leaf) has to miss into the descent.
  EXPECT_GT(snap.Get(StatId::kAppendFastHits), kN * 8 / 10);
  EXPECT_GT(snap.Get(StatId::kSplits), 0u);
  EXPECT_EQ(snap.Get(StatId::kTailSplits), snap.Get(StatId::kSplits));

  const TreeShape shape = TreeChecker(&tree).ComputeShape();
  EXPECT_GE(shape.avg_leaf_fill, 0.85) << shape.ToString();
  // The online split-time histogram agrees: retiring leaves were ~full.
  const Histogram fill = tree.stats()->LeafFillHistogram();
  EXPECT_GT(fill.count(), 0u);
  EXPECT_GE(fill.Percentile(50), 85u);

  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Midpoint baseline: with append off the same load settles near ~50%
// fill — the gap the tail bias exists to close.
TEST(AppendLeafTest, MidpointSplitsStayHalfFullBaseline) {
  SagivTree tree(SmallNodes(false));
  for (Key k = 1; k <= 4'000; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  const StatsSnapshot snap = tree.stats()->Snapshot();
  EXPECT_EQ(snap.Get(StatId::kAppendFastHits), 0u);
  EXPECT_EQ(snap.Get(StatId::kAppendFastMisses), 0u);
  EXPECT_EQ(snap.Get(StatId::kTailSplits), 0u);
  const TreeShape shape = TreeChecker(&tree).ComputeShape();
  EXPECT_LT(shape.avg_leaf_fill, 0.7) << shape.ToString();
}

// Stale hint via compression: merge the hinted rightmost leaf away, then
// insert past the max. The fast path must miss (deleted node fails the
// locked validation) and the insert must land correctly via the descent.
TEST(AppendLeafTest, StaleHintAfterCompressionMissesSafely) {
  SagivTree tree(SmallNodes(true));  // capacity 8
  for (Key k = 1; k <= 12; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  // Leaves are now L{1..8} and R{9..12} (tail split at the 9th insert);
  // the hint names R. Thin both below k so the compressor merges R into
  // L and marks R deleted.
  for (Key k = 5; k <= 10; ++k) ASSERT_TRUE(tree.Delete(k).ok());
  ScanCompressor compressor(&tree);
  compressor.CompressLevel(0);
  ASSERT_GT(tree.stats()->Get(StatId::kMerges), 0u);

  const uint64_t misses_before = tree.stats()->Get(StatId::kAppendFastMisses);
  ASSERT_TRUE(tree.Insert(1'000, 1'001).ok());
  EXPECT_GT(tree.stats()->Get(StatId::kAppendFastMisses), misses_before);

  // The refreshed hint serves the next max-extending insert again.
  const uint64_t hits_before = tree.stats()->Get(StatId::kAppendFastHits);
  ASSERT_TRUE(tree.Insert(1'001, 1'002).ok());
  EXPECT_GT(tree.stats()->Get(StatId::kAppendFastHits), hits_before);

  for (Key k : {1, 2, 3, 4, 11, 12, 1000, 1001}) {
    auto v = tree.Search(static_cast<Key>(k));
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, static_cast<Value>(k) + 1);
  }
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Stale-high max hint via erase: deleting the tree's max disarms the
// fast path for keys under the old max (they take the descent) without
// ever misrouting them, and re-arms for keys above it.
TEST(AppendLeafTest, DeletedMaxKeepsFastPathCorrect) {
  SagivTree tree(SmallNodes(true));
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  for (Key k = 60; k <= 100; ++k) ASSERT_TRUE(tree.Delete(k).ok());
  // 70 < old max 100: must not fast-path (it would land out of order if
  // the hint were trusted blindly); the descent re-inserts it.
  ASSERT_TRUE(tree.Insert(70, 71).ok());
  EXPECT_TRUE(tree.Insert(70, 0).IsAlreadyExists());
  // 200 > old max: fast path arms again and appends.
  ASSERT_TRUE(tree.Insert(200, 201).ok());
  EXPECT_EQ(*tree.Search(70), 71u);
  EXPECT_EQ(*tree.Search(200), 201u);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// Inserts that extend the max take the rightmost fast path key by key
// and raise the watermark, so a later insert between the old max and
// the new one takes the plain descent (no wasted locked miss), and the
// hint still names the true rightmost leaf.
TEST(AppendLeafTest, MaxExtendingInsertsRaiseTheWatermark) {
  MapOptions options;
  options.tree = SmallNodes(true);
  options.compression = CompressionMode::kNone;
  ConcurrentMap map(options);
  for (Key k = 1; k <= 20; ++k) ASSERT_TRUE(map.Insert(k, k + 1).ok());

  // Two inserts lift the tree max 20 -> 1000; both keys are
  // max-extending when their turn comes, so both try the fast path.
  const StatsSnapshot before = map.Stats();
  ASSERT_TRUE(map.Insert(500, 501).ok());
  ASSERT_TRUE(map.Insert(1000, 1001).ok());
  const StatsSnapshot lifted = map.Stats().Delta(before);
  EXPECT_EQ(lifted.Get(StatId::kAppendFastHits) +
                lifted.Get(StatId::kAppendFastMisses),
            2u);
  EXPECT_GE(lifted.Get(StatId::kAppendFastHits), 1u);

  // 50 sits between the old max (20) and the new max (1000): with the
  // watermark raised it is not max-extending, so it takes the plain
  // descent — no fast-path attempt, no miss.
  const uint64_t misses_before = map.Stats().Get(StatId::kAppendFastMisses);
  ASSERT_TRUE(map.Insert(50, 51).ok());
  EXPECT_EQ(map.Stats().Get(StatId::kAppendFastMisses), misses_before);

  // And the hint still names the true rightmost leaf: the next
  // max-extending insert is a fast-path hit, not a miss-then-recover.
  const uint64_t hits_before = map.Stats().Get(StatId::kAppendFastHits);
  ASSERT_TRUE(map.Insert(2000, 2001).ok());
  EXPECT_GT(map.Stats().Get(StatId::kAppendFastHits), hits_before);
  EXPECT_EQ(map.Stats().Get(StatId::kAppendFastMisses), misses_before);

  Status s = map.ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// The split-publication rule: a frontier split's fresh right node B
// holds a live-looking rightmost-leaf image from its first put, but is
// unreachable until the left node's rewrite publishes the link. An
// append arriving inside that put(B)..put(A) window must not complete —
// a returned-OK insert that Search cannot find is a linearizability
// violation. The splitter freezes between its two puts; the concurrent
// max-extending insert must block on a page the splitter still holds
// (and if it somehow completed, its key must be immediately visible).
TEST(AppendLeafTest, AppendNeverCompletesInsideSplitPublicationWindow) {
  SagivTree tree(SmallNodes(true));  // capacity 8
  for (Key k = 1; k <= 16; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  // Leaves: {1..8} and the full rightmost {9..16}; inserting 17 tail-
  // splits the rightmost. Its first two put events are put(B), put(A).
  PutWindowGate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.OnHook(op, page); });
  gate.Arm(2);  // freeze at the entry of put(A), after put(B) landed

  std::thread splitter([&]() { ASSERT_TRUE(tree.Insert(17, 18).ok()); });
  gate.AwaitPaused();

  std::atomic<bool> appended{false};
  std::thread appender([&]() {
    ASSERT_TRUE(tree.Insert(18, 19).ok());
    appended.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  if (appended.load(std::memory_order_acquire)) {
    // If the insert did complete, linearizability demands visibility.
    ASSERT_TRUE(tree.Search(18).ok())
        << "completed Insert(18) invisible to Search mid-split";
  }
  EXPECT_FALSE(appended.load(std::memory_order_acquire))
      << "append completed inside the split's publication window";

  gate.Release();
  splitter.join();
  appender.join();
  tree.internal_pager()->SetTestHook(nullptr);

  for (Key k = 1; k <= 18; ++k) {
    Result<Value> v = tree.Search(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k + 1) << k;
  }
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// The ABA variant of the same window: the split's Allocate returns a
// RETIRED page id that the rightmost hint still names (inserts below the
// watermark never refresh the hint, so it survives stale across the
// refill). An appender chasing that stale hint must not be able to
// validate the reused page's fresh not-yet-linked image.
TEST(AppendLeafTest, StaleHintOnReusedSplitPageCannotSwallowAppend) {
  SagivTree tree(SmallNodes(true));  // capacity 8
  for (Key k = 1; k <= 20; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());
  // Leaves: {1..8}, {9..16}, C{17..20}; the hint names C. Empty C so the
  // compressor merges it into its left neighbor, marks C deleted, and
  // retires its page — and ONLY its page: the root keeps two children,
  // so no root collapse retires anything else, and the next Allocate
  // must hand back exactly the page the hint still names.
  for (Key k = 13; k <= 20; ++k) ASSERT_TRUE(tree.Delete(k).ok());
  ScanCompressor compressor(&tree);
  compressor.CompressLevel(0);
  ASSERT_GT(tree.stats()->Get(StatId::kMerges), 0u);
  ASSERT_EQ(tree.internal_pager()->retired_pages(), 1u);

  // Refill the surviving rightmost leaf L{9..12} to capacity. The keys
  // 13..16 sit below the watermark of 20 (deletes never lower it), so
  // they are not max-extending: no fast-path attempt and no descent
  // refreshes the hint, which keeps naming the retired page.
  for (Key k = 13; k <= 16; ++k) ASSERT_TRUE(tree.Insert(k, k + 1).ok());

  // The next insert splits L; its Allocate reuses the retired page. 17
  // is below the watermark too, so the splitter's descent leaves the
  // hint alone: it still names the retired page — now reborn as the
  // split's unreachable right node B — while the splitter sits frozen
  // between put(B) and put(A).
  const size_t fresh_before = tree.internal_pager()->allocated_pages();
  PutWindowGate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.OnHook(op, page); });
  gate.Arm(2);

  std::thread splitter([&]() { ASSERT_TRUE(tree.Insert(17, 18).ok()); });
  gate.AwaitPaused();
  EXPECT_EQ(tree.internal_pager()->allocated_pages(), fresh_before)
      << "expected the split to reuse a retired page, not grow the arena";

  // 27 clears the watermark: the appender tries the stale hint first.
  std::atomic<bool> appended{false};
  std::thread appender([&]() {
    ASSERT_TRUE(tree.Insert(27, 28).ok());
    appended.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  if (appended.load(std::memory_order_acquire)) {
    ASSERT_TRUE(tree.Search(27).ok())
        << "completed Insert(27) invisible to Search mid-split";
  }
  EXPECT_FALSE(appended.load(std::memory_order_acquire))
      << "append landed on a reused, not-yet-linked split page";

  gate.Release();
  splitter.join();
  appender.join();
  tree.internal_pager()->SetTestHook(nullptr);

  for (Key k = 1; k <= 17; ++k) {
    Result<Value> v = tree.Search(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k + 1) << k;
  }
  ASSERT_TRUE(tree.Search(27).ok());
  EXPECT_EQ(*tree.Search(27), 28u);
  for (Key k = 18; k <= 20; ++k) {
    EXPECT_TRUE(tree.Search(k).status().IsNotFound()) << k;
  }
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// The MonotonicContended preset: generators copied from one spec share
// one atomic sequence — keys are globally unique and collectively cover
// the sequence with no gaps.
TEST(AppendLeafTest, MonotonicContendedGeneratorsShareOneSequence) {
  WorkloadSpec spec = WorkloadSpec::MonotonicContended();
  OpGenerator g0(spec, /*seed=*/1, /*thread_id=*/0, /*num_threads=*/2);
  OpGenerator g1(spec, /*seed=*/1, /*thread_id=*/1, /*num_threads=*/2);
  std::set<Key> keys;
  for (int i = 0; i < 100; ++i) {
    const OpGenerator::Op a = g0.Next();
    const OpGenerator::Op b = g1.Next();
    EXPECT_EQ(a.type, OpType::kInsert);
    keys.insert(a.key);
    keys.insert(b.key);
  }
  EXPECT_EQ(keys.size(), 200u);
  EXPECT_EQ(*keys.begin(), 1u);
  EXPECT_EQ(*keys.rbegin(), 200u);

  // Without the shared counter, strided subsequences also never collide.
  WorkloadSpec strided = WorkloadSpec::MonotonicInsert();
  OpGenerator s0(strided, 1, 0, 2);
  OpGenerator s1(strided, 1, 1, 2);
  std::set<Key> strided_keys;
  for (int i = 0; i < 100; ++i) {
    strided_keys.insert(s0.Next().key);
    strided_keys.insert(s1.Next().key);
  }
  EXPECT_EQ(strided_keys.size(), 200u);
}

// The tentpole safety property under contention: 4 appenders interleave
// ONE monotonic sequence (every insert aims at the rightmost leaf) while
// optimistic readers, a scanner, and compression churn run against them
// — 8 threads total. No torn reads, no lost or misplaced keys.
TEST(AppendLeafTest, ConcurrentAppendersReadersAndChurn) {
  MapOptions options;
  options.tree = SmallNodes(true);
  options.compression = CompressionMode::kQueueWorkers;
  ConcurrentMap map(options);

  constexpr Key kPerThread = 8'000;
  constexpr int kAppenders = 4;
  constexpr Key kTotal = kPerThread * kAppenders;
  std::atomic<Key> next_key{1};
  std::atomic<Key> watermark{0};  // max key known fully inserted
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};

  std::vector<std::thread> appenders;
  for (int t = 0; t < kAppenders; ++t) {
    appenders.emplace_back([&]() {
      for (;;) {
        const Key k = next_key.fetch_add(1, std::memory_order_relaxed);
        if (k > kTotal) return;
        if (!map.Insert(k, k + 1).ok()) {
          bad.store(true);
          return;
        }
        // Keys at or below the watermark are guaranteed present: only
        // raise it over a contiguous prefix.
        Key w = watermark.load(std::memory_order_relaxed);
        while (k == w + 1 && !watermark.compare_exchange_weak(
                                 w, k, std::memory_order_release)) {
        }
      }
    });
  }

  // Two optimistic readers probing (w/2, w]: below the watermark so the
  // key is guaranteed inserted, above w/2 so the churn thread (which
  // only touches keys <= its own w/2 <= our w/2) never deletes it. Such
  // keys must always hit with the right value.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t]() {
      Random rng(77 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const Key w = watermark.load(std::memory_order_acquire);
        if (w < 4) continue;
        const Key k = w / 2 + 1 + rng.Uniform(w - w / 2);
        Result<Value> v = map.Get(k);
        if (!v.ok() || *v != k + 1) {
          bad.store(true);
          return;
        }
      }
    });
  }

  // Scanner: pairs ascending, in range, untorn.
  std::thread scanner([&]() {
    Random rng(5);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key w = watermark.load(std::memory_order_acquire);
      if (w < 100) continue;
      const Key lo = rng.Uniform(w - 50) + 1;
      const Key hi = lo + 200;
      Key last = 0;
      map.Scan(lo, hi, [&](Key k, Value v) {
        if (k < lo || k > hi || k <= last || v != k + 1) {
          bad.store(true);
          return false;
        }
        last = k;
        return true;
      });
    }
  });

  // Churn: delete-and-reinsert keys well below the frontier, feeding the
  // queue compressor underfull leaves (which go stale as hints and merge
  // under the appenders).
  std::thread churn([&]() {
    Random rng(13);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key w = watermark.load(std::memory_order_acquire);
      if (w < 100) continue;
      const Key k = rng.Uniform(w / 2) + 1;
      if (map.Erase(k).ok()) {
        if (!map.Insert(k, k + 1).ok()) {
          bad.store(true);
          return;
        }
      }
    }
  });

  for (auto& a : appenders) a.join();
  stop.store(true);
  for (auto& r : readers) r.join();
  scanner.join();
  churn.join();
  ASSERT_FALSE(bad.load());

  // Churn re-inserts what it deletes, so after the join every key is
  // present exactly once with its value.
  EXPECT_EQ(map.Size(), kTotal);
  for (Key k = 1; k <= kTotal; ++k) {
    Result<Value> v = map.Get(k);
    ASSERT_TRUE(v.ok()) << k;
    ASSERT_EQ(*v, k + 1) << k;
  }
  EXPECT_GT(map.Stats().Get(StatId::kAppendFastHits), 0u);
  EXPECT_TRUE(map.ValidateStructure().ok());
}

}  // namespace
}  // namespace obtree
