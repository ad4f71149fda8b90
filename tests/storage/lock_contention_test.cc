// Copyright 2026 The obtree Authors.
//
// The PaperLock contract, exercised through PageManager::Lock, the one
// way a paper lock is taken: the spin-then-park lock must keep exactly
// the semantics of the mutex it replaced (mutual exclusion, test-hook
// firing points, LocksHeldByThisThread), while adding the contention
// telemetry — kLocksContended / kLockParks and the lock-wait histogram.
// The 8-thread hot-leaf stress is in CI's TSan job: every interleaving of
// spin, park, and wake must be race-free against the in-place read/write
// machinery.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/core/sagiv_tree.h"
#include "obtree/core/tree_checker.h"
#include "obtree/storage/page_manager.h"
#include "obtree/util/epoch.h"
#include "obtree/util/stats.h"

namespace obtree {
namespace {

class LockContentionTest : public ::testing::Test {
 protected:
  LockContentionTest() : pm_(&epoch_, &stats_) {}

  PageId MustAllocate() {
    Result<PageId> id = pm_.Allocate();
    EXPECT_TRUE(id.ok());
    return *id;
  }

  EpochManager epoch_;
  StatsCollector stats_;
  PageManager pm_;
};

TEST_F(LockContentionTest, LockUnlockSemanticsAndHookFiringPoints) {
  const PageId id = MustAllocate();
  std::vector<std::string> events;
  pm_.SetTestHook([&](const char* op, PageId page) {
    if (page == id) events.push_back(op);
  });

  // Lock fires "lock" before acquiring; Unlock fires "unlock" before
  // releasing.
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 0);
  pm_.Lock(id);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 1);
  pm_.Unlock(id);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 0);

  pm_.SetTestHook(nullptr);
  EXPECT_EQ(events, (std::vector<std::string>{"lock", "unlock"}));

  // Uncontended acquisitions record no contention telemetry.
  EXPECT_EQ(stats_.Get(StatId::kLocksAcquired), 1u);
  EXPECT_EQ(stats_.Get(StatId::kLocksContended), 0u);
  EXPECT_EQ(stats_.Get(StatId::kLockParks), 0u);
  EXPECT_EQ(stats_.LockWaitHistogram().count(), 0u);
}

TEST_F(LockContentionTest, ContendedLockParksAndRecordsWaitTime) {
  const PageId id = MustAllocate();

  pm_.Lock(id);
  std::atomic<bool> acquired{false};
  std::thread waiter([&]() {
    pm_.Lock(id);  // spins out its budget, then parks until released
    acquired.store(true, std::memory_order_release);
    pm_.Unlock(id);
  });
  // Hold the lock until the waiter has left its spin phase and announced
  // that it parks, then 20 ms more: the park is certain however the
  // threads are scheduled, and the wait spans at least the extra hold.
  while (!pm_.LockHasParkedWaiterForTest(id)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));
  pm_.Unlock(id);
  waiter.join();
  EXPECT_TRUE(acquired.load());

  EXPECT_GE(stats_.Get(StatId::kLocksContended), 1u);
  EXPECT_GE(stats_.Get(StatId::kLockParks), 1u);
  const Histogram waits = stats_.LockWaitHistogram();
  ASSERT_GE(waits.count(), 1u);
  // The waiter waited 20 ms or more; the histogram must have seen a wait
  // of at least a millisecond (coarse: schedulers vary).
  EXPECT_GE(waits.max(), 1'000'000u);
}

TEST_F(LockContentionTest, MutualExclusionUnderManySpinners) {
  const PageId id = MustAllocate();
  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  int64_t shared = 0;  // guarded by the paper lock; TSan checks this too
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kRounds; ++i) {
        pm_.Lock(id);
        shared++;
        pm_.Unlock(id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared, static_cast<int64_t>(kThreads) * kRounds);
  EXPECT_EQ(stats_.Get(StatId::kLocksAcquired),
            static_cast<uint64_t>(kThreads) * kRounds + 0u);
}

// 8 threads hammering the same handful of leaves: writers contend on the
// paper lock of a hot leaf while readers validate against the in-place
// mutations. This is the CI TSan job's contention cell for the lock
// layer; single-threaded correctness of the tree is asserted after.
TEST(LockHotLeafStressTest, EightThreadsOnAHotLeaf) {
  TreeOptions opt;
  opt.min_entries = 16;  // capacity 32: one or two hot leaves
  SagivTree tree(opt);
  constexpr Key kHotKeys = 48;
  for (Key k = 1; k <= kHotKeys; k += 2) ASSERT_TRUE(tree.Insert(k, k).ok());

  constexpr int kThreads = 8;
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
  constexpr int kOpsPerThread = 800;  // TSan: ~20x slower per op
#else
  constexpr int kOpsPerThread = 4000;
#endif
#else
  constexpr int kOpsPerThread = 4000;
#endif
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread owns a key parity/offset pattern so inserts and
      // deletes on the SAME keys interleave across threads.
      uint64_t x = 88172645463325252ull + static_cast<uint64_t>(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Key k = 1 + static_cast<Key>(x % kHotKeys);
        switch (x % 3) {
          case 0: {
            Status s = tree.Insert(k, k);
            if (!s.ok() && !s.IsAlreadyExists()) mismatches++;
            break;
          }
          case 1: {
            Status s = tree.Delete(k);
            if (!s.ok() && !s.IsNotFound()) mismatches++;
            break;
          }
          default: {
            Result<Value> r = tree.Search(k);
            if (r.ok() && *r != k) mismatches++;
            if (!r.ok() && !r.status().IsNotFound()) mismatches++;
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  // 8 threads on <= 2 leaves: the run cannot have been contention-free
  // unless it was fully serialized by the host — accept either, but the
  // counters must be consistent: every park implies a contended
  // acquisition, and wait samples come only from contended acquisitions.
  const StatsSnapshot snap = tree.stats()->Snapshot();
  EXPECT_LE(snap.Get(StatId::kLockParks), snap.Get(StatId::kLocksContended));
  EXPECT_LE(tree.stats()->LockWaitHistogram().count(),
            snap.Get(StatId::kLocksContended));
  EXPECT_EQ(snap.max_locks_held, 1u);  // the paper's one-lock claim holds
}

// Contention telemetry must be monotone and land on the tree whose lock
// was contended — not on an idle tree sharing the process.
TEST(LockStatsAttributionTest, ContendedStatsAreMonotoneAndPerTree) {
  TreeOptions opt;
  opt.min_entries = 16;
  SagivTree hot(opt);
  SagivTree idle(opt);
  for (Key k = 1; k <= 32; ++k) {
    ASSERT_TRUE(hot.Insert(k, k).ok());
    ASSERT_TRUE(idle.Insert(k, k).ok());
  }

  uint64_t last_contended = 0;
  uint64_t last_waits = 0;
  for (int phase = 0; phase < 3; ++phase) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&]() {
        for (int i = 0; i < 600; ++i) {
          const Key k = 1 + static_cast<Key>(i % 32);
          (void)hot.Delete(k);
          (void)hot.Insert(k, k);
        }
      });
    }
    for (auto& t : threads) t.join();
    const uint64_t contended = hot.stats()->Get(StatId::kLocksContended);
    const uint64_t waits = hot.stats()->LockWaitHistogram().count();
    EXPECT_GE(contended, last_contended) << "contention counter went down";
    EXPECT_GE(waits, last_waits) << "wait histogram lost samples";
    last_contended = contended;
    last_waits = waits;
  }
  // The idle tree saw no operations, so no acquisition — contended or
  // otherwise — may be attributed to it.
  EXPECT_EQ(idle.stats()->Get(StatId::kLocksContended), 0u);
  EXPECT_EQ(idle.stats()->Get(StatId::kLockParks), 0u);
  EXPECT_EQ(idle.stats()->LockWaitHistogram().count(), 0u);
  // Consistency on the hot tree: parks are a subset of contended
  // acquisitions.
  EXPECT_LE(hot.stats()->Get(StatId::kLockParks), last_contended);
}

}  // namespace
}  // namespace obtree
