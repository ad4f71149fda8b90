// Copyright 2026 The obtree Authors.

#include "obtree/util/stats.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/util/thread_index.h"

namespace obtree {
namespace {

TEST(StatsTest, StartsAtZero) {
  StatsCollector stats;
  for (int i = 0; i < kNumStatIds; ++i) {
    EXPECT_EQ(stats.Get(static_cast<StatId>(i)), 0u);
  }
  EXPECT_EQ(stats.max_locks_held(), 0u);
}

TEST(StatsTest, AddAccumulates) {
  StatsCollector stats;
  stats.Add(StatId::kGets);
  stats.Add(StatId::kGets, 4);
  stats.Add(StatId::kPuts, 2);
  EXPECT_EQ(stats.Get(StatId::kGets), 5u);
  EXPECT_EQ(stats.Get(StatId::kPuts), 2u);
}

TEST(StatsTest, LockDepthHighWaterMark) {
  StatsCollector stats;
  stats.RecordLockDepth(1);
  stats.RecordLockDepth(3);
  stats.RecordLockDepth(2);
  EXPECT_EQ(stats.max_locks_held(), 3u);
}

TEST(StatsTest, SnapshotAndDelta) {
  StatsCollector stats;
  stats.Add(StatId::kSearches, 10);
  StatsSnapshot before = stats.Snapshot();
  stats.Add(StatId::kSearches, 5);
  stats.Add(StatId::kRestarts, 2);
  StatsSnapshot after = stats.Snapshot();
  StatsSnapshot delta = after.Delta(before);
  EXPECT_EQ(delta.Get(StatId::kSearches), 5u);
  EXPECT_EQ(delta.Get(StatId::kRestarts), 2u);
}

TEST(StatsTest, ResetZeroes) {
  StatsCollector stats;
  stats.Add(StatId::kMerges, 7);
  stats.RecordLockDepth(4);
  stats.Reset();
  EXPECT_EQ(stats.Get(StatId::kMerges), 0u);
  EXPECT_EQ(stats.max_locks_held(), 0u);
}

TEST(StatsTest, ConcurrentIncrementsLoseNothing) {
  StatsCollector stats;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (uint64_t i = 0; i < kPerThread; ++i) stats.Add(StatId::kInserts);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stats.Get(StatId::kInserts), kThreads * kPerThread);
}

// Counter shards are picked by ThisThreadIndex(): live threads get
// distinct indices, and threads that take theirs together land on
// distinct shards of the 64.
TEST(StatsTest, LiveThreadsGetDistinctIndices) {
  constexpr int kThreads = 8;
  std::vector<uint32_t> index(kThreads);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      index[static_cast<size_t>(t)] = ThisThreadIndex();
      // Stay alive until every thread has its index.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      EXPECT_EQ(ThisThreadIndex(), index[static_cast<size_t>(t)]);
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint32_t> distinct(index.begin(), index.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads));
  std::set<uint32_t> shards;
  for (uint32_t i : index) shards.insert(i % 64);
  EXPECT_EQ(shards.size(), static_cast<size_t>(kThreads));
}

TEST(StatsTest, NamesAreUnique) {
  std::set<std::string> names;
  for (int i = 0; i < kNumStatIds; ++i) {
    names.insert(StatName(static_cast<StatId>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumStatIds));
}

TEST(StatsTest, ToStringListsNonZero) {
  StatsCollector stats;
  stats.Add(StatId::kSplits, 3);
  const std::string s = stats.Snapshot().ToString();
  EXPECT_NE(s.find("splits"), std::string::npos);
  EXPECT_EQ(s.find("merges"), std::string::npos);
}

}  // namespace
}  // namespace obtree
