// Copyright 2026 The obtree Authors.
//
// BackgroundPool: a fixed worker set draining many shards' compression
// queues. The properties under test are the ones the sharded deployment
// leans on: fairness (a hot shard cannot starve cold shards), clean
// stop-while-busy semantics, attach/detach safety during traffic (the
// map-destructor path), monotone stats, and no leaked threads.

#include "obtree/core/background_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "obtree/core/compression_queue.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/tree_checker.h"

namespace obtree {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;
using testutil::LiveThreadCount;

/// A tree + compression queue pair wired the way ConcurrentMap wires them
/// (deletions enqueue under-full leaves; the queue's stacks hold back page
/// reuse through the tree's epoch).
struct Shard {
  std::unique_ptr<SagivTree> tree;
  std::unique_ptr<CompressionQueue> queue;

  explicit Shard(uint32_t k = 2) {
    TreeOptions options;
    options.min_entries = k;
    tree = std::make_unique<SagivTree>(options);
    queue = std::make_unique<CompressionQueue>();
    queue->RegisterWith(tree->epoch());
    tree->AttachCompressionQueue(queue.get());
  }
  ~Shard() { tree->AttachCompressionQueue(nullptr); }
};

/// Insert [lo, hi] then delete most of it, leaving under-full leaves on
/// the queue.
void Churn(Shard* shard, Key lo, Key hi) {
  for (Key k = lo; k <= hi; ++k) ASSERT_TRUE(shard->tree->Insert(k, k).ok());
  for (Key k = lo; k <= hi; ++k) {
    if (k % 10 != 0) {
      ASSERT_TRUE(shard->tree->Delete(k).ok());
    }
  }
}

bool WaitForEmpty(const CompressionQueue* queue, milliseconds deadline) {
  const auto until = steady_clock::now() + deadline;
  while (steady_clock::now() < until) {
    if (queue->Empty()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return queue->Empty();
}

TEST(BackgroundPoolTest, DefaultThreadCountRespectsEnv) {
  // Preserve any caller-provided setting (CI's TSan job runs this whole
  // binary with OBTREE_POOL_THREADS=2; clobbering it here would silently
  // change the configuration of every later test).
  const char* prior_raw = std::getenv("OBTREE_POOL_THREADS");
  const std::string prior = prior_raw != nullptr ? prior_raw : "";
  ASSERT_EQ(setenv("OBTREE_POOL_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(BackgroundPool::DefaultThreadCount(), 3);
  ASSERT_EQ(setenv("OBTREE_POOL_THREADS", "garbage", 1), 0);
  EXPECT_GE(BackgroundPool::DefaultThreadCount(), 1);  // falls back to hw
  ASSERT_EQ(unsetenv("OBTREE_POOL_THREADS"), 0);
  EXPECT_GE(BackgroundPool::DefaultThreadCount(), 1);
  if (prior_raw != nullptr) {
    ASSERT_EQ(setenv("OBTREE_POOL_THREADS", prior.c_str(), 1), 0);
  }

  BackgroundPool pool(5);
  EXPECT_EQ(pool.thread_count(), 5);
}

TEST(BackgroundPoolTest, DrainsManyShardsWithFewThreads) {
  const int baseline = testutil::SettledThreadCount();
  {
    std::vector<std::unique_ptr<Shard>> shards;
    for (int i = 0; i < 6; ++i) shards.push_back(std::make_unique<Shard>());
    for (size_t i = 0; i < shards.size(); ++i) {
      Churn(shards[i].get(), 1, 400);
      ASSERT_FALSE(shards[i]->queue->Empty()) << "shard " << i;
    }

    BackgroundPool pool(2);
    std::vector<uint64_t> handles;
    for (auto& s : shards) {
      handles.push_back(pool.Attach(s->tree.get(), s->queue.get()));
    }
    EXPECT_EQ(pool.num_sources(), shards.size());
    if (baseline > 0) {
      EXPECT_EQ(LiveThreadCount(), baseline + 2);  // exactly the workers
    }

    for (size_t i = 0; i < shards.size(); ++i) {
      EXPECT_TRUE(WaitForEmpty(shards[i]->queue.get(), milliseconds(10'000)))
          << "shard " << i << " queue size " << shards[i]->queue->Size();
    }
    // Quiesce: let any in-flight task finish so the pool total and the
    // per-tree counters stop moving before comparison.
    testutil::WaitForStableCounter(
        [&]() { return pool.Stats().tasks_drained; }, []() { return true; });
    const PoolStatsSnapshot stats = pool.Stats();
    EXPECT_EQ(stats.threads, 2);
    EXPECT_GT(stats.tasks_drained, 0u);
    uint64_t per_tree_sum = 0;
    for (size_t i = 0; i < shards.size(); ++i) {
      // Per-tree attribution surfaces through the tree's StatsCollector.
      const uint64_t drained =
          shards[i]->tree->stats()->Get(StatId::kPoolTasksDrained);
      EXPECT_GT(drained, 0u) << "shard " << i;
      per_tree_sum += drained;
    }
    EXPECT_EQ(per_tree_sum, stats.tasks_drained);
    for (uint64_t h : handles) pool.Detach(h);
    for (auto& s : shards) {
      EXPECT_TRUE(TreeChecker(s->tree.get()).CheckStructure().ok());
    }
  }
  // Every pool worker joined when the pool died.
  if (baseline > 0) {
    EXPECT_EQ(testutil::WaitForThreadCount(baseline), baseline);
  }
}

TEST(BackgroundPoolTest, PauseHoldsServiceUntilResume) {
  Shard shard;
  BackgroundPool pool(2);
  const uint64_t handle = pool.Attach(shard.tree.get(), shard.queue.get());
  auto drained = [&]() {
    return shard.tree->stats()->Get(StatId::kPoolTasksDrained);
  };

  // A paused shard stays attached and keeps its handle, but no worker
  // drains the work its deletions queue up.
  pool.Pause(handle);
  Churn(&shard, 1, 400);
  ASSERT_FALSE(shard.queue->Empty());
  EXPECT_EQ(pool.num_sources(), 1u);
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(shard.queue->Empty());
  EXPECT_EQ(drained(), 0u);

  pool.Resume(handle);
  EXPECT_TRUE(WaitForEmpty(shard.queue.get(), milliseconds(10'000)));
  EXPECT_GT(drained(), 0u);
  pool.Detach(handle);
  pool.Pause(handle);  // detached handles are ignored
  pool.Resume(handle);
  EXPECT_TRUE(TreeChecker(shard.tree.get()).CheckStructure().ok());
}

TEST(BackgroundPoolTest, HotShardCannotStarveColdShards) {
  // Four sources and one worker, with the hot shard attached first: the
  // rotation cursor must still bring every cold shard's turn around
  // while the hot queue never runs dry.
  Shard hot;
  Shard cold_a;
  Shard cold_b;
  Shard cold_c;
  Churn(&cold_a, 1, 600);
  Churn(&cold_b, 1, 600);
  Churn(&cold_c, 1, 600);
  ASSERT_FALSE(cold_a.queue->Empty());
  ASSERT_FALSE(cold_b.queue->Empty());
  ASSERT_FALSE(cold_c.queue->Empty());

  // A mutator keeps the hot shard's queue loaded for the whole test.
  std::atomic<bool> stop_mutator{false};
  std::thread mutator([&]() {
    Key base = 1;
    while (!stop_mutator.load(std::memory_order_acquire)) {
      for (Key k = base; k < base + 200; ++k) (void)hot.tree->Insert(k, k);
      for (Key k = base; k < base + 200; ++k) {
        if (k % 8 != 0) (void)hot.tree->Delete(k);
      }
      base += 200;
    }
  });
  // The hot queue must be loaded before the pool starts: on a busy host
  // the cold queues can drain before the mutator first runs, leaving the
  // hot shard nothing to be served with.
  while (hot.queue->Empty()) std::this_thread::yield();

  {
    // ONE worker: if the walk always started at the hot shard, its queue
    // would monopolize the worker; the rotation must still reach the
    // cold shards.
    BackgroundPool pool(1);
    pool.Attach(hot.tree.get(), hot.queue.get());
    const uint64_t ha = pool.Attach(cold_a.tree.get(), cold_a.queue.get());
    const uint64_t hb = pool.Attach(cold_b.tree.get(), cold_b.queue.get());
    const uint64_t hc = pool.Attach(cold_c.tree.get(), cold_c.queue.get());

    EXPECT_TRUE(WaitForEmpty(cold_a.queue.get(), milliseconds(20'000)))
        << "cold shard A starved; queue size " << cold_a.queue->Size();
    EXPECT_TRUE(WaitForEmpty(cold_b.queue.get(), milliseconds(20'000)))
        << "cold shard B starved; queue size " << cold_b.queue->Size();
    EXPECT_TRUE(WaitForEmpty(cold_c.queue.get(), milliseconds(20'000)))
        << "cold shard C starved; queue size " << cold_c.queue->Size();

    // The hot shard was served too.
    EXPECT_GT(hot.tree->stats()->Get(StatId::kPoolTasksDrained), 0u);
    pool.Detach(ha);
    pool.Detach(hb);
    pool.Detach(hc);
    stop_mutator.store(true, std::memory_order_release);
    mutator.join();
  }
  EXPECT_TRUE(TreeChecker(cold_a.tree.get()).CheckStructure().ok());
  EXPECT_TRUE(TreeChecker(cold_c.tree.get()).CheckStructure().ok());
  EXPECT_TRUE(TreeChecker(hot.tree.get()).CheckStructure().ok());
}

// The rotation bound itself, with no mutator racing the pool: a hot
// shard with a deep backlog, attached first, and three small cold
// backlogs. The cursor brings each cold shard's turn around once per
// rotation, so the cold queues empty while most of the hot backlog still
// waits. A scheduler that always served the first source with work would
// drain the hot queue first.
TEST(BackgroundPoolTest, ColdShardsDrainBeforeAHotBacklog) {
  Shard hot;
  Shard cold_a;
  Shard cold_b;
  Shard cold_c;
  Churn(&hot, 1, 100'000);
  Churn(&cold_a, 1, 600);
  Churn(&cold_b, 1, 600);
  Churn(&cold_c, 1, 600);
  const size_t hot_backlog = hot.queue->Size();
  const size_t cold_backlog = cold_a.queue->Size() + cold_b.queue->Size() +
                              cold_c.queue->Size();
  ASSERT_GT(hot_backlog, 20 * cold_backlog);

  BackgroundPool pool(1);
  pool.Attach(hot.tree.get(), hot.queue.get());
  pool.Attach(cold_a.tree.get(), cold_a.queue.get());
  pool.Attach(cold_b.tree.get(), cold_b.queue.get());
  pool.Attach(cold_c.tree.get(), cold_c.queue.get());
  EXPECT_TRUE(WaitForEmpty(cold_a.queue.get(), milliseconds(20'000)));
  EXPECT_TRUE(WaitForEmpty(cold_b.queue.get(), milliseconds(20'000)));
  EXPECT_TRUE(WaitForEmpty(cold_c.queue.get(), milliseconds(20'000)));
  const uint64_t hot_drained =
      hot.tree->stats()->Get(StatId::kPoolTasksDrained);
  EXPECT_LT(hot_drained, hot_backlog / 2)
      << "hot backlog " << hot_backlog << ", cold backlog " << cold_backlog;
  pool.Stop();
  EXPECT_TRUE(TreeChecker(hot.tree.get()).CheckStructure().ok());
  EXPECT_TRUE(TreeChecker(cold_a.tree.get()).CheckStructure().ok());
}

TEST(BackgroundPoolTest, StopWhileBusyJoinsPromptly) {
  const int baseline = testutil::SettledThreadCount();
  Shard shard;
  Churn(&shard, 1, 3000);  // plenty of queued work
  ASSERT_FALSE(shard.queue->Empty());

  BackgroundPool pool(4);
  pool.Attach(shard.tree.get(), shard.queue.get());
  std::this_thread::sleep_for(milliseconds(5));  // let workers engage

  const auto begin = steady_clock::now();
  pool.Stop();
  const auto elapsed = steady_clock::now() - begin;
  EXPECT_LT(elapsed, milliseconds(5'000));
  if (baseline > 0) {
    EXPECT_EQ(testutil::WaitForThreadCount(baseline), baseline);
  }
  pool.Stop();  // idempotent
  // Detach after Stop still works (shards outlive a stopped pool).
  pool.Detach(1);
  EXPECT_TRUE(TreeChecker(shard.tree.get()).CheckStructure().ok());
}

TEST(BackgroundPoolTest, AttachDetachDuringTraffic) {
  Shard a;
  Shard b;
  BackgroundPool pool(2);
  pool.Attach(a.tree.get(), a.queue.get());

  std::atomic<bool> stop_mutator{false};
  std::thread mutator([&]() {
    Key base = 1;
    while (!stop_mutator.load(std::memory_order_acquire)) {
      for (Key k = base; k < base + 100; ++k) (void)a.tree->Insert(k, k);
      for (Key k = base; k < base + 100; ++k) {
        if (k % 5 != 0) (void)a.tree->Delete(k);
      }
      base += 100;
    }
  });

  // Shard b churns through attach/detach cycles while the pool serves a.
  // This is the ConcurrentMap-destructor path: after every Detach return,
  // no worker may touch b's tree or queue.
  for (int cycle = 0; cycle < 20; ++cycle) {
    Churn(&b, 1, 200);
    const uint64_t handle = pool.Attach(b.tree.get(), b.queue.get());
    std::this_thread::sleep_for(milliseconds(2));
    pool.Detach(handle);
    pool.Detach(handle);        // idempotent: double detach is a no-op
    pool.Detach(0xdeadbeefu);   // unknown handles are ignored
    // Safe to mutate (or destroy) b freely now; drain what is left so the
    // next cycle starts clean.
    while (!b.queue->Empty()) {
      CompressionTask task;
      if (b.queue->Pop(&task)) b.queue->FinishTask(task.stamp);
    }
    for (Key k = 1; k <= 200; ++k) (void)b.tree->Delete(k);
  }
  stop_mutator.store(true, std::memory_order_release);
  mutator.join();
  EXPECT_EQ(pool.num_sources(), 1u);
  pool.Stop();  // quiesce: TreeChecker requires no concurrent restructuring
  EXPECT_TRUE(TreeChecker(a.tree.get()).CheckStructure().ok());
  EXPECT_TRUE(TreeChecker(b.tree.get()).CheckStructure().ok());
}

TEST(BackgroundPoolTest, StatsCountersMonotone) {
  Shard shard;
  BackgroundPool pool(2);
  pool.Attach(shard.tree.get(), shard.queue.get());
  auto drained = [&]() {
    return shard.tree->stats()->Get(StatId::kPoolTasksDrained);
  };

  PoolStatsSnapshot prev = pool.Stats();
  uint64_t prev_drained = drained();
  for (int round = 0; round < 8; ++round) {
    Churn(&shard, 1, 300);
    std::this_thread::sleep_for(milliseconds(10));
    const uint64_t cur_drained = drained();
    const PoolStatsSnapshot cur = pool.Stats();
    EXPECT_GE(cur.rounds, prev.rounds);
    EXPECT_GE(cur.tasks_drained, prev.tasks_drained);
    EXPECT_GE(cur.restructures, prev.restructures);
    EXPECT_GE(cur.idle_sleeps, prev.idle_sleeps);
    EXPECT_GE(cur.IdleRatio(), 0.0);
    EXPECT_LE(cur.IdleRatio(), 1.0);
    EXPECT_GE(cur_drained, prev_drained);
    prev = cur;
    prev_drained = cur_drained;
    for (Key k = 1; k <= 300; ++k) (void)shard.tree->Delete(k);
  }
  EXPECT_GT(prev.rounds, 0u);
  // Once the workers have joined, the pool-wide total covers the
  // per-tree count (one source, so they are equal).
  pool.Stop();
  EXPECT_EQ(pool.Stats().tasks_drained, drained());
  EXPECT_FALSE(prev.ToString().empty());
}

TEST(BackgroundPoolTest, ScanModeSourceCompacts) {
  // queue == nullptr attaches a scan-maintained tree (Sections 5.1-5.2):
  // the pool runs full-tree passes on the shard's turns in the rotation.
  TreeOptions options;
  options.min_entries = 2;
  SagivTree tree(options);
  for (Key k = 1; k <= 4000; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  const uint32_t tall = tree.Height();
  for (Key k = 1; k <= 4000; ++k) ASSERT_TRUE(tree.Delete(k).ok());

  BackgroundPool pool(2);
  const uint64_t handle = pool.Attach(&tree, /*queue=*/nullptr);
  const auto until = steady_clock::now() + milliseconds(10'000);
  while (tree.Height() > 2 && steady_clock::now() < until) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  pool.Detach(handle);
  EXPECT_LE(tree.Height(), 2u);
  EXPECT_LT(tree.Height(), tall);
  EXPECT_TRUE(TreeChecker(&tree).CheckStructure().ok());
}

}  // namespace
}  // namespace obtree
