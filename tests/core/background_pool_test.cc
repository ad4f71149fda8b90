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
#include "obtree/util/fault_injector.h"

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

  BackgroundPool::Options options;
  options.threads = 5;
  BackgroundPool pool(options);
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

    BackgroundPool::Options options;
    options.threads = 2;
    BackgroundPool pool(options);
    std::vector<uint64_t> handles;
    for (auto& s : shards) {
      handles.push_back(pool.Attach(s->tree.get(), s->queue.get()));
    }
    EXPECT_EQ(pool.num_sources(), shards.size());
    if (baseline > 0) {
      // 2 workers + 1 supervisor (Options::supervise defaults on).
      EXPECT_EQ(LiveThreadCount(), baseline + 3);
    }

    for (size_t i = 0; i < shards.size(); ++i) {
      EXPECT_TRUE(WaitForEmpty(shards[i]->queue.get(), milliseconds(10'000)))
          << "shard " << i << " queue size " << shards[i]->queue->Size();
    }
    // Quiesce: let any in-flight task finish so the per-shard counters
    // and their per-tree attribution stop moving before comparison.
    testutil::WaitForStableCounter(
        [&]() { return pool.Stats().tasks_drained; }, []() { return true; });
    const PoolStatsSnapshot stats = pool.Stats();
    EXPECT_EQ(stats.threads, 2);
    EXPECT_GT(stats.tasks_drained, 0u);
    ASSERT_EQ(stats.shards.size(), shards.size());
    for (size_t i = 0; i < shards.size(); ++i) {
      EXPECT_GT(stats.shards[i].tasks_drained, 0u) << "shard " << i;
      // Per-tree attribution surfaces through the tree's StatsCollector.
      EXPECT_EQ(shards[i]->tree->stats()->Get(StatId::kPoolTasksDrained),
                stats.shards[i].tasks_drained);
    }
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
  BackgroundPool::Options options;
  options.threads = 2;
  BackgroundPool pool(options);
  const uint64_t handle = pool.Attach(shard.tree.get(), shard.queue.get());

  // A paused shard stays attached and keeps its handle, but no worker
  // drains the work its deletions queue up.
  pool.Pause(handle);
  Churn(&shard, 1, 400);
  ASSERT_FALSE(shard.queue->Empty());
  EXPECT_EQ(pool.num_sources(), 1u);
  EXPECT_EQ(pool.StatsFor(handle).handle, handle);
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(shard.queue->Empty());
  EXPECT_EQ(pool.StatsFor(handle).tasks_drained, 0u);

  pool.Resume(handle);
  EXPECT_TRUE(WaitForEmpty(shard.queue.get(), milliseconds(10'000)));
  EXPECT_GT(pool.StatsFor(handle).tasks_drained, 0u);
  pool.Detach(handle);
  pool.Pause(handle);  // detached handles are ignored
  pool.Resume(handle);
  EXPECT_TRUE(TreeChecker(shard.tree.get()).CheckStructure().ok());
}

TEST(BackgroundPoolTest, HotShardCannotStarveColdShards) {
  // Four sources — a count DIVISIBLE by the default boost_period (4) — so
  // this also guards against boost-phase/rotation alignment: if boost
  // turns consumed round-robin turns, the shards whose slots always
  // coincide with the boost phase would never be served.
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
    // ONE worker: if scheduling were purely depth-driven, the hot queue
    // would monopolize it; round-robin turns must still reach the cold
    // shards.
    BackgroundPool::Options options;
    options.threads = 1;
    BackgroundPool pool(options);
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

    const PoolStatsSnapshot stats = pool.Stats();
    EXPECT_GT(stats.shards[0].tasks_drained, 0u);  // hot was served too
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

TEST(BackgroundPoolTest, StopWhileBusyJoinsPromptly) {
  const int baseline = testutil::SettledThreadCount();
  Shard shard;
  Churn(&shard, 1, 3000);  // plenty of queued work
  ASSERT_FALSE(shard.queue->Empty());

  BackgroundPool::Options options;
  options.threads = 4;
  BackgroundPool pool(options);
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
  BackgroundPool::Options options;
  options.threads = 2;
  BackgroundPool pool(options);
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
  BackgroundPool::Options options;
  options.threads = 2;
  BackgroundPool pool(options);
  pool.Attach(shard.tree.get(), shard.queue.get());

  PoolStatsSnapshot prev = pool.Stats();
  for (int round = 0; round < 8; ++round) {
    Churn(&shard, 1, 300);
    std::this_thread::sleep_for(milliseconds(10));
    const PoolStatsSnapshot cur = pool.Stats();
    EXPECT_GE(cur.rounds, prev.rounds);
    EXPECT_GE(cur.tasks_drained, prev.tasks_drained);
    EXPECT_GE(cur.restructures, prev.restructures);
    EXPECT_GE(cur.boosts, prev.boosts);
    EXPECT_GE(cur.steals, prev.steals);
    EXPECT_GE(cur.idle_sleeps, prev.idle_sleeps);
    EXPECT_GE(cur.IdleRatio(), 0.0);
    EXPECT_LE(cur.IdleRatio(), 1.0);
    ASSERT_EQ(cur.shards.size(), 1u);
    EXPECT_GE(cur.shards[0].tasks_drained, prev.shards[0].tasks_drained);
    // Pool-wide totals cover the per-shard slices.
    EXPECT_GE(cur.tasks_drained, cur.shards[0].tasks_drained);
    prev = cur;
    for (Key k = 1; k <= 300; ++k) (void)shard.tree->Delete(k);
  }
  EXPECT_GT(prev.rounds, 0u);
  EXPECT_FALSE(prev.ToString().empty());
}

TEST(BackgroundPoolTest, ScanModeSourceCompacts) {
  // queue == nullptr attaches a scan-maintained tree (Sections 5.1-5.2):
  // the pool runs full-tree passes on the shard's round-robin turns.
  TreeOptions options;
  options.min_entries = 2;
  SagivTree tree(options);
  for (Key k = 1; k <= 4000; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  const uint32_t tall = tree.Height();
  for (Key k = 1; k <= 4000; ++k) ASSERT_TRUE(tree.Delete(k).ok());

  BackgroundPool::Options pool_options;
  pool_options.threads = 2;
  BackgroundPool pool(pool_options);
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

TEST(BackgroundPoolTest, DetachSurvivesWorkerKilledMidDrain) {
  // Regression: a worker dying between BeginWork and EndWork used to leak
  // its `active` claim, and Detach (a plain cv wait on active == 0) hung
  // forever — which is exactly the ConcurrentMap::ShutdownMaintenance /
  // map-destructor path. With RAII active scopes the claim is always
  // released, and the supervisor respawns the dead worker.
  Shard shard;
  Churn(&shard, 1, 2000);
  ASSERT_FALSE(shard.queue->Empty());

  BackgroundPool::Options options;
  options.threads = 2;
  options.supervise = true;
  options.health_check_period = milliseconds(2);
  BackgroundPool pool(options);

  // Every drain attempt kills the worker mid-batch for a while.
  FaultSpec kill;
  kill.action = FaultAction::kError;
  kill.max_fires = 6;
  FaultInjector::Instance().Arm("pool-drain", kill);

  const uint64_t handle = pool.Attach(shard.tree.get(), shard.queue.get());

  // Wait until every scheduled kill has fired (each one is a worker death
  // with the Detach claim held at the moment of death).
  const auto until = steady_clock::now() + milliseconds(10'000);
  while (FaultInjector::Instance().SiteStats("pool-drain").fires < 6 &&
         steady_clock::now() < until) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(FaultInjector::Instance().SiteStats("pool-drain").fires, 6u);
  FaultInjector::Instance().DisarmAll();

  // Detach must complete even though workers died holding the shard.
  pool.Detach(handle);

  // The last kill's respawn may still be in the supervisor's hands.
  while (pool.Stats().worker_respawns < 6 && steady_clock::now() < until) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  const PoolStatsSnapshot stats = pool.Stats();
  EXPECT_GE(stats.worker_deaths, 6u);
  EXPECT_GE(stats.worker_respawns, 6u);  // supervisor brought them back
  EXPECT_TRUE(TreeChecker(shard.tree.get()).CheckStructure().ok());

  // Respawned workers still drain: re-attach and the queue empties.
  Churn(&shard, 2001, 4000);
  const uint64_t again = pool.Attach(shard.tree.get(), shard.queue.get());
  EXPECT_TRUE(WaitForEmpty(shard.queue.get(), milliseconds(10'000)));
  pool.Detach(again);
  EXPECT_TRUE(TreeChecker(shard.tree.get()).CheckStructure().ok());
}

TEST(BackgroundPoolTest, UnsupervisedPoolStillDetachesAfterAllWorkersDie) {
  // With supervision off, dead workers stay dead (deaths count, respawns
  // do not) — but Detach and Stop must still return.
  Shard shard;
  Churn(&shard, 1, 500);

  BackgroundPool::Options options;
  options.threads = 1;
  options.supervise = false;
  BackgroundPool pool(options);

  FaultSpec kill;
  kill.action = FaultAction::kError;
  kill.max_fires = 1;
  FaultInjector::Instance().Arm("pool-worker", kill);

  const uint64_t handle = pool.Attach(shard.tree.get(), shard.queue.get());
  const auto until = steady_clock::now() + milliseconds(10'000);
  while (pool.Stats().worker_deaths < 1 && steady_clock::now() < until) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  FaultInjector::Instance().DisarmAll();

  pool.Detach(handle);  // must not hang
  const PoolStatsSnapshot stats = pool.Stats();
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.worker_respawns, 0u);
  pool.Stop();  // must join the dead thread cleanly
}

}  // namespace
}  // namespace obtree
