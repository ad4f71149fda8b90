// Copyright 2026 The obtree Authors.
//
// E1 — the paper's headline claim (Abstract, Sections 1 and 3):
//
//   "an insertion process has to lock only one node at any time (as
//    opposed to locking simultaneously two or three nodes in [Lehman-Yao])"
//
// This bench runs identical insert-only and mixed workloads on SagivTree
// and LehmanYaoTree and reports, per tree: the maximum number of locks any
// operation held simultaneously, locks acquired per operation, and page
// reads per operation. It also shows that Sagiv/LY readers acquire zero
// locks while lock-coupling readers latch every node on the path.
//
// E1b — the lock *implementation* under contention, measured at the
// microbench level: N threads hammer Lock/Unlock on one hot page through
// PageManager, the convoy pattern a hot leaf produces, on the shipped
// spin-then-park PaperLock. Cells: aggregate Mlocks/s, contended
// acquisitions, parks, and the contended-wait p50/p99 from the
// lock-wait histogram.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "obtree/baseline/lehman_yao_tree.h"
#include "obtree/baseline/lock_coupling_tree.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/storage/page_manager.h"
#include "obtree/util/epoch.h"
#include "obtree/util/histogram.h"
#include "obtree/workload/driver.h"
#include "obtree/workload/report.h"

namespace obtree {
namespace {

struct LockProfile {
  uint64_t max_locks;
  double locks_per_op;
  double gets_per_op;
  double read_locks_per_search;
};

template <typename Tree>
LockProfile Profile(const WorkloadSpec& spec, int threads,
                    uint64_t ops_per_thread) {
  TreeOptions options;
  options.min_entries = 16;  // small nodes -> frequent splits
  Tree tree(options);
  PreloadTree(&tree, spec, threads);
  tree.stats()->Reset();
  const DriverResult result =
      RunWorkload(&tree, spec, threads, ops_per_thread, /*seed=*/42);

  LockProfile profile;
  profile.max_locks = result.stats.max_locks_held;
  profile.locks_per_op =
      static_cast<double>(result.stats.Get(StatId::kLocksAcquired)) /
      static_cast<double>(result.total_ops);
  profile.gets_per_op =
      static_cast<double>(result.stats.Get(StatId::kGets)) /
      static_cast<double>(result.total_ops);

  // Separate read-only phase to isolate the reader locking story.
  const StatsSnapshot before = tree.stats()->Snapshot();
  WorkloadSpec read_only = spec;
  read_only.search_pct = 1.0;
  read_only.insert_pct = read_only.delete_pct = read_only.scan_pct = 0.0;
  const DriverResult reads =
      RunWorkload(&tree, read_only, threads, ops_per_thread / 2, 43);
  (void)before;
  profile.read_locks_per_search =
      static_cast<double>(reads.stats.Get(StatId::kLocksAcquired)) /
      static_cast<double>(reads.total_ops);
  return profile;
}

void RunExperiment(const WorkloadSpec& spec, int threads,
                   uint64_t ops_per_thread) {
  std::printf("workload: %s, threads=%d, ops/thread=%llu\n",
              spec.Describe().c_str(), threads,
              static_cast<unsigned long long>(ops_per_thread));

  const LockProfile sagiv = Profile<SagivTree>(spec, threads, ops_per_thread);
  const LockProfile ly =
      Profile<LehmanYaoTree>(spec, threads, ops_per_thread);
  const LockProfile coupling =
      Profile<LockCouplingTree>(spec, threads, ops_per_thread);

  Table table({"tree", "max locks held", "locks/op", "page reads/op",
               "locks per SEARCH"});
  table.AddRow({"sagiv (this paper)", Fmt(sagiv.max_locks),
                Fmt(sagiv.locks_per_op), Fmt(sagiv.gets_per_op),
                Fmt(sagiv.read_locks_per_search)});
  table.AddRow({"lehman-yao [8]", Fmt(ly.max_locks), Fmt(ly.locks_per_op),
                Fmt(ly.gets_per_op), Fmt(ly.read_locks_per_search)});
  table.AddRow({"lock-coupling [2]", Fmt(coupling.max_locks),
                Fmt(coupling.locks_per_op), Fmt(coupling.gets_per_op),
                Fmt(coupling.read_locks_per_search)});
  table.Print();
  std::printf(
      "(lock-coupling uses reader/writer latches, not paper locks, so the "
      "max-held meter reads 0; it holds 2 latches hand-over-hand on every "
      "step of every path — see locks/op)\n\n");
}

// ---------------------------------------------------------------- E1b

struct LockCell {
  double mlocks_per_sec = 0.0;
  uint64_t contended = 0;
  uint64_t parks = 0;
  uint64_t wait_p50_ns = 0;
  uint64_t wait_p99_ns = 0;
};

LockCell LockMicrobench(int threads, uint64_t ops_per_thread) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  Result<PageId> id = pm.Allocate();
  const PageId hot = *id;

  // ~100 ns of guarded work per hold: the size of an in-place mutation.
  uint64_t guarded = 0;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&]() {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        pm.Lock(hot);
        for (int w = 0; w < 24; ++w) {
          guarded += (guarded >> 3) + w + 1;  // data dependency chain
        }
        pm.Unlock(hot);
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  LockCell cell;
  const double total_ops =
      static_cast<double>(ops_per_thread) * static_cast<double>(threads);
  cell.mlocks_per_sec = secs > 0 ? total_ops / secs / 1e6 : 0.0;
  cell.contended = stats.Get(StatId::kLocksContended);
  cell.parks = stats.Get(StatId::kLockParks);
  const Histogram waits = stats.LockWaitHistogram();
  cell.wait_p50_ns = waits.Percentile(50);
  cell.wait_p99_ns = waits.Percentile(99);
  if (guarded == 0xdeadbeef) std::printf("!");  // keep the work alive
  return cell;
}

void RunLockMicrobench() {
  PrintBanner(
      "E1b: one hot paper lock, N threads",
      "spin-then-park (PaperLock::kSpinBudget probe rounds, then a "
      "futex park). Short critical sections make a park round-trip the "
      "dominant cost, so the spin keeps most handoffs in user space");
  const uint64_t ops = 200'000;
  Table table({"threads", "Mlocks/s", "contended", "parks", "wait p50ns",
               "wait p99ns"});
  for (int threads : {1, 2, 4, 8}) {
    const LockCell cell = LockMicrobench(threads, ops);
    table.AddRow({Fmt(static_cast<uint64_t>(threads)),
                  Fmt(cell.mlocks_per_sec), Fmt(cell.contended),
                  Fmt(cell.parks), Fmt(cell.wait_p50_ns),
                  Fmt(cell.wait_p99_ns)});
  }
  table.Print();
  std::printf(
      "(on a single-core host the spin budget degrades to yields)\n\n");
}

}  // namespace
}  // namespace obtree

int main() {
  using namespace obtree;
  PrintBanner("E1: locks held per operation",
              "Sagiv insertions hold exactly ONE lock at any time; "
              "Lehman-Yao holds 2-3 during the split hand-off; "
              "lock-coupling locks every node on the path, even for reads");

  WorkloadSpec inserts = WorkloadSpec::InsertOnly();
  inserts.key_space = 1u << 22;
  RunExperiment(inserts, /*threads=*/4, /*ops_per_thread=*/100'000);

  WorkloadSpec mixed = WorkloadSpec::Mixed5050();
  mixed.key_space = 200'000;
  mixed.preload = 100'000;
  RunExperiment(mixed, /*threads=*/8, /*ops_per_thread=*/100'000);

  RunLockMicrobench();
  return 0;
}
