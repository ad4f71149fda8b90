// Copyright 2026 The obtree Authors.
//
// E4 — the restart-vs-lock-everything argument (Sections 1 and 5.2):
//
//   "the overhead in restarting some processes is likely to be smaller
//    than in managing queues to grant several types of locks on each
//    node... it is reasonable to assume that the problem occurs
//    infrequently."
//
// We run readers against deleters plus aggressive compression and count
// (a) restarts per million operations, (b) recoveries through deleted-node
// merge pointers (the cheap path that avoids a restart), and, for
// contrast, (c) the number of latch acquisitions the lock-coupling
// alternative pays for the same logical work.

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "obtree/baseline/lock_coupling_tree.h"
#include "obtree/core/compression_queue.h"
#include "obtree/core/queue_compressor.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/workload/driver.h"
#include "obtree/workload/report.h"

namespace obtree {
namespace {

struct RestartRow {
  const char* scenario;
  uint64_t ops;
  uint64_t restarts;
  uint64_t merge_follows;
  uint64_t link_follows;
};

RestartRow RunScenario(const char* label, bool with_compressors,
                       int reader_threads, int deleter_threads) {
  TreeOptions options;
  options.min_entries = 8;  // small nodes -> maximal restructuring churn
  SagivTree tree(options);
  CompressionQueue queue;
  queue.RegisterWith(tree.epoch());
  if (with_compressors) tree.AttachCompressionQueue(&queue);

  constexpr Key kKeySpace = 200'000;
  for (Key k = 1; k <= kKeySpace; ++k) (void)tree.Insert(k, k);
  tree.stats()->Reset();

  std::atomic<bool> stop{false};
  std::vector<std::thread> background;
  ScanCompressor scanner(&tree);
  QueueCompressor drainer(&tree, &queue);
  if (with_compressors) {
    background.emplace_back(
        [&]() { scanner.RunUntil(&stop, std::chrono::milliseconds(0)); });
    background.emplace_back(
        [&]() { drainer.RunUntil(&stop, std::chrono::milliseconds(0)); });
  }

  constexpr uint64_t kOpsPerThread = 200'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < reader_threads; ++t) {
    workers.emplace_back([&, t]() {
      Random rng(static_cast<uint64_t>(t) + 1);
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        (void)tree.Search(rng.UniformRange(1, kKeySpace));
      }
    });
  }
  for (int t = 0; t < deleter_threads; ++t) {
    workers.emplace_back([&, t]() {
      Random rng(static_cast<uint64_t>(t) + 50);
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const Key k = rng.UniformRange(1, kKeySpace);
        if (rng.Bernoulli(0.7)) {
          (void)tree.Delete(k);
        } else {
          (void)tree.Insert(k, k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  for (auto& b : background) b.join();

  const StatsSnapshot stats = tree.stats()->Snapshot();
  const uint64_t total_ops =
      kOpsPerThread * static_cast<uint64_t>(reader_threads + deleter_threads);
  return RestartRow{label,
                    total_ops,
                    stats.Get(StatId::kRestarts),
                    stats.Get(StatId::kMergePointerFollows),
                    stats.Get(StatId::kLinkFollows)};
}

}  // namespace
}  // namespace obtree

int main() {
  using namespace obtree;
  PrintBanner("E4: restart frequency under compression",
              "being routed to a wrong node is rare; most displaced "
              "readers recover through the deleted node's merge pointer "
              "without restarting");

  Table table({"scenario", "ops", "restarts", "per Mop", "merge-ptr hops",
               "link follows"});
  for (const RestartRow& row : {
           RunScenario("no compression (4R+4W)", false, 4, 4),
           RunScenario("scan+queue compressors (4R+4W)", true, 4, 4),
           RunScenario("compressors, delete-heavy (2R+6W)", true, 2, 6),
       }) {
    table.AddRow({row.scenario, Fmt(row.ops), Fmt(row.restarts),
                  Fmt(static_cast<double>(row.restarts) * 1e6 /
                      static_cast<double>(row.ops)),
                  Fmt(row.merge_follows), Fmt(row.link_follows)});
  }
  table.Print();

  // The alternative the paper argues against: every process locks every
  // node on its path. Count latch acquisitions for the same op volume.
  {
    TreeOptions options;
    options.min_entries = 8;
    LockCouplingTree tree(options);
    WorkloadSpec spec = WorkloadSpec::Mixed5050();
    spec.key_space = 200'000;
    spec.preload = 200'000;
    PreloadTree(&tree, spec, 4);
    tree.stats()->Reset();
    const DriverResult result = RunWorkload(&tree, spec, 8, 200'000, 3);
    std::printf(
        "\nfor comparison, lock-coupling paid %llu latch acquisitions for "
        "%llu ops (%.2f per op) — the standing cost the restart scheme "
        "avoids\n",
        static_cast<unsigned long long>(
            result.stats.Get(StatId::kLocksAcquired)),
        static_cast<unsigned long long>(result.total_ops),
        static_cast<double>(result.stats.Get(StatId::kLocksAcquired)) /
            static_cast<double>(result.total_ops));
  }
  return 0;
}
