// Copyright 2026 The obtree Authors.
//
// Multi-threaded workload driver, templated over the target
// implementation. Two duck-typed surfaces are accepted:
//
//   * trees (SagivTree and the three baselines):
//     Insert/Search/Delete/Scan/Size and a `stats()` StatsCollector;
//   * map front-ends (ShardedMap, ConcurrentMap) — the sharded-target
//     mode: same operations plus a `Stats()` aggregate snapshot instead
//     of a single collector.
//
// Used by the benchmark binaries and the examples.

#ifndef OBTREE_WORKLOAD_DRIVER_H_
#define OBTREE_WORKLOAD_DRIVER_H_

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obtree/util/fault_injector.h"
#include "obtree/util/histogram.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"
#include "obtree/workload/generator.h"

namespace obtree {

/// Counter access shim: prefers an aggregate `Stats()` (ShardedMap sums
/// its shards there) and falls back to the tree's `stats()` collector.
template <typename Tree, typename = void>
struct DriverStatsAccess {
  static StatsSnapshot Snapshot(const Tree* tree) {
    return tree->stats()->Snapshot();
  }
  static uint64_t MaxLocksHeld(const Tree* tree) {
    return tree->stats()->max_locks_held();
  }
};

template <typename Tree>
struct DriverStatsAccess<
    Tree, std::void_t<decltype(std::declval<const Tree&>().Stats())>> {
  static StatsSnapshot Snapshot(const Tree* tree) { return tree->Stats(); }
  static uint64_t MaxLocksHeld(const Tree* tree) {
    return tree->Stats().max_locks_held;
  }
};

/// Aggregate outcome of one driver run.
struct DriverResult {
  uint64_t total_ops = 0;
  uint64_t succeeded = 0;   ///< ops returning OK / value found
  double seconds = 0.0;
  int threads = 0;
  std::string label;        ///< workload name (spec.name), set by RunWorkload

  Histogram latency_ns;     ///< merged per-op latency (if collected)
  StatsSnapshot stats;      ///< tree counter deltas over the run

  double MopsPerSec() const {
    return seconds > 0
               ? static_cast<double>(total_ops) / seconds / 1e6
               : 0.0;
  }
  std::string Summary() const;
};

/// The disk-resident regime of the paper's model (§2.2): while in scope,
/// every node access — each counted get and each counted put, on every
/// tree in the process, outside a FaultInjector::ScopedExemption — sleeps
/// `stall_us` microseconds, through a FaultAction::kStall armed on the
/// PageManager "get" and "put" sites.
/// Construct it after the preload; it disarms both sites on exit. A
/// stall of 0 arms nothing (the in-memory regime).
class ScopedIoStall {
 public:
  explicit ScopedIoStall(uint64_t stall_us) : armed_(stall_us > 0) {
    if (!armed_) return;
    FaultSpec spec;
    spec.action = FaultAction::kStall;
    spec.stall_us = stall_us;
    FaultInjector::Instance().Arm("get", spec);
    FaultInjector::Instance().Arm("put", spec);
  }
  ~ScopedIoStall() {
    if (!armed_) return;
    FaultInjector::Instance().Disarm("get");
    FaultInjector::Instance().Disarm("put");
  }
  OBTREE_DISALLOW_COPY_AND_ASSIGN(ScopedIoStall);

 private:
  const bool armed_;
};

/// Insert `spec.preload` distinct keys (deterministic enumeration) using
/// `threads` workers. Values are key+1 so readers can verify.
template <typename Tree>
void PreloadTree(Tree* tree, const WorkloadSpec& spec, int threads = 4) {
  if (spec.preload == 0) return;
  std::vector<std::thread> workers;
  const uint64_t per = spec.preload / static_cast<uint64_t>(threads) + 1;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([tree, &spec, t, per]() {
      const uint64_t begin = static_cast<uint64_t>(t) * per;
      const uint64_t end = std::min(begin + per, spec.preload);
      for (uint64_t i = begin; i < end; ++i) {
        const Key k = OpGenerator::PreloadKey(i, spec.key_space);
        (void)tree->Insert(k, k + 1);  // duplicates possible; ignored
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// Run `ops_per_thread` operations on each of `threads` workers drawing
/// from `spec`. When collect_latency is set, each op is timed into a
/// histogram (adds ~20ns/op of clock overhead).
template <typename Tree>
DriverResult RunWorkload(Tree* tree, const WorkloadSpec& spec, int threads,
                         uint64_t ops_per_thread, uint64_t seed = 1,
                         bool collect_latency = false) {
  using Clock = std::chrono::steady_clock;
  DriverResult result;
  result.threads = threads;
  result.label = spec.name;
  const StatsSnapshot before = DriverStatsAccess<Tree>::Snapshot(tree);

  std::vector<Histogram> histograms(static_cast<size_t>(threads));
  std::vector<uint64_t> succeeded(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  // Start barrier: every worker is spawned and set up before the clock
  // starts and any of them runs an operation, so thread-spawn skew stays
  // out of the timed window.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      OpGenerator gen(spec, seed, t, threads);
      Histogram& hist = histograms[static_cast<size_t>(t)];
      uint64_t ok = 0;
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        const OpGenerator::Op op = gen.Next();
        const auto op_start =
            collect_latency ? Clock::now() : Clock::time_point();
        switch (op.type) {
          case OpType::kSearch:
            ok += tree->Search(op.key).ok() ? 1 : 0;
            break;
          case OpType::kInsert:
            ok += tree->Insert(op.key, op.key + 1).ok() ? 1 : 0;
            break;
          case OpType::kDelete:
            ok += tree->Delete(op.key).ok() ? 1 : 0;
            break;
          case OpType::kScan: {
            size_t left = spec.scan_length;
            tree->Scan(op.key, kMaxUserKey, [&left](Key, Value) {
              return --left > 0;
            });
            ++ok;
            break;
          }
        }
        if (collect_latency) {
          hist.Add(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - op_start)
                  .count()));
        }
      }
      succeeded[static_cast<size_t>(t)] = ok;
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto end = Clock::now();

  result.total_ops = ops_per_thread * static_cast<uint64_t>(threads);
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  for (int t = 0; t < threads; ++t) {
    result.latency_ns.Merge(histograms[static_cast<size_t>(t)]);
    result.succeeded += succeeded[static_cast<size_t>(t)];
  }
  result.stats = DriverStatsAccess<Tree>::Snapshot(tree).Delta(before);
  result.stats.max_locks_held = DriverStatsAccess<Tree>::MaxLocksHeld(tree);
  return result;
}

}  // namespace obtree

#endif  // OBTREE_WORKLOAD_DRIVER_H_
