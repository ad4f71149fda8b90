// Copyright 2026 The obtree Authors.
//
// E2 — throughput scaling of the four protocols (Section 1's efficiency
// argument): Sagiv's single-lock updaters and lock-free readers should
// out-scale Lehman-Yao slightly (fewer lock acquisitions, no coupled
// hand-off) and out-scale lock-coupling and a global lock decisively,
// with the gap widening with thread count and write share.
//
// E2f — monotonic insert-only with append-optimized leaves on vs off:
// every key extends the max, so the rightmost fast path skips the
// descent and tail-biased splits keep retired leaves ~full. The 1-thread
// on/off ratio is CI-gated (append_path_speedup_1t >= 1.3).
//
// Rows: thread counts. Columns: Kops/s per tree. One table per mix.
//
// E2b and the E12 twin model the paper's disk-resident nodes by stalling
// every counted get and put 20us (ScopedIoStall, workload/driver.h).
//
// E12 — durability cells on the FileStore backend: load/checkpoint/
// recover wall-clock plus io_real_vs_sim, the cold-read throughput
// through a capped buffer pool (real pread faults) over the same
// workload on an in-RAM tree whose node accesses stall 20us. All
// record-only.
//
// Flags: --quick shrinks every cell ~10x (CI smoke). Every cell is also
// recorded to BENCH_throughput.json (ops/s per config) so CI can archive
// the numbers as the repo's perf trajectory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obtree/api/concurrent_map.h"
#include "obtree/util/random.h"

#include "obtree/baseline/coarse_tree.h"
#include "obtree/baseline/lehman_yao_tree.h"
#include "obtree/baseline/lock_coupling_tree.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/workload/driver.h"
#include "obtree/workload/report.h"

namespace obtree {
namespace {

// ---------------------------------------------------------------- JSON out

struct JsonSample {
  std::string config;
  int threads;
  double kops;
};

std::vector<JsonSample>& Samples() {
  static std::vector<JsonSample> samples;
  return samples;
}

void Record(const std::string& config, int threads, double kops) {
  Samples().push_back(JsonSample{config, threads, kops});
}

void WriteJson(const char* path, bool quick, double mixed_scaling_4t_over_1t,
               double append_path_speedup_1t,
               double monotonic_scaling_4t_over_1t, double io_real_vs_sim) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  // Scaling ratios are physics-bound by the host: a 1-core container
  // cannot show 4-thread speedup no matter the protocol. Recorded so
  // the CI gate (which runs on a multi-core runner) can tell a real
  // scaling regression from a core-starved host.
  std::fprintf(f, "  \"cpus\": %u,\n", std::thread::hardware_concurrency());
  // Single-tree mixed(50/25/25) in-memory scaling, 4 threads over 1:
  // in-place writes removed the copy traffic, and the spin-then-park
  // paper lock attacks the remaining lock/root contention. CI's
  // perf-smoke gates this field >= 1.3 on multi-core runners; < 1.0
  // means 4 threads are SLOWER than 1.
  std::fprintf(f, "  \"mixed_scaling_4t_over_1t\": %.3f,\n",
               mixed_scaling_4t_over_1t);
  // Monotonic insert-only, 1 thread: append-optimized leaves (rightmost
  // fast path + tail-biased splits) over the same workload with
  // append_leaves off. Needs no extra cores, so CI's perf-smoke gates it
  // >= 1.3 even on a 1-CPU runner.
  std::fprintf(f, "  \"append_path_speedup_1t\": %.3f,\n",
               append_path_speedup_1t);
  // Append-on monotonic insert scaling, 4 threads over 1, all threads
  // interleaving ONE key sequence (every insert targets the rightmost
  // leaf — the worst-case writer convoy). Gated >= 1.3 only on
  // multi-core runners, like mixed_scaling_4t_over_1t.
  std::fprintf(f, "  \"monotonic_scaling_4t_over_1t\": %.3f,\n",
               monotonic_scaling_4t_over_1t);
  // Record-only (never gated): real FileStore cold-read throughput over
  // the same lookups stalled 20us per node access. Disk speed varies too
  // much across runners to gate on, but the trajectory file must always
  // carry the number so the real-vs-simulated gap stays visible.
  std::fprintf(f, "  \"io_real_vs_sim\": %.3f,\n", io_real_vs_sim);
  std::fprintf(f, "  \"configs\": [\n");
  const std::vector<JsonSample>& samples = Samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"threads\": %d, "
                 "\"ops_per_sec\": %.0f}%s\n",
                 samples[i].config.c_str(), samples[i].threads,
                 samples[i].kops * 1000.0,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu configs)\n", path, samples.size());
}

// ------------------------------------------------------------- E2a / E2b

template <typename Tree>
double Kops(const WorkloadSpec& spec, int threads, uint64_t ops_per_thread,
            uint64_t io_us) {
  TreeOptions options;
  options.min_entries = 32;
  Tree tree(options);
  PreloadTree(&tree, spec, 4);  // at memory speed
  const ScopedIoStall io(io_us);
  const DriverResult result =
      RunWorkload(&tree, spec, threads, ops_per_thread, /*seed=*/7);
  return result.MopsPerSec() * 1000.0;
}

void RunMix(WorkloadSpec spec, const std::vector<int>& thread_counts,
            uint64_t io_us, uint64_t ops_per_thread, Key key_space) {
  spec.key_space = key_space;
  spec.preload = spec.insert_pct >= 0.999 ? 0 : key_space / 2;
  std::printf("workload: %s, %llu ops/thread, io=%lluus/page\n",
              spec.Describe().c_str(),
              static_cast<unsigned long long>(ops_per_thread),
              static_cast<unsigned long long>(io_us));
  const std::string io_tag = io_us > 0 ? "+io" : "";
  Table table({"threads", "sagiv", "lehman-yao", "lock-coupling",
               "global-lock", "sagiv/global"});
  for (int threads : thread_counts) {
    const double sagiv =
        Kops<SagivTree>(spec, threads, ops_per_thread, io_us);
    const double ly =
        Kops<LehmanYaoTree>(spec, threads, ops_per_thread, io_us);
    const double coupling =
        Kops<LockCouplingTree>(spec, threads, ops_per_thread, io_us);
    const double coarse =
        Kops<CoarseTree>(spec, threads, ops_per_thread, io_us);
    Record(spec.name + io_tag + "/sagiv", threads, sagiv);
    Record(spec.name + io_tag + "/lehman-yao", threads, ly);
    Record(spec.name + io_tag + "/lock-coupling", threads, coupling);
    Record(spec.name + io_tag + "/global-lock", threads, coarse);
    table.AddRow({Fmt(static_cast<uint64_t>(threads)), Fmt(sagiv), Fmt(ly),
                  Fmt(coupling), Fmt(coarse), FmtRatio(sagiv, coarse)});
  }
  table.Print();
  std::printf("(cells are Kops/s; higher is better)\n\n");
}

// ------------------------------------------------------------------- E2f

DriverResult MonotonicRun(bool append, int threads, uint64_t ops_per_thread) {
  TreeOptions options;
  options.min_entries = 32;
  options.append_leaves = append;
  SagivTree tree(options);
  // Fresh spec per run: the contended preset's shared sequence counter
  // must start at 1 for every cell. With shared_seq every thread draws
  // from ONE atomic sequence, so every insert extends the global max —
  // the pure append adversary (and best case) for the fast path.
  const WorkloadSpec spec = WorkloadSpec::MonotonicContended();
  return RunWorkload(&tree, spec, threads, ops_per_thread, /*seed=*/23);
}

void RunMonotonicComparison(bool quick, double* append_speedup_1t,
                            double* scaling_4t_over_1t) {
  PrintBanner(
      "E2f: monotonic insert-only, append-optimized leaves on vs off",
      "every key extends the max, so with append_leaves the insert skips "
      "the descent entirely: lock the cached rightmost leaf, validate it "
      "is still the live rightmost and the key still exceeds its last "
      "entry, append in place (no tail shift), and split tail-biased so "
      "retired leaves stay ~100% full instead of ~50%. off/on is the same "
      "workload with the knob cleared; fast-hits/op should approach 1");
  const uint64_t ops = quick ? 30'000 : 200'000;
  std::printf("workload: monotonic-contended, %llu ops/thread\n",
              static_cast<unsigned long long>(ops));
  Table table({"threads", "append-off", "append-on", "on/off", "fast-hits/op",
               "tail-splits"});
  double on_1t = 0.0;
  double on_4t = 0.0;
  for (int threads : {1, 4}) {
    // Best-of-3 everywhere: both the 1-thread speedup and the 4t/1t
    // scaling ratio are CI-gated, so a miss must mean a real regression,
    // not scheduler noise.
    double off_kops = 0.0;
    double on_kops = 0.0;
    DriverResult on_result;
    for (int a = 0; a < 3; ++a) {
      const DriverResult off = MonotonicRun(false, threads, ops);
      const DriverResult on = MonotonicRun(true, threads, ops);
      off_kops = std::max(off_kops, off.MopsPerSec() * 1000.0);
      if (on.MopsPerSec() * 1000.0 > on_kops) {
        on_kops = on.MopsPerSec() * 1000.0;
        on_result = on;
      }
    }
    Record("monotonic-insert/append-off", threads, off_kops);
    Record("monotonic-insert/append-on", threads, on_kops);
    if (threads == 1) {
      on_1t = on_kops;
      if (off_kops > 0) *append_speedup_1t = on_kops / off_kops;
    } else {
      on_4t = on_kops;
    }
    const double hits_per_op =
        static_cast<double>(on_result.stats.Get(StatId::kAppendFastHits)) /
        static_cast<double>(on_result.total_ops);
    table.AddRow({Fmt(static_cast<uint64_t>(threads)), Fmt(off_kops),
                  Fmt(on_kops), FmtRatio(on_kops, off_kops),
                  Fmt(hits_per_op, 4),
                  Fmt(on_result.stats.Get(StatId::kTailSplits))});
  }
  table.Print();
  *scaling_4t_over_1t = on_1t > 0 ? on_4t / on_1t : 0.0;
  std::printf(
      "(cells are Kops/s; higher is better; append-on 4t/1t = %.2fx)\n\n",
      *scaling_4t_over_1t);
}

// The 1->4 thread single-tree scaling cell: mixed(50/25/25) in-memory on
// ONE Sagiv tree. BENCH_sharding.json first exposed the regression here
// (2.18M ops/s at 1 thread -> 1.28M at 4 on the seed write path); PR 4
// recovered it to ~1.0x and PR 5 (contention-proof paper lock) gates it
// at >= 1.3x in CI on multi-core runners. Best-of-3 per thread count,
// like the sharding bench's gated cells: a gate miss must mean a real
// regression, not scheduler noise.
double MeasureMixedScaling(uint64_t ops_per_thread, Key key_space) {
  WorkloadSpec spec = WorkloadSpec::Mixed5050();
  spec.key_space = key_space;
  spec.preload = key_space / 2;
  double kops_1t = 0.0;
  double kops_4t = 0.0;
  for (int threads : {1, 4}) {
    double best = 0.0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      TreeOptions options;
      options.min_entries = 32;
      SagivTree tree(options);
      PreloadTree(&tree, spec, 4);
      const DriverResult r =
          RunWorkload(&tree, spec, threads, ops_per_thread, /*seed=*/13);
      best = std::max(best, r.MopsPerSec() * 1000.0);
    }
    (threads == 1 ? kops_1t : kops_4t) = best;
    Record("mixed-single-tree/sagiv-inplace", threads, best);
  }
  const double ratio = kops_1t > 0 ? kops_4t / kops_1t : 0.0;
  std::printf(
      "single-tree mixed scaling (best of 3): %.0f Kops/s @1t -> "
      "%.0f Kops/s @4t (4t/1t = %.2fx)\n\n",
      kops_1t, kops_4t, ratio);
  return ratio;
}

// ------------------------------------------------------------------- E12

// Durability cells on the FileStore backend, one thread each:
//   load       — upserts/s into a fresh file-backed map (RAM-speed until
//                the first checkpoint; the gate adds only atomic ops)
//   checkpoint — keys/s through Checkpoint() (dirty-page flush + fsync +
//                manifest rename)
//   recover    — keys/s through Recover() (manifest load + leaf walk)
//   cold-read  — point lookups through a 256-page buffer pool, so most
//                descents fault pages from disk with real pread
// Returns io_real_vs_sim: cold-read Kops/s over the same lookup loop on
// an in-RAM tree whose every node access stalls 20us — i.e. how the
// host's real storage stack compares to the model E2b assumes. Record-
// only: real disks vary too much across runners to gate.
double RunPersistenceCells(bool quick) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "obtree_bench_e12").string();
  fs::remove_all(dir);
  const Key n = quick ? 20'000 : 200'000;
  const uint64_t reads = quick ? 4'000 : 40'000;

  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  MapOptions options;
  options.compression = CompressionMode::kNone;
  options.tree.min_entries = 32;
  options.tree.storage_dir = dir;

  double load_kops = 0.0;
  double checkpoint_kops = 0.0;
  {
    const auto t0 = Clock::now();
    ConcurrentMap map(options);
    for (Key k = 1; k <= n; ++k) {
      (void)map.Upsert(k, k * 3);
    }
    const auto t1 = Clock::now();
    const Status s = map.Checkpoint();
    const auto t2 = Clock::now();
    if (!s.ok()) {
      std::printf("E12 checkpoint failed: %s\n", s.ToString().c_str());
      fs::remove_all(dir);
      return 0.0;
    }
    load_kops = static_cast<double>(n) / secs(t0, t1) / 1000.0;
    checkpoint_kops = static_cast<double>(n) / secs(t1, t2) / 1000.0;
  }

  // Reopen cold behind a capped pool: only 256 of the checkpointed pages
  // fit in RAM, so the lookup loop faults real pages for the rest.
  options.tree.buffer_pool_pages = 256;
  double recover_kops = 0.0;
  double cold_kops = 0.0;
  {
    const auto t0 = Clock::now();
    Result<std::unique_ptr<ConcurrentMap>> recovered =
        ConcurrentMap::Recover(options);
    const auto t1 = Clock::now();
    if (!recovered.ok()) {
      std::printf("E12 recover failed: %s\n",
                  recovered.status().ToString().c_str());
      fs::remove_all(dir);
      return 0.0;
    }
    recover_kops = static_cast<double>(n) / secs(t0, t1) / 1000.0;
    ConcurrentMap& map = **recovered;
    Random rng(17);
    const auto t2 = Clock::now();
    for (uint64_t i = 0; i < reads; ++i) {
      (void)map.Get(rng.UniformRange(1, n));
    }
    const auto t3 = Clock::now();
    cold_kops = static_cast<double>(reads) / secs(t2, t3) / 1000.0;
  }
  fs::remove_all(dir);

  // The stalled twin: same keys in RAM, every node access charged the
  // flat 20us latency E2b models.
  double sim_kops = 0.0;
  {
    TreeOptions topt;
    topt.min_entries = 32;
    SagivTree tree(topt);
    for (Key k = 1; k <= n; ++k) {
      (void)tree.Upsert(k, k * 3);
    }
    const ScopedIoStall io(/*stall_us=*/20);
    Random rng(17);
    const auto t0 = Clock::now();
    for (uint64_t i = 0; i < reads; ++i) {
      (void)tree.Search(rng.UniformRange(1, n));
    }
    const auto t1 = Clock::now();
    sim_kops = static_cast<double>(reads) / secs(t0, t1) / 1000.0;
  }

  Record("e12-load/file-store", 1, load_kops);
  Record("e12-checkpoint/file-store", 1, checkpoint_kops);
  Record("e12-recover/file-store", 1, recover_kops);
  Record("e12-coldread/file-store", 1, cold_kops);
  Record("e12-coldread/memstore-sim-io", 1, sim_kops);

  const double ratio = sim_kops > 0 ? cold_kops / sim_kops : 0.0;
  Table table({"cell", "Kops/s"});
  table.AddRow({"load (file-store)", Fmt(load_kops)});
  table.AddRow({"checkpoint (keys/s)", Fmt(checkpoint_kops)});
  table.AddRow({"recover (keys/s)", Fmt(recover_kops)});
  table.AddRow({"cold-read (real I/O)", Fmt(cold_kops)});
  table.AddRow({"cold-read (sim 20us)", Fmt(sim_kops)});
  table.Print();
  std::printf("(io_real_vs_sim = %.2fx; record-only, never gated)\n\n",
              ratio);
  return ratio;
}

}  // namespace
}  // namespace obtree

int main(int argc, char** argv) {
  using namespace obtree;
  // --quick: ~10x fewer ops per cell (CI smoke / slow hosts).
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const uint64_t mem_ops = quick ? 12'000 : 150'000;
  const uint64_t io_ops = quick ? 200 : 2'000;
  const Key key_space = quick ? 40'000 : 400'000;

  double append_speedup_1t = 0.0;
  double monotonic_scaling = 0.0;
  RunMonotonicComparison(quick, &append_speedup_1t, &monotonic_scaling);
  const double mixed_scaling =
      MeasureMixedScaling(quick ? 20'000 : 150'000, quick ? 40'000 : 400'000);

  PrintBanner(
      "E2a: throughput, in-memory regime (io=0)",
      "on a few-core host all protocols are CPU/memory bound; differences "
      "show as per-op lock overhead, not scaling — see E2b for the "
      "disk-resident regime the paper targets");

  const std::vector<int> threads{1, 2, 4, 8};
  RunMix(WorkloadSpec::ReadMostly(), threads, 0, mem_ops, key_space);
  RunMix(WorkloadSpec::Mixed5050(), threads, 0, mem_ops, key_space);
  RunMix(WorkloadSpec::InsertOnly(), threads, 0, mem_ops, key_space);

  PrintBanner(
      "E2b: throughput, disk-resident regime (every get and put stalls 20us)",
      "the paper's model: nodes live on secondary storage, and each get "
      "and each put is one I/O. Non-blocking "
      "protocols overlap I/O across processes, so throughput scales with "
      "concurrency; a global lock serializes every I/O; lock-coupling "
      "stalls whole paths behind writers. The gap widens with threads and "
      "write share.");

  const uint64_t io_us = 20;
  const std::vector<int> io_threads{1, 2, 4, 8, 16};
  RunMix(WorkloadSpec::ReadMostly(), io_threads, io_us, io_ops, key_space);
  RunMix(WorkloadSpec::Mixed5050(), io_threads, io_us, io_ops, key_space);
  RunMix(WorkloadSpec::InsertOnly(), io_threads, io_us, io_ops, key_space);

  WorkloadSpec zipf = WorkloadSpec::Mixed5050();
  zipf.distribution = KeyDistribution::kZipfian;
  zipf.zipf_theta = 0.99;
  zipf.name = "mixed-zipf(50/25/25,theta=.99)";
  RunMix(zipf, io_threads, io_us, io_ops, key_space);

  PrintBanner(
      "E12: durability cells (FileStore backend, 1 thread)",
      "load/checkpoint/recover wall-clock plus cold reads through a "
      "256-page buffer pool with real pread faults, against the same "
      "lookup loop stalled 20us per node access, as E2b models it. "
      "Record-only: disk speed varies too much across runners to gate.");
  const double io_real_vs_sim = RunPersistenceCells(quick);

  WriteJson("BENCH_throughput.json", quick, mixed_scaling, append_speedup_1t,
            monotonic_scaling, io_real_vs_sim);
  return 0;
}
