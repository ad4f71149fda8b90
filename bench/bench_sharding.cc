// Copyright 2026 The obtree Authors.
//
// E11 — multi-core scaling of the ShardedMap front-end. A single tree
// funnels every operation through one root and serializes contending
// updaters on hot nodes; partitioning the key space across N independent
// trees splits that contention N ways. Expectation: on the uniform mixed
// workload, 4 shards at 8 threads beat 1 shard by >= 1.5x on a
// multi-core host; the shard-hot-spot adversary (90% of traffic on one
// shard's range) collapses the gain, and the global-lock baseline trails
// everything.
//
// Rows: thread counts. Columns: Kops/s per target. One table per mix.
// Every cell is also recorded to BENCH_sharding.json for the CI artifact.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obtree/api/sharded_map.h"
#include "obtree/baseline/coarse_tree.h"
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

void WriteJson(const char* path, bool quick) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"sharding\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"cpus\": %u,\n", std::thread::hardware_concurrency());
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

TreeOptions BenchTreeOptions() {
  TreeOptions options;
  options.min_entries = 32;
  return options;
}

// Preload at memory speed, then run the timed phase with every node
// access stalled `io_us` (0 = in-memory).
template <typename Target>
double TimedKops(Target* target, const WorkloadSpec& spec, int threads,
                 uint64_t ops_per_thread, uint64_t io_us) {
  PreloadTree(target, spec, 4);
  const ScopedIoStall io(io_us);
  const DriverResult result =
      RunWorkload(target, spec, threads, ops_per_thread, /*seed=*/7);
  return result.MopsPerSec() * 1000.0;
}

double ShardedKops(const WorkloadSpec& spec, uint32_t shards, int threads,
                   uint64_t ops_per_thread, uint64_t io_us) {
  ShardOptions options;
  options.tree = BenchTreeOptions();
  options.num_shards = shards;
  options.key_space_hint = spec.key_space;
  options.compression = CompressionMode::kNone;  // isolate routing cost
  ShardedMap map(options);
  return TimedKops(&map, spec, threads, ops_per_thread, io_us);
}

double SingleTreeKops(const WorkloadSpec& spec, int threads,
                      uint64_t ops_per_thread, uint64_t io_us) {
  SagivTree tree(BenchTreeOptions());
  return TimedKops(&tree, spec, threads, ops_per_thread, io_us);
}

double CoarseKops(const WorkloadSpec& spec, int threads,
                  uint64_t ops_per_thread, uint64_t io_us) {
  CoarseTree tree(BenchTreeOptions());
  return TimedKops(&tree, spec, threads, ops_per_thread, io_us);
}

void RunMix(WorkloadSpec spec, const std::vector<int>& thread_counts,
            uint64_t io_us, uint64_t ops_per_thread, Key key_space) {
  spec.key_space = key_space;
  spec.preload = spec.insert_pct >= 0.999 ? 0 : key_space / 2;
  std::printf("workload: %s, %llu ops/thread, io=%lluus/page\n",
              spec.Describe().c_str(),
              static_cast<unsigned long long>(ops_per_thread),
              static_cast<unsigned long long>(io_us));
  Table table({"threads", "tree", "global-lock", "shard x1", "shard x2",
               "shard x4", "shard x8", "x4/x1"});
  for (int threads : thread_counts) {
    const double tree = SingleTreeKops(spec, threads, ops_per_thread, io_us);
    const double coarse = CoarseKops(spec, threads, ops_per_thread, io_us);
    const double s1 = ShardedKops(spec, 1, threads, ops_per_thread, io_us);
    const double s2 = ShardedKops(spec, 2, threads, ops_per_thread, io_us);
    const double s4 = ShardedKops(spec, 4, threads, ops_per_thread, io_us);
    const double s8 = ShardedKops(spec, 8, threads, ops_per_thread, io_us);
    table.AddRow({Fmt(static_cast<uint64_t>(threads)), Fmt(tree),
                  Fmt(coarse), Fmt(s1), Fmt(s2), Fmt(s4), Fmt(s8),
                  FmtRatio(s4, s1)});
    Record(spec.name + "/tree", threads, tree);
    Record(spec.name + "/global-lock", threads, coarse);
    Record(spec.name + "/shard_x1", threads, s1);
    Record(spec.name + "/shard_x2", threads, s2);
    Record(spec.name + "/shard_x4", threads, s4);
    Record(spec.name + "/shard_x8", threads, s8);
  }
  table.Print();
  std::printf("(cells are Kops/s; higher is better)\n\n");
}

}  // namespace
}  // namespace obtree

int main(int argc, char** argv) {
  using namespace obtree;
  // --quick: 10x fewer ops per cell (CI smoke / slow hosts).
  const bool quick =
      argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const uint64_t mem_ops = quick ? 12'000 : 120'000;
  const uint64_t io_ops = quick ? 200 : 2'000;
  const Key key_space = quick ? 40'000 : 400'000;
  const std::vector<int> threads{1, 2, 4, 8};

  PrintBanner(
      "E11a: shard scaling, insert+search uniform mix",
      "disjoint key ranges never share tree state, so N shards split root "
      "and leaf-lock contention N ways; the x4/x1 column is the headline "
      "scaling claim (>= 1.5x at 8 threads on a multi-core host)");
  WorkloadSpec mix = WorkloadSpec::Mixed5050();
  mix.name = "insert+search(50/25/25,uniform)";
  RunMix(mix, threads, 0, mem_ops, key_space);

  PrintBanner(
      "E11b: shard scaling, disk-resident regime (20us/page)",
      "with every get and put stalled 20us, every protocol overlaps I/O, "
      "so sharding's benefit is contention relief, not I/O parallelism");
  RunMix(mix, threads, /*io_us=*/20, io_ops, key_space);

  PrintBanner(
      "E11c: skewed traffic",
      "Zipf skew concentrates traffic on hot keys spread across shards "
      "(scrambled ranks), so sharding still helps; the shard-hot-spot "
      "adversary aims 90% of ops at ONE shard's range and should erase "
      "most of the gain — the known weakness of range partitioning");
  WorkloadSpec zipf = WorkloadSpec::Mixed5050();
  zipf.distribution = KeyDistribution::kZipfian;
  zipf.zipf_theta = 0.99;
  zipf.name = "mixed-zipf(50/25/25,theta=.99)";
  RunMix(zipf, threads, 0, mem_ops, key_space);
  RunMix(WorkloadSpec::ShardHotSpot(4), threads, 0, mem_ops, key_space);

  WriteJson("BENCH_sharding.json", quick);
  return 0;
}
