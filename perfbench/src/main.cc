// Copyright 2026 The obtree Authors.
//
// obtree benchmark: runs one workload and prints its metrics.
//
//   perfbench --workload point-mixed|ingest-checkpoint|cold-read
//             --seed N --seconds S --trace 0|1 --dir STORAGE_DIR
//             [--spans PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and prints the per-layer metrics, the span
// self times and the tracing overhead. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

// Set-up is repeated and its median reported, so one slow repetition
// (a late fsync, a page-cache miss) does not move setup_s.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
  std::string spans;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--dir") a.dir = v;
    else if (flag == "--spans") a.spans = v;
    else Die("unknown flag " + flag);
  }
  if (a.dir.empty() || !(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--dir DIR [--spans PATH]");
  }
  return a;
}

// Every per-layer metric a traced run prints, in order. A workload that
// does not exercise a layer reports 0 for it (see README.md).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"api.route_ns", "ns"},
    {"api.shard_skew", "ratio"},
    {"core.gets_per_op", "gets/op"},
    {"core.locks_per_write", "locks/op"},
    {"core.link_follows_per_op", "follows/op"},
    {"core.restarts_per_op", "restarts/op"},
    {"core.optimistic_retry_ratio", "ratio"},
    {"core.optimistic_fallbacks", "count"},
    {"core.inplace_ratio", "ratio"},
    {"core.splits_per_insert", "splits/op"},
    {"core.tail_split_ratio", "ratio"},
    {"core.append_hit_ratio", "ratio"},
    {"core.batch_coalesced_per_op", "pages/op"},
    {"core.leaf_fill_pct", "%"},
    {"core.pool.drained_per_erase", "tasks/op"},
    {"core.pool.idle_ratio", "ratio"},
    {"core.merges_per_erase", "merges/op"},
    {"storage.lock_contended_per_write", "count/op"},
    {"storage.lock_parks_per_write", "count/op"},
    {"storage.lock_wait_p99_ns", "ns"},
    {"storage.store_reads_per_op", "pages/op"},
    {"storage.evictions_per_op", "pages/op"},
    {"storage.store_writes_per_op", "pages/op"},
    {"storage.pages_per_checkpoint", "pages"},
    {"storage.resident_pages", "pages"},
    {"storage.fetch_retries", "count"},
    {"span.bench.op.self_ns", "ns"},
    {"span.api.route.self_ns", "ns"},
    {"span.api.call.self_ns", "ns"},
    {"span.core.batch.self_ns", "ns"},
    {"span.storage.checkpoint.self_ns", "ns"},
    {"trace.overhead_pct", "%"},
};

using RunFn = PhaseResult (*)(const PhaseOptions&, Watchdog*);

RunFn Lookup(const std::string& workload) {
  if (workload == "point-mixed") return RunPointMixed;
  if (workload == "ingest-checkpoint") return RunIngestCheckpoint;
  if (workload == "cold-read") return RunColdRead;
  Die("unknown workload '" + workload + "'");
}

class Printer {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    std::printf("%-34s %20.6f %s\n", name.c_str(), value, unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name.c_str(), value,
                  unit.c_str());
    json_ += buf;
  }
  /// Printed in the report only: metrics that exist on some workloads.
  static void Note(const std::string& name, double value,
                   const std::string& unit, bool applies) {
    if (applies) {
      std::printf("%-34s %20.6f %s\n", name.c_str(), value, unit.c_str());
    } else {
      std::printf("%-34s %20s %s\n", name.c_str(), "n/a", unit.c_str());
    }
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

double P50Us(const Timeline& t) { return t.P50() / 1e3; }
double P99Us(const Timeline& t) { return t.P99() / 1e3; }

void PrintSamples(const ClientStats& s) {
  std::printf("# samples: get %llu, write %llu, scan %llu, batch %llu, "
              "checkpoint %llu\n",
              static_cast<unsigned long long>(s.get.count()),
              static_cast<unsigned long long>(s.write.count()),
              static_cast<unsigned long long>(s.scan.count()),
              static_cast<unsigned long long>(s.batch.count()),
              static_cast<unsigned long long>(s.checkpoint.count()));
  std::printf("# ops per second:");
  const size_t per_second = 1'000'000'000 / ClientStats::kOpsSlotNs;
  for (size_t i = 0; i < s.ops_per_slot.size(); i += per_second) {
    uint64_t n = 0;
    for (size_t j = i; j < i + per_second && j < s.ops_per_slot.size(); ++j) {
      n += s.ops_per_slot[j];
    }
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

void PrintFailures() {
  for (const std::string& f : FailureNotes()) {
    std::printf("# failure: %s\n", f.c_str());
  }
}

void PrintResult(uint64_t attempted, uint64_t failed, const Printer& p) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), p.json().c_str());
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const RunFn run = Lookup(args.workload);
  Watchdog dog(args.workload);
  PhaseOptions opt;
  opt.seed = args.seed;
  opt.seconds = args.seconds;
  opt.dir = args.dir;
  std::printf("# workload %s seed %llu seconds %.1f trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);

  Printer p;
  if (args.trace == 0) {
    opt.setup_reps = kSetupReps;
    const PhaseResult r = run(opt, &dog);
    const ClientStats& s = r.stats;
    PrintSamples(s);
    p.Add("setup_s", Median(r.setup_seconds), "s");
    p.Add("ops_per_s", s.OpsPerSecond(args.seconds), "1/s");
    p.Add("get_p50_us", P50Us(s.get), "us");
    p.Add("get_p99_us", P99Us(s.get), "us");
    p.Add("write_p50_us", P50Us(s.write), "us");
    p.Add("write_p99_us", P99Us(s.write), "us");
    p.Add("scan_p50_us", P50Us(s.scan), "us");
    p.Add("scan_p99_us", P99Us(s.scan), "us");
    p.Add("rss_mb", r.rss_mb, "MB");
    Printer::Note("ops_per_s_mean", static_cast<double>(s.ops) / args.seconds,
                  "1/s", true);
    Printer::Note("batch_p50_us", P50Us(s.batch), "us", s.batch.count() > 0);
    Printer::Note("batch_p99_us", P99Us(s.batch), "us", s.batch.count() > 0);
    const ClientStats& f = r.flush;
    if (f.checkpoint.count() > 0) {
      std::printf("# flush phase: %llu checkpoints, %llu inserts\n",
                  static_cast<unsigned long long>(f.checkpoint.count()),
                  static_cast<unsigned long long>(f.write_due.count()));
    }
    Printer::Note("checkpoint_p50_ms", f.checkpoint.P50() / 1e6, "ms",
                  f.checkpoint.count() > 0);
    Printer::Note("flush_write_p99_us", P99Us(f.write_due), "us",
                  f.write_due.count() > 0);
    Printer::Note("lag_p99_us", P99Us(s.lag), "us", s.lag.count() > 0);
    Printer::Note("disk_bytes_per_key", r.disk_bytes_per_key, "B",
                  r.disk_bytes_per_key >= 0);
    const uint64_t attempted = s.attempted + f.attempted;
    const uint64_t failed = s.failed + f.failed;
    Printer::Note("fail_ratio",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "ratio", true);
    PrintFailures();
    PrintResult(attempted, failed, p);
    return 0;
  }

  opt.setup_reps = 1;
  const PhaseResult base = run(opt, &dog);
  const double base_rate = base.stats.OpsPerSecond(args.seconds);
  malloc_trim(0);
  opt.traced = true;
  PhaseResult traced = run(opt, &dog);
  ClientStats& s = traced.stats;
  const double traced_rate = s.OpsPerSecond(args.seconds);
  s.trace.Append(traced.flush.trace);
  AddSpanSelfTimes(s.trace.spans(), &traced.layer);
  traced.layer["trace.overhead_pct"] = (base_rate / traced_rate - 1.0) * 100.0;
  std::printf("# spans recorded: %zu\n", s.trace.spans().size());
  if (!args.spans.empty()) {
    if (WriteSpans(s.trace.spans(), args.spans)) {
      std::printf("# spans written to %s\n", args.spans.c_str());
    } else {
      std::printf("# could not write spans to %s\n", args.spans.c_str());
    }
  }
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = traced.layer.find(m.name);
    p.Add(m.name, it == traced.layer.end() ? 0.0 : it->second, m.unit);
  }
  PrintFailures();
  PrintResult(base.stats.attempted + base.flush.attempted + s.attempted +
                  traced.flush.attempted,
              base.stats.failed + base.flush.failed + s.failed +
                  traced.flush.failed,
              p);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
