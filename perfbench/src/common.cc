// Copyright 2026 The obtree Authors.

#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace perfbench {

using obtree::StatId;

const char* SpanLabel(uint16_t name) {
  switch (name) {
    case kSpanOp: return "bench.op";
    case kSpanRoute: return "api.route";
    case kSpanCall: return "api.call";
    case kSpanBatch: return "core.batch";
    case kSpanCheckpoint: return "storage.checkpoint";
    default: return "none";
  }
}

void ClientStats::Merge(const ClientStats& o) {
  get.Merge(o.get);
  write.Merge(o.write);
  scan.Merge(o.scan);
  batch.Merge(o.batch);
  checkpoint.Merge(o.checkpoint);
  lag.Merge(o.lag);
  write_due.Merge(o.write_due);
  ops += o.ops;
  if (o.ops_per_slot.size() > ops_per_slot.size()) {
    ops_per_slot.resize(o.ops_per_slot.size(), 0);
  }
  for (size_t i = 0; i < o.ops_per_slot.size(); ++i) {
    ops_per_slot[i] += o.ops_per_slot[i];
  }
  attempted += o.attempted;
  failed += o.failed;
  trace.Append(o.trace);
}

double ClientStats::OpsPerSecond(double seconds) const {
  const size_t full = static_cast<size_t>(seconds * 1e9 / kOpsSlotNs);
  if (full == 0) return static_cast<double>(ops) / seconds;
  const double slots_per_second = 1e9 / kOpsSlotNs;
  std::vector<double> rates(full, 0.0);
  for (size_t i = 0; i < full && i < ops_per_slot.size(); ++i) {
    rates[i] = static_cast<double>(ops_per_slot[i]) * slots_per_second;
  }
  return Median(rates);
}

namespace {

std::mutex g_failure_mu;
std::vector<std::string> g_failures;  // guarded by g_failure_mu

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void NoteFailure(ClientStats* stats, const std::string& what) {
  ++stats->failed;
  std::lock_guard<std::mutex> lk(g_failure_mu);
  if (g_failures.size() < 8) g_failures.push_back(what);
}

std::vector<std::string> FailureNotes() {
  std::lock_guard<std::mutex> lk(g_failure_mu);
  return g_failures;
}

Watchdog::Watchdog(std::string workload)
    : workload_(std::move(workload)), thread_([this] { Loop(); }) {}

Watchdog::~Watchdog() {
  stop_.store(true);
  thread_.join();
}

void Watchdog::Arm(const char* phase, double seconds) {
  phase_.store(phase);
  deadline_.store(NowNs() + static_cast<int64_t>(seconds * 1e9));
}

void Watchdog::Loop() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const int64_t deadline = deadline_.load();
    const int64_t now = NowNs();
    if (deadline == 0 || now < deadline) continue;
    std::fprintf(stderr,
                 "watchdog: workload %s: phase '%s' overran its deadline\n",
                 workload_.c_str(), phase_.load());
    for (int i = 0; i < kMaxSlots; ++i) {
      const int64_t since = slots_[i].since.load(std::memory_order_acquire);
      if (since == 0) continue;
      std::fprintf(stderr,
                   "watchdog: workload %s: client %d op '%s' outstanding "
                   "for %.3f s\n",
                   workload_.c_str(), i, slots_[i].op.load(),
                   static_cast<double>(now - since) / 1e9);
    }
    std::fflush(stderr);
    std::_Exit(3);
  }
}

void AddCounterLayers(const obtree::StatsSnapshot& d,
                      const obtree::Histogram& lock_wait, uint64_t ops,
                      std::map<std::string, double>* layer) {
  auto& m = *layer;
  const uint64_t inserts = d.Get(StatId::kInserts);
  const uint64_t erases = d.Get(StatId::kDeletes);
  const uint64_t writes = inserts + erases;
  m["core.gets_per_op"] = Ratio(d.Get(StatId::kGets), ops);
  m["core.locks_per_write"] = Ratio(d.Get(StatId::kLocksAcquired), writes);
  m["core.link_follows_per_op"] = Ratio(d.Get(StatId::kLinkFollows), ops);
  m["core.restarts_per_op"] = Ratio(d.Get(StatId::kRestarts), ops);
  m["core.optimistic_retry_ratio"] =
      Ratio(d.Get(StatId::kOptimisticRetries),
            d.Get(StatId::kOptimisticValidations) +
                d.Get(StatId::kOptimisticRetries));
  m["core.optimistic_fallbacks"] =
      static_cast<double>(d.Get(StatId::kOptimisticFallbacks));
  m["core.inplace_ratio"] =
      Ratio(d.Get(StatId::kInplaceWrites),
            d.Get(StatId::kInplaceWrites) + d.Get(StatId::kInplaceFallbacks));
  m["core.splits_per_insert"] = Ratio(d.Get(StatId::kSplits), inserts);
  m["core.tail_split_ratio"] =
      Ratio(d.Get(StatId::kTailSplits), d.Get(StatId::kSplits));
  m["core.append_hit_ratio"] =
      Ratio(d.Get(StatId::kAppendFastHits),
            d.Get(StatId::kAppendFastHits) + d.Get(StatId::kAppendFastMisses));
  m["core.batch_coalesced_per_op"] =
      Ratio(d.Get(StatId::kBatchPagesCoalesced), d.Get(StatId::kBatchOps));
  m["core.merges_per_erase"] = Ratio(d.Get(StatId::kMerges), erases);
  m["storage.lock_contended_per_write"] =
      Ratio(d.Get(StatId::kLocksContended), writes);
  m["storage.lock_parks_per_write"] = Ratio(d.Get(StatId::kLockParks), writes);
  m["storage.lock_wait_p99_ns"] =
      lock_wait.count() == 0 ? 0.0
                             : static_cast<double>(lock_wait.Percentile(99));
  m["storage.store_reads_per_op"] = Ratio(d.Get(StatId::kStoreReads), ops);
  m["storage.evictions_per_op"] = Ratio(d.Get(StatId::kPagesEvicted), ops);
  m["storage.store_writes_per_op"] = Ratio(d.Get(StatId::kStoreWrites), ops);
  m["storage.pages_per_checkpoint"] =
      Ratio(d.Get(StatId::kStoreWrites), d.Get(StatId::kCheckpoints));
  m["storage.fetch_retries"] =
      static_cast<double>(d.Get(StatId::kFetchRetries));
}

void AddSpanSelfTimes(const std::vector<Span>& spans,
                      std::map<std::string, double>* layer) {
  double total[kNumSpanNames] = {};
  double children[kNumSpanNames] = {};
  uint64_t count[kNumSpanNames] = {};
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end - s.start);
    total[s.name] += dur;
    ++count[s.name];
    if (s.parent != kNoParent) children[s.parent] += dur;
  }
  for (uint16_t n = 0; n < kNumSpanNames; ++n) {
    const double self = total[n] - children[n];
    (*layer)[std::string("span.") + SpanLabel(n) + ".self_ns"] =
        count[n] == 0 ? 0.0 : self / static_cast<double>(count[n]);
  }
  (*layer)["api.route_ns"] =
      count[kSpanRoute] == 0
          ? 0.0
          : total[kSpanRoute] / static_cast<double>(count[kSpanRoute]);
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "op\tspan\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.op << '\t' << SpanLabel(s.name) << '\t' << SpanLabel(s.parent)
        << '\t' << s.start << '\t' << s.end << '\n';
  }
  return static_cast<bool>(out);
}

double DiskBytesPerKey(const std::string& dir, uint64_t keys) {
  uint64_t bytes = 0;
  for (const char* name : {"/pages.dat", "/MANIFEST"}) {
    std::error_code ec;
    const uint64_t n = std::filesystem::file_size(dir + name, ec);
    if (!ec) bytes += n;
  }
  return static_cast<double>(bytes) / static_cast<double>(keys == 0 ? 1 : keys);
}

double ReadRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void JoinAll(std::vector<std::thread>* threads) {
  for (std::thread& t : *threads) t.join();
  threads->clear();
}

}  // namespace perfbench
