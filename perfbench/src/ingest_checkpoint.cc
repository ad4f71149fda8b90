// Copyright 2026 The obtree Authors.
//
// ingest-checkpoint: time-series ingest. A ConcurrentMap on FileStore
// with an unbounded buffer pool holds 1M ascending keys and one
// checkpoint. Two open-loop appenders each insert 150k keys/s from one
// shared ascending sequence. One closed-loop reader runs 90% Get /
// 10% Scan(100) over acknowledged keys among the newest 100k.
//
// The measured phase runs without checkpoints. A flush phase follows on
// the same map, in which the reader also calls Checkpoint() every 250 ms
// (the flush policy). The writer stall a checkpoint causes follows the
// disk's fsync latency, which moves by 2x over minutes on a shared host,
// so the flush phase is reported but not gated. Each insert is timed
// twice: from its start (`write`, gated) and from its due time
// (`write_due`, which charges a stall to every insert queued behind it,
// but also charges the appender's own preemption, so it is reported only).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obtree/api/concurrent_map.h"
#include "obtree/core/tree_checker.h"
#include "obtree/storage/page_manager.h"

namespace perfbench {
namespace {

using obtree::ConcurrentMap;
using obtree::Result;
using obtree::Status;

constexpr uint64_t kPreload = 1'000'000;
constexpr int kAppenders = 2;
constexpr double kInsertsPerSecond = 150'000;  // per appender
constexpr uint64_t kReadWindow = 100'000;
constexpr int64_t kCheckpointPeriodNs = 250'000'000;
constexpr double kFlushSeconds = 4;
constexpr size_t kScanLength = 100;
constexpr int kVerifyKeys = 1 << 16;
constexpr uint64_t kIdle = ~uint64_t{0};

std::unique_ptr<ConcurrentMap> Setup(const std::string& dir, Key base) {
  std::filesystem::remove_all(dir);
  obtree::MapOptions options;
  options.tree.storage_dir = dir;
  auto map = std::make_unique<ConcurrentMap>(options);
  if (!map->init_status().ok()) {
    Die("ingest-checkpoint: " + map->init_status().ToString());
  }
  for (Key k = base; k < base + kPreload; ++k) {
    if (!map->Insert(k, Encode(k, 0)).ok()) {
      Die("ingest-checkpoint: preload insert failed");
    }
  }
  const Status s = map->Checkpoint();
  if (!s.ok()) Die("ingest-checkpoint: load checkpoint: " + s.ToString());
  return map;
}

/// The appenders' shared sequence and its acknowledged watermark.
struct Sequence {
  std::atomic<uint64_t> next{0};
  /// Per appender: the sequence number it is inserting, a lower bound of
  /// it while it is being fetched, or kIdle.
  std::atomic<uint64_t> inflight[kAppenders];

  Sequence() {
    for (auto& f : inflight) f.store(kIdle);
  }

  uint64_t Fetch(int t) {
    inflight[t].store(next.load());
    const uint64_t s = next.fetch_add(1);
    inflight[t].store(s);
    return s;
  }
  void Done(int t) { inflight[t].store(kIdle); }

  /// Every sequence number below the result has been acknowledged.
  uint64_t Acked() const {
    uint64_t w = next.load();
    for (const auto& f : inflight) w = std::min(w, f.load());
    return w;
  }
};

struct Shared {
  ConcurrentMap* map;
  Sequence* seq;
  Key base;
  uint64_t seed;
  int64_t start_ns;
  int64_t end_ns;
  bool checkpoints;  // the reader checkpoints every kCheckpointPeriodNs
};

void Appender(const Shared& sh, int t, bool traced, OpSlot* slot,
              ClientStats* st) {
  TraceBuffer* tb = &st->trace;
  tb->Init(traced, t);
  const double period_ns = 1e9 / kInsertsPerSecond;
  const double offset_ns = period_ns * t / kAppenders;  // interleave
  for (uint64_t i = 0;; ++i) {
    const int64_t due =
        sh.start_ns + static_cast<int64_t>(offset_ns + period_ns * i);
    if (due >= sh.end_ns) break;
    int64_t now = NowNs();
    while (now < due) {
      CpuRelax();
      now = NowNs();
    }
    st->lag.Add(due - sh.start_ns, static_cast<uint64_t>(now - due));
    const uint64_t op = tb->BeginOp();
    slot->Begin("Insert", now);
    const Key k = sh.base + kPreload + sh.seq->Fetch(t);
    const Status s = sh.map->Insert(k, Encode(k, 0));
    const int64_t end = NowNs();
    sh.seq->Done(t);
    slot->End();
    st->write.Add(due - sh.start_ns, static_cast<uint64_t>(end - now));
    st->write_due.Add(due - sh.start_ns, static_cast<uint64_t>(end - due));
    if (op != 0) {
      tb->Add(op, kSpanCall, kSpanOp, now, end);
      tb->Add(op, kSpanOp, kNoParent, now, end);
    }
    if (!s.ok()) {
      NoteFailure(st, "Insert(" + std::to_string(k) + ") " + s.ToString());
    }
    st->AddOps(due - sh.start_ns, 1);
    ++st->attempted;
  }
}

void Reader(const Shared& sh, int t, bool traced, OpSlot* slot,
            ClientStats* st) {
  TraceBuffer* tb = &st->trace;
  tb->Init(traced, t);
  obtree::Random rng(sh.seed * 0x9E3779B97F4A7C15ULL + 202);
  std::vector<std::pair<Key, Value>> scanned;
  scanned.reserve(kScanLength);
  int64_t next_checkpoint = sh.start_ns + kCheckpointPeriodNs;
  for (;;) {
    const int64_t start = NowNs();
    if (start >= sh.end_ns) break;
    if (sh.checkpoints && start >= next_checkpoint) {
      const uint64_t op = tb->BeginOp(/*always=*/true);
      slot->Begin("Checkpoint", start);
      const Status s = sh.map->Checkpoint();
      const int64_t end = NowNs();
      slot->End();
      st->checkpoint.Add(start - sh.start_ns,
                         static_cast<uint64_t>(end - start));
      if (op != 0) {
        tb->Add(op, kSpanCheckpoint, kSpanOp, start, end);
        tb->Add(op, kSpanOp, kNoParent, start, end);
      }
      ++st->attempted;
      if (!s.ok()) NoteFailure(st, "Checkpoint " + s.ToString());
      next_checkpoint = std::max(next_checkpoint + kCheckpointPeriodNs, end);
      continue;
    }
    // Keys below `hi` are acknowledged; reading a key whose insert has
    // not returned yet could legitimately miss.
    const Key hi = sh.base + kPreload + sh.seq->Acked();
    const Key lo = std::max(sh.base, hi - kReadWindow);
    const Key k = rng.UniformRange(lo, hi - 1);
    const uint64_t op = tb->BeginOp();
    if (rng.NextDouble() < 0.9) {
      slot->Begin("Get", start);
      const Result<Value> r = sh.map->Get(k);
      const int64_t end = NowNs();
      slot->End();
      st->get.Add(start - sh.start_ns, static_cast<uint64_t>(end - start));
      if (op != 0) {
        tb->Add(op, kSpanCall, kSpanOp, start, end);
        tb->Add(op, kSpanOp, kNoParent, start, end);
      }
      if (!r.ok() || r.value() != Encode(k, 0)) {
        NoteFailure(st, "Get(" + std::to_string(k) + ") of an acknowledged " +
                            "key: " +
                            (r.ok() ? "wrong value" : r.status().ToString()));
      }
    } else {
      scanned.clear();
      slot->Begin("Scan", start);
      sh.map->Scan(k, obtree::kMaxUserKey, [&scanned](Key key, Value value) {
        scanned.emplace_back(key, value);
        return scanned.size() < kScanLength;
      });
      const int64_t end = NowNs();
      slot->End();
      st->scan.Add(start - sh.start_ns, static_cast<uint64_t>(end - start));
      if (op != 0) {
        tb->Add(op, kSpanCall, kSpanOp, start, end);
        tb->Add(op, kSpanOp, kNoParent, start, end);
      }
      // Acknowledged keys are contiguous, so below `hi` the scan must
      // return k, k+1, ...; above it, ascending keys with their values.
      Key expect = k;
      bool ok = !scanned.empty();
      for (const auto& [key, value] : scanned) {
        if (key < expect || (expect < hi && key != expect) ||
            value != Encode(key, 0)) {
          ok = false;
          break;
        }
        expect = key + 1;
      }
      if (!ok) NoteFailure(st, "Scan(" + std::to_string(k) + ") mismatch");
    }
    st->AddOps(start - sh.start_ns, 1);
    ++st->attempted;
  }
}

/// Runs the appenders and the reader for `seconds` on `map`, continuing
/// the shared sequence, and merges what they measured into `out`.
void RunClients(ConcurrentMap* map, Sequence* seq, Key base,
                const PhaseOptions& opt, double seconds, bool checkpoints,
                Watchdog* dog, ClientStats* out) {
  const int64_t start = NowNs();
  const Shared sh{map,   seq, base, opt.seed, start,
                  start + static_cast<int64_t>(seconds * 1e9), checkpoints};
  std::vector<ClientStats> per(kAppenders + 1);
  std::vector<std::thread> clients;
  for (int t = 0; t < kAppenders; ++t) {
    clients.emplace_back([&, t] {
      Appender(sh, t, opt.traced, dog->slot(t), &per[t]);
    });
  }
  clients.emplace_back([&] {
    Reader(sh, kAppenders, opt.traced, dog->slot(kAppenders),
           &per[kAppenders]);
  });
  JoinAll(&clients);
  for (const ClientStats& c : per) out->Merge(c);
}

}  // namespace

PhaseResult RunIngestCheckpoint(const PhaseOptions& opt, Watchdog* dog) {
  PhaseResult res;
  const std::string dir = opt.dir + "/ingest";
  const Key base = 1 + (opt.seed % 1000) * (Key{1} << 24);

  std::unique_ptr<ConcurrentMap> map;
  for (int rep = 0; rep < opt.setup_reps; ++rep) {
    map.reset();
    dog->Arm("ingest-checkpoint set-up", 60);
    const int64_t t0 = NowNs();
    map = Setup(dir, base);
    res.setup_seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const obtree::StatsSnapshot before = map->Stats();
  Sequence seq;
  dog->Arm("ingest-checkpoint measure", opt.seconds + 10);
  RunClients(map.get(), &seq, base, opt, opt.seconds, false, dog, &res.stats);
  res.rss_mb = ReadRssMb();
  dog->Arm("ingest-checkpoint flush", kFlushSeconds + 30);
  // Flush what the measured phase wrote, so the flush phase starts from
  // the steady 250 ms cadence instead of one oversized checkpoint.
  const Status flushed = map->Checkpoint();
  ++res.flush.attempted;
  if (!flushed.ok()) {
    NoteFailure(&res.flush, "Checkpoint " + flushed.ToString());
  }
  const obtree::StatsSnapshot flush_before = map->Stats();
  RunClients(map.get(), &seq, base, opt, kFlushSeconds, true, dog, &res.flush);

  const obtree::StatsSnapshot after = map->Stats();
  const obtree::StatsSnapshot delta = after.Delta(before);
  const obtree::StatsSnapshot flush_delta = after.Delta(flush_before);
  res.disk_bytes_per_key = DiskBytesPerKey(dir, map->Size());
  auto& layer = res.layer;
  AddCounterLayers(delta, map->tree()->stats()->LockWaitHistogram(),
                   res.stats.ops + res.flush.ops, &layer);
  layer["storage.resident_pages"] =
      static_cast<double>(map->tree()->internal_pager()->resident_pages());
  // Over the flush phase only: the checkpoint between the phases writes
  // everything the measured phase dirtied.
  const uint64_t checkpoints = flush_delta.Get(obtree::StatId::kCheckpoints);
  layer["storage.pages_per_checkpoint"] =
      checkpoints == 0
          ? 0.0
          : static_cast<double>(
                flush_delta.Get(obtree::StatId::kStoreWrites)) /
                static_cast<double>(checkpoints);

  dog->Arm("ingest-checkpoint verify", 60);
  map->Quiesce();
  layer["core.leaf_fill_pct"] = map->Shape().avg_leaf_fill * 100.0;
  ClientStats& st = res.stats;
  const Status valid = map->ValidateStructure();
  ++st.attempted;
  if (!valid.ok()) NoteFailure(&st, "ValidateStructure: " + valid.ToString());
  const uint64_t loaded = kPreload + seq.Acked();
  ++st.attempted;
  if (map->Size() != loaded) {
    NoteFailure(&st, "Size " + std::to_string(map->Size()) + " != " +
                         std::to_string(loaded) + " acknowledged keys");
  }
  obtree::Random rng(opt.seed + 11);
  for (int i = 0; i < kVerifyKeys; ++i) {
    const Key k = base + rng.Uniform(loaded);
    const Result<Value> r = map->Get(k);
    ++st.attempted;
    if (!r.ok() || r.value() != Encode(k, 0)) {
      NoteFailure(&st, "final Get(" + std::to_string(k) + ") mismatch");
    }
  }
  return res;
}

}  // namespace perfbench
