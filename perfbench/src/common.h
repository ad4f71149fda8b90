// Copyright 2026 The obtree Authors.
//
// Shared pieces of the obtree benchmark: the clock, generated keys and
// values, the correctness model, per-client statistics, the span buffer
// of a traced run, and the watchdog that fails a run whose operation
// never returns. See perfbench/README.md for the workloads and metrics.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "latency_recorder.h"
#include "obtree/util/common.h"
#include "obtree/util/histogram.h"
#include "obtree/util/random.h"
#include "obtree/util/stats.h"

namespace perfbench {

using obtree::Key;
using obtree::Value;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void CpuRelax() { __builtin_ia32_pause(); }

// ------------------------------------------------------------------ keys

/// Key space of the scrambled workloads: [1, 2^22] ("4M").
inline constexpr int kKeyBits = 22;
inline constexpr Key kKeySpace = Key{1} << kKeyBits;

/// Bijection from [0, 2^22) onto the keys [1, 2^22], salted by the seed.
/// Odd multiplication and xorshift are both invertible modulo 2^22, so
/// distinct indices give distinct keys: preloading indices [0, n) loads
/// exactly n keys, and Zipf rank r lands on the key preloaded as index r.
inline Key KeyOf(uint64_t index, uint64_t salt) {
  constexpr uint64_t kMask = kKeySpace - 1;
  uint64_t x = (index ^ salt) & kMask;
  for (int round = 0; round < 3; ++round) {
    x = (x * 0x9E3779B97F4A7C15ULL) & kMask;
    x ^= x >> 11;
    x = (x + (salt >> (round * 16))) & kMask;
  }
  return x + 1;
}

/// Low half of every value the benchmark writes for `key`. A read that
/// returns a value with another tag returned another key's value.
inline uint32_t Tag(Key key) {
  return static_cast<uint32_t>(obtree::ScrambleKey(key) >> 32) | 1u;
}
inline Value Encode(Key key, uint32_t version) {
  return (static_cast<uint64_t>(version) << 32) | Tag(key);
}
inline bool TagMatches(Key key, Value value) {
  return static_cast<uint32_t>(value) == Tag(key);
}

/// Expected value of every key in [1, size]; 0 = absent. Each key has one
/// writer thread, so the writer's own view is exact.
class Model {
 public:
  explicit Model(Key size) : values_(new std::atomic<uint64_t>[size + 1]()) {}
  Value Get(Key k) const { return values_[k].load(std::memory_order_relaxed); }
  void Set(Key k, Value v) { values_[k].store(v, std::memory_order_relaxed); }

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> values_;
};

// ----------------------------------------------------------------- trace

enum SpanName : uint16_t {
  kSpanOp = 0,         // one benchmark operation (root of its spans)
  kSpanRoute,          // api.route: ShardIndex + shard(i)
  kSpanCall,           // api.call: the map call
  kSpanBatch,          // core.batch: one MultiGet call
  kSpanCheckpoint,     // storage.checkpoint: one Checkpoint call
  kNumSpanNames,
};
inline constexpr uint16_t kNoParent = 0xffff;
const char* SpanLabel(uint16_t name);

struct Span {
  uint64_t op;
  uint16_t name;
  uint16_t parent;  // name of the parent span in the same op, or kNoParent
  int64_t start;
  int64_t end;
};

/// Spans of one client thread, kept in memory until the run ends. When
/// tracing, every 64th operation is traced (a 10 s point-mixed run then
/// stays under the cap), and at most kCap spans are kept.
class TraceBuffer {
 public:
  static constexpr uint64_t kEvery = 64;
  static constexpr size_t kCap = 1 << 18;

  void Init(bool enabled, int client) {
    enabled_ = enabled;
    next_op_ = static_cast<uint64_t>(client + 1) << 40;
  }

  /// Id of a new traced operation, or 0 when this one is not traced.
  /// `always` traces regardless of sampling (rare calls like checkpoints).
  uint64_t BeginOp(bool always = false) {
    if (!enabled_ || spans_.size() + 4 > kCap) return 0;
    if (!always && (seen_++ % kEvery) != 0) return 0;
    return ++next_op_;
  }

  void Add(uint64_t op, uint16_t name, uint16_t parent, int64_t start,
           int64_t end) {
    spans_.push_back(Span{op, name, parent, start, end});
  }

  void Append(const TraceBuffer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  uint64_t seen_ = 0;
  uint64_t next_op_ = 0;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------- client stats

/// What one client thread measured. Merged after the clients join. Time
/// offsets are ns since the measured phase began.
struct ClientStats {
  Timeline get;         // Get, ns
  Timeline write;       // Insert / Upsert / Erase, ns
  Timeline scan;        // Scan, ns
  Timeline batch;       // one MultiGet(32) call, ns
  Timeline checkpoint;  // one Checkpoint() call, ns
  Timeline lag;         // open loop: actual start - due time, ns
  Timeline write_due;   // open loop: Insert end - due time, ns
  uint64_t ops = 0;     // completed map ops (MultiGet keys count each)
  std::vector<uint64_t> ops_per_slot;  // ops per kOpsSlotNs slot
  uint64_t attempted = 0;  // checked outcomes, checkpoints included
  uint64_t failed = 0;     // wrong or failed outcomes
  TraceBuffer trace;

  static constexpr int64_t kOpsSlotNs = 100'000'000;

  void AddOps(int64_t offset_ns, uint64_t n) {
    ops += n;
    const size_t slot =
        offset_ns <= 0 ? 0 : static_cast<size_t>(offset_ns / kOpsSlotNs);
    if (slot >= ops_per_slot.size()) ops_per_slot.resize(slot + 1, 0);
    ops_per_slot[slot] += n;
  }

  /// Completed ops per second: the median rate over the whole 100 ms
  /// slots of a phase of `seconds`, or the plain rate when it is shorter.
  /// A rare stall (a MultiGet that spins for a fraction of a second)
  /// then moves a few slots, not the figure.
  double OpsPerSecond(double seconds) const;

  void Merge(const ClientStats& o);
};

/// First few failure descriptions of a run, for the report.
void NoteFailure(ClientStats* stats, const std::string& what);
std::vector<std::string> FailureNotes();

// -------------------------------------------------------------- watchdog

/// The operation a client thread is inside, if any.
struct OpSlot {
  std::atomic<const char*> op{nullptr};
  std::atomic<int64_t> since{0};  // 0 = between operations

  void Begin(const char* name, int64_t now) {
    op.store(name, std::memory_order_relaxed);
    since.store(now, std::memory_order_release);
  }
  void End() { since.store(0, std::memory_order_release); }
};

/// Ends the process when a phase overruns its deadline, naming the
/// workload, the phase and every operation still outstanding. A livelock
/// therefore fails the run fast instead of hanging it.
class Watchdog {
 public:
  static constexpr int kMaxSlots = 8;

  explicit Watchdog(std::string workload);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Start `phase`, which must end within `seconds`.
  void Arm(const char* phase, double seconds);
  OpSlot* slot(int i) { return &slots_[i]; }

 private:
  void Loop();

  const std::string workload_;
  OpSlot slots_[kMaxSlots];
  std::atomic<const char*> phase_{"start"};
  std::atomic<int64_t> deadline_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --------------------------------------------------------------- results

/// Outcome of one workload phase: set-up, the measured clients and the
/// checks after them.
struct PhaseResult {
  std::vector<double> setup_seconds;  // one per set-up repetition
  ClientStats stats;
  ClientStats flush;  // ingest-checkpoint's flush phase (report only)
  double rss_mb = 0;
  double disk_bytes_per_key = -1;  // < 0: not a FileStore workload
  std::map<std::string, double> layer;  // per-layer metrics
};

struct PhaseOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  int setup_reps = 1;
  std::string dir;  // fresh storage directory of this run
};

PhaseResult RunPointMixed(const PhaseOptions& opt, Watchdog* dog);
PhaseResult RunIngestCheckpoint(const PhaseOptions& opt, Watchdog* dog);
PhaseResult RunColdRead(const PhaseOptions& opt, Watchdog* dog);

// --------------------------------------------------------------- helpers

/// Fill the per-layer metrics every workload shares from the counter
/// delta of its client phases, the lock-wait histogram of its trees, and
/// the ops the clients completed in those phases.
void AddCounterLayers(const obtree::StatsSnapshot& delta,
                      const obtree::Histogram& lock_wait, uint64_t ops,
                      std::map<std::string, double>* layer);

/// Mean self time of each span name (span time minus its children's).
void AddSpanSelfTimes(const std::vector<Span>& spans,
                      std::map<std::string, double>* layer);

/// Write spans as tab-separated rows: op, name, parent, start_ns, end_ns.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// (pages.dat + MANIFEST) bytes of the FileStore in `dir` per live key.
double DiskBytesPerKey(const std::string& dir, uint64_t keys);

double ReadRssMb();
double Median(std::vector<double> v);
/// Stop the run with a message (set-up failures, bad options).
[[noreturn]] void Die(const std::string& what);
/// Join every thread in `threads`.
void JoinAll(std::vector<std::thread>* threads);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
