// Copyright 2026 The obtree Authors.
//
// Latency recorder owned by the benchmark. Buckets are log-linear with
// 128 sub-buckets per power of two, so a bucket is never wider than
// 1/128 (0.78%) of its lower bound; values below 128 get exact buckets.
// Percentiles interpolate linearly by rank inside the bucket that holds
// the requested rank, so the reported value stays within one bucket
// width of the true sample. Single-writer: each client thread owns its
// recorders, and Merge combines them after the threads join.

#ifndef PERFBENCH_LATENCY_RECORDER_H_
#define PERFBENCH_LATENCY_RECORDER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

class LatencyRecorder {
 public:
  LatencyRecorder() : counts_(kBuckets, 0) {}

  void Add(uint64_t value) {
    ++counts_[Bucket(value)];
    ++count_;
  }

  void Merge(const LatencyRecorder& other) {
    for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Value at percentile p in [0, 100]; 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count_);
    uint64_t before = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const uint64_t c = counts_[b];
      if (c == 0) continue;
      if (static_cast<double>(before + c) >= rank) {
        const double within = (rank - static_cast<double>(before)) /
                              static_cast<double>(c);
        return static_cast<double>(LowerBound(b)) +
               within * static_cast<double>(Width(b));
      }
      before += c;
    }
    return static_cast<double>(LowerBound(kBuckets - 1));
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  // Group 0 holds the exact values [0, 128); group g >= 1 holds
  // [128 << (g - 1), 128 << g) in 128 steps of width 1 << (g - 1).
  static constexpr int kGroups = 64 - kSubBits + 1;
  static constexpr int kBuckets = kGroups * static_cast<int>(kSub);

  static int Bucket(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int e = 63 - __builtin_clzll(v);  // e >= kSubBits
    const int shift = e - kSubBits;
    const uint64_t mantissa = v >> shift;  // in [128, 256)
    return (shift + 1) * static_cast<int>(kSub) +
           static_cast<int>(mantissa - kSub);
  }

  static uint64_t LowerBound(int b) {
    const int g = b / static_cast<int>(kSub);
    const uint64_t m = static_cast<uint64_t>(b % static_cast<int>(kSub));
    if (g == 0) return m;
    return (kSub + m) << (g - 1);
  }

  static uint64_t Width(int b) {
    const int g = b / static_cast<int>(kSub);
    return g == 0 ? 1 : uint64_t{1} << (g - 1);
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

/// Samples of one op type, kept per 1-second slot of the measured phase.
/// P50 is taken over the whole run. P99 is the median of the p99s of
/// consecutive windows of at least kMinWindowSamples samples (one slot or
/// more), so one disk or scheduler hiccup moves one window, not the run.
class Timeline {
 public:
  static constexpr uint64_t kMinWindowSamples = 1000;
  static constexpr int64_t kSlotNs = 1'000'000'000;

  /// Record `value`, observed `offset_ns` after the measured phase began.
  void Add(int64_t offset_ns, uint64_t value) {
    const size_t slot =
        offset_ns <= 0 ? 0 : static_cast<size_t>(offset_ns / kSlotNs);
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    slots_[slot].Add(value);
  }

  void Merge(const Timeline& other) {
    if (other.slots_.size() > slots_.size()) slots_.resize(other.slots_.size());
    for (size_t i = 0; i < other.slots_.size(); ++i) {
      slots_[i].Merge(other.slots_[i]);
    }
  }

  LatencyRecorder Total() const {
    LatencyRecorder all;
    for (const LatencyRecorder& s : slots_) all.Merge(s);
    return all;
  }

  uint64_t count() const { return Total().count(); }
  double P50() const { return Total().Percentile(50); }

  double P99() const {
    std::vector<double> p99s;
    LatencyRecorder window;
    for (const LatencyRecorder& s : slots_) {
      window.Merge(s);
      if (window.count() >= kMinWindowSamples) {
        p99s.push_back(window.Percentile(99));
        window = LatencyRecorder();
      }
    }
    if (p99s.empty()) return window.Percentile(99);
    std::sort(p99s.begin(), p99s.end());
    const size_t n = p99s.size();
    return n % 2 == 1 ? p99s[n / 2] : (p99s[n / 2 - 1] + p99s[n / 2]) / 2.0;
  }

 private:
  std::vector<LatencyRecorder> slots_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_RECORDER_H_
