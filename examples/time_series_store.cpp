// Copyright 2026 The obtree Authors.
//
// Example: a time-series metrics store on top of ConcurrentMap.
//
// Scenario (the classic dense-index workload the B*-tree was designed
// for): writer threads append samples keyed by (timestamp, series) while
// dashboard readers run windowed range queries, and a retention policy
// continuously deletes expired samples. Retention is exactly the
// deletion-heavy pattern that motivates the paper's compression processes:
// without them, expired leaves would waste space forever.
//
//   $ ./time_series_store

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "obtree/api/concurrent_map.h"
#include "obtree/core/background_pool.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/random.h"

namespace {

// Key layout: 48-bit timestamp | 16-bit series id — keeps samples of all
// series interleaved in time order, so time-window scans are sequential.
constexpr uint64_t kSeriesBits = 16;

obtree::Key MakeKey(uint64_t timestamp, uint16_t series) {
  return (timestamp << kSeriesBits) | series;
}
uint64_t KeyTimestamp(obtree::Key key) { return key >> kSeriesBits; }
uint16_t KeySeries(obtree::Key key) {
  return static_cast<uint16_t>(key & ((1u << kSeriesBits) - 1));
}

}  // namespace

int main() {
  obtree::MapOptions options;
  options.tree.min_entries = 64;
  options.compression = obtree::CompressionMode::kQueueWorkers;
  // Two compression workers drain the queue (Section 5.4's deployment (2)).
  obtree::BackgroundPool pool(2);
  obtree::ConcurrentMap store(options, &pool);

  constexpr int kWriters = 4;
  constexpr uint64_t kSamplesPerWriter = 50'000;
  constexpr uint64_t kRetentionWindow = 60'000;  // keep the last 60k ticks

  std::atomic<uint64_t> clock{1};
  std::atomic<bool> done{false};

  // Writers: each owns a set of series and appends at the shared clock.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w]() {
      obtree::Random rng(static_cast<uint64_t>(w) + 1);
      for (uint64_t i = 0; i < kSamplesPerWriter; ++i) {
        const uint64_t ts = clock.fetch_add(1);
        const uint16_t series =
            static_cast<uint16_t>(w * 16 + rng.Uniform(16));
        const obtree::Value measurement = rng.Uniform(1000);
        (void)store.Insert(MakeKey(ts, series), measurement);
      }
    });
  }

  // Retention: delete everything older than the window. This floods the
  // compression queue — exactly what Section 5.4 is for.
  std::thread reaper([&]() {
    uint64_t reaped_until = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t now = clock.load(std::memory_order_acquire);
      if (now <= kRetentionWindow) continue;
      const uint64_t horizon = now - kRetentionWindow;
      std::vector<obtree::Key> expired;
      store.Scan(MakeKey(reaped_until, 0), MakeKey(horizon, 0),
                 [&](obtree::Key k, obtree::Value) {
                   expired.push_back(k);
                   return expired.size() < 4096;
                 });
      for (obtree::Key k : expired) (void)store.Erase(k);
      if (!expired.empty()) {
        reaped_until = KeyTimestamp(expired.back());
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  // A dashboard reader: aggregate a sliding one-thousand-tick window.
  std::thread dashboard([&]() {
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t now = clock.load(std::memory_order_acquire);
      if (now < 2000) continue;
      uint64_t count = 0;
      uint64_t sum = 0;
      store.Scan(MakeKey(now - 1000, 0), MakeKey(now, 0),
                 [&](obtree::Key, obtree::Value v) {
                   ++count;
                   sum += v;
                   return true;
                 });
      if (count > 0) {
        std::printf("[dashboard] window@%" PRIu64 ": %" PRIu64
                    " samples, mean=%.1f\n",
                    now, count,
                    static_cast<double>(sum) / static_cast<double>(count));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reaper.join();
  dashboard.join();

  // Final retention pass + compaction, then report.
  const uint64_t now = clock.load();
  const uint64_t horizon = now > kRetentionWindow ? now - kRetentionWindow : 0;
  std::vector<obtree::Key> expired;
  store.Scan(1, MakeKey(horizon, 0), [&](obtree::Key k, obtree::Value) {
    expired.push_back(k);
    return true;
  });
  for (obtree::Key k : expired) (void)store.Erase(k);
  store.CompressNow();

  const obtree::TreeShape shape = store.Shape();
  std::printf(
      "\nfinal store: %" PRIu64 " samples within retention, height=%u, "
      "%" PRIu64 " nodes, avg leaf fill %.2f\n",
      store.Size(), shape.height, shape.num_nodes, shape.avg_leaf_fill);

  // Spot-check: per-series counts over the last 10k ticks.
  uint64_t per_series[4] = {0, 0, 0, 0};
  store.Scan(MakeKey(now - 10'000, 0), MakeKey(now, 0),
             [&](obtree::Key k, obtree::Value) {
               per_series[KeySeries(k) / 16]++;
               return true;
             });
  std::printf("last 10k ticks per writer group: %" PRIu64 " %" PRIu64
              " %" PRIu64 " %" PRIu64 "\n",
              per_series[0], per_series[1], per_series[2], per_series[3]);

  const obtree::Status valid = store.ValidateStructure();
  std::printf("structure valid: %s\n", valid.ToString().c_str());
  return valid.ok() ? 0 : 1;
}
