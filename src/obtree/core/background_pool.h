// Copyright 2026 The obtree Authors.
//
// BackgroundPool: a fixed-size worker pool that performs compression for
// one or many trees, and the only way a map gets background maintenance.
// Section 5.4's point is that compression is decoupled from the operation
// path, so "a small number of background processes" can serve an
// arbitrarily large structure. A ShardedMap shares one machine-sized pool
// across every shard; a standalone ConcurrentMap owns a one-worker pool
// (deployment (1)), and one handed a BackgroundPool(n) shares its n
// workers (deployment (2)).
//
//   shard 0 queue ---+
//   shard 1 queue ---+--> [ worker ] [ worker ] ... (pool_threads total)
//   shard N queue ---+      in rotation
//
// Scheduling is a rotation: each round advances a shared cursor one
// source and serves the first source, walking from the cursor, that has
// work (a drain of up to kDrainBatch queue tasks, or a scan pass that
// found work). So no worker sleeps while a source it walked had work,
// and a hot shard cannot starve a cold one: the cursor reaches every
// shard once per rotation. A round in which no source had work sleeps.
//
// Each worker is a plain thread that loops until Stop(): the library
// throws nothing, so a worker has no other way to exit, and the pool
// runs exactly thread_count() threads.
//
// Attach/Detach/Pause/Resume are thread-safe and callable while the pool
// runs. Detach is idempotent and blocks until no worker is touching the
// shard, which makes it safe to call from a map destructor before the
// tree dies. Pause blocks the same way but keeps the shard attached.

#ifndef OBTREE_CORE_BACKGROUND_POOL_H_
#define OBTREE_CORE_BACKGROUND_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obtree/util/common.h"
#include "obtree/util/stats.h"

namespace obtree {

class CompressionQueue;
class QueueCompressor;
class SagivTree;
class ScanCompressor;

/// Shared background-maintenance worker pool (see file comment).
class BackgroundPool {
 public:
  /// Thread count used when the constructor gets threads <= 0: the
  /// OBTREE_POOL_THREADS environment variable if set, otherwise a
  /// hardware_concurrency-derived maintenance share of the machine.
  static int DefaultThreadCount();

  /// Starts `threads` workers (<= 0 selects DefaultThreadCount()).
  explicit BackgroundPool(int threads = 0);

  /// Stops and joins all workers (equivalent to Stop()).
  ~BackgroundPool();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(BackgroundPool);

  /// Attach a shard. With a queue, pool workers drain it with a
  /// QueueCompressor (Section 5.4 deployment (2), shared across trees);
  /// with queue == nullptr the tree is maintained by periodic full-tree
  /// scan passes instead (Sections 5.1-5.2). Neither pointer is owned;
  /// both must stay valid until Detach(handle) returns. Thread-safe.
  uint64_t Attach(SagivTree* tree, CompressionQueue* queue);

  /// Detach a shard. Blocks until no worker is processing it, so the
  /// caller may destroy the tree/queue immediately afterwards. Idempotent:
  /// unknown or already-detached handles are ignored. Thread-safe.
  void Detach(uint64_t handle);

  /// Hold off service of a shard without detaching it: blocks like Detach,
  /// then workers skip the shard until the matching Resume(handle). It
  /// keeps its handle. Unknown or detached handles are ignored.
  /// Thread-safe.
  void Pause(uint64_t handle);
  void Resume(uint64_t handle);

  /// Stop and join all workers. Idempotent. Attached shards stay
  /// registered (Detach still works) but receive no further service.
  void Stop();

  int thread_count() const { return threads_; }
  size_t num_sources() const;

  /// Point-in-time counters (monotone while the pool lives).
  PoolStatsSnapshot Stats() const;

 private:
  /// One attached shard. Kept alive by shared_ptr until the last worker
  /// snapshot drops it; `active` against `detached`/`paused` implements
  /// the Detach and Pause handshake (the pointers in here are only
  /// dereferenced between a successful BeginWork and the matching EndWork).
  struct Source {
    uint64_t handle = 0;
    SagivTree* tree = nullptr;
    CompressionQueue* queue = nullptr;          // null => scan maintenance
    std::unique_ptr<QueueCompressor> drainer;   // stateless; shared by workers
    std::unique_ptr<ScanCompressor> scanner;    // stateless; shared by workers
    std::atomic<int> active{0};
    std::atomic<bool> detached{false};
    std::atomic<bool> paused{false};
  };

  enum class RoundResult { kWorked, kYield, kIdle };

  /// Tasks drained from one queue per scheduling round (amortizes the
  /// registry snapshot while bounding how long a cold shard waits for
  /// its turn).
  static constexpr int kDrainBatch = 8;

  void WorkerLoop();
  RoundResult RunOneRound();
  /// One source's turn: a queue drain or a scan pass. kIdle when the
  /// source had no work. The caller holds a BeginWork claim on `src`.
  RoundResult Serve(Source* src);

  /// active++ unless the source is detached or paused; returns false
  /// without side effects visible to Detach/Pause if it is.
  bool BeginWork(Source* src);
  void EndWork(Source* src);

  std::shared_ptr<Source> Find(uint64_t handle) const;  // null if absent
  /// Block until no worker holds a BeginWork claim on `src` (the caller
  /// has already set `detached` or `paused`).
  void WaitIdle(Source* src);
  void WakeWorkers();  // bumps wake_gen_ and notifies

  int threads_ = 0;

  mutable std::mutex mu_;                        // guards sources_, next_handle_
  std::vector<std::shared_ptr<Source>> sources_;
  uint64_t next_handle_ = 1;

  std::mutex wake_mu_;                           // idle sleeps + handshakes
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  /// Bumped by Attach and Resume so idle workers wake for the shard
  /// instead of sleeping out their timeout (each worker captures the
  /// generation before its scheduling round; the idle wait aborts on a
  /// change).
  std::atomic<uint64_t> wake_gen_{0};
  std::atomic<uint64_t> rr_{0};                  // rotation cursor

  // Pool-wide counters (per-tree ones live in each tree's StatsCollector).
  std::atomic<uint64_t> rounds_{0};
  std::atomic<uint64_t> tasks_drained_{0};
  std::atomic<uint64_t> restructures_{0};
  std::atomic<uint64_t> idle_sleeps_{0};

  std::vector<std::thread> workers_;
};

}  // namespace obtree

#endif  // OBTREE_CORE_BACKGROUND_POOL_H_
