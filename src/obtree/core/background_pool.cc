// Copyright 2026 The obtree Authors.

#include "obtree/core/background_pool.h"

#include <chrono>
#include <cstdlib>

#include "obtree/core/compression_queue.h"
#include "obtree/core/queue_compressor.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"

namespace obtree {
namespace {

// How long a worker sleeps after a round that found no work.
constexpr std::chrono::milliseconds kIdleSleep{1};

}  // namespace

int BackgroundPool::DefaultThreadCount() {
  if (const char* env = std::getenv("OBTREE_POOL_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1 && v <= 1024) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 2;
  // A maintenance share of the machine: a quarter of the cores, at least
  // one, at most eight (the paper's "small number of background
  // processes" serves arbitrarily many shards).
  const unsigned quarter = hw / 4;
  return static_cast<int>(quarter < 1 ? 1 : (quarter > 8 ? 8 : quarter));
}

BackgroundPool::BackgroundPool(int threads)
    : threads_(threads > 0 ? threads : DefaultThreadCount()) {
  workers_.reserve(static_cast<size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

BackgroundPool::~BackgroundPool() { Stop(); }

uint64_t BackgroundPool::Attach(SagivTree* tree, CompressionQueue* queue) {
  auto src = std::make_shared<Source>();
  src->tree = tree;
  src->queue = queue;
  if (queue != nullptr) {
    src->drainer = std::make_unique<QueueCompressor>(tree, queue);
  } else {
    src->scanner = std::make_unique<ScanCompressor>(tree);
  }
  uint64_t handle;
  {
    std::lock_guard<std::mutex> lk(mu_);
    handle = next_handle_++;
    src->handle = handle;
    sources_.push_back(std::move(src));
  }
  // Wake idle workers so a busy queue gets service promptly.
  WakeWorkers();
  return handle;
}

void BackgroundPool::Detach(uint64_t handle) {
  std::shared_ptr<Source> src;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = sources_.begin(); it != sources_.end(); ++it) {
      if ((*it)->handle == handle) {
        src = *it;
        sources_.erase(it);
        break;
      }
    }
  }
  if (src == nullptr) return;  // unknown or already detached: idempotent
  src->detached.store(true);
  WaitIdle(src.get());
}

void BackgroundPool::Pause(uint64_t handle) {
  std::shared_ptr<Source> src = Find(handle);
  if (src == nullptr) return;
  src->paused.store(true);
  WaitIdle(src.get());
}

void BackgroundPool::Resume(uint64_t handle) {
  std::shared_ptr<Source> src = Find(handle);
  if (src == nullptr) return;
  src->paused.store(false);
  WakeWorkers();
}

std::shared_ptr<BackgroundPool::Source> BackgroundPool::Find(
    uint64_t handle) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sources_) {
    if (s->handle == handle) return s;
  }
  return nullptr;
}

void BackgroundPool::WaitIdle(Source* src) {
  // The caller's seq_cst store to `detached`/`paused` pairs with
  // BeginWork's fetch_add/load: either the worker sees the flag and backs
  // out, or this wait sees its increment of `active` and waits for the
  // matching EndWork.
  // Re-polling wait (not a plain wait): a bounded wait keeps the caller
  // live even across a lost wakeup between a worker's decrement and its
  // notify.
  std::unique_lock<std::mutex> lk(wake_mu_);
  while (src->active.load() != 0) {
    wake_cv_.wait_for(lk, std::chrono::milliseconds(1),
                      [&]() { return src->active.load() == 0; });
  }
}

void BackgroundPool::WakeWorkers() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    wake_gen_.fetch_add(1, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
}

void BackgroundPool::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

size_t BackgroundPool::num_sources() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sources_.size();
}

PoolStatsSnapshot BackgroundPool::Stats() const {
  PoolStatsSnapshot snap;
  snap.threads = threads_;
  snap.rounds = rounds_.load(std::memory_order_relaxed);
  snap.tasks_drained = tasks_drained_.load(std::memory_order_relaxed);
  snap.restructures = restructures_.load(std::memory_order_relaxed);
  snap.idle_sleeps = idle_sleeps_.load(std::memory_order_relaxed);
  return snap;
}

bool BackgroundPool::BeginWork(Source* src) {
  src->active.fetch_add(1);  // seq_cst: see WaitIdle
  if (src->detached.load() || src->paused.load()) {
    EndWork(src);
    return false;
  }
  return true;
}

void BackgroundPool::EndWork(Source* src) {
  if (src->active.fetch_sub(1) == 1 &&
      (src->detached.load() || src->paused.load())) {
    std::lock_guard<std::mutex> lk(wake_mu_);
    wake_cv_.notify_all();
  }
}

BackgroundPool::RoundResult BackgroundPool::RunOneRound() {
  std::vector<std::shared_ptr<Source>> local;
  {
    std::lock_guard<std::mutex> lk(mu_);
    local = sources_;
  }
  rounds_.fetch_add(1, std::memory_order_relaxed);
  if (local.empty()) return RoundResult::kIdle;

  // One cursor step per round, then a walk from the cursor that serves
  // the first source with work. The cursor visits every source once per
  // rotation, so no shard waits more than one rotation, and a round ends
  // idle (its worker sleeps) only when no source had work.
  const size_t n = local.size();
  const size_t start =
      static_cast<size_t>(rr_.fetch_add(1, std::memory_order_relaxed) % n);
  for (size_t i = 0; i < n; ++i) {
    Source* src = local[(start + i) % n].get();
    if (!BeginWork(src)) continue;  // detached in flight, or paused
    const RoundResult result = Serve(src);
    EndWork(src);
    if (result != RoundResult::kIdle) return result;
  }
  return RoundResult::kIdle;
}

BackgroundPool::RoundResult BackgroundPool::Serve(Source* src) {
  if (src->queue == nullptr) {
    const size_t work = src->scanner->FullPass();
    if (work == 0) return RoundResult::kIdle;
    tasks_drained_.fetch_add(1, std::memory_order_relaxed);
    restructures_.fetch_add(work, std::memory_order_relaxed);
    src->tree->stats()->Add(StatId::kPoolTasksDrained);
    return RoundResult::kWorked;
  }
  RoundResult result = RoundResult::kIdle;
  for (int b = 0; b < kDrainBatch; ++b) {
    const QueueCompressor::Outcome outcome = src->drainer->CompressOne();
    if (outcome == QueueCompressor::Outcome::kQueueEmpty) break;
    tasks_drained_.fetch_add(1, std::memory_order_relaxed);
    src->tree->stats()->Add(StatId::kPoolTasksDrained);
    if (outcome == QueueCompressor::Outcome::kRestructured) {
      restructures_.fetch_add(1, std::memory_order_relaxed);
    }
    // Let a requeued entry settle before retrying it.
    if (outcome == QueueCompressor::Outcome::kRequeued) {
      return RoundResult::kYield;
    }
    result = RoundResult::kWorked;
  }
  return result;
}

void BackgroundPool::WorkerLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Captured before the round: an Attach after this point changes the
    // generation and aborts the idle wait below, so a newly attached busy
    // shard is never stuck behind a full idle sleep.
    const uint64_t gen = wake_gen_.load(std::memory_order_relaxed);
    switch (RunOneRound()) {
      case RoundResult::kWorked:
        break;
      case RoundResult::kYield:
        std::this_thread::yield();
        break;
      case RoundResult::kIdle: {
        idle_sleeps_.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lk(wake_mu_);
        wake_cv_.wait_for(lk, kIdleSleep, [this, gen]() {
          return stop_.load(std::memory_order_acquire) ||
                 wake_gen_.load(std::memory_order_relaxed) != gen;
        });
        break;
      }
    }
  }
}

}  // namespace obtree
