// Copyright 2026 The obtree Authors.

#include "obtree/core/shard_rebalancer.h"

#include <chrono>

namespace obtree {
namespace {

// Relative weights of the load components in a shard's hotness score.
// Plain op volume dominates; a contended lock acquisition costs far more
// than an uncontended op (spin + possible futex park), and an off-turn
// pool pick means the shard's deletion churn was deep enough to jump the
// round-robin order — both are stronger hotness evidence per event.
constexpr double kOpsWeight = 1.0;
constexpr double kContentionWeight = 2.0;
constexpr double kDrainWeight = 0.5;
constexpr double kBoostWeight = 4.0;

// Circuit breaker: after this many CONSECUTIVE failed split/merge actions
// (a failure = migration aborted + rolled back; a skipped action, e.g.
// nothing to merge, does not count) the controller stops acting, and it
// stays open this many periods before re-arming half-open (the next
// action's outcome decides whether it trips again).
constexpr uint32_t kMaxConsecutiveFailures = 3;
constexpr uint32_t kBreakerCooldownPeriods = 16;

}  // namespace

ShardRebalancer::ShardRebalancer(Host* host, const RebalanceOptions& options)
    : host_(host), options_(options) {}

ShardRebalancer::~ShardRebalancer() { Stop(); }

void ShardRebalancer::Start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this]() { RunLoop(); });
}

void ShardRebalancer::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    to_join.swap(thread_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

void ShardRebalancer::RunLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(options_.period_ms),
                 [this]() { return stop_; });
    if (stop_) break;
    // Tick outside mu_ so Stop() never waits behind a live migration.
    lk.unlock();
    Tick();
    lk.lock();
  }
}

void ShardRebalancer::Tick() {
  std::lock_guard<std::mutex> tick_lk(tick_mu_);
  periods_.fetch_add(1, std::memory_order_relaxed);

  const std::vector<ShardLoad> loads = host_->SnapshotLoads();
  const size_t n = loads.size();

  // Join against the previous snapshot by tree identity and score the
  // period's delta. A shard without a baseline entry (first period, or a
  // topology change the controller did not cause) makes the whole period
  // observe-only: acting on a partial window would mistake "new" for
  // "cold".
  bool complete = !baseline_.empty();
  std::vector<double> weight(n, 0.0);
  std::vector<uint64_t> dops(n, 0);
  uint64_t total_ops = 0;
  double total_weight = 0.0;
  for (size_t i = 0; i < n && complete; ++i) {
    const auto it = baseline_.find(loads[i].id);
    if (it == baseline_.end()) {
      complete = false;
      break;
    }
    const ShardLoad& b = it->second;
    dops[i] = loads[i].ops - b.ops;
    weight[i] = kOpsWeight * static_cast<double>(dops[i]) +
                kContentionWeight *
                    static_cast<double>(loads[i].contention - b.contention) +
                kDrainWeight *
                    static_cast<double>(loads[i].pool_drains - b.pool_drains) +
                kBoostWeight *
                    static_cast<double>(loads[i].pool_boosts - b.pool_boosts);
    total_ops += dops[i];
    total_weight += weight[i];
  }

  // Re-baseline every period (including cooldown and observe-only ones):
  // whatever happened this period — migration traffic included — is
  // consumed here and never scored.
  baseline_.clear();
  for (const ShardLoad& l : loads) baseline_[l.id] = l;

  // Breaker gate. While open the controller still snapshots and
  // re-baselines (above) but refuses to act; when the open window
  // expires it re-arms half-open, where exactly one probe action is
  // allowed and a single failure re-trips.
  if (breaker_open_) {
    if (breaker_reopen_in_ > 0) {
      --breaker_reopen_in_;
      return;
    }
    breaker_open_ = false;
    half_open_ = true;
    breaker_open_flag_.store(false, std::memory_order_relaxed);
  }

  if (cooldown_ > 0) {
    --cooldown_;
    return;
  }
  if (!complete) return;
  if (total_ops < options_.min_ops_per_period) return;  // noise floor
  if (n == 0 || total_weight <= 0.0) return;

  const double fair = total_weight / static_cast<double>(n);

  // Hottest shard first: a split relieves contention immediately, whereas
  // a merge only tidies up.
  size_t hot = 0;
  for (size_t i = 1; i < n; ++i) {
    if (weight[i] > weight[hot]) hot = i;
  }
  if (weight[hot] > options_.hotness_threshold * fair &&
      n < options_.max_shards && loads[hot].keys >= options_.min_keys_to_split) {
    const ActionResult r = NoteAction(host_->SplitShard(hot));
    if (r == ActionResult::kOk) {
      splits_.fetch_add(1, std::memory_order_relaxed);
    }
    if (r != ActionResult::kSkipped) {
      // Both success and an aborted/rolled-back migration perturbed the
      // shards: enforce quiet and re-take the baseline before scoring.
      cooldown_ = options_.cooldown_periods;
      baseline_.clear();
    }
    return;
  }

  // Coldest ADJACENT pair (table order == key-range order, so index
  // neighbors are mergeable neighbors).
  if (n > options_.min_shards && n >= 2) {
    size_t best = 0;
    double best_sum = weight[0] + weight[1];
    for (size_t i = 1; i + 1 < n; ++i) {
      const double s = weight[i] + weight[i + 1];
      if (s < best_sum) {
        best = i;
        best_sum = s;
      }
    }
    if (best_sum < options_.cold_threshold * fair) {
      const ActionResult r = NoteAction(host_->MergeShards(best));
      if (r == ActionResult::kOk) {
        merges_.fetch_add(1, std::memory_order_relaxed);
      }
      if (r != ActionResult::kSkipped) {
        cooldown_ = options_.cooldown_periods;
        baseline_.clear();
      }
    }
  }
}

ShardRebalancer::ActionResult ShardRebalancer::NoteAction(
    ActionResult result) {
  switch (result) {
    case ActionResult::kOk:
      consecutive_failures_ = 0;
      half_open_ = false;
      break;
    case ActionResult::kSkipped:
      // Benign "not now": neither failure evidence nor recovery evidence.
      break;
    case ActionResult::kFailed:
      failed_actions_.fetch_add(1, std::memory_order_relaxed);
      ++consecutive_failures_;
      if (half_open_ ||
          consecutive_failures_ >= kMaxConsecutiveFailures) {
        breaker_open_ = true;
        half_open_ = false;
        breaker_reopen_in_ = kBreakerCooldownPeriods;
        consecutive_failures_ = 0;
        breaker_trips_.fetch_add(1, std::memory_order_relaxed);
        breaker_open_flag_.store(true, std::memory_order_relaxed);
      }
      break;
  }
  return result;
}

}  // namespace obtree
