// Copyright 2026 The obtree Authors.

#include "obtree/util/stats.h"

#include <cstdio>

#include "obtree/util/thread_index.h"

namespace obtree {

const char* StatName(StatId id) {
  switch (id) {
    case StatId::kGets: return "gets";
    case StatId::kPuts: return "puts";
    case StatId::kLocksAcquired: return "locks_acquired";
    case StatId::kLocksContended: return "locks_contended";
    case StatId::kLockParks: return "lock_parks";
    case StatId::kLinkFollows: return "link_follows";
    case StatId::kRestarts: return "restarts";
    case StatId::kRestartsStaleNode: return "restarts_stale_node";
    case StatId::kRestartsRightmostStale: return "restarts_rightmost_stale";
    case StatId::kRestartsMissingMergeTarget:
      return "restarts_missing_merge_target";
    case StatId::kOptimisticValidations: return "optimistic_validations";
    case StatId::kOptimisticRetries: return "optimistic_retries";
    case StatId::kOptimisticFallbacks: return "optimistic_fallbacks";
    case StatId::kInplaceWrites: return "writes_inplace";
    case StatId::kInplaceFallbacks: return "inplace_fallbacks";
    case StatId::kWriteBytesInplace: return "write_bytes_inplace";
    case StatId::kWriteBytesCopied: return "write_bytes_copied";
    case StatId::kAppendFastHits: return "append_fast_hits";
    case StatId::kAppendFastMisses: return "append_fast_misses";
    case StatId::kMergePointerFollows: return "merge_pointer_follows";
    case StatId::kSplits: return "splits";
    case StatId::kTailSplits: return "tail_splits";
    case StatId::kMerges: return "merges";
    case StatId::kRedistributions: return "redistributions";
    case StatId::kNodesRetired: return "nodes_retired";
    case StatId::kNodesReclaimed: return "nodes_reclaimed";
    case StatId::kRootCreations: return "root_creations";
    case StatId::kRootCollapses: return "root_collapses";
    case StatId::kCompressWaits: return "compress_waits";
    case StatId::kQueueEnqueues: return "queue_enqueues";
    case StatId::kQueueRequeues: return "queue_requeues";
    case StatId::kQueueDiscards: return "queue_discards";
    case StatId::kPoolTasksDrained: return "pool_tasks_drained";
    case StatId::kFaultsInjected: return "faults_injected";
    case StatId::kFetchRetries: return "fetch_retries";
    case StatId::kFetchGiveups: return "fetch_giveups";
    case StatId::kSearches: return "searches";
    case StatId::kInserts: return "inserts";
    case StatId::kDeletes: return "deletes";
    case StatId::kBatchOps: return "batch_ops";
    case StatId::kBatchPagesCoalesced: return "batch_pages_coalesced";
    case StatId::kStoreReads: return "store_reads";
    case StatId::kStoreWrites: return "store_writes";
    case StatId::kPagesEvicted: return "pages_evicted";
    case StatId::kCheckpoints: return "checkpoints";
    case StatId::kRecoveries: return "recoveries";
    case StatId::kNumStats: break;
  }
  return "unknown";
}

StatsSnapshot StatsSnapshot::Delta(const StatsSnapshot& earlier) const {
  StatsSnapshot d;
  for (int i = 0; i < kNumStatIds; ++i) {
    d.counters[static_cast<size_t>(i)] =
        counters[static_cast<size_t>(i)] - earlier.counters[static_cast<size_t>(i)];
  }
  d.max_locks_held = max_locks_held;
  return d;
}

std::string StatsSnapshot::ToString() const {
  std::string out;
  char line[96];
  for (int i = 0; i < kNumStatIds; ++i) {
    const uint64_t v = counters[static_cast<size_t>(i)];
    if (v == 0) continue;
    std::snprintf(line, sizeof(line), "  %-22s %llu\n",
                  StatName(static_cast<StatId>(i)),
                  static_cast<unsigned long long>(v));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-22s %llu\n", "max_locks_held",
                static_cast<unsigned long long>(max_locks_held));
  out += line;
  return out;
}

std::string PoolStatsSnapshot::ToString() const {
  char line[128];
  std::snprintf(line, sizeof(line),
                "  pool: %d threads, %llu rounds, %llu drained, "
                "%llu restructures, idle %.2f\n",
                threads, static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(tasks_drained),
                static_cast<unsigned long long>(restructures), IdleRatio());
  return line;
}

StatsCollector::StatsCollector() : max_locks_held_(0) {}

int StatsCollector::ShardIndex() {
  // The thread's sequential index: the first kShards threads never share
  // a shard, where a thread-id hash collides for a few threads already.
  return static_cast<int>(ThisThreadIndex() % kShards);
}

void StatsCollector::Add(StatId id, uint64_t n) {
  shards_[static_cast<size_t>(ShardIndex())]
      .counters[static_cast<size_t>(id)]
      .fetch_add(n, std::memory_order_relaxed);
}

void StatsCollector::RecordLockDepth(uint64_t depth) {
  uint64_t cur = max_locks_held_.load(std::memory_order_relaxed);
  while (depth > cur &&
         !max_locks_held_.compare_exchange_weak(cur, depth,
                                                std::memory_order_relaxed)) {
  }
}

uint64_t StatsCollector::Get(StatId id) const {
  uint64_t sum = 0;
  for (const Shard& s : shards_) {
    sum += s.counters[static_cast<size_t>(id)].load(std::memory_order_relaxed);
  }
  return sum;
}

StatsSnapshot StatsCollector::Snapshot() const {
  StatsSnapshot snap;
  for (int i = 0; i < kNumStatIds; ++i) {
    snap.counters[static_cast<size_t>(i)] = Get(static_cast<StatId>(i));
  }
  snap.max_locks_held = max_locks_held();
  return snap;
}

void StatsCollector::Reset() {
  for (Shard& s : shards_) {
    for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
  }
  max_locks_held_.store(0, std::memory_order_relaxed);
  lock_wait_ns_.Reset();
  leaf_fill_pct_.Reset();
}

}  // namespace obtree
