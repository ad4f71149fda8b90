// Copyright 2026 The obtree Authors.
//
// Result carrier of the batched operation API (ConcurrentMap::MultiGet /
// MultiInsert / MultiErase / MultiUpsert and the ShardedMap
// counterparts). One BatchResult describes one batch: a per-op outcome
// in submission order, plus the batch-level slice of the pipelined
// descent engine's counters (how many ops ran, how many page fetches
// were coalesced). See SagivTree's batched
// operations for the engine itself and ARCHITECTURE.md "Batched
// operation engine" for the cost-model accounting.

#ifndef OBTREE_API_BATCH_H_
#define OBTREE_API_BATCH_H_

#include <cstddef>
#include <vector>

#include "obtree/util/common.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"

namespace obtree {

/// Outcome of one batched call. Exactly one of the two per-op vectors is
/// populated, matching the call's shape:
///   * MultiGet fills `values` (a Result<Value> per key: the value,
///     NotFound, or the op's error);
///   * MultiInsert/MultiErase/MultiUpsert fill `statuses` (a Status per
///     key with the single-op call's semantics).
/// Ops are independent: one failing (e.g. an injected Unavailable) does
/// not disturb its batch-mates — inspect per-op slots, not just ok().
struct BatchResult {
  std::vector<Result<Value>> values;  ///< per-op results (MultiGet)
  std::vector<Status> statuses;       ///< per-op statuses (write batches)
  BatchStats stats;                   ///< this batch's kBatch* slice

  /// Number of ops in the batch.
  size_t size() const {
    return values.empty() ? statuses.size() : values.size();
  }

  /// True when every op succeeded (NotFound counts as failure for gets
  /// and erases only in the sense of its Status; here "ok" is Status::ok).
  bool all_ok() const {
    for (const auto& v : values) {
      if (!v.ok()) return false;
    }
    for (const Status& s : statuses) {
      if (!s.ok()) return false;
    }
    return true;
  }
};

}  // namespace obtree

#endif  // OBTREE_API_BATCH_H_
