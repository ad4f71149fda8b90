// Copyright 2026 The obtree Authors.
//
// Result carrier of ConcurrentMap::MultiGet. One BatchResult describes
// one batch: a per-key outcome in submission order. A batch is a loop
// over single Gets; see ARCHITECTURE.md "Batched operations".

#ifndef OBTREE_API_BATCH_H_
#define OBTREE_API_BATCH_H_

#include <cstddef>
#include <vector>

#include "obtree/util/common.h"
#include "obtree/util/status.h"

namespace obtree {

/// Outcome of one MultiGet: `values[i]` is a Result<Value> for keys[i]
/// (the value, NotFound, or the op's error). Ops are independent: one
/// failing (e.g. an injected Unavailable) does not disturb its
/// batch-mates — inspect per-op slots, not just all_ok().
struct BatchResult {
  std::vector<Result<Value>> values;  ///< per-op results

  /// Number of ops in the batch.
  size_t size() const { return values.size(); }

  /// True when every op succeeded (a NotFound key counts as not ok).
  bool all_ok() const {
    for (const auto& v : values) {
      if (!v.ok()) return false;
    }
    return true;
  }
};

}  // namespace obtree

#endif  // OBTREE_API_BATCH_H_
