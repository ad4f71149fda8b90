// Copyright 2026 The obtree Authors.

#include "obtree/api/sharded_map.h"

#include <algorithm>
#include <string>

#include "obtree/core/background_pool.h"
#include "obtree/core/tree_checker.h"

namespace obtree {

ShardedMap::ShardedMap(const ShardOptions& options)
    : init_status_(options.Validate()),
      options_(init_status_.ok() ? options : ShardOptions()),
      // One machine-sized maintenance pool serves every shard.
      pool_(options_.compression != CompressionMode::kNone
                ? std::make_unique<BackgroundPool>(options_.pool_threads)
                : nullptr),
      shards_(MakeShards()) {
  for (const Shard& s : shards_) {
    if (init_status_.ok()) init_status_ = s.map->init_status();
  }
}

// Members tear down in reverse order: every shard (each detaches from the
// pool, blocking until no worker touches it), then pool_.
ShardedMap::~ShardedMap() = default;

std::vector<ShardedMap::Shard> ShardedMap::MakeShards() const {
  const uint32_t n = options_.num_shards;
  // Ceil division without overflow; Validate keeps the hint >= n, so the
  // width is >= 1.
  const uint64_t width =
      options_.key_space_hint / n + (options_.key_space_hint % n != 0);
  std::vector<Shard> shards(n);
  for (uint32_t i = 0; i < n; ++i) {
    MapOptions shard_options;
    shard_options.tree = options_.tree;
    shard_options.compression = options_.compression;
    if (!shard_options.tree.storage_dir.empty()) {
      // Each shard persists into its own subdirectory, named by its
      // index, which is stable across restarts because the partition is
      // fixed.
      shard_options.tree.storage_dir += "/shard-" + std::to_string(i);
    }
    shards[i].lo = static_cast<Key>(i) * width + 1;
    shards[i].map = std::make_unique<ConcurrentMap>(shard_options, pool_.get());
  }
  return shards;
}

Status ShardedMap::Checkpoint() {
  // Shards checkpoint independently (each cuts its own barrier); the
  // durability contract is per-key, matching routing.
  for (const Shard& s : shards_) {
    Status st = s.map->Checkpoint();
    if (!st.ok()) return st;  // code preserved so callers can dispatch on it
  }
  return Status::OK();
}

bool ShardedMap::recovered_from_checkpoint() const {
  for (const Shard& s : shards_) {
    if (s.map->recovered_from_checkpoint()) return true;
  }
  return false;
}

size_t ShardedMap::RouteIndex(Key key) const {
  // The answer stays in [lo, lo + n); each step halves n with no branch
  // on the comparison.
  size_t lo = 0;
  for (size_t n = shards_.size(); n > 1; n -= n / 2) {
    lo = shards_[lo + n / 2].lo <= key ? lo + n / 2 : lo;
  }
  return lo;
}

// --- point operations ------------------------------------------------------

Status ShardedMap::Insert(Key key, Value value) {
  return shards_[RouteIndex(key)].map->Insert(key, value);
}

Result<Value> ShardedMap::Get(Key key) const {
  return shards_[RouteIndex(key)].map->Get(key);
}

Status ShardedMap::Erase(Key key) {
  return shards_[RouteIndex(key)].map->Erase(key);
}

Status ShardedMap::Upsert(Key key, Value value) {
  return shards_[RouteIndex(key)].map->Upsert(key, value);
}

// --- scans -----------------------------------------------------------------

size_t ShardedMap::Scan(
    Key lo, Key hi, const std::function<bool(Key, Value)>& visitor) const {
  if (lo < 1) lo = 1;
  if (hi < lo) return 0;
  const Key cap = std::min(hi, kMaxUserKey);
  const size_t n = shards_.size();
  size_t visited = 0;
  bool stopped = false;
  // The partition is ordered, so visiting shards left to right delivers
  // globally ascending keys: every key of shard s precedes every key of
  // shard s+1.
  for (size_t s = RouteIndex(lo); s < n && !stopped; ++s) {
    if (shards_[s].lo > cap) break;
    const Key seg_lo = std::max(lo, shards_[s].lo);
    const Key seg_hi = s + 1 < n ? std::min(cap, shards_[s + 1].lo - 1) : cap;
    if (seg_hi < seg_lo) continue;  // lo above the user-key cap
    visited +=
        shards_[s].map->tree()->Scan(seg_lo, seg_hi, visitor, &stopped);
  }
  return visited;
}

// --- aggregation -----------------------------------------------------------

uint64_t ShardedMap::Size() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.map->Size();
  return total;
}

uint32_t ShardedMap::Height() const {
  uint32_t tallest = 0;
  for (const Shard& s : shards_) {
    tallest = std::max(tallest, s.map->Height());
  }
  return tallest;
}

void ShardedMap::CompressNow() {
  for (const Shard& s : shards_) s.map->CompressNow();
}

PoolStatsSnapshot ShardedMap::PoolStats() const {
  return pool_ != nullptr ? pool_->Stats() : PoolStatsSnapshot();
}

int ShardedMap::background_thread_count() const {
  return pool_ != nullptr ? pool_->thread_count() : 0;
}

StatsSnapshot ShardedMap::Stats() const {
  StatsSnapshot total;
  for (const Shard& s : shards_) {
    const StatsSnapshot snap = s.map->Stats();
    for (size_t i = 0; i < total.counters.size(); ++i) {
      total.counters[i] += snap.counters[i];
    }
    total.max_locks_held = std::max(total.max_locks_held, snap.max_locks_held);
  }
  return total;
}

TreeShape ShardedMap::Shape() const {
  TreeShape total;
  double fill_weighted = 0.0;
  uint64_t leaves = 0;
  for (const Shard& s : shards_) {
    const TreeShape shape = s.map->Shape();
    total.height = std::max(total.height, shape.height);
    total.num_keys += shape.num_keys;
    total.num_nodes += shape.num_nodes;
    total.underfull_nodes += shape.underfull_nodes;
    if (shape.nodes_per_level.size() > total.nodes_per_level.size()) {
      total.nodes_per_level.resize(shape.nodes_per_level.size(), 0);
    }
    for (size_t i = 0; i < shape.nodes_per_level.size(); ++i) {
      total.nodes_per_level[i] += shape.nodes_per_level[i];
    }
    const uint64_t shard_leaves =
        shape.nodes_per_level.empty() ? 0 : shape.nodes_per_level[0];
    fill_weighted += shape.avg_leaf_fill * static_cast<double>(shard_leaves);
    leaves += shard_leaves;
  }
  total.avg_leaf_fill =
      leaves > 0 ? fill_weighted / static_cast<double>(leaves) : 0.0;
  return total;
}

Status ShardedMap::ValidateStructure() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status s = shards_[i].map->ValidateStructure();
    if (!s.ok()) {
      return Status::Internal("shard " + std::to_string(i) + ": " +
                              s.ToString());
    }
  }
  return Status::OK();
}

}  // namespace obtree
