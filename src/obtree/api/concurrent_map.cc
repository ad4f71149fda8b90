// Copyright 2026 The obtree Authors.

#include "obtree/api/concurrent_map.h"

#include <algorithm>

#include "obtree/core/background_pool.h"
#include "obtree/core/queue_compressor.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/core/tree_checker.h"

namespace obtree {

ConcurrentMap::ConcurrentMap(const MapOptions& options, BackgroundPool* pool)
    : options_(options) {
  tree_ = std::make_unique<SagivTree>(options_.tree);
  if (options_.compression == CompressionMode::kNone) return;

  if (options_.compression == CompressionMode::kQueueWorkers) {
    queue_ = std::make_unique<CompressionQueue>();
    queue_->RegisterWith(tree_->epoch());
    tree_->AttachCompressionQueue(queue_.get());
  }
  if (pool == nullptr) {
    BackgroundPool::Options pool_options;
    pool_options.threads = std::max(1, options_.compression_threads);
    owned_pool_ = std::make_unique<BackgroundPool>(pool_options);
    pool = owned_pool_.get();
  }
  pool_ = pool;
  pool_handle_ = pool->Attach(tree_.get(), queue_.get());
}

ConcurrentMap::~ConcurrentMap() { ShutdownMaintenance(); }

int ConcurrentMap::background_thread_count() const {
  return owned_pool_ != nullptr ? owned_pool_->thread_count() : 0;
}

void ConcurrentMap::ShutdownMaintenance() noexcept {
  // Order matters: background maintenance must be fully quiesced BEFORE
  // the tree or queue begins tearing down — a pool worker mid-CompressOne
  // dereferences both. Detach blocks until no worker touches this map and
  // is idempotent, so calling this twice (or after a partial construction)
  // is safe. The owned pool goes after the detach: destroying it joins its
  // workers and its supervisor.
  std::lock_guard<std::mutex> lk(maintenance_mu_);
  if (pool_ != nullptr) {
    pool_->Detach(pool_handle_);
    pool_ = nullptr;
    pool_handle_ = 0;
  }
  owned_pool_.reset();
  // Detach before the queue dies (the tree outlives it in this class, but
  // be explicit about the dependency).
  if (tree_ != nullptr) tree_->AttachCompressionQueue(nullptr);
}

Status ConcurrentMap::Insert(Key key, Value value) {
  return tree_->Insert(key, value);
}

Result<Value> ConcurrentMap::Get(Key key) const { return tree_->Search(key); }

Status ConcurrentMap::Erase(Key key) { return tree_->Delete(key); }

Status ConcurrentMap::Upsert(Key key, Value value) {
  // Single-descent atomic insert-or-replace: the presence check and the
  // value overwrite share one locked critical section in the tree.
  return tree_->Upsert(key, value);
}

BatchResult ConcurrentMap::MultiGet(const std::vector<Key>& keys) const {
  BatchResult r;
  r.values.reserve(keys.size());
  for (Key k : keys) r.values.push_back(tree_->Search(k));
  CountBatch(r);
  return r;
}

BatchResult ConcurrentMap::MultiInsert(const std::vector<Key>& keys,
                                       const std::vector<Value>& values) {
  BatchResult r;
  if (keys.size() != values.size()) {
    r.statuses.assign(keys.size(),
                      Status::InvalidArgument("keys/values size mismatch"));
    return r;
  }
  r.statuses.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    r.statuses.push_back(tree_->Insert(keys[i], values[i]));
  }
  CountBatch(r);
  return r;
}

BatchResult ConcurrentMap::MultiErase(const std::vector<Key>& keys) {
  BatchResult r;
  r.statuses.reserve(keys.size());
  for (Key k : keys) r.statuses.push_back(tree_->Delete(k));
  CountBatch(r);
  return r;
}

BatchResult ConcurrentMap::MultiUpsert(const std::vector<Key>& keys,
                                       const std::vector<Value>& values) {
  BatchResult r;
  if (keys.size() != values.size()) {
    r.statuses.assign(keys.size(),
                      Status::InvalidArgument("keys/values size mismatch"));
    return r;
  }
  r.statuses.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    r.statuses.push_back(tree_->Upsert(keys[i], values[i]));
  }
  CountBatch(r);
  return r;
}

void ConcurrentMap::CountBatch(const BatchResult& r) const {
  tree_->stats()->Add(StatId::kBatchOps, r.size());
}

size_t ConcurrentMap::Scan(
    Key lo, Key hi, const std::function<bool(Key, Value)>& visitor) const {
  return tree_->Scan(lo, hi, visitor);
}

std::vector<std::pair<Key, Value>> ConcurrentMap::ScanLimit(
    Key from, size_t limit) const {
  std::vector<std::pair<Key, Value>> out;
  if (limit == 0) return out;
  // One up-front reservation, capped so a huge limit over a sparse range
  // cannot allocate unbounded memory before the scan even starts.
  out.reserve(std::min<size_t>(limit, 4096));
  tree_->Scan(from, kMaxUserKey, [&](Key k, Value v) {
    out.emplace_back(k, v);
    return out.size() < limit;
  });
  return out;
}

Status ConcurrentMap::Checkpoint() { return tree_->Checkpoint(); }

Result<std::unique_ptr<ConcurrentMap>> ConcurrentMap::Recover(
    const MapOptions& options, BackgroundPool* pool) {
  if (options.tree.storage_dir.empty()) {
    return Status::InvalidArgument("Recover requires a storage_dir");
  }
  auto map = std::make_unique<ConcurrentMap>(options, pool);
  if (!map->init_status().ok()) return map->init_status();
  if (!map->recovered_from_checkpoint()) {
    return Status::NotFound("no committed checkpoint in " +
                            options.tree.storage_dir);
  }
  return map;
}

void ConcurrentMap::CompressNow() {
  // Pause this map's pool service for the whole call, so no background
  // pass is half done when the last foreground pass reports no work. The
  // lock keeps a concurrent Quiesce from detaching mid-call.
  std::lock_guard<std::mutex> lk(maintenance_mu_);
  if (pool_ != nullptr) pool_->Pause(pool_handle_);
  // Queue mode only revisits enqueued nodes; the sweep after the drain
  // picks up nodes whose neighbors were never enqueued.
  if (queue_ != nullptr) QueueCompressor(tree_.get(), queue_.get()).Drain();
  ScanCompressor sweeper(tree_.get());
  for (int pass = 0; pass < 128; ++pass) {
    if (sweeper.FullPass() == 0) break;
  }
  tree_->internal_pager()->Reclaim();
  if (pool_ != nullptr) pool_->Resume(pool_handle_);
}

ConcurrentMap::Cursor::Cursor(const ConcurrentMap* map, Key start)
    : map_(map), next_key_(start < 1 ? 1 : start) {}

void ConcurrentMap::Cursor::Seek(Key target) {
  next_key_ = target < 1 ? 1 : target;
  exhausted_ = false;
  buffer_.clear();
  buffer_index_ = 0;
}

bool ConcurrentMap::Cursor::Next(Key* key, Value* value) {
  if (buffer_index_ >= buffer_.size()) {
    if (exhausted_) return false;
    buffer_ = map_->ScanLimit(next_key_, kBatch);
    buffer_index_ = 0;
    if (buffer_.empty()) {
      exhausted_ = true;
      return false;
    }
    if (buffer_.size() < kBatch) exhausted_ = true;
    if (buffer_.back().first == kMaxUserKey) {
      exhausted_ = true;
    } else {
      next_key_ = buffer_.back().first + 1;
    }
  }
  *key = buffer_[buffer_index_].first;
  *value = buffer_[buffer_index_].second;
  ++buffer_index_;
  return true;
}

TreeShape ConcurrentMap::Shape() const {
  return TreeChecker(tree_.get()).ComputeShape();
}

Status ConcurrentMap::ValidateStructure() const {
  return TreeChecker(tree_.get()).CheckStructure();
}

}  // namespace obtree
