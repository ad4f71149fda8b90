// Copyright 2026 The obtree Authors.
//
// ConcurrentMap: the library's primary public entry point. It bundles a
// SagivTree with a compression deployment (Section 5's three options)
// served by a BackgroundPool, so applications get an ordered
// key-value map with lock-free reads, single-lock writes, and automatic
// space compaction. Besides the point operations and Scan, MultiGet reads
// a batch of keys as a loop of Gets.
//
//   obtree::MapOptions options;
//   options.compression = obtree::CompressionMode::kQueueWorkers;
//   obtree::ConcurrentMap map(options);
//   map.Insert(42, handle);
//   auto v = map.Get(42);
//   map.Erase(42);

#ifndef OBTREE_API_CONCURRENT_MAP_H_
#define OBTREE_API_CONCURRENT_MAP_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obtree/api/batch.h"
#include "obtree/core/compression_queue.h"
#include "obtree/core/options.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/util/common.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"

namespace obtree {

class BackgroundPool;
struct TreeShape;

// CompressionMode lives in core/options.h (pulled in above) so that
// ShardOptions can reference it without depending on the api layer.

/// Construction-time configuration of a ConcurrentMap.
struct MapOptions {
  /// Node size / restart tunables of the underlying tree.
  TreeOptions tree;
  /// Compression deployment.
  CompressionMode compression = CompressionMode::kQueueWorkers;
};

/// Thread-safe ordered map from Key to Value.
class ConcurrentMap {
 public:
  /// Unless compression is kNone, the map attaches its compression work
  /// (queue or scan) to a BackgroundPool. With `pool == nullptr` (the
  /// default) it owns a one-worker pool, Section 5.4's deployment (1).
  /// With a pool it spawns NO threads and the pool must outlive it: a
  /// BackgroundPool(n) of several workers is deployment (2), and
  /// ShardedMap's one machine-sized pool serves all its shards this way.
  explicit ConcurrentMap(const MapOptions& options = MapOptions(),
                         BackgroundPool* pool = nullptr);

  /// Detaches from the pool (blocking until no pool worker touches this
  /// map) and then destroys an owned pool, joining its threads — before
  /// the tree or queue begins tearing down.
  ~ConcurrentMap();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(ConcurrentMap);

  /// Construction status (InvalidArgument if options were rejected).
  const Status& init_status() const { return tree_->init_status(); }

  /// Insert a new key. AlreadyExists if present; the stored value wins.
  Status Insert(Key key, Value value);

  /// Point lookup. Lock-free: never blocks and never blocks writers. The
  /// descent is also copy-free — node pages are read in place under
  /// seqlock version validation instead of being copied 4 KB at a time
  /// (see README "Read path").
  Result<Value> Get(Key key) const;

  /// Remove a key. NotFound if absent.
  Status Erase(Key key);

  /// Tree-style aliases: Search IS Get and Delete IS Erase, with
  /// identical semantics and costs. They exist so the workload driver
  /// (duck-typed over Insert/Search/Delete/Scan) and code written against
  /// the SagivTree vocabulary can target a map directly; new code should
  /// prefer Get/Erase.
  Result<Value> Search(Key key) const { return Get(key); }
  Status Delete(Key key) { return Erase(key); }

  /// Insert-or-replace in ONE descent (SagivTree::Upsert): finding the
  /// key present overwrites its value inside the same locked critical
  /// section as the presence check. Atomic with respect to concurrent
  /// operations on the same key — readers see the old or the new value,
  /// never a window where the key is absent.
  Status Upsert(Key key, Value value);

  /// Batched Get: a loop over Get in submission order, so
  /// result.values[i] is Get(keys[i]). Every key takes its own epoch pin,
  /// and results, costs and counters are those of the same Gets made one
  /// by one, plus one kBatchOps per key. See ARCHITECTURE.md "Batched
  /// operations".
  BatchResult MultiGet(const std::vector<Key>& keys) const;

  /// Visit pairs with lo <= key <= hi in ascending order; the visitor
  /// returns false to stop. Returns pairs visited. Concurrent updates may
  /// or may not be observed: each delivered chunk of up to
  /// SagivTree::kScanChunk pairs is a validated snapshot of its leaf, and
  /// a leaf torn between chunks resumes after the last delivered key, so
  /// no pair is repeated. The visitor may call back into this map.
  size_t Scan(Key lo, Key hi,
              const std::function<bool(Key, Value)>& visitor) const;

  /// Collect up to `limit` pairs starting at `from` (pagination helper).
  std::vector<std::pair<Key, Value>> ScanLimit(Key from, size_t limit) const;

  /// Keys currently stored (exact when quiescent).
  uint64_t Size() const { return tree_->Size(); }
  /// True when no keys are stored.
  bool Empty() const { return Size() == 0; }
  /// Tree height in levels (1 = a lone root leaf).
  uint32_t Height() const { return tree_->Height(); }

  /// Run compression synchronously until a fixpoint (blocks the caller,
  /// not concurrent operations). Useful before measuring space. The pool
  /// is paused for this map meanwhile, so no background pass races it.
  void CompressNow();

  // --- persistence (options.tree.storage_dir) -----------------------------

  /// Write a crash-consistent checkpoint to the map's FileStore
  /// (SagivTree::Checkpoint): drains in-flight mutators — readers keep
  /// running — flushes dirty pages, and atomically commits the manifest.
  /// On OK the checkpoint is durable and contains every operation that
  /// returned before this call started. FailedPrecondition when the map
  /// has no storage_dir. Safe to call concurrently with operations and
  /// with background compression (compressors mutate under paper locks,
  /// so the barrier drains them like any writer).
  Status Checkpoint();

  /// True when construction found and adopted a committed checkpoint in
  /// options.tree.storage_dir (i.e. this map recovered existing data).
  bool recovered_from_checkpoint() const {
    return tree_->recovered_from_checkpoint();
  }

  /// Epoch of the newest committed checkpoint (0 = none / not persistent).
  uint64_t checkpoint_epoch() const { return tree_->checkpoint_epoch(); }

  /// Open a map that MUST recover from an existing checkpoint: errors
  /// with NotFound when options.tree.storage_dir holds no committed
  /// checkpoint (and with the construction failure when it is
  /// unreadable). Sugar over the constructor for restore tools that must
  /// not silently start empty (see examples/backup_restore.cpp).
  static Result<std::unique_ptr<ConcurrentMap>> Recover(
      const MapOptions& options, BackgroundPool* pool = nullptr);

  /// Snapshot of operation counters.
  StatsSnapshot Stats() const { return tree_->stats()->Snapshot(); }

  /// Snapshot of the leaf fill-factor histogram the write path maintains
  /// online: one sample (fill percent of the retiring left node) per leaf
  /// split, so no tree walk is needed. Midpoint splits cluster near 50,
  /// tail-biased splits (TreeOptions::append_leaves) near 100. For the
  /// walk-based per-leaf distribution, see Shape().leaf_fill_pct.
  Histogram LeafFillHistogram() const {
    return tree_->stats()->LeafFillHistogram();
  }

  /// Structural statistics (walks the tree; prefer quiescent moments).
  /// Includes the per-leaf fill-percent distribution
  /// (TreeShape::leaf_fill_pct).
  TreeShape Shape() const;

  /// Full structural validation. This map's background maintenance is
  /// paused around the audit, so no pool pass is half done while it
  /// reads; foreground writers must still be quiescent.
  Status ValidateStructure() const;

  /// Escape hatch for benchmarks and tests.
  SagivTree* tree() { return tree_.get(); }
  const SagivTree* tree() const { return tree_.get(); }
  CompressionQueue* queue() { return queue_.get(); }

  /// Workers of the pool THIS map owns (0 with a shared pool, compression
  /// off, or after Quiesce).
  int background_thread_count() const;

  /// The pool serving this map (owned or shared), or nullptr.
  BackgroundPool* attached_pool() const { return pool_; }

  /// Permanently stop background maintenance for this map: detach from
  /// the pool (blocking until no worker touches it), destroy an owned
  /// pool, and detach the compression queue; waits out a CompressNow. The
  /// map stays fully usable — under-full nodes just stop being compacted.
  /// Idempotent.
  void Quiesce() { ShutdownMaintenance(); }

 private:
  /// Idempotent, exception-safe teardown of background maintenance:
  /// detach from the pool, destroy an owned one, then detach the queue
  /// from the tree. Safe to call repeatedly.
  void ShutdownMaintenance() noexcept;

  MapOptions options_;
  std::unique_ptr<SagivTree> tree_;
  std::unique_ptr<CompressionQueue> queue_;
  std::unique_ptr<BackgroundPool> owned_pool_;  ///< null when shared/none
  /// CompressNow and ValidateStructure vs ShutdownMaintenance.
  mutable std::mutex maintenance_mu_;
  BackgroundPool* pool_ = nullptr;  ///< owned_pool_ or a shared pool
  uint64_t pool_handle_ = 0;
};

}  // namespace obtree

#endif  // OBTREE_API_CONCURRENT_MAP_H_
