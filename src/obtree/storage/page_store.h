// Copyright 2026 The obtree Authors.
//
// PageStore: the backend a PageManager keeps page images on.
//
// The paper's storage model (Section 2.2) maps every node to secondary
// storage; PageManager implements the concurrency half of that model (the
// seqlock get/put indivisibility and the paper lock) and delegates WHERE
// the bytes ultimately live to a PageStore:
//
//   * MemStore (mem_store.h) — the default: pages live only in the
//     manager's RAM arena and the store is a no-op. Behavior is
//     bit-for-bit what it was before the interface existed.
//   * FileStore (file_store.h) — real persistence: 4 KB-aligned slots in
//     a data file via pread/pwrite, checksummed images, and a crash-safe
//     checkpoint protocol (shadow-slot writes + fsync + atomic manifest
//     rename).
//
// The manager treats the store as a plain byte-level backing device: it
// calls ReadPage when a non-resident page must be faulted into the arena,
// WritePage when a dirty page is evicted or flushed, and Commit at a
// checkpoint barrier. All durability semantics (which slot a write lands
// in, when it becomes part of the recoverable image) belong to the store.

#ifndef OBTREE_STORAGE_PAGE_STORE_H_
#define OBTREE_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <vector>

#include "obtree/storage/page.h"
#include "obtree/util/common.h"
#include "obtree/util/status.h"

namespace obtree {

/// Page ids are below this bound: PageManager's page directory holds at
/// most 16M pages, so a manifest that claims more is corrupt.
inline constexpr uint32_t kMaxPageIds = 1u << 24;

/// Everything beyond raw page bytes that a checkpoint must capture for a
/// later Recover to rebuild the tree: the allocator frontier and free
/// list (PageManager state) plus the prime block, logical size, and
/// append-path hints (SagivTree state). Serialized into the manifest by
/// FileStore::Commit; ignored by MemStore.
struct StoreMeta {
  /// Monotone checkpoint counter: 0 = never checkpointed; assigned by
  /// the store at Commit (committed epoch + 1). After recovery it tells
  /// the crash harness exactly which committed prefix of a deterministic
  /// workload the image corresponds to.
  uint64_t checkpoint_epoch = 0;

  // --- PageManager state (filled by PageManager::Checkpoint) ------------
  uint32_t next_fresh = 0;            ///< allocator high-water mark,
                                      ///< at most kMaxPageIds
  std::vector<PageId> free_pages;     ///< free + retired (recovery has no
                                      ///< in-flight readers, so retired
                                      ///< pages are plain free pages)

  // --- SagivTree state --------------------------------------------------
  uint64_t tree_size = 0;             ///< logical key count at the barrier
  std::vector<PageId> leftmost;       ///< prime block: leftmost[level]
  Key max_key = 0;                    ///< append fast-path watermark
  PageId rightmost_leaf = kInvalidPageId;  ///< append fast-path hint
};

/// Abstract backing device for page images. All methods are thread-safe;
/// WritePage/Commit callers serialize per page via the manager's seqlock
/// and checkpoint gate.
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// True when images written here survive the process (FileStore). The
  /// manager only runs its residency/eviction machinery — and SagivTree
  /// only admits Checkpoint() — over a persistent store.
  virtual bool persistent() const = 0;

  /// Read page `id` into `buf` (kPageSize bytes). A page that was never
  /// written is delivered as all-zero bytes (an inert empty node), not an
  /// error. Returns DataLoss when a stored image fails its checksum.
  virtual Status ReadPage(PageId id, void* buf) = 0;

  /// Stage the image of page `id` (kPageSize bytes). The write lands in
  /// the page's uncommitted shadow slot: it is NOT part of the
  /// recoverable image until the next Commit, so a crash mid-write can
  /// only tear bytes recovery will never read.
  virtual Status WritePage(PageId id, const void* buf) = 0;

  /// Checkpoint barrier: make every image staged since the previous
  /// Commit — plus `meta` — the recoverable state, atomically. On return
  /// with OK the new checkpoint is durable; on any failure (or a crash at
  /// any interior point) recovery sees the PREVIOUS checkpoint intact.
  /// Sets meta->checkpoint_epoch to the epoch it committed.
  virtual Status Commit(StoreMeta* meta) = 0;
};

}  // namespace obtree

#endif  // OBTREE_STORAGE_PAGE_STORE_H_
