// Copyright 2026 The obtree Authors.
//
// FileStore: the file a persistent PageManager keeps its page images on,
// with crash-safe checkpointing. The paper's storage model (Section 2.2)
// maps every node to secondary storage; PageManager implements the
// concurrency half of that model (the seqlock get/put indivisibility and
// the paper lock) and treats the store as a plain byte-level backing
// device: it calls ReadPage when a non-resident page must be faulted into
// its arena, WritePage when a dirty page is evicted or flushed, and
// Commit at a checkpoint barrier. All durability semantics (which slot a
// write lands in, when it becomes part of the recoverable image) belong
// to the store. A tree without storage_dir has no store at all: its
// pages live only in the manager's RAM arena.
//
// On-disk layout (one directory per store):
//
//   <dir>/pages.dat   page images in 4 KB-aligned slots (O_DIRECT-ready:
//                     every slot offset is a kPageSize multiple). Each
//                     page owns a PAIR of slots at indices 2*id and
//                     2*id + 1 and ping-pongs between them: a WritePage
//                     always lands in the slot the committed manifest
//                     does NOT reference, so a torn write (crash mid
//                     pwrite) can only corrupt bytes recovery will never
//                     read.
//   <dir>/MANIFEST    the commit point: checkpoint epoch, allocator
//                     state, tree metadata (prime block, size, append
//                     hints), and the per-page {slot, crc32} table naming
//                     which slot of each pair holds the committed image,
//                     in page-id order. Written as MANIFEST.tmp + fsync +
//                     rename + dir fsync, so it is replaced atomically; a
//                     crash at any interior point leaves the previous
//                     manifest intact.
//
// In memory the store keeps one 12-byte entry per page id (a dense
// vector): the CRC of each of its two slots, the slot the manifest names
// and the slot staged since the last Commit. A read or a write looks its
// page up with one indexed access under the store mutex.
//
// Every image is checksummed with CRC-32 (IEEE). On x86-64 CPUs with
// PCLMULQDQ the checksum folds 64 bytes per step with carry-less
// multiplies, about ten times faster than the slicing-by-8 table loop
// that computes the same value elsewhere and for short inputs and tails.
//
// Checkpoint protocol (PageManager::Checkpoint drives it):
//   1. every dirty page is staged via WritePage (shadow slots);
//   2. Commit: fsync pages.dat, serialize the manifest (each page's
//      staged slot, else its committed one) to MANIFEST.tmp, fsync it,
//      rename over MANIFEST, fsync the directory, then promote the
//      staged slots to committed.
//
// Durability fault sites (FaultInjector, see FaultAction::kCrash):
//   "store-write"       before each page pwrite; a kCrash fire persists
//                       the first 512 bytes of the new image (a genuine
//                       torn sector) and dies.
//   "store-fsync"       before the pages.dat fsync in Commit.
//   "manifest-rename"   after MANIFEST.tmp is durable, before the rename.
//   "checkpoint-commit" after the rename + directory fsync (the
//                       checkpoint IS durable; crash-after-commit tests).
// kError fires on the first three surface Status::Unavailable without
// touching durable state, so transient-failure tests ride the same sites.

#ifndef OBTREE_STORAGE_FILE_STORE_H_
#define OBTREE_STORAGE_FILE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
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
/// FileStore::Commit.
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
  PageId rightmost_leaf = kInvalidPageId;  ///< append fast-path hint;
                                           ///< recovery re-walks the leaves
};

/// Persistent page backend over a directory (see file comment). All
/// methods are thread-safe; WritePage/Commit callers serialize per page
/// via the manager's seqlock and checkpoint gate.
class FileStore {
 public:
  /// Open (creating if needed) the store directory. If a committed
  /// manifest exists it is loaded and verified: has_checkpoint() becomes
  /// true and recovered_meta() holds the checkpointed tree state. A
  /// manifest that fails its magic/version/checksum, or whose page table
  /// names a page id >= next_fresh or one id twice, yields DataLoss. A
  /// leftover MANIFEST.tmp (crash before the rename) is discarded.
  static Result<std::unique_ptr<FileStore>> Open(const std::string& dir);

  ~FileStore();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(FileStore);

  /// Read page `id` into `buf` (kPageSize bytes). A page that was never
  /// written is delivered as all-zero bytes (an inert empty node), not an
  /// error. Returns DataLoss when a stored image fails its checksum.
  Status ReadPage(PageId id, void* buf);

  /// Stage the image of page `id` (kPageSize bytes). The write lands in
  /// the page's uncommitted shadow slot: it is NOT part of the
  /// recoverable image until the next Commit, so a crash mid-write can
  /// only tear bytes recovery will never read.
  Status WritePage(PageId id, const void* buf);

  /// Checkpoint barrier: make every image staged since the previous
  /// Commit — plus `meta` — the recoverable state, atomically. On return
  /// with OK the new checkpoint is durable; on any failure (or a crash at
  /// any interior point) recovery sees the PREVIOUS checkpoint intact.
  /// Sets meta->checkpoint_epoch to the epoch it committed.
  Status Commit(StoreMeta* meta);

  /// True when Open found a committed checkpoint.
  bool has_checkpoint() const { return has_checkpoint_; }

  /// The tree/allocator state of the committed checkpoint Open loaded
  /// (valid only when has_checkpoint()).
  const StoreMeta& recovered_meta() const { return recovered_meta_; }

  /// Epoch of the newest committed checkpoint (0 = none yet).
  uint64_t checkpoint_epoch() const {
    std::lock_guard<std::mutex> lk(mu_);
    return committed_epoch_;
  }

  const std::string& dir() const { return dir_; }

  /// CRC-32 (the IEEE polynomial) over `n` bytes. Exposed so corruption
  /// tests can compute the checksum an image SHOULD have. Uses the
  /// carry-less-multiply fold where the CPU has one.
  static uint32_t Crc32(const void* data, size_t n);

  /// The same CRC-32 through the slicing-by-8 table loop alone: the path
  /// of CPUs without PCLMULQDQ, exposed so hosts that have it still test
  /// it at page length.
  static uint32_t Crc32Portable(const void* data, size_t n);

 private:
  static constexpr uint8_t kNoSlot = 2;

  // One page's state in the two slots of its pair.
  struct SlotEntry {
    uint32_t crc[2] = {0, 0};     // checksum of the image in each slot
    uint8_t committed = kNoSlot;  // slot the manifest names
    uint8_t pending = kNoSlot;    // slot staged since the last Commit

    // The slot a read serves: the staged image, else the committed one.
    uint8_t live() const { return pending != kNoSlot ? pending : committed; }
  };
  static_assert(sizeof(SlotEntry) == 12, "one 12-byte entry per page id");

  FileStore(std::string dir, int data_fd, int dir_fd);

  // Serialize + atomically publish the manifest for `meta` from the slot
  // table (each page's pending slot, else its committed one). Caller
  // holds mu_.
  Status PublishManifestLocked(const StoreMeta& meta);

  // Parse <dir>/MANIFEST into the committed state. Missing file => OK
  // with has_checkpoint_ false; torn/corrupt file => DataLoss.
  Status LoadManifest();

  const std::string dir_;
  const int data_fd_;
  const int dir_fd_;

  mutable std::mutex mu_;
  std::vector<SlotEntry> slots_;     // indexed by PageId
  std::vector<PageId> pending_ids_;  // ids with a pending slot
  uint64_t committed_epoch_ = 0;
  bool has_checkpoint_ = false;
  StoreMeta recovered_meta_;
};

}  // namespace obtree

#endif  // OBTREE_STORAGE_FILE_STORE_H_
