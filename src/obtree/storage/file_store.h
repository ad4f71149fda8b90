// Copyright 2026 The obtree Authors.
//
// FileStore: file-backed persistent PageStore with crash-safe
// checkpointing. On-disk layout (one directory per store):
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

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obtree/storage/page_store.h"

namespace obtree {

/// Persistent page backend over a directory (see file comment).
class FileStore : public PageStore {
 public:
  /// Open (creating if needed) the store directory. If a committed
  /// manifest exists it is loaded and verified: has_checkpoint() becomes
  /// true and recovered_meta() holds the checkpointed tree state. A
  /// manifest that fails its magic/version/checksum, or whose page table
  /// names a page id >= next_fresh or one id twice, yields DataLoss. A
  /// leftover MANIFEST.tmp (crash before the rename) is discarded.
  static Result<std::unique_ptr<FileStore>> Open(const std::string& dir);

  ~FileStore() override;
  OBTREE_DISALLOW_COPY_AND_ASSIGN(FileStore);

  bool persistent() const override { return true; }
  Status ReadPage(PageId id, void* buf) override;
  Status WritePage(PageId id, const void* buf) override;
  Status Commit(StoreMeta* meta) override;

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
