// Copyright 2026 The obtree Authors.
//
// The prime block of Section 3.3: it stores the number of levels in the
// tree and a pointer to the leftmost node of every level. The leftmost node
// of a level never changes once created, so creating a new root only
// appends one pointer and bumps the level count; collapsing the root only
// decrements the level count (the leftmost array entries of dead levels are
// retained but ignored).
//
// Per the paper, the prime block is rewritten only by a process holding the
// lock on the current root, so it needs no lock of its own; reads must be
// indivisible, which we provide with a seqlock.

#ifndef OBTREE_STORAGE_PRIME_BLOCK_H_
#define OBTREE_STORAGE_PRIME_BLOCK_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "obtree/storage/page.h"
#include "obtree/util/common.h"

namespace obtree {

/// Maximum number of levels a tree may grow to. With fanout >= 4 this is
/// unreachable in practice.
inline constexpr int kMaxLevels = 40;

/// Snapshot of the prime block contents.
struct PrimeBlockData {
  uint32_t num_levels = 0;             ///< levels including the leaf level
  PageId leftmost[kMaxLevels] = {};    ///< leftmost node per level

  /// The root is the leftmost (and only) node of the top level.
  PageId root() const {
    assert(num_levels > 0);
    return leftmost[num_levels - 1];
  }
  /// Level of the root (leaves are level 0).
  uint32_t root_level() const {
    assert(num_levels > 0);
    return num_levels - 1;
  }
};

/// Seqlock-protected prime block. The payload is copied through the same
/// word-sized atomic accesses as a page (PageLoadWord / SeqlockUnchanged;
/// the seq_ check discards torn snapshots),
/// keeping the concurrent read/write well-defined for the C++ memory
/// model and for TSan.
class PrimeBlock {
 public:
  PrimeBlock() : seq_(0) { std::memset(words_, 0, sizeof(words_)); }
  OBTREE_DISALLOW_COPY_AND_ASSIGN(PrimeBlock);

  /// Indivisible read of the prime block (every tree access begins here).
  PrimeBlockData Read() const {
    uint64_t buf[kWords];
    for (;;) {
      const uint64_t s1 = seq_.load(std::memory_order_acquire);
      if (s1 & 1) continue;
      for (size_t i = 0; i < kWords; ++i) buf[i] = PageLoadWord(&words_[i]);
      if (SeqlockUnchanged(seq_, s1)) break;
    }
    PrimeBlockData out;
    std::memcpy(&out, buf, sizeof(out));
    return out;
  }

  /// Rewrite the prime block. Caller must hold the lock on the current
  /// root node (paper invariant), so writers are serialized.
  void Write(const PrimeBlockData& data) {
    uint64_t buf[kWords] = {};
    std::memcpy(buf, &data, sizeof(data));
    seq_.fetch_add(1, std::memory_order_acq_rel);  // odd: write in progress
    for (size_t i = 0; i < kWords; ++i) {
      __atomic_store_n(&words_[i], buf[i], __ATOMIC_RELAXED);
    }
    seq_.fetch_add(1, std::memory_order_release);
  }

 private:
  static constexpr size_t kWords = (sizeof(PrimeBlockData) + 7) / 8;

  std::atomic<uint64_t> seq_;
  uint64_t words_[kWords];
};

}  // namespace obtree

#endif  // OBTREE_STORAGE_PRIME_BLOCK_H_
