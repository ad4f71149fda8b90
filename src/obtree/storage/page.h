// Copyright 2026 The obtree Authors.
//
// A Page models one block of "secondary storage" (Section 2.2 of the
// paper). Every tree node occupies exactly one page; get/put of a page is
// indivisible (enforced by PageManager's per-page seqlock).

#ifndef OBTREE_STORAGE_PAGE_H_
#define OBTREE_STORAGE_PAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "obtree/util/common.h"

namespace obtree {

/// Size in bytes of one page / node.
inline constexpr size_t kPageSize = 4096;

#if defined(__SANITIZE_THREAD__)
#define OBTREE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OBTREE_TSAN 1
#endif
#endif

/// Memory order of a seqlock reader's data loads (PageLoadWord, NodeView,
/// the prime block): relaxed, with SeqlockUnchanged's acquire fence
/// ordering them before the closing version check. ThreadSanitizer does
/// not model standalone fences, so a TSan build makes every data load
/// acquire instead; that orders each before the check just as well, and
/// TSan sees the ordering it checks against.
#ifdef OBTREE_TSAN
inline constexpr int kSeqReadOrder = __ATOMIC_ACQUIRE;
#else
inline constexpr int kSeqReadOrder = __ATOMIC_RELAXED;
#endif

/// The closing check of a seqlock read: true iff `seq` still holds the
/// even `version` the reader loaded (acquire) before its data loads. The
/// data loads must not move past this load of `seq`, or a read that
/// overlapped a writer could pass the check with torn data. An acquire
/// load orders what follows it, not what precedes it, so making the
/// check acquire would not do; an acquire fence between the data loads
/// and a relaxed check does. A writer takes the version odd before its
/// first data store, so a reader whose data loads saw any of those
/// stores then reads an odd or later version here and retries (Boehm,
/// "Can seqlocks get along with programming language memory models?",
/// MSPC 2012). Under TSan the data loads are acquire themselves
/// (kSeqReadOrder), which keeps them before the check the same way.
inline bool SeqlockUnchanged(const std::atomic<uint64_t>& seq,
                             uint64_t version) {
#ifndef OBTREE_TSAN
  std::atomic_thread_fence(std::memory_order_acquire);
#endif
  return seq.load(std::memory_order_relaxed) == version;
}

/// Relaxed word-granular atomic accessors for bytes of a live page that
/// may be probed by optimistic readers while a seqlock writer rewrites
/// it. C++17 has no std::atomic_ref, so these wrap the __atomic builtins
/// both supported compilers (GCC, Clang) provide. Used by PageManager's
/// copy loops and by Node's in-place mutation primitives; the seqlock
/// version protocol is what makes the relaxed ordering sufficient
/// (readers discard anything read under a moved version, see
/// SeqlockUnchanged).
inline uint64_t PageLoadWord(const uint64_t* p) {
  return __atomic_load_n(p, kSeqReadOrder);
}
inline void PageStoreWord(uint64_t* p, uint64_t v) {
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}
inline void PageStoreWord32(uint32_t* p, uint32_t v) {
  __atomic_store_n(p, v, __ATOMIC_RELAXED);
}

/// Raw page buffer. Alignment of 8 allows word-granular atomic copies.
struct alignas(8) Page {
  uint8_t bytes[kPageSize];

  /// Reinterpret the page contents as a POD type T (e.g. Node).
  template <typename T>
  T* As() {
    static_assert(sizeof(T) <= kPageSize);
    return reinterpret_cast<T*>(bytes);
  }
  template <typename T>
  const T* As() const {
    static_assert(sizeof(T) <= kPageSize);
    return reinterpret_cast<const T*>(bytes);
  }

  void Clear() { std::memset(bytes, 0, kPageSize); }
};

static_assert(sizeof(Page) == kPageSize);

}  // namespace obtree

#endif  // OBTREE_STORAGE_PAGE_H_
