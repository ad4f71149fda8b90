// Copyright 2026 The obtree Authors.
//
// A small sequential index per thread, taken once from a process-wide
// counter on the thread's first call. Per-thread slot arrays (epoch pins,
// checkpoint-gate slots, stats shards) use it as the thread's home slot,
// so the first N threads to ask land on N distinct slots of an N-slot
// array and entering or leaving an operation writes only the calling
// thread's own cache line. Indices are never reused: a process that keeps
// spawning threads wraps around the arrays, which callers handle (a slot
// may be shared, never assumed exclusive).

#ifndef OBTREE_UTIL_THREAD_INDEX_H_
#define OBTREE_UTIL_THREAD_INDEX_H_

#include <atomic>
#include <cstdint>

namespace obtree {

/// This thread's index: 0 for the first thread that asks, 1 for the next.
inline uint32_t ThisThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace obtree

#endif  // OBTREE_UTIL_THREAD_INDEX_H_
