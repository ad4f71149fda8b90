// Copyright 2026 The obtree Authors.
//
// Helpers shared across test suites (included by relative path; this
// header is test-only and must not leak into src/).

#ifndef OBTREE_TESTS_TEST_UTIL_H_
#define OBTREE_TESTS_TEST_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace obtree {
namespace testutil {

/// Polls `read` (a callable returning uint64_t) once per millisecond
/// until two consecutive reads agree and `settled` (a callable returning
/// bool) holds, or ~2 s elapse. Used to quiesce background-pool counters
/// (in-flight tasks finish in bounded time once queues are empty) before
/// strict equality assertions.
template <typename Read, typename Settled>
inline void WaitForStableCounter(Read read, Settled settled) {
  uint64_t prev = read();
  for (int i = 0; i < 2000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const uint64_t cur = read();
    if (cur == prev && settled()) return;
    prev = cur;
  }
}

/// OS threads of this process (-1 where /proc is unavailable). Used to
/// assert that thread counts return to baseline after pools/maps die —
/// a leaked or unjoined background worker fails the comparison.
inline int LiveThreadCount() {
#ifdef __linux__
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
#endif
  return -1;
}

/// The lowest LiveThreadCount() reading over ~10 ms of polling. Tests
/// take their baseline through this, so a thread an earlier test joined
/// but the kernel still counts cannot inflate it.
inline int SettledThreadCount() {
  int low = LiveThreadCount();
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int live = LiveThreadCount();
    if (live < low) low = live;
  }
  return low;
}

/// Polls LiveThreadCount() once per millisecond until it equals
/// `expected`, for at most ~1 s, and returns the last reading. The kernel
/// can still count a thread for a moment after pthread_join has returned,
/// so "back to baseline" checks read through this; a leaked thread stays
/// counted and still fails the comparison.
inline int WaitForThreadCount(int expected) {
  int live = LiveThreadCount();
  for (int i = 0; i < 1000 && live != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    live = LiveThreadCount();
  }
  return live;
}

}  // namespace testutil
}  // namespace obtree

#endif  // OBTREE_TESTS_TEST_UTIL_H_
