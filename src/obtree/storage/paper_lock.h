// Copyright 2026 The obtree Authors.
//
// PaperLock: the compact lock behind the paper's lock(x)/unlock(x).
//
// The first four PRs removed the copy traffic from both hot paths; what
// was left of the single-tree scaling deficit was the lock itself. A
// std::mutex parks a contended thread in the kernel immediately, so a
// writer convoy on a hot leaf turns a ~100 ns in-place mutation into a
// train of futex sleeps and wakeups. Following the B-link line of work
// (and Blink-hash's contention-adaptive latching), the lock — not just
// its scope — is treated as a first-class performance object:
//
//   * 4 bytes of state (vs 40 for std::mutex), so a page Slot stays
//     compact and the lock word shares no cache line with another lock;
//   * test-and-test-and-set acquisition: contended waiters spin on a
//     plain load (shared cache state) and only attempt the CAS when the
//     lock looks free, so they do not ping-pong the line;
//   * exponential backoff between probes, capped, degrading to
//     sched_yield at the cap — on few-core hosts the holder must be
//     scheduled for anyone to make progress;
//   * parking only after a bounded spin: a waiter that exhausts its spin
//     budget sleeps on a futex (Linux) or a yield loop (elsewhere) and
//     is woken by the releasing thread.
//
// Semantics are exactly those of the mutex it replaces: mutual exclusion
// between lockers, no effect on readers, no recursion, no fairness
// guarantee (the futex queue is approximately FIFO among parked waiters;
// spinners may overtake them). The paper's proof obligations only need
// mutual exclusion and eventual acquisition, both of which hold.
//
// The spin budget and backoff cap are constants of the lock, not
// options: critical sections here are a few hundred ns (an in-place
// mutation between seqlock bumps), so a short spin almost always wins
// over a park/unpark cycle of microseconds. The 4-byte state is the
// lock's entire footprint.

#ifndef OBTREE_STORAGE_PAPER_LOCK_H_
#define OBTREE_STORAGE_PAPER_LOCK_H_

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace obtree {

/// Compact spin-then-park mutual-exclusion lock (see file comment).
class PaperLock {
 public:
  /// Probe rounds a contended acquisition performs before it parks (Lock)
  /// or gives the target back to the caller (SpinAcquire).
  static constexpr uint32_t kSpinBudget = 64;

  /// Cap on the exponential backoff between probes, in pause iterations
  /// (1, 2, 4, ... up to the cap; once capped, each further round also
  /// yields so a preempted holder can run on few-core hosts).
  static constexpr uint32_t kBackoffMax = 256;

  PaperLock() = default;
  PaperLock(const PaperLock&) = delete;
  PaperLock& operator=(const PaperLock&) = delete;

  /// One attempt to acquire; never blocks, never spins.
  bool TryLock() {
    uint32_t expected = kFree;
    return state_.compare_exchange_strong(expected, kHeld,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  /// Bounded acquisition attempt: up to kSpinBudget test-and-test-and-set
  /// probe rounds with exponential backoff capped at kBackoffMax. Returns
  /// true with the lock held, false once the budget is exhausted — never
  /// parks.
  bool SpinAcquire() {
    uint32_t delay = 1;
    for (uint32_t round = 0; round < kSpinBudget; ++round) {
      if (state_.load(std::memory_order_relaxed) == kFree && TryLock()) {
        return true;
      }
      for (uint32_t p = 0; p < delay; ++p) CpuRelax();
      if (delay < kBackoffMax / 2) {
        delay <<= 1;
      } else if (delay < kBackoffMax) {
        delay = kBackoffMax;
      } else {
        std::this_thread::yield();
      }
    }
    return false;
  }

  /// Unbounded acquisition: spin per SpinAcquire, then park until the
  /// holder releases. Returns true iff the thread parked (slept) at least
  /// once — the caller's "this acquisition hit the slow path" signal.
  bool Lock() {
    if (SpinAcquire()) return false;
    // Drepper-style parking: announce a waiter by exchanging the state to
    // kHeldWaiters. Seeing kFree back means we acquired (conservatively
    // keeping the waiters flag: Unlock then issues at most one spurious
    // wake); anything else means the lock is held and we sleep until the
    // releasing thread wakes us.
    bool parked = false;
    while (state_.exchange(kHeldWaiters, std::memory_order_acquire) !=
           kFree) {
      parked = true;
      FutexWait(kHeldWaiters);
    }
    return parked;
  }

  /// Release. Wakes one parked waiter if any thread announced itself.
  void Unlock() {
    if (state_.exchange(kFree, std::memory_order_release) == kHeldWaiters) {
      FutexWakeOne();
    }
  }

  /// True while any thread holds the lock (test/diagnostic use only —
  /// the answer is stale the instant it is produced).
  bool IsLockedForTest() const {
    return state_.load(std::memory_order_relaxed) != kFree;
  }

  /// True when a waiter has announced that it parks (test use only). A
  /// waiter sets this state right before it sleeps, so while the caller
  /// itself holds the lock, seeing it means another thread's Lock call
  /// has left its spin phase and will report that it parked.
  bool HasParkedWaiterForTest() const {
    return state_.load(std::memory_order_relaxed) == kHeldWaiters;
  }

 private:
  // kFree -> kHeld on an uncontended acquire; any parked waiter promotes
  // the held state to kHeldWaiters so Unlock knows a wake is needed.
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kHeld = 1;
  static constexpr uint32_t kHeldWaiters = 2;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

  // Sleep while the state word equals `expected`. The kernel re-checks
  // the word under its internal lock, so a racing Unlock cannot lose the
  // wakeup. All happens-before edges come from the state_ atomics; the
  // futex is purely a sleeping primitive.
  void FutexWait(uint32_t expected) {
#if defined(__linux__)
    static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
                  "futex word must be the atomic's storage");
    syscall(SYS_futex, reinterpret_cast<uint32_t*>(&state_),
            FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
#else
    if (state_.load(std::memory_order_relaxed) == expected) {
      std::this_thread::yield();
    }
#endif
  }

  void FutexWakeOne() {
#if defined(__linux__)
    syscall(SYS_futex, reinterpret_cast<uint32_t*>(&state_),
            FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
#endif
  }

  std::atomic<uint32_t> state_{kFree};
};

}  // namespace obtree

#endif  // OBTREE_STORAGE_PAPER_LOCK_H_
