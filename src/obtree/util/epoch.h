// Copyright 2026 The obtree Authors.
//
// Timestamp-based deferred reclamation, implementing the node-release rule
// of Section 5.3 of the paper:
//
//   "A node that becomes empty at time t can be released when all active
//    searches, insertions, and deletions have started after time t, and
//    the stacks of the nodes that are either currently being compressed or
//    are on the queue (or queues) have only time stamps that are younger
//    than t."
//
// EpochManager maintains a logical clock that only Retire (stamping a
// deletion) and grace fences advance. Every logical operation pins a start
// time in a slot for its duration (Guard): it publishes a conservative
// value, reads the clock c and stores c + 1, so a pin p means "began after
// every tick < p". Pins need not be unique; several operations may share
// one. Deleted pages are retired with the clock value at deletion time t
// and may be reused only once MinActive() > t: every live pin is then
// younger than the deletion. Compression queues register an external
// min-timestamp provider so their stored stacks also hold back reclamation.
//
// Each thread has a home slot (its ThisThreadIndex() modulo kMaxSlots) on
// its own cache line, so a pin is one CAS on that line plus a load of the
// read-mostly clock, and a release is one store. A nested pin, or a thread
// whose home slot another thread holds, probes the following slots.
// MinActive() scans only the slots below a high-water mark, one past the
// highest slot index any pin ever claimed: as many slots as threads have
// ever pinned here (nested pins add one each), not all kMaxSlots.

#ifndef OBTREE_UTIL_EPOCH_H_
#define OBTREE_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obtree/util/common.h"

namespace obtree {

/// Logical clock + active-operation registry.
class EpochManager {
 public:
  static constexpr int kMaxSlots = 512;

  EpochManager();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(EpochManager);

  /// Current logical time.
  Timestamp Now() const { return clock_.load(std::memory_order_acquire); }

  /// Advance the clock and return the new (unique, increasing) time. Only
  /// deletions (PageManager::Retire) and grace fences
  /// (ShardedMap::PublishTable) tick: a pin reads the clock, it never
  /// writes it. seq_cst: it is the store half of the reclaimer's
  /// store-then-load pair (tick, then MinActive()), matched by the pin's
  /// publish-then-read-clock pair.
  Timestamp Advance() {
    return clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// RAII pin of an operation's start time. While a Guard lives, no page
  /// retired at or after its start time is reclaimed, and a grace fence
  /// ticked at or after it waits for it.
  class Guard {
   public:
    explicit Guard(EpochManager* mgr);
    ~Guard();
    OBTREE_DISALLOW_COPY_AND_ASSIGN(Guard);

    /// The pinned start time p of this operation: the operation began
    /// after every tick < p. Not unique across operations.
    Timestamp start_time() const { return start_; }

    /// Re-pin at the current time. Used when an operation restarts from
    /// scratch and may legally observe a fresher tree.
    void Refresh();

   private:
    EpochManager* mgr_;
    std::atomic<Timestamp>* slot_;  // the claimed slot's start
    Timestamp start_;
  };

  /// Smallest start time among active operations and external providers;
  /// kMaxTimestamp when nothing is active. Pages retired strictly before
  /// this value are safe to reuse: after `t = Advance()`, MinActive() > t
  /// means every operation pinned now began after that tick. Costs one
  /// seq_cst load per slot below the high-water mark (one slot per
  /// thread that ever pinned, up to kMaxSlots), plus the providers.
  Timestamp MinActive() const;

  /// Register a callback that reports the minimum timestamp still live in
  /// an external structure (e.g. a compression queue's stored stacks). The
  /// callback must return kMaxTimestamp when the structure holds nothing.
  void RegisterExternalMinProvider(std::function<Timestamp()> provider);

  /// Number of currently pinned operations (for tests / introspection).
  int ActiveCount() const;

 private:
  friend class Guard;

  struct alignas(64) Slot {
    std::atomic<Timestamp> start{kMaxTimestamp};  // kMaxTimestamp = free
  };

  // Raise slot_mark_ to at least index + 1 (seq_cst); a no-op, one
  // load, once the mark covers the slot.
  void CoverSlot(uint32_t index);

  std::atomic<Timestamp> clock_;
  // High-water mark: one past the highest slot index ever claimed. Only
  // rises; MinActive() and ActiveCount() scan slots [0, mark). A pin
  // covers its slot (CoverSlot: a seq_cst load, and a seq_cst CAS when
  // it must raise the mark) before its slot CAS, so the order on the pin
  // side is cover, slot CAS, clock load; on the reclaimer's it is tick,
  // mark load, slot loads, all seq_cst. Suppose a reclaimer's mark load
  // reads a mark too low to cover a pin's slot, older than the value the
  // pin's cover raised or read. Then that mark load precedes the cover
  // in the single seq_cst order, so the reclaimer's tick precedes the
  // pin's clock load, which therefore reads the tick: the missed pin
  // began after it, and is already younger than anything retired at it.
  // A mark load that does see the cover scans the slot, and the slot
  // argument of Guard applies. With thread churn past kMaxSlots indices
  // the mark saturates at kMaxSlots: the full scan.
  std::atomic<uint32_t> slot_mark_;
  std::vector<Slot> slots_;

  mutable std::mutex providers_mu_;
  std::vector<std::function<Timestamp()>> providers_;
};

}  // namespace obtree

#endif  // OBTREE_UTIL_EPOCH_H_
