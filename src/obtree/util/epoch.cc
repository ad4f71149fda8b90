// Copyright 2026 The obtree Authors.

#include "obtree/util/epoch.h"

#include <thread>

#include "obtree/util/thread_index.h"

namespace obtree {

EpochManager::EpochManager() : clock_(1), slot_mark_(0), slots_(kMaxSlots) {}

EpochManager::Guard::Guard(EpochManager* mgr) : mgr_(mgr) {
  // Claim the first free slot from this thread's home slot on, publishing
  // a conservative start (the clock as seen before the claim, plus one)
  // in the same CAS. The CAS is the store half of the pin's
  // store-then-load pair; the seq_cst clock load below is the load half.
  // A reclaimer or grace fence that ticks the clock after our load sees
  // our slot, and one whose tick our load observed happened before us.
  // Before its CAS, a slot is covered by the high-water mark (CoverSlot)
  // so that MinActive() scans it; see slot_mark_ for why that is enough.
  const uint32_t home = ThisThreadIndex();
  const Timestamp before = mgr_->clock_.load(std::memory_order_relaxed);
  for (uint32_t i = 0;; ++i) {
    const uint32_t index = (home + i) % kMaxSlots;
    std::atomic<Timestamp>& s = mgr_->slots_[index].start;
    Timestamp expected = kMaxTimestamp;
    if (s.load(std::memory_order_relaxed) == kMaxTimestamp) {
      mgr_->CoverSlot(index);
      if (s.compare_exchange_strong(expected, before + 1,
                                    std::memory_order_seq_cst)) {
        slot_ = &s;
        break;
      }
    }
    // Every slot busy (kMaxSlots concurrent operations): yield and retry
    // rather than abort.
    if ((i + 1) % kMaxSlots == 0) std::this_thread::yield();
  }
  start_ = mgr_->clock_.load(std::memory_order_seq_cst) + 1;
  // The slot only moves forward (before <= the clock we just read), so
  // refining it needs no ordering beyond the release of the final store.
  if (start_ != before + 1) slot_->store(start_, std::memory_order_release);
}

EpochManager::Guard::~Guard() {
  slot_->store(kMaxTimestamp, std::memory_order_release);
}

void EpochManager::Guard::Refresh() {
  // The old pin stays published until the new one replaces it, and the
  // new one is no older, so the slot is conservative throughout.
  start_ = mgr_->clock_.load(std::memory_order_seq_cst) + 1;
  slot_->store(start_, std::memory_order_release);
}

void EpochManager::CoverSlot(uint32_t index) {
  uint32_t mark = slot_mark_.load(std::memory_order_seq_cst);
  while (mark <= index &&
         !slot_mark_.compare_exchange_weak(mark, index + 1,
                                           std::memory_order_seq_cst)) {
  }
}

Timestamp EpochManager::MinActive() const {
  Timestamp min = kMaxTimestamp;
  const uint32_t mark = slot_mark_.load(std::memory_order_seq_cst);
  for (uint32_t i = 0; i < mark; ++i) {
    // seq_cst: the load half of the reclaimer's tick-then-scan pair.
    Timestamp t = slots_[i].start.load(std::memory_order_seq_cst);
    if (t < min) min = t;
  }
  std::lock_guard<std::mutex> l(providers_mu_);
  for (const auto& p : providers_) {
    Timestamp t = p();
    if (t < min) min = t;
  }
  return min;
}

void EpochManager::RegisterExternalMinProvider(
    std::function<Timestamp()> provider) {
  std::lock_guard<std::mutex> l(providers_mu_);
  providers_.push_back(std::move(provider));
}

int EpochManager::ActiveCount() const {
  int n = 0;
  const uint32_t mark = slot_mark_.load(std::memory_order_seq_cst);
  for (uint32_t i = 0; i < mark; ++i) {
    if (slots_[i].start.load(std::memory_order_acquire) != kMaxTimestamp) ++n;
  }
  return n;
}

}  // namespace obtree
