// Copyright 2026 The obtree Authors.
//
// Tests of the §5.3 reclamation rule: pages retired at time t are released
// only when every active operation started after t and every registered
// external structure (compression queues) holds only younger stamps.

#include "obtree/util/epoch.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/util/thread_index.h"

namespace obtree {
namespace {

TEST(EpochTest, ClockAdvances) {
  EpochManager mgr;
  const Timestamp a = mgr.Now();
  const Timestamp b = mgr.Advance();
  EXPECT_GT(b, a);
  EXPECT_GE(mgr.Now(), b);
}

TEST(EpochTest, NoActiveMeansMaxTimestamp) {
  EpochManager mgr;
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

TEST(EpochTest, GuardPinsStartTime) {
  EpochManager mgr;
  {
    EpochManager::Guard g(&mgr);
    EXPECT_EQ(mgr.ActiveCount(), 1);
    EXPECT_LE(mgr.MinActive(), g.start_time());
    mgr.Advance();
    mgr.Advance();
    // The pin does not move forward with the clock.
    EXPECT_LE(mgr.MinActive(), g.start_time());
  }
  EXPECT_EQ(mgr.ActiveCount(), 0);
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
}

TEST(EpochTest, RefreshMovesPinForward) {
  EpochManager mgr;
  EpochManager::Guard g(&mgr);
  const Timestamp before = g.start_time();
  mgr.Advance();
  mgr.Advance();
  g.Refresh();
  EXPECT_GT(g.start_time(), before);
  EXPECT_GE(mgr.MinActive(), before);
}

TEST(EpochTest, MinOfSeveralGuards) {
  EpochManager mgr;
  // Pins are not unique: tick between them so each starts later.
  auto g1 = std::make_unique<EpochManager::Guard>(&mgr);
  mgr.Advance();
  auto g2 = std::make_unique<EpochManager::Guard>(&mgr);
  mgr.Advance();
  auto g3 = std::make_unique<EpochManager::Guard>(&mgr);
  EXPECT_EQ(mgr.ActiveCount(), 3);
  const Timestamp oldest = g1->start_time();
  EXPECT_LE(mgr.MinActive(), oldest);
  g1.reset();
  EXPECT_GT(mgr.MinActive(), oldest);  // the floor advanced
  g2.reset();
  g3.reset();
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
}

TEST(EpochTest, NestedPinsTakeDistinctSlots) {
  EpochManager mgr;
  EpochManager::Guard outer(&mgr);
  {
    EpochManager::Guard inner(&mgr);
    EXPECT_EQ(mgr.ActiveCount(), 2);
  }
  EXPECT_EQ(mgr.ActiveCount(), 1);  // releasing one pin kept the other
  EXPECT_LE(mgr.MinActive(), outer.start_time());
}

// A pin means "began after every tick < pin", so a tick taken while a
// pin is live is never below the floor: MinActive() <= t. Reclaim's
// `retired < MinActive()` and PublishTable's `MinActive() <= fence` wait
// both rely on it.
TEST(EpochTest, TickDuringPinIsNotBelowFloor) {
  EpochManager mgr;
  EpochManager::Guard g(&mgr);
  const Timestamp t = mgr.Advance();
  EXPECT_LE(mgr.MinActive(), t);
  EXPECT_LE(g.start_time(), t);
}

// Two live threads whose indices wrap onto the same home slot must both
// pin at once: the second probes past the slot the first one holds.
TEST(EpochTest, ThreadsSharingAHomeSlotBothPin) {
  constexpr uint32_t kSlots = EpochManager::kMaxSlots;
  EpochManager mgr;
  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  auto pin_and_hold = [&](uint32_t* index) {
    *index = ThisThreadIndex();
    EpochManager::Guard g(&mgr);
    pinned.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  };
  uint32_t a = 0;
  std::thread first(pin_and_hold, &a);
  while (pinned.load() < 1) std::this_thread::yield();
  // Indices are never reused: burn short-lived threads (up to kSlots of
  // them) until the next index wraps onto the first thread's home slot.
  for (;;) {
    uint32_t index = 0;
    std::thread([&index] { index = ThisThreadIndex(); }).join();
    if ((index + 1) % kSlots == a % kSlots) break;
  }
  uint32_t b = 0;
  std::thread second(pin_and_hold, &b);
  while (pinned.load() < 2) std::this_thread::yield();
  EXPECT_EQ(mgr.ActiveCount(), 2);
  release.store(true);
  first.join();
  second.join();
  EXPECT_NE(a, b);
  EXPECT_EQ(a % kSlots, b % kSlots);
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

// MinActive() scans only the slots below the high-water mark, so a pin
// that claims a slot above it must raise the mark first. A fresh manager's
// mark is 0: the outer pin covers this thread's home slot, the nested pin
// probes past it to the next slot, and a new thread's pin lands on its own
// home slot. Each must hold the floor alone, once the others are gone.
TEST(EpochTest, PinsAboveTheHighWaterMarkHoldTheFloor) {
  EpochManager mgr;
  auto outer = std::make_unique<EpochManager::Guard>(&mgr);
  mgr.Advance();
  auto nested = std::make_unique<EpochManager::Guard>(&mgr);
  outer.reset();
  EXPECT_EQ(mgr.ActiveCount(), 1);
  EXPECT_LE(mgr.MinActive(), nested->start_time());
  const Timestamp ticked = mgr.Advance();
  EXPECT_LE(mgr.MinActive(), ticked);  // the floor stays at the nested pin

  std::atomic<Timestamp> pinned{0};
  std::atomic<bool> release{false};
  std::thread other([&] {
    EpochManager::Guard g(&mgr);
    pinned.store(g.start_time());
    while (!release.load()) std::this_thread::yield();
  });
  while (pinned.load() == 0) std::this_thread::yield();
  nested.reset();
  EXPECT_EQ(mgr.ActiveCount(), 1);
  EXPECT_EQ(mgr.MinActive(), pinned.load());
  release.store(true);
  other.join();
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

TEST(EpochTest, ExternalProviderHoldsFloor) {
  EpochManager mgr;
  std::atomic<Timestamp> queue_min{kMaxTimestamp};
  mgr.RegisterExternalMinProvider([&]() { return queue_min.load(); });
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
  queue_min.store(5);
  EXPECT_EQ(mgr.MinActive(), 5u);
  queue_min.store(kMaxTimestamp);
  EXPECT_EQ(mgr.MinActive(), kMaxTimestamp);
}

TEST(EpochTest, ManyConcurrentGuards) {
  EpochManager mgr;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kIters; ++i) {
        EpochManager::Guard g(&mgr);
        // While we are pinned, the floor can never exceed our start time.
        if (mgr.MinActive() > g.start_time()) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

TEST(EpochTest, SlotReuseAcrossManyGuards) {
  EpochManager mgr;
  // Sequentially create far more guards than slots: slots must recycle.
  for (int i = 0; i < EpochManager::kMaxSlots * 3; ++i) {
    EpochManager::Guard g(&mgr);
    EXPECT_EQ(mgr.ActiveCount(), 1);
  }
  EXPECT_EQ(mgr.ActiveCount(), 0);
}

}  // namespace
}  // namespace obtree
