// Copyright 2026 The obtree Authors.
//
// Unit tests for the deterministic failpoint registry. Every test arms
// sites and MUST disarm them (DisarmAll) before returning — the injector
// is process-global and gtest runs tests in one process.

#include "obtree/util/fault_injector.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace obtree {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }
};

TEST_F(FaultInjectorTest, UnarmedGateIsCold) {
  EXPECT_FALSE(FaultInjector::TrapsArmed());
  const FaultOutcome out = FaultInjector::Instance().Evaluate("get");
  EXPECT_FALSE(out.inject_error);
  EXPECT_EQ(out.stall_us, 0u);
}

TEST_F(FaultInjectorTest, ArmDisarmTogglesTheGate) {
  FaultSpec spec;
  spec.action = FaultAction::kError;
  FaultInjector::Instance().Arm("get", spec);
  EXPECT_TRUE(FaultInjector::TrapsArmed());
  EXPECT_TRUE(FaultInjector::Instance().Evaluate("get").inject_error);
  // Only the armed site fires; other sites stay inert.
  EXPECT_FALSE(FaultInjector::Instance().Evaluate("put").inject_error);
  FaultInjector::Instance().Disarm("get");
  EXPECT_FALSE(FaultInjector::TrapsArmed());
  EXPECT_FALSE(FaultInjector::Instance().Evaluate("get").inject_error);
}

TEST_F(FaultInjectorTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    FaultSpec spec;
    spec.action = FaultAction::kError;
    spec.probability = 0.5;
    spec.seed = seed;
    FaultInjector::Instance().Arm("get", spec);
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(FaultInjector::Instance().Evaluate("get").inject_error);
    }
    FaultInjector::Instance().DisarmAll();
    return fires;
  };
  const std::vector<bool> a = run(1234);
  const std::vector<bool> b = run(1234);
  const std::vector<bool> c = run(99);
  EXPECT_EQ(a, b);  // same seed => same schedule
  EXPECT_NE(a, c);  // different seed => (overwhelmingly) different schedule
  // Rough sanity on the rate: ~32 of 64 at p=0.5.
  int count = 0;
  for (const bool f : a) count += f ? 1 : 0;
  EXPECT_GT(count, 8);
  EXPECT_LT(count, 56);
}

TEST_F(FaultInjectorTest, EveryNthFiresOnSchedule) {
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.every_nth = 3;
  FaultInjector::Instance().Arm("get", spec);
  std::vector<bool> fires;
  for (int i = 0; i < 9; ++i) {
    fires.push_back(FaultInjector::Instance().Evaluate("get").inject_error);
  }
  const std::vector<bool> expect = {true, false, false, true, false,
                                    false, true, false, false};
  EXPECT_EQ(fires, expect);
}

TEST_F(FaultInjectorTest, MaxFiresExhaustsTheSite) {
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.max_fires = 2;
  FaultInjector::Instance().Arm("get", spec);
  EXPECT_TRUE(FaultInjector::Instance().Evaluate("get").inject_error);
  EXPECT_TRUE(FaultInjector::Instance().Evaluate("get").inject_error);
  // Exhausted: the site no longer fires AND the hot-path gate goes cold
  // (the one-shot released its trap reference).
  EXPECT_FALSE(FaultInjector::Instance().Evaluate("get").inject_error);
  EXPECT_FALSE(FaultInjector::TrapsArmed());
}

TEST_F(FaultInjectorTest, ErrorIneligibleHitsDoNotConsumeTriggers) {
  // A locked page fetch may not fail; such hits must not advance the
  // one-shot/every-Nth schedule, or schedules would silently skew.
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.max_fires = 1;
  FaultInjector::Instance().Arm("get", spec);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(FaultInjector::Instance()
                     .Evaluate("get", /*error_eligible=*/false)
                     .inject_error);
  }
  // The single shot is still loaded.
  EXPECT_TRUE(FaultInjector::Instance().Evaluate("get").inject_error);
}

TEST_F(FaultInjectorTest, ScopedExemptionSuppressesEvaluation) {
  FaultSpec spec;
  spec.action = FaultAction::kError;
  FaultInjector::Instance().Arm("get", spec);
  {
    FaultInjector::ScopedExemption exempt;
    EXPECT_TRUE(FaultInjector::ThreadExempt());
    EXPECT_FALSE(FaultInjector::Instance().Evaluate("get").inject_error);
    {
      FaultInjector::ScopedExemption nested;  // depth counts, not a flag
      EXPECT_FALSE(FaultInjector::Instance().Evaluate("get").inject_error);
    }
    EXPECT_TRUE(FaultInjector::ThreadExempt());
  }
  EXPECT_FALSE(FaultInjector::ThreadExempt());
  EXPECT_TRUE(FaultInjector::Instance().Evaluate("get").inject_error);
}

TEST_F(FaultInjectorTest, ExemptionIsPerThread) {
  FaultSpec spec;
  spec.action = FaultAction::kError;
  FaultInjector::Instance().Arm("get", spec);
  FaultInjector::ScopedExemption exempt;  // exempts THIS thread only
  bool other_thread_fired = false;
  std::thread t([&]() {
    other_thread_fired =
        FaultInjector::Instance().Evaluate("get").inject_error;
  });
  t.join();
  EXPECT_TRUE(other_thread_fired);
  EXPECT_FALSE(FaultInjector::Instance().Evaluate("get").inject_error);
}

TEST_F(FaultInjectorTest, CallingThreadOnlyFilters) {
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.calling_thread_only = true;
  FaultInjector::Instance().Arm("get", spec);
  EXPECT_TRUE(FaultInjector::Instance().Evaluate("get").inject_error);
  bool other_thread_fired = false;
  std::thread t([&]() {
    other_thread_fired =
        FaultInjector::Instance().Evaluate("get").inject_error;
  });
  t.join();
  EXPECT_FALSE(other_thread_fired);
}

TEST_F(FaultInjectorTest, StallReportsDuration) {
  FaultSpec spec;
  spec.action = FaultAction::kStall;
  spec.stall_us = 50;
  FaultInjector::Instance().Arm("lock", spec);
  const FaultOutcome out = FaultInjector::Instance().Evaluate("lock");
  EXPECT_FALSE(out.inject_error);
  EXPECT_EQ(out.stall_us, 50u);
}

TEST_F(FaultInjectorTest, SiteStatsCountHitsAndFires) {
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.every_nth = 2;
  FaultInjector::Instance().Arm("get", spec);
  for (int i = 0; i < 6; ++i) FaultInjector::Instance().Evaluate("get");
  const FaultSiteStats stats = FaultInjector::Instance().SiteStats("get");
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.fires, 3u);
  const auto sites = FaultInjector::Instance().ArmedSites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0], "get");
}

TEST_F(FaultInjectorTest, DisarmAllClearsEverything) {
  FaultSpec spec;
  spec.action = FaultAction::kError;
  FaultInjector::Instance().Arm("get", spec);
  FaultInjector::Instance().Arm("put", spec);
  FaultInjector::Instance().Arm("alloc", spec);
  EXPECT_TRUE(FaultInjector::TrapsArmed());
  FaultInjector::Instance().DisarmAll();
  EXPECT_FALSE(FaultInjector::TrapsArmed());
  EXPECT_TRUE(FaultInjector::Instance().ArmedSites().empty());
}

}  // namespace
}  // namespace obtree
