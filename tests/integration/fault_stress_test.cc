// Copyright 2026 The obtree Authors.
//
// Fault-injection stress harness: mixed traffic on a sharded map while
// the FaultInjector fires page-fetch errors. The schedule is fully
// determined by one seed (override with OBTREE_FAULT_SEED=<n>); the seed
// is printed so a failing run can be replayed exactly.
//
// Each worker thread owns the keys congruent to its index mod kThreads,
// so it can keep an exact model of its slice. The only concession to
// injected faults: an Insert/Erase that returns Unavailable may or may
// not have taken effect (the fault can land after the leaf mutation, on
// the ascent), so such keys are marked "uncertain" and the audit accepts
// either presence — but never a wrong value, a ghost key some thread
// believes absent, or a lost key some thread believes present.

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/sharded_map.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

uint64_t SeedFromEnv() {
  const char* env = std::getenv("OBTREE_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x0b7ee2026u;  // fixed default: CI runs are reproducible
}

class FaultStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = SeedFromEnv();
    // Printed unconditionally: on failure this line IS the repro recipe.
    std::cout << "[fault-stress] OBTREE_FAULT_SEED=" << seed_ << std::endl;
    RecordProperty("fault_seed", static_cast<int>(seed_ & 0x7fffffff));
  }
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  uint64_t seed_ = 0;
};

// The headline scenario: 8-thread churn on a 2-shard map with >=1%
// page-fetch errors — must end with clean structure, no lost or
// duplicated keys, and the degradation counters visible in Stats().
TEST_F(FaultStressTest, MixedTrafficSurvivesInjectedFaults) {
  constexpr int kThreads = 8;
  constexpr Key kKeySpace = 16'384;
  constexpr int kOpsPerThread = 30'000;

  ShardOptions opt;
  opt.num_shards = 2;
  opt.key_space_hint = kKeySpace;
  opt.compression = CompressionMode::kQueueWorkers;
  opt.pool_threads = 3;
  opt.tree.min_entries = 3;
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());

  // Per-key model, written only by the key's owning thread (key mod
  // kThreads), read only after the join below.
  enum : uint8_t { kAbsent = 0, kPresent = 1, kUncertain = 2 };
  std::vector<uint8_t> model(kKeySpace + 1, kAbsent);
  const auto value_of = [](Key k) { return static_cast<Value>(k + 7); };

  // Arm the storm: "get" fires on ~1% of page fetches (the fetch layer
  // retries, so almost all of these heal transparently).
  FaultSpec get_err;
  get_err.action = FaultAction::kError;
  get_err.probability = 0.01;
  get_err.seed = seed_;
  FaultInjector::Instance().Arm("get", get_err);

  std::atomic<uint64_t> wrong_values{0};
  std::atomic<uint64_t> model_violations{0};
  std::atomic<uint64_t> unexpected_errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(seed_ * 31 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        // 90% of traffic on the first eighth of the key space, so one
        // shard's hot leaves see most of the contention; keys stay in this
        // thread's residue class so the model stays exact.
        const Key span = rng.Uniform(10) < 9 ? 2'048 : kKeySpace;
        const Key k = static_cast<Key>(t) + 1 +
                      kThreads * rng.Uniform(span / kThreads);
        uint8_t& st = model[k];
        const uint32_t dice = rng.Uniform(100);
        if (dice < 40) {
          Result<Value> r = map.Get(k);
          if (r.ok()) {
            if (*r != value_of(k)) wrong_values.fetch_add(1);
            if (st == kAbsent) model_violations.fetch_add(1);
          } else if (r.status().IsNotFound()) {
            if (st == kPresent) model_violations.fetch_add(1);
          } else if (!r.status().IsUnavailable()) {
            unexpected_errors.fetch_add(1);
          }
        } else if (dice < 75) {
          const Status s = map.Insert(k, value_of(k));
          if (s.ok()) {
            if (st == kPresent) model_violations.fetch_add(1);
            st = kPresent;
          } else if (s.IsAlreadyExists()) {
            if (st == kAbsent) model_violations.fetch_add(1);
            st = kPresent;
          } else if (s.IsUnavailable()) {
            st = kUncertain;  // may have landed before the fault fired
          } else {
            unexpected_errors.fetch_add(1);
          }
        } else {
          const Status s = map.Erase(k);
          if (s.ok()) {
            if (st == kAbsent) model_violations.fetch_add(1);
            st = kAbsent;
          } else if (s.IsNotFound()) {
            if (st == kPresent) model_violations.fetch_add(1);
            st = kAbsent;
          } else if (s.IsUnavailable()) {
            st = kUncertain;  // may have been removed before the fault
          } else {
            unexpected_errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // End of the storm.
  FaultInjector::Instance().DisarmAll();

  EXPECT_EQ(wrong_values.load(), 0u);
  EXPECT_EQ(model_violations.load(), 0u);
  EXPECT_EQ(unexpected_errors.load(), 0u);

  // TreeChecker demands quiescence, and the pool may still have
  // compression backlog: detach every shard from the pool (blocks until no
  // worker touches it), then compress to a fixpoint single-threadedly so
  // no deleted-but-not-yet-unlinked node is left for the checker to flag.
  for (uint32_t i = 0; i < map.num_shards(); ++i) map.shard(i)->Quiesce();
  map.CompressNow();

  // Full-scan audit against the model: strictly ascending keys, correct
  // values, no ghost keys (model says absent), no lost keys (model says
  // present but the scan never saw them).
  std::vector<uint8_t> seen(kKeySpace + 1, 0);
  Key prev = 0;
  uint64_t scanned = 0;
  map.Scan(1, kMaxUserKey, [&](Key k, Value v) {
    EXPECT_GT(k, prev);
    EXPECT_EQ(v, value_of(k));
    EXPECT_LE(k, kKeySpace);
    if (k <= kKeySpace) {
      EXPECT_NE(model[k], kAbsent) << "ghost key " << k;
      seen[k] = 1;
    }
    prev = k;
    ++scanned;
    return true;
  });
  EXPECT_EQ(scanned, map.Size());
  for (Key k = 1; k <= kKeySpace; ++k) {
    if (model[k] == kPresent) {
      EXPECT_TRUE(seen[k]) << "lost key " << k;
    }
  }

  const Status check = map.ValidateStructure();
  EXPECT_TRUE(check.ok()) << check.ToString();

  // The storm actually happened, and the self-healing layer answered:
  // faults fired and fetch retries healed reads.
  const StatsSnapshot stats = map.Stats();
  EXPECT_GT(stats.Get(StatId::kFaultsInjected), 0u);
  // Reads heal through FetchPage's retry-with-backoff; torn reads are
  // re-read.
  EXPECT_GT(stats.Get(StatId::kFetchRetries) +
                stats.Get(StatId::kOptimisticRetries),
            0u);
  // Informational: how rough the run actually was (varies by seed).
  std::cout << "[fault-stress] faults=" << stats.Get(StatId::kFaultsInjected)
            << " fetch_retries=" << stats.Get(StatId::kFetchRetries)
            << " fetch_giveups=" << stats.Get(StatId::kFetchGiveups)
            << std::endl;
}

// Focused read-path scenario: a single tree under heavy injected fetch
// errors. The bounded retry loop must heal essentially all of them — the
// client sees correct values, and the counters prove the faults fired.
TEST_F(FaultStressTest, FetchRetriesHealReadsTransparently) {
  TreeOptions opt;
  opt.min_entries = 4;
  SagivTree tree(opt);
  constexpr Key kN = 20'000;
  for (Key k = 1; k <= kN; ++k) {
    ASSERT_TRUE(tree.Insert(k, k * 3).ok());
  }

  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.probability = 0.05;  // 5% of eligible page fetches fail
  spec.seed = seed_;
  FaultInjector::Instance().Arm("get", spec);

  constexpr int kReaders = 4;
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> unavailable{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      Random rng(seed_ + 100 + static_cast<uint64_t>(t));
      for (int i = 0; i < 20'000; ++i) {
        const Key k = 1 + rng.Uniform(kN);
        Result<Value> r = tree.Search(k);
        if (r.ok()) {
          if (*r != k * 3) wrong.fetch_add(1);
        } else if (r.status().IsUnavailable()) {
          unavailable.fetch_add(1);  // retry budget exhausted: legal, rare
        } else {
          wrong.fetch_add(1);  // any other error is a bug
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  FaultInjector::Instance().DisarmAll();

  EXPECT_EQ(wrong.load(), 0u);
  // At p=0.05 with a retry budget of 4, an op-level failure needs 5
  // consecutive fires (p ~ 3e-7): effectively none in 80k reads.
  EXPECT_LE(unavailable.load(), 2u);
  EXPECT_GT(tree.stats()->Get(StatId::kFaultsInjected), 0u);
  EXPECT_GT(tree.stats()->Get(StatId::kFetchRetries), 0u);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace obtree
