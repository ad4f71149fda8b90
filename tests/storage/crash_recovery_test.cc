// Copyright 2026 The obtree Authors.
//
// Deterministic crash-injection harness for the FileStore checkpoint
// protocol. The shape mirrors tests/integration/fault_stress_test.cc
// (seeded, replayable via OBTREE_FAULT_SEED=<n>, seed printed), but the
// fault is a process death, so every kill point runs in a forked child:
//
//   1. A fault-free COUNT run executes the seeded workload with every
//      crash site armed as a pure hit counter (probability 0), which
//      enumerates how many times each durability boundary is crossed.
//   2. For each site and each (sampled) hit ordinal k, a child process
//      re-runs the identical workload with the site armed to kCrash at
//      exactly the k-th hit (skip_first = k-1, max_fires = 1). The child
//      dies with kCrashExitCode mid-boundary — "store-write" even
//      persists a torn sector first.
//   3. The parent reopens the child's directory, reads the recovered
//      checkpoint epoch e, and requires the survivors to be EXACTLY the
//      committed prefix: the model state after e * kOpsPerCheckpoint
//      operations, bit-for-bit, plus a clean TreeChecker pass.
//
// The workload is single-threaded, so the k-th eligible hit of a site
// lands at the same operation in every run — the count run's ordinals
// and the child's kill points line up by construction.
//
// The harness runs twice: over an unbounded buffer pool, where only
// checkpoints write pages, and over a 64-page pool with 2-entry nodes,
// where eviction stages dirty pages between checkpoints, the next
// checkpoint commits them, and faults read staged slots back — so kill
// points also land mid-eviction.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/util/fault_injector.h"

namespace obtree {
namespace {

// Workload geometry. Three checkpoints so every site has early, middle,
// and final-epoch kill points; a small key space over small nodes grows
// a real multi-level tree quickly.
constexpr size_t kOps = 900;
constexpr size_t kOpsPerCheckpoint = 300;
constexpr uint64_t kTotalEpochs = kOps / kOpsPerCheckpoint;
constexpr Key kKeySpace = 2000;

// Crash sites at the durability boundaries of the checkpoint protocol,
// in the order a checkpoint crosses them (see FileStore::WritePage and
// FileStore::Commit).
const char* const kCrashSites[] = {
    "store-write",        // torn page image in an uncommitted slot
    "store-fsync",        // data file not yet durable
    "manifest-rename",    // tmp manifest durable, commit rename not done
    "checkpoint-commit",  // checkpoint fully durable, death right after
};

// Cap on kill points tested per site (evenly spaced, always including
// the first and last ordinal). "store-write" is hit once per dirty page
// per checkpoint; replaying every ordinal would not test anything new.
constexpr uint64_t kMaxKillPointsPerSite = 12;

uint64_t SeedFromEnv() {
  const char* env = std::getenv("OBTREE_FAULT_SEED");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x0b7ee2026u;  // fixed default: CI runs are reproducible
}

uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545f4914f6cdd1dULL;
}

struct Op {
  bool is_upsert;
  Key key;
  Value value;
};

// The i-th operation of the seeded stream: ~70% upserts, ~30% erases.
// The value encodes the op ordinal so a recovered stale overwrite (the
// pre-checkpoint value of a key upserted again later) cannot pass.
Op OpAt(uint64_t* rng, size_t i) {
  const uint64_t r = NextRand(rng);
  Op op;
  op.key = static_cast<Key>(r % kKeySpace) + 1;
  op.is_upsert = ((r >> 32) % 10) < 7;
  op.value = (op.key << 16) ^ static_cast<Value>(i + 1);
  return op;
}

// The harness's one input besides the seed: how the tree is paged.
struct PoolShape {
  uint32_t buffer_pool_pages;  // 0 = unbounded
  uint32_t min_entries;
};

MapOptions PersistentOptions(const std::string& dir, const PoolShape& pool) {
  MapOptions options;
  options.compression = CompressionMode::kNone;  // keep the child 1-threaded
  options.tree.storage_dir = dir;
  options.tree.min_entries = pool.min_entries;
  options.tree.buffer_pool_pages = pool.buffer_pool_pages;
  return options;
}

// Run the whole seeded workload against `map`, checkpointing every
// kOpsPerCheckpoint ops. Statuses are ignored: under a kCrash arm the
// process dies instead of erroring, and the model replay below is the
// source of truth for what must have survived.
void RunWorkload(ConcurrentMap* map, uint64_t seed) {
  uint64_t rng = seed ? seed : 1;
  for (size_t i = 0; i < kOps; ++i) {
    const Op op = OpAt(&rng, i);
    if (op.is_upsert) {
      (void)map->Upsert(op.key, op.value);
    } else {
      (void)map->Erase(op.key);
    }
    if ((i + 1) % kOpsPerCheckpoint == 0) (void)map->Checkpoint();
  }
}

// The exact committed state after `epoch` checkpoints: the first
// epoch * kOpsPerCheckpoint operations replayed into an ordered map.
std::map<Key, Value> ModelAfter(uint64_t seed, uint64_t epoch) {
  uint64_t rng = seed ? seed : 1;
  std::map<Key, Value> model;
  const size_t ops = static_cast<size_t>(epoch) * kOpsPerCheckpoint;
  for (size_t i = 0; i < ops; ++i) {
    const Op op = OpAt(&rng, i);
    if (op.is_upsert) {
      model[op.key] = op.value;
    } else {
      model.erase(op.key);
    }
  }
  return model;
}

// Child body for one kill point. Never returns into gtest: the armed
// crash _Exit(kCrashExitCode)s mid-workload, or — if the ordinal lies
// beyond the site's last hit — the workload completes and exits 0.
[[noreturn]] void RunCrashChild(const std::string& dir,
                                const PoolShape& pool, uint64_t seed,
                                const char* site, uint64_t ordinal) {
  FaultInjector::Instance().DisarmAll();
  FaultSpec spec;
  spec.action = FaultAction::kCrash;
  spec.probability = 1.0;
  spec.skip_first = ordinal - 1;
  spec.max_fires = 1;
  FaultInjector::Instance().Arm(site, spec);
  {
    ConcurrentMap map(PersistentOptions(dir, pool));
    RunWorkload(&map, seed);
  }
  std::_Exit(0);
}

// Evenly spaced sample of 1..total, at most `cap` ordinals, always
// including the first and last.
std::vector<uint64_t> SampleOrdinals(uint64_t total, uint64_t cap) {
  std::vector<uint64_t> out;
  if (total == 0) return out;
  if (total <= cap) {
    for (uint64_t k = 1; k <= total; ++k) out.push_back(k);
    return out;
  }
  for (uint64_t i = 0; i < cap; ++i) {
    const uint64_t k = 1 + i * (total - 1) / (cap - 1);
    if (out.empty() || out.back() != k) out.push_back(k);
  }
  return out;
}

class CrashRecoveryTest : public ::testing::TestWithParam<PoolShape> {
 protected:
  void SetUp() override {
    FaultInjector::Instance().DisarmAll();
    seed_ = SeedFromEnv();
    std::cout << "[crash-recovery] OBTREE_FAULT_SEED=" << seed_ << std::endl;
    // The parameterized name carries a '/', so take only its last part
    // and add the pool size to keep the directory unique.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string name = info->name();
    base_ = ::testing::TempDir() + "obtree_crash_" +
            name.substr(name.rfind('/') + 1) + "_pool" +
            std::to_string(GetParam().buffer_pool_pages);
    std::filesystem::remove_all(base_);
  }

  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    std::filesystem::remove_all(base_);
  }

  // Reopen a (possibly crashed) store directory and require the exact
  // committed-prefix state. A directory with no MANIFEST means the
  // crash predates the first commit: the durable prefix is empty, and a
  // fresh map over the directory must come up empty (torn uncommitted
  // slots in pages.dat must be invisible).
  void AuditRecovered(const std::string& dir, const std::string& what) {
    if (!std::filesystem::exists(dir + "/MANIFEST")) {
      Result<std::unique_ptr<ConcurrentMap>> r =
          ConcurrentMap::Recover(PersistentOptions(dir, GetParam()));
      EXPECT_FALSE(r.ok()) << what << ": recovered without a manifest";
      ConcurrentMap fresh(PersistentOptions(dir, GetParam()));
      EXPECT_TRUE(fresh.init_status().ok()) << what;
      EXPECT_EQ(fresh.Size(), 0u) << what << ": epoch-0 store not empty";
      return;
    }

    Result<std::unique_ptr<ConcurrentMap>> r =
        ConcurrentMap::Recover(PersistentOptions(dir, GetParam()));
    ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
    ConcurrentMap& map = **r;
    const uint64_t epoch = map.checkpoint_epoch();
    ASSERT_GE(epoch, 1u) << what;
    ASSERT_LE(epoch, kTotalEpochs) << what;
    Status check = map.ValidateStructure();
    ASSERT_TRUE(check.ok()) << what << ": " << check.ToString();

    const std::map<Key, Value> model = ModelAfter(seed_, epoch);
    std::vector<std::pair<Key, Value>> got;
    map.Scan(1, kMaxUserKey, [&](Key k, Value v) {
      got.emplace_back(k, v);
      return true;
    });
    ASSERT_EQ(got.size(), model.size())
        << what << ": recovered epoch " << epoch;
    size_t i = 0;
    for (const auto& kv : model) {
      ASSERT_EQ(got[i].first, kv.first) << what << " index " << i;
      ASSERT_EQ(got[i].second, kv.second)
          << what << " key " << kv.first << " (stale pre-checkpoint value?)";
      ++i;
    }
    EXPECT_EQ(map.Size(), model.size()) << what;
  }

  // Fork one kill-point child, wait for it, and audit the directory it
  // left behind. Returns the child's exit code.
  int RunKillPoint(const char* site, uint64_t ordinal) {
    const std::string dir =
        base_ + "/" + site + "-" + std::to_string(ordinal);
    const pid_t pid = fork();
    if (pid == 0) RunCrashChild(dir, GetParam(), seed_, site, ordinal);
    EXPECT_GT(pid, 0) << "fork failed";
    if (pid <= 0) return -1;
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status))
        << site << " ordinal " << ordinal << ": child did not exit cleanly";
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    EXPECT_TRUE(code == kCrashExitCode || code == 0)
        << site << " ordinal " << ordinal << ": unexpected exit " << code;
    AuditRecovered(dir, std::string(site) + " ordinal " +
                            std::to_string(ordinal));
    return code;
  }

  uint64_t seed_ = 0;
  std::string base_;
};

TEST_P(CrashRecoveryTest, EveryCrashSiteRecoversToCommittedPrefix) {
  // Phase 1: fault-free count run. Probability-0 arms never fire but
  // count every eligible hit, enumerating the kill points per site.
  for (const char* site : kCrashSites) {
    FaultSpec counter;
    counter.action = FaultAction::kStall;
    counter.probability = 0.0;
    FaultInjector::Instance().Arm(site, counter);
  }
  {
    ConcurrentMap map(PersistentOptions(base_ + "/count", GetParam()));
    RunWorkload(&map, seed_);
    // A bounded pool must really evict, or it tests nothing new.
    if (GetParam().buffer_pool_pages != 0) {
      ASSERT_GT(map.Stats().Get(StatId::kPagesEvicted), 0u);
    }
  }
  std::map<std::string, uint64_t> hits;
  for (const char* site : kCrashSites) {
    hits[site] = FaultInjector::Instance().SiteStats(site).hits;
    ASSERT_GT(hits[site], 0u)
        << site << " never evaluated: the site is dead or renamed";
  }
  FaultInjector::Instance().DisarmAll();

  // Harness self-check: the completed count run must recover to the
  // full final-epoch model.
  AuditRecovered(base_ + "/count", "fault-free count run");

  // Phase 2: one forked child per sampled kill point.
  size_t kill_points = 0;
  size_t crashed = 0;
  for (const char* site : kCrashSites) {
    const std::vector<uint64_t> ordinals =
        SampleOrdinals(hits[site], kMaxKillPointsPerSite);
    std::cout << "[crash-recovery] " << site << ": " << hits[site]
              << " hits, testing " << ordinals.size() << " kill points"
              << std::endl;
    for (uint64_t k : ordinals) {
      if (::testing::Test::HasFatalFailure()) return;
      const int code = RunKillPoint(site, k);
      ++kill_points;
      if (code == kCrashExitCode) ++crashed;
    }
    // Every sampled ordinal is <= the counted hits, so each child must
    // actually have died at its site (a 0-exit means the ordinals of
    // the child run drifted from the count run).
    EXPECT_EQ(crashed, kill_points)
        << site << ": a child outlived its armed kill point";
  }
  std::cout << "[crash-recovery] verified " << kill_points
            << " kill points across " << std::size(kCrashSites) << " sites"
            << std::endl;
}

TEST_P(CrashRecoveryTest, OrdinalPastLastHitCompletesAndRecoversFully) {
  // A kill point that is never reached must leave a complete workload:
  // the child exits 0 and the store recovers to the final epoch.
  const int code = RunKillPoint("store-fsync", 1u << 20);
  ASSERT_EQ(code, 0);
  Result<std::unique_ptr<ConcurrentMap>> r =
      ConcurrentMap::Recover(PersistentOptions(
          base_ + "/store-fsync-" + std::to_string(1u << 20), GetParam()));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->checkpoint_epoch(), kTotalEpochs);
}

INSTANTIATE_TEST_SUITE_P(
    Pools, CrashRecoveryTest,
    ::testing::Values(PoolShape{0, 8}, PoolShape{64, 2}),
    [](const ::testing::TestParamInfo<PoolShape>& info) {
      return info.param.buffer_pool_pages == 0 ? std::string("Unbounded")
                                               : std::string("Evicting");
    });

}  // namespace
}  // namespace obtree
