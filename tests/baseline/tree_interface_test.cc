// Copyright 2026 The obtree Authors.
//
// One generic behavioral test suite applied to every tree implementation
// (SagivTree and the three baselines): whatever the locking protocol, the
// logical Insert/Search/Delete/Scan semantics must be identical. A second
// typed suite pins the paper's cost units (§2.2) to the "get"/"put"
// failpoints the benches stall to model disk-resident nodes.

#include <map>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/baseline/coarse_tree.h"
#include "obtree/baseline/lehman_yao_tree.h"
#include "obtree/baseline/lock_coupling_tree.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

template <typename Tree>
class TreeInterfaceTest : public ::testing::Test {
 protected:
  static TreeOptions SmallNodes(uint32_t k = 3) {
    TreeOptions opt;
    opt.min_entries = k;
    return opt;
  }
};

using TreeTypes =
    ::testing::Types<SagivTree, LehmanYaoTree, LockCouplingTree, CoarseTree>;
TYPED_TEST_SUITE(TreeInterfaceTest, TreeTypes);

TYPED_TEST(TreeInterfaceTest, EmptyTreeBehaviour) {
  TypeParam tree;
  ASSERT_TRUE(tree.init_status().ok());
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.Height(), 1u);
  EXPECT_TRUE(tree.Search(7).status().IsNotFound());
  EXPECT_TRUE(tree.Delete(7).IsNotFound());
  EXPECT_EQ(tree.Scan(1, 100, [](Key, Value) { return true; }), 0u);
}

TYPED_TEST(TreeInterfaceTest, RejectsReservedKeys) {
  TypeParam tree;
  EXPECT_TRUE(tree.Insert(0, 1).IsInvalidArgument());
  EXPECT_TRUE(tree.Insert(kPlusInfinity, 1).IsInvalidArgument());
  EXPECT_TRUE(tree.Search(0).status().IsInvalidArgument());
  EXPECT_TRUE(tree.Delete(kPlusInfinity).IsInvalidArgument());
}

TYPED_TEST(TreeInterfaceTest, InsertSearchDeleteRoundTrip) {
  TypeParam tree(TestFixture::SmallNodes());
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_TRUE(tree.Insert(k, k * 11).ok()) << k;
  }
  EXPECT_EQ(tree.Size(), 500u);
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_TRUE(tree.Search(k).ok()) << k;
    EXPECT_EQ(*tree.Search(k), k * 11);
  }
  for (Key k = 1; k <= 500; k += 3) ASSERT_TRUE(tree.Delete(k).ok()) << k;
  for (Key k = 1; k <= 500; ++k) {
    EXPECT_EQ(tree.Search(k).ok(), k % 3 != 1) << k;
  }
}

TYPED_TEST(TreeInterfaceTest, DuplicatesRejected) {
  TypeParam tree;
  ASSERT_TRUE(tree.Insert(5, 1).ok());
  EXPECT_TRUE(tree.Insert(5, 2).IsAlreadyExists());
  EXPECT_EQ(*tree.Search(5), 1u);
}

TYPED_TEST(TreeInterfaceTest, DescendingInsertOrder) {
  TypeParam tree(TestFixture::SmallNodes(2));
  for (Key k = 800; k >= 1; --k) ASSERT_TRUE(tree.Insert(k, k).ok()) << k;
  for (Key k = 1; k <= 800; ++k) ASSERT_TRUE(tree.Search(k).ok()) << k;
  EXPECT_GT(tree.Height(), 2u);
}

TYPED_TEST(TreeInterfaceTest, RandomWorkloadMatchesReference) {
  TypeParam tree(TestFixture::SmallNodes(2));
  std::map<Key, Value> reference;
  Random rng(2026);
  for (int i = 0; i < 15000; ++i) {
    const Key k = rng.UniformRange(1, 600);
    const int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      const Value v = rng.Next();
      EXPECT_EQ(tree.Insert(k, v).ok(), reference.emplace(k, v).second);
    } else if (op == 1) {
      EXPECT_EQ(tree.Delete(k).ok(), reference.erase(k) > 0);
    } else {
      auto it = reference.find(k);
      Result<Value> r = tree.Search(k);
      EXPECT_EQ(r.ok(), it != reference.end());
      if (r.ok()) {
        EXPECT_EQ(*r, it->second);
      }
    }
  }
  EXPECT_EQ(tree.Size(), reference.size());
}

TYPED_TEST(TreeInterfaceTest, ScanReturnsSortedRange) {
  TypeParam tree(TestFixture::SmallNodes());
  std::set<Key> keys;
  Random rng(17);
  for (int i = 0; i < 1000; ++i) {
    const Key k = rng.UniformRange(1, 5000);
    if (tree.Insert(k, k + 3).ok()) keys.insert(k);
  }
  std::vector<Key> seen;
  tree.Scan(1000, 4000, [&](Key k, Value v) {
    EXPECT_EQ(v, k + 3);
    seen.push_back(k);
    return true;
  });
  std::vector<Key> expected;
  for (Key k : keys) {
    if (k >= 1000 && k <= 4000) expected.push_back(k);
  }
  EXPECT_EQ(seen, expected);
}

TYPED_TEST(TreeInterfaceTest, ConcurrentDisjointInserts) {
  TypeParam tree(TestFixture::SmallNodes(4));
  const int threads = 4;
  constexpr Key kPerThread = 3000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&tree, t]() {
      const Key base = static_cast<Key>(t) * kPerThread + 1;
      for (Key k = base; k < base + kPerThread; ++k) {
        ASSERT_TRUE(tree.Insert(k, k).ok()) << k;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tree.Size(), static_cast<uint64_t>(threads) * kPerThread);
  for (Key k = 1; k <= threads * kPerThread; ++k) {
    ASSERT_TRUE(tree.Search(k).ok()) << k;
  }
}

TYPED_TEST(TreeInterfaceTest, ConcurrentMixedOps) {
  TypeParam tree(TestFixture::SmallNodes(3));
  const int threads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&tree, t]() {
      Random rng(300 + static_cast<uint64_t>(t));
      for (int i = 0; i < 10000; ++i) {
        const Key k = rng.UniformRange(1, 2000);
        const double p = rng.NextDouble();
        if (p < 0.4) {
          (void)tree.Insert(k, k);
        } else if (p < 0.7) {
          (void)tree.Delete(k);
        } else {
          Result<Value> r = tree.Search(k);
          if (r.ok()) {
            ASSERT_EQ(*r, k);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  uint64_t counted = 0;
  tree.Scan(1, kMaxUserKey, [&](Key, Value) {
    ++counted;
    return true;
  });
  EXPECT_EQ(counted, tree.Size());
}

// --- cost units (§2.2): every counted get and put evaluates its failpoint
// once, so a kStall armed on "get" and "put" (ScopedIoStall, the benches'
// disk-resident model) charges exactly the paper's node accesses --------

template <typename Tree>
class CostUnitTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }
};

using CostUnitTreeTypes =
    ::testing::Types<SagivTree, LehmanYaoTree, LockCouplingTree>;
TYPED_TEST_SUITE(CostUnitTest, CostUnitTreeTypes);

TYPED_TEST(CostUnitTest, StallSitesSeeEveryCountedGetAndPut) {
  TreeOptions opt;
  opt.min_entries = 3;  // small nodes: splits and multi-level descents
  TypeParam tree(opt);
  for (Key k = 2; k <= 600; k += 2) ASSERT_TRUE(tree.Insert(k, k).ok());

  FaultSpec stall;
  stall.action = FaultAction::kStall;
  stall.stall_us = 0;  // count the hits, sleep never
  FaultInjector& fi = FaultInjector::Instance();
  fi.Arm("get", stall);
  fi.Arm("put", stall);
  const uint64_t gets0 = tree.stats()->Get(StatId::kGets);
  const uint64_t puts0 = tree.stats()->Get(StatId::kPuts);

  Random rng(20);
  for (int i = 0; i < 3000; ++i) {
    const Key k = rng.UniformRange(1, 800);
    switch (rng.Uniform(5)) {
      case 0:
        (void)tree.Insert(k, k + 1);
        break;
      case 1:
        (void)tree.Delete(k);
        break;
      case 2:
        (void)tree.Search(k);
        break;
      case 3: {
        int left = 20;
        tree.Scan(k, kMaxUserKey, [&left](Key, Value) { return --left > 0; });
        break;
      }
      case 4:
        if constexpr (std::is_same_v<TypeParam, SagivTree>) {
          (void)tree.Upsert(k, k + 2);  // in place when present
        } else {
          (void)tree.Insert(k, k + 2);
        }
        break;
    }
  }

  const uint64_t gets = tree.stats()->Get(StatId::kGets) - gets0;
  const uint64_t puts = tree.stats()->Get(StatId::kPuts) - puts0;
  EXPECT_GT(gets, 0u);
  EXPECT_GT(puts, 0u);
  EXPECT_EQ(fi.SiteStats("get").hits, gets);
  EXPECT_EQ(fi.SiteStats("put").hits, puts);
}

// --- protocol-specific lock-profile assertions (the E1 experiment in test
// form) --------------------------------------------------------------------

TEST(LockProfileTest, SagivInsertionsHoldOneLock) {
  TreeOptions opt;
  opt.min_entries = 2;
  SagivTree tree(opt);
  for (Key k = 1; k <= 3000; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  EXPECT_EQ(tree.stats()->max_locks_held(), 1u);
}

TEST(LockProfileTest, LehmanYaoInsertionsHoldUpToThreeLocks) {
  TreeOptions opt;
  opt.min_entries = 2;
  LehmanYaoTree tree(opt);
  for (Key k = 1; k <= 3000; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  // The hand-off holds 2; a coupled moveright at the parent makes 3.
  EXPECT_GE(tree.stats()->max_locks_held(), 2u);
  EXPECT_LE(tree.stats()->max_locks_held(), 3u);
}

TEST(LockProfileTest, SagivReadersAcquireNoLocks) {
  SagivTree tree;
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  const uint64_t locks_before = tree.stats()->Get(StatId::kLocksAcquired);
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(tree.Search(k).ok());
  (void)tree.Scan(1, 100, [](Key, Value) { return true; });
  EXPECT_EQ(tree.stats()->Get(StatId::kLocksAcquired), locks_before);
}

TEST(LockProfileTest, LockCouplingReadersLatchEveryNode) {
  TreeOptions opt;
  opt.min_entries = 2;
  LockCouplingTree tree(opt);
  for (Key k = 1; k <= 1000; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  const uint64_t latches_before = tree.stats()->Get(StatId::kLocksAcquired);
  ASSERT_TRUE(tree.Search(500).ok());
  const uint64_t per_search =
      tree.stats()->Get(StatId::kLocksAcquired) - latches_before;
  // One latch per level of the descent.
  EXPECT_GE(per_search, tree.Height());
}

}  // namespace
}  // namespace obtree
