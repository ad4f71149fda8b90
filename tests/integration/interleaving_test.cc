// Copyright 2026 The obtree Authors.
//
// Deterministic interleaving tests: the PageManager test hook pauses a
// protocol thread at an exact step while lock-free readers observe the
// half-finished state. These verify, step by step, the windows Theorem 1
// and Section 5.2 argue about:
//
//   * after a split writes B and A but before the parent post, the new
//     node is reachable only through A's link — searches must find it;
//   * during a merge, after the gaining child is rewritten but before the
//     parent (and then before the deleted child), every key remains
//     readable somewhere;
//   * a reader that catches the deleted child AFTER its rewrite recovers
//     through the merge pointer.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/core/tree_checker.h"
#include "obtree/core/tree_dump.h"

namespace obtree {
namespace {

// A reusable "pause the other thread at a trigger" gate. The protocol
// thread calls MaybeBlock from the hook; the test thread Awaits the pause,
// inspects the world, then Releases.
class Gate {
 public:
  // Arm the gate: the next hook event matching (op, page) blocks.
  void Arm(std::string op, PageId page) {
    std::lock_guard<std::mutex> l(mu_);
    op_ = std::move(op);
    page_ = page;
    armed_ = true;
    paused_ = false;
    released_ = false;
  }

  // Called from the PageManager hook (protocol thread).
  void MaybeBlock(const char* op, PageId page) {
    std::unique_lock<std::mutex> l(mu_);
    if (!armed_ || op_ != op || page_ != page) return;
    armed_ = false;
    paused_ = true;
    cv_.notify_all();
    cv_.wait(l, [&] { return released_; });
    paused_ = false;
  }

  // Test thread: wait until the protocol thread is paused at the gate.
  void AwaitPaused() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return paused_; });
  }

  // Test thread: let the protocol thread continue.
  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string op_;
  PageId page_ = kInvalidPageId;
  bool armed_ = false;
  bool paused_ = false;
  bool released_ = false;
};

TreeOptions K2() {
  TreeOptions opt;
  opt.min_entries = 2;
  return opt;
}

TEST(InterleavingTest, SplitIsVisibleThroughLinkBeforeParentPost) {
  SagivTree tree(K2());
  // Fill one leaf to capacity (4) under a root leaf... build height 2:
  for (Key k = 10; k <= 60; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  ASSERT_GE(tree.Height(), 2u);

  // The inserter's next leaf split performs: put(B), put(A), unlock(A),
  // then lock(parent). Pause at the parent lock: the pair for B is not
  // posted anywhere, B is reachable only via A's link.
  Gate gate;
  std::atomic<bool> arm_on_next_lock{false};
  std::atomic<int> puts_seen{0};
  const PrimeBlockData pb = tree.internal_prime()->Read();
  const PageId parent = pb.root();
  tree.internal_pager()->SetTestHook([&](const char* op, PageId page) {
    gate.MaybeBlock(op, page);
  });
  gate.Arm("lock", parent);

  // Find a key that lands in the fullest leaf; inserting 11..14 overflows
  // the first leaf eventually. Run the inserter in a thread.
  std::thread inserter([&]() {
    for (Key k = 11; k <= 14; ++k) {
      ASSERT_TRUE(tree.Insert(k, k * 7).ok()) << k;
    }
  });

  gate.AwaitPaused();
  // The inserter is frozen before posting the separator. Every key —
  // including those that moved into the fresh right node — must be
  // findable RIGHT NOW by a concurrent reader, through the link.
  const uint64_t link_follows_before =
      tree.stats()->Get(StatId::kLinkFollows);
  for (Key k : {10, 11, 20, 30, 40, 50, 60}) {
    Result<Value> r = tree.Search(k);
    ASSERT_TRUE(r.ok()) << "key " << k << " invisible mid-split\n"
                        << DumpStructureToString(tree);
  }
  EXPECT_GT(tree.stats()->Get(StatId::kLinkFollows), link_follows_before)
      << "expected at least one search to traverse the link";
  (void)puts_seen;
  (void)arm_on_next_lock;

  gate.Release();
  inserter.join();
  tree.internal_pager()->SetTestHook(nullptr);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(InterleavingTest, MergeKeepsEveryKeyReadableAtEachStep) {
  SagivTree tree(K2());
  // Hand-build via inserts+deletes: get two adjacent under-full leaves.
  for (Key k = 10; k <= 60; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  // Leaves are [10,20,30] and [40,50,60]; k=2, so dropping the left leaf
  // to one entry makes the pair mergeable (1 + 2 <= capacity 4).
  ASSERT_TRUE(tree.Delete(20).ok());
  ASSERT_TRUE(tree.Delete(30).ok());
  ASSERT_TRUE(tree.Delete(50).ok());
  ASSERT_GE(tree.Height(), 2u);
  const PrimeBlockData pb = tree.internal_prime()->Read();
  const PageId parent = pb.root();

  // The merge writes: put(left), put(parent), put(right). Pause before
  // put(parent): left already holds everything, parent still routes to
  // both, right still shows its old image.
  Gate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.MaybeBlock(op, page); });
  gate.Arm("put", parent);

  ScanCompressor compressor(&tree);
  std::thread compressor_thread([&]() { compressor.FullPass(); });

  gate.AwaitPaused();
  // Mid-merge: every surviving key readable.
  for (Key k : {10, 40, 60}) {
    ASSERT_TRUE(tree.Search(k).ok())
        << "key " << k << " invisible mid-merge (before parent rewrite)\n"
        << DumpStructureToString(tree);
  }
  gate.Release();
  compressor_thread.join();
  tree.internal_pager()->SetTestHook(nullptr);

  for (Key k : {10, 40, 60}) ASSERT_TRUE(tree.Search(k).ok()) << k;
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(tree.stats()->Get(StatId::kMerges), 0u);
}

TEST(InterleavingTest, ReaderRecoversThroughMergePointer) {
  SagivTree tree(K2());
  for (Key k = 10; k <= 60; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  // Leaves are [10,20,30] and [40,50,60]; k=2, so dropping the left leaf
  // to one entry makes the pair mergeable (1 + 2 <= capacity 4).
  ASSERT_TRUE(tree.Delete(20).ok());
  ASSERT_TRUE(tree.Delete(30).ok());
  ASSERT_TRUE(tree.Delete(50).ok());
  ASSERT_GE(tree.Height(), 2u);

  // Identify the two leaves that will merge: leftmost leaf and its link.
  const PrimeBlockData pb = tree.internal_prime()->Read();
  Page buf;
  tree.internal_pager()->Get(pb.leftmost[0], &buf);
  const PageId right_leaf = buf.As<Node>()->link;
  ASSERT_NE(right_leaf, kInvalidPageId);

  // Pause the compressor right before it UNLOCKS the deleted right leaf —
  // i.e. after put(left), put(parent), put(right=deleted). A reader whose
  // "stale" route still points at the right leaf must hop through the
  // merge pointer.
  Gate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.MaybeBlock(op, page); });
  gate.Arm("unlock", right_leaf);

  ScanCompressor compressor(&tree);
  std::thread compressor_thread([&]() { compressor.FullPass(); });
  gate.AwaitPaused();

  // Read the deleted leaf directly (simulating a reader that obtained the
  // pointer before the merge): it must carry the deletion bit and a merge
  // pointer to the absorbing node, and a normal search still works.
  tree.internal_pager()->Get(right_leaf, &buf);
  const Node* dead = buf.As<Node>();
  EXPECT_TRUE(dead->is_deleted());
  EXPECT_NE(dead->merge_target, kInvalidPageId);
  for (Key k : {10, 40, 60}) ASSERT_TRUE(tree.Search(k).ok()) << k;

  gate.Release();
  compressor_thread.join();
  tree.internal_pager()->SetTestHook(nullptr);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(InterleavingTest, ScanRecoversThroughMergePointer) {
  SagivTree tree(K2());
  for (Key k = 10; k <= 60; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  // Leaves [10] and [40,60] after the deletes: a mergeable pair.
  ASSERT_TRUE(tree.Delete(20).ok());
  ASSERT_TRUE(tree.Delete(30).ok());
  ASSERT_TRUE(tree.Delete(50).ok());
  ASSERT_GE(tree.Height(), 2u);
  const PrimeBlockData pb = tree.internal_prime()->Read();
  Page buf;
  tree.internal_pager()->Get(pb.leftmost[0], &buf);
  const PageId right_leaf = buf.As<Node>()->link;
  ASSERT_NE(right_leaf, kInvalidPageId);

  // The scan delivers the left leaf, keeping its link to the right leaf.
  // Its visitor then runs the merge up to the pause before the deleted
  // right leaf is unlocked, so the scan's next hop lands on a deleted leaf
  // and must recover through its merge pointer to the absorbing node.
  Gate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.MaybeBlock(op, page); });
  gate.Arm("unlock", right_leaf);
  ScanCompressor compressor(&tree);
  std::thread compressor_thread;
  StatsSnapshot mid_merge;
  std::vector<Key> seen;
  tree.Scan(1, kMaxUserKey, [&](Key k, Value v) {
    EXPECT_EQ(v, k);
    seen.push_back(k);
    if (!compressor_thread.joinable()) {
      compressor_thread = std::thread([&]() { compressor.FullPass(); });
      gate.AwaitPaused();
      mid_merge = tree.stats()->Snapshot();
    }
    return true;
  });
  const StatsSnapshot d = tree.stats()->Snapshot().Delta(mid_merge);
  gate.Release();
  ASSERT_TRUE(compressor_thread.joinable());
  compressor_thread.join();
  tree.internal_pager()->SetTestHook(nullptr);

  EXPECT_EQ(seen, (std::vector<Key>{10, 40, 60}));
  EXPECT_GE(d.Get(StatId::kMergePointerFollows), 1u);
  EXPECT_GT(tree.stats()->Get(StatId::kMerges), 0u);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(InterleavingTest, InsertBlockedByLockProceedsAfterRelease) {
  // A writer paused while HOLDING a leaf lock must not block readers (the
  // paper's central storage-model property), and a second writer on the
  // same leaf waits and then succeeds.
  SagivTree tree(K2());
  for (Key k = 10; k <= 30; k += 10) ASSERT_TRUE(tree.Insert(k, k).ok());
  const PageId leaf = *tree.internal_FindNodeAtLevel(10, 0, nullptr);

  Gate gate;
  tree.internal_pager()->SetTestHook(
      [&](const char* op, PageId page) { gate.MaybeBlock(op, page); });
  gate.Arm("put", leaf);  // pause writer 1 inside its critical section

  std::thread writer1([&]() { ASSERT_TRUE(tree.Insert(11, 11).ok()); });
  gate.AwaitPaused();

  // Readers sail through the locked, mid-rewrite leaf.
  for (Key k : {10, 20, 30}) ASSERT_TRUE(tree.Search(k).ok()) << k;
  // A second writer queues behind the paper lock.
  std::atomic<bool> writer2_done{false};
  std::thread writer2([&]() {
    ASSERT_TRUE(tree.Insert(12, 12).ok());
    writer2_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer2_done.load()) << "writer 2 ignored the paper lock";

  gate.Release();
  writer1.join();
  writer2.join();
  EXPECT_TRUE(writer2_done.load());
  tree.internal_pager()->SetTestHook(nullptr);
  for (Key k : {10, 11, 12, 20, 30}) ASSERT_TRUE(tree.Search(k).ok()) << k;
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace obtree
