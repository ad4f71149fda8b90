// Copyright 2026 The obtree Authors.
//
// Deterministic edge-case tests. A TreeBuilder assembles exact tree states
// through the storage layer so the rarely-hit protocol branches can be
// exercised on purpose rather than hoping a stress test stumbles into
// them: the §5.2 "wait until two is inserted into F" case, the footnote-14
// stale-task discard, the §5.4 left-neighbor and requeue paths, root
// collapses, checker rejection of every corruption class, and allocation-
// failure injection through the insertion error paths.

#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/core/compression_queue.h"
#include "obtree/core/queue_compressor.h"
#include "obtree/core/rearrange.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/scan_compressor.h"
#include "obtree/core/tree_checker.h"

namespace obtree {
namespace {

// Assembles a tree from an explicit leaf layout: leaves are given left to
// right as key lists; parent levels are built by grouping `fanout`
// children per node. Writes nodes and the prime block directly.
class TreeBuilder {
 public:
  explicit TreeBuilder(SagivTree* tree) : tree_(tree) {}

  struct Built {
    std::vector<std::vector<PageId>> level_pages;  // [0] = leaves
  };

  Built Build(const std::vector<std::vector<Key>>& leaves, uint32_t fanout) {
    PageManager* pager = tree_->internal_pager();
    Built built;

    // Level 0: leaves.
    std::vector<PageId> pages;
    std::vector<Key> highs;
    uint64_t total_keys = 0;
    for (size_t i = 0; i < leaves.size(); ++i) {
      pages.push_back(*pager->Allocate());
    }
    Key low = kMinusInfinity;
    for (size_t i = 0; i < leaves.size(); ++i) {
      Page page;
      page.Clear();
      Node* node = page.As<Node>();
      const bool last = i + 1 == leaves.size();
      const Key high = last ? kPlusInfinity : leaves[i].back();
      node->Init(0, low, high, last ? kInvalidPageId : pages[i + 1]);
      for (Key k : leaves[i]) {
        node->entries[node->count++] = Entry{k, k * 10};
      }
      total_keys += node->count;
      pager->Put(pages[i], page);
      highs.push_back(high);
      low = high;
    }
    built.level_pages.push_back(pages);

    // Internal levels.
    uint16_t level = 0;
    while (pages.size() > 1) {
      ++level;
      std::vector<PageId> parent_pages;
      std::vector<Key> parent_highs;
      const size_t parents = (pages.size() + fanout - 1) / fanout;
      for (size_t i = 0; i < parents; ++i) {
        parent_pages.push_back(*pager->Allocate());
      }
      Key plow = kMinusInfinity;
      for (size_t i = 0; i < parents; ++i) {
        Page page;
        page.Clear();
        Node* node = page.As<Node>();
        const bool last = i + 1 == parents;
        const size_t begin = i * fanout;
        const size_t end = std::min(begin + fanout, pages.size());
        node->Init(level, plow, highs[end - 1],
                   last ? kInvalidPageId : parent_pages[i + 1]);
        for (size_t c = begin; c < end; ++c) {
          node->entries[node->count++] = Entry{highs[c], pages[c]};
        }
        pager->Put(parent_pages[i], page);
        parent_highs.push_back(highs[end - 1]);
        plow = highs[end - 1];
      }
      pages = std::move(parent_pages);
      highs = std::move(parent_highs);
      built.level_pages.push_back(pages);
    }

    // Root bit + prime block.
    {
      Page page;
      pager->Get(pages[0], &page);
      page.As<Node>()->set_root(true);
      pager->Put(pages[0], page);
    }
    PrimeBlockData pb;
    pb.num_levels = static_cast<uint32_t>(built.level_pages.size());
    for (uint32_t l = 0; l < pb.num_levels; ++l) {
      pb.leftmost[l] = built.level_pages[l][0];
    }
    // Retire the constructor-made root: clear its bit and mark it deleted
    // with a merge pointer into the built tree, as the protocol prescribes
    // for every detached node (otherwise it still looks like a live empty
    // rightmost leaf, which the append fast path would trust).
    {
      const PageId old_root = tree_->internal_prime()->Read().root();
      Page page;
      pager->Get(old_root, &page);
      page.As<Node>()->set_root(false);
      page.As<Node>()->set_deleted(built.level_pages[0][0]);
      pager->Put(old_root, page);
    }
    tree_->internal_prime()->Write(pb);
    tree_->internal_AdjustSize(static_cast<int64_t>(total_keys));
    return built;
  }

  // Read / mutate raw nodes for corruption tests.
  Node ReadNode(PageId page) const {
    Page buf;
    tree_->internal_pager()->Get(page, &buf);
    return *buf.As<Node>();
  }
  void WriteNode(PageId page, const Node& node) {
    Page buf;
    *buf.As<Node>() = node;
    tree_->internal_pager()->Put(page, buf);
  }

 private:
  SagivTree* tree_;
};

TreeOptions K2() {
  TreeOptions opt;
  opt.min_entries = 2;
  return opt;
}

TEST(TreeBuilderTest, BuildsValidTrees) {
  SagivTree tree(K2());
  TreeBuilder builder(&tree);
  builder.Build({{10, 20}, {30, 40, 50}, {60, 70}}, /*fanout=*/2);
  Status s = TreeChecker(&tree).CheckStructure();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(tree.Size(), 7u);
  EXPECT_EQ(*tree.Search(30), 300u);
  EXPECT_EQ(*tree.Search(70), 700u);
  EXPECT_TRUE(tree.Search(35).status().IsNotFound());
  // The built tree supports normal operations.
  ASSERT_TRUE(tree.Insert(35, 1).ok());
  ASSERT_TRUE(tree.Delete(60).ok());
  s = TreeChecker(&tree).CheckStructure();
  ASSERT_TRUE(s.ok()) << s.ToString();
}

// --- scan-compressor branches ----------------------------------------------

TEST(ScanCompressorEdgeTest, MergesAdjacentUnderfullPair) {
  SagivTree tree(K2());
  TreeBuilder builder(&tree);
  auto built = builder.Build({{10}, {20}, {30, 40, 50}}, /*fanout=*/3);
  ScanCompressor compressor(&tree);
  EXPECT_GT(compressor.CompressLevel(0), 0u);
  EXPECT_GT(tree.stats()->Get(StatId::kMerges), 0u);
  Status s = TreeChecker(&tree).CheckStructure(/*require_half_full=*/true);
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (Key k : {10, 20, 30, 40, 50}) EXPECT_TRUE(tree.Search(k).ok()) << k;
}

TEST(ScanCompressorEdgeTest, RedistributesWhenMergeWouldOverflow) {
  SagivTree tree(K2());  // capacity 4
  TreeBuilder builder(&tree);
  builder.Build({{10}, {20, 30, 40, 50}}, /*fanout=*/2);
  ScanCompressor compressor(&tree);
  EXPECT_GT(compressor.CompressLevel(0), 0u);
  EXPECT_EQ(tree.stats()->Get(StatId::kMerges), 0u);
  EXPECT_EQ(tree.stats()->Get(StatId::kRedistributions), 1u);
  Status s = TreeChecker(&tree).CheckStructure(/*require_half_full=*/true);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScanCompressorEdgeTest, WaitsWhenSeparatorUnposted) {
  // Simulate an insertion caught mid-ascent: leaf A split into A + B, but
  // the pair for B has not been posted into F. compress-level must WAIT
  // (bounded), not merge around the orphan.
  SagivTree tree(K2());
  TreeBuilder builder(&tree);
  auto built = builder.Build({{10, 20}, {30, 40}, {50, 60}}, /*fanout=*/3);
  const PageId a_page = built.level_pages[0][0];
  const PageId f_page = built.level_pages[1][0];

  // Split A by hand: A keeps {10}, orphan B gets {20}.
  PageManager* pager = tree.internal_pager();
  const PageId b_page = *pager->Allocate();
  Node a = builder.ReadNode(a_page);
  Node b;
  b.Init(0, 10, 20, a.link);
  b.entries[b.count++] = Entry{20, 200};
  a.count = 1;
  a.high = 10;
  a.link = b_page;
  builder.WriteNode(b_page, b);
  builder.WriteNode(a_page, a);
  // F still reads (20 -> A): the separator (10 -> A) is "unposted".

  ScanCompressor compressor(&tree);
  const size_t work = compressor.CompressLevel(0);
  EXPECT_GT(tree.stats()->Get(StatId::kCompressWaits), 0u);
  (void)work;
  // A and the orphan B were not merged around; searches still work
  // through the link.
  EXPECT_TRUE(tree.Search(20).ok());

  // Now post the separator as the insertion ascent would, and compression
  // proceeds.
  Node f = builder.ReadNode(f_page);
  ASSERT_TRUE(f.InsertChildSplit(10, b_page));
  builder.WriteNode(f_page, f);
  tree.stats()->Reset();
  ScanCompressor compressor2(&tree);
  EXPECT_GT(compressor2.CompressLevel(0), 0u);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(ScanCompressorEdgeTest, RootWithTwoMergeableChildrenCollapses) {
  SagivTree tree(K2());
  TreeBuilder builder(&tree);
  builder.Build({{10}, {20}}, /*fanout=*/2);
  EXPECT_EQ(tree.Height(), 2u);
  ScanCompressor compressor(&tree);
  while (compressor.FullPass() > 0) {
  }
  EXPECT_EQ(tree.Height(), 1u);
  EXPECT_GT(tree.stats()->Get(StatId::kRootCollapses), 0u);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(tree.Search(10).ok());
  EXPECT_TRUE(tree.Search(20).ok());
}

TEST(TryCollapseRootTest, CollapsesMultiLevelSingleChildChain) {
  SagivTree tree(K2());
  TreeBuilder builder(&tree);
  // fanout 1 produces a pure chain: root -> internal -> internal -> leaf.
  builder.Build({{10, 20, 30}}, /*fanout=*/1);
  // Build() with one leaf creates height 1 directly; force a chain by
  // hand instead.
  PageManager* pager = tree.internal_pager();
  PrimeBlockData pb = tree.internal_prime()->Read();
  const PageId leaf = pb.leftmost[0];
  PageId child = leaf;
  for (uint16_t level = 1; level <= 3; ++level) {
    const PageId page = *pager->Allocate();
    Page buf;
    buf.Clear();
    Node* node = buf.As<Node>();
    node->Init(level, kMinusInfinity, kPlusInfinity, kInvalidPageId);
    node->entries[node->count++] = Entry{kPlusInfinity, child};
    pager->Put(page, buf);
    pb.leftmost[level] = page;
    child = page;
  }
  pb.num_levels = 4;
  // Move the root bit to the top of the chain.
  {
    Page buf;
    pager->Get(pb.leftmost[0], &buf);
    buf.As<Node>()->set_root(false);
    pager->Put(pb.leftmost[0], buf);
    pager->Get(pb.leftmost[3], &buf);
    buf.As<Node>()->set_root(true);
    pager->Put(pb.leftmost[3], buf);
  }
  tree.internal_prime()->Write(pb);
  ASSERT_EQ(tree.Height(), 4u);

  EXPECT_EQ(TryCollapseRoot(&tree), 3u);
  EXPECT_EQ(tree.Height(), 1u);
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (Key k : {10, 20, 30}) EXPECT_TRUE(tree.Search(k).ok()) << k;
}

// --- queue-compressor branches ---------------------------------------------

struct QueueFixture {
  TreeOptions options = K2();
  SagivTree tree{K2()};
  CompressionQueue queue;
  QueueCompressor compressor{&tree, &queue};

  QueueFixture() {
    queue.RegisterWith(tree.epoch());
    tree.AttachCompressionQueue(&queue);
  }

  CompressionTask TaskFor(PageId node, uint32_t level, Key high,
                          std::vector<PageId> stack) {
    CompressionTask t;
    t.node = node;
    t.level = level;
    t.high = high;
    t.stamp = tree.epoch()->Now();
    t.stack = std::move(stack);
    return t;
  }
};

TEST(QueueCompressorEdgeTest, Footnote14StaleHighIsDropped) {
  QueueFixture fx;
  TreeBuilder builder(&fx.tree);
  auto built = builder.Build({{10}, {20, 30}, {40, 50}}, /*fanout=*/3);
  // F has the pair (10 -> leaf0), but the queued task records high = 99:
  // the pair check of footnote 14 fails AND the node's current high
  // differs from the recorded one -> discard.
  fx.queue.Push(fx.TaskFor(built.level_pages[0][0], 0, /*high=*/99,
                           {built.level_pages[1][0]}),
                true);
  EXPECT_EQ(fx.compressor.CompressOne(),
            QueueCompressor::Outcome::kDropped);
  EXPECT_EQ(fx.tree.stats()->Get(StatId::kQueueDiscards), 1u);
  EXPECT_TRUE(fx.queue.Empty());
}

TEST(QueueCompressorEdgeTest, UnpostedSeparatorIsRequeued) {
  QueueFixture fx;
  TreeBuilder builder(&fx.tree);
  auto built = builder.Build({{10, 20}, {30, 40}, {50, 60}}, /*fanout=*/3);
  const PageId a_page = built.level_pages[0][0];
  // Hand-split A (separator unposted), then enqueue the under-full A with
  // its CURRENT high: F has no (pointer, high) pair yet -> requeue.
  PageManager* pager = fx.tree.internal_pager();
  const PageId b_page = *pager->Allocate();
  Node a = builder.ReadNode(a_page);
  Node b;
  b.Init(0, 10, 20, a.link);
  b.entries[b.count++] = Entry{20, 200};
  a.count = 1;
  a.high = 10;
  a.link = b_page;
  builder.WriteNode(b_page, b);
  builder.WriteNode(a_page, a);

  fx.queue.Push(
      fx.TaskFor(a_page, 0, /*high=*/10, {built.level_pages[1][0]}), true);
  EXPECT_EQ(fx.compressor.CompressOne(),
            QueueCompressor::Outcome::kRequeued);
  EXPECT_TRUE(fx.queue.Contains(a_page));
  EXPECT_GT(fx.tree.stats()->Get(StatId::kQueueRequeues), 0u);
}

TEST(QueueCompressorEdgeTest, RightmostChildPairsWithLeftNeighbor) {
  QueueFixture fx;
  TreeBuilder builder(&fx.tree);
  // Rightmost leaf {60} is under-full; its only in-parent partner is the
  // LEFT neighbor (§5.4 case (2)).
  auto built =
      builder.Build({{10, 20, 30}, {40, 50}, {60}}, /*fanout=*/3);
  fx.queue.Push(fx.TaskFor(built.level_pages[0][2], 0, kPlusInfinity,
                           {built.level_pages[1][0]}),
                true);
  EXPECT_EQ(fx.compressor.CompressOne(),
            QueueCompressor::Outcome::kRestructured);
  Status s = TreeChecker(&fx.tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (Key k : {40, 50, 60}) EXPECT_TRUE(fx.tree.Search(k).ok()) << k;
  EXPECT_GT(fx.tree.stats()->Get(StatId::kMerges), 0u);
}

TEST(QueueCompressorEdgeTest, HealthyNodeIsLeftAlone) {
  QueueFixture fx;
  TreeBuilder builder(&fx.tree);
  auto built = builder.Build({{10, 20}, {30, 40}, {50, 60}}, /*fanout=*/3);
  // Footnote 15: the node regained entries before its turn came.
  fx.queue.Push(
      fx.TaskFor(built.level_pages[0][0], 0, 20, {built.level_pages[1][0]}),
      true);
  EXPECT_EQ(fx.compressor.CompressOne(),
            QueueCompressor::Outcome::kNothing);
  Status s = TreeChecker(&fx.tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(QueueCompressorEdgeTest, EmptyStackFallsBackToRootDescent) {
  QueueFixture fx;
  TreeBuilder builder(&fx.tree);
  auto built = builder.Build({{10}, {20, 30}, {40, 50}}, /*fanout=*/3);
  // No stack recorded: the compressor must locate the parent from the
  // root (the §5.4 stale/empty-stack path).
  fx.queue.Push(fx.TaskFor(built.level_pages[0][0], 0, 10, {}), true);
  EXPECT_EQ(fx.compressor.CompressOne(),
            QueueCompressor::Outcome::kRestructured);
  Status s = TreeChecker(&fx.tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(QueueCompressorEdgeTest, StaleStackStillWorks) {
  QueueFixture fx;
  TreeBuilder builder(&fx.tree);
  auto built = builder.Build({{10}, {20, 30}, {40, 50}}, /*fanout=*/3);
  // A stack pointing at a bogus page id of the wrong level: the parent
  // search must detect it and restart from the root.
  fx.queue.Push(
      fx.TaskFor(built.level_pages[0][0], 0, 10, {built.level_pages[0][1]}),
      true);
  EXPECT_EQ(fx.compressor.CompressOne(),
            QueueCompressor::Outcome::kRestructured);
  Status s = TreeChecker(&fx.tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// --- checker rejects every corruption class --------------------------------

class CheckerNegativeTest : public ::testing::Test {
 protected:
  CheckerNegativeTest() : tree_(K2()), builder_(&tree_) {
    built_ = builder_.Build({{10, 20}, {30, 40}, {50, 60}}, /*fanout=*/3);
  }

  void ExpectRejected(const char* what) {
    Status s = TreeChecker(&tree_).CheckStructure();
    EXPECT_FALSE(s.ok()) << "corruption not detected: " << what;
  }

  SagivTree tree_;
  TreeBuilder builder_;
  TreeBuilder::Built built_;
};

TEST_F(CheckerNegativeTest, AcceptsHealthyTree) {
  EXPECT_TRUE(TreeChecker(&tree_).CheckStructure().ok());
}

TEST_F(CheckerNegativeTest, DetectsUnsortedEntries) {
  Node n = builder_.ReadNode(built_.level_pages[0][0]);
  std::swap(n.entries[0], n.entries[1]);
  builder_.WriteNode(built_.level_pages[0][0], n);
  ExpectRejected("unsorted entries");
}

TEST_F(CheckerNegativeTest, DetectsBrokenLowChain) {
  Node n = builder_.ReadNode(built_.level_pages[0][1]);
  n.low = 15;  // should be 20 (left neighbor's high)
  builder_.WriteNode(built_.level_pages[0][1], n);
  ExpectRejected("broken low chain");
}

TEST_F(CheckerNegativeTest, DetectsEntryAboveHigh) {
  Node n = builder_.ReadNode(built_.level_pages[0][0]);
  n.entries[n.count - 1].key = 25;  // above high (20)
  builder_.WriteNode(built_.level_pages[0][0], n);
  ExpectRejected("entry above high");
}

TEST_F(CheckerNegativeTest, DetectsInternalHighMismatch) {
  Node n = builder_.ReadNode(built_.level_pages[1][0]);
  n.high = 70;  // != last entry key (+inf mismatch forced differently)
  builder_.WriteNode(built_.level_pages[1][0], n);
  ExpectRejected("internal high mismatch");
}

TEST_F(CheckerNegativeTest, DetectsReachableDeletedNode) {
  Node n = builder_.ReadNode(built_.level_pages[0][1]);
  n.set_deleted(built_.level_pages[0][0]);
  builder_.WriteNode(built_.level_pages[0][1], n);
  ExpectRejected("reachable deleted node");
}

TEST_F(CheckerNegativeTest, DetectsReplayMismatch) {
  Node n = builder_.ReadNode(built_.level_pages[1][0]);
  n.entries[0].key = 21;  // separator no longer equals child high
  builder_.WriteNode(built_.level_pages[1][0], n);
  ExpectRejected("replay mismatch");
}

TEST_F(CheckerNegativeTest, DetectsSizeMismatch) {
  tree_.internal_AdjustSize(5);
  ExpectRejected("size mismatch");
}

TEST_F(CheckerNegativeTest, DetectsMissingRootBit) {
  Node n = builder_.ReadNode(built_.level_pages[1][0]);
  n.set_root(false);
  builder_.WriteNode(built_.level_pages[1][0], n);
  ExpectRejected("missing root bit");
}

TEST_F(CheckerNegativeTest, DetectsUnderfullWhenStrict) {
  ASSERT_TRUE(tree_.Delete(10).ok());  // leaf 0 drops to 1 < k=2
  Status s = TreeChecker(&tree_).CheckStructure(/*require_half_full=*/true);
  EXPECT_FALSE(s.ok());
  // ...but the relaxed check accepts it (Section 4 semantics).
  EXPECT_TRUE(TreeChecker(&tree_).CheckStructure(false).ok());
}

// --- allocation-failure injection ------------------------------------------

TEST(FaultInjectionTest, SplitFailureLeavesTreeValidAndUnlocked) {
  TreeOptions opt = K2();
  SagivTree tree(opt);
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());

  // Forbid all further allocations: the next split must fail cleanly.
  tree.internal_pager()->set_allocation_budget(0);
  int failures = 0;
  for (Key k = 101; k <= 200; ++k) {
    Status s = tree.Insert(k, k);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 0);

  // Restore the budget: everything works again and the tree is valid.
  tree.internal_pager()->set_allocation_budget(-1);
  for (Key k = 500; k <= 600; ++k) ASSERT_TRUE(tree.Insert(k, k).ok());
  Status s = TreeChecker(&tree).CheckStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(FaultInjectionTest, PartialBudgetExercisesRootSplitFailure) {
  TreeOptions opt = K2();
  SagivTree tree(opt);
  // Let a few allocations through so failures land mid-protocol (e.g.
  // after the sibling page is allocated but before the new root's page).
  for (int budget = 0; budget < 4; ++budget) {
    SagivTree fresh(opt);
    for (Key k = 1; k <= 4; ++k) ASSERT_TRUE(fresh.Insert(k, k).ok());
    fresh.internal_pager()->set_allocation_budget(budget);
    for (Key k = 5; k <= 40; ++k) (void)fresh.Insert(k, k);
    EXPECT_EQ(PageManager::LocksHeldByThisThread(), 0);
    fresh.internal_pager()->set_allocation_budget(-1);
    for (Key k = 100; k <= 140; ++k) ASSERT_TRUE(fresh.Insert(k, k).ok());
    Status s = TreeChecker(&fresh).CheckStructure();
    EXPECT_TRUE(s.ok()) << "budget " << budget << ": " << s.ToString();
  }
}

}  // namespace
}  // namespace obtree
