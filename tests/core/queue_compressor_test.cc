// Copyright 2026 The obtree Authors.
//
// Tests of the Section 5.4 queue-driven compression: deletions enqueue
// under-full leaves, a QueueCompressor drains the queue, cascades up the
// tree, collapses the root, and keeps the structure valid.

#include "obtree/core/queue_compressor.h"

#include <set>

#include <gtest/gtest.h>

#include "obtree/core/compression_queue.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

struct QueueSetup {
  TreeOptions options;
  std::unique_ptr<SagivTree> tree;
  std::unique_ptr<CompressionQueue> queue;

  explicit QueueSetup(uint32_t k) {
    options.min_entries = k;
    options.enqueue_underfull_on_delete = true;
    tree = std::make_unique<SagivTree>(options);
    queue = std::make_unique<CompressionQueue>();
    queue->RegisterWith(tree->epoch());
    tree->AttachCompressionQueue(queue.get());
  }
};

TEST(CompressionQueueTest, PushPopBasics) {
  CompressionQueue q;
  EXPECT_TRUE(q.Empty());
  CompressionTask t;
  EXPECT_FALSE(q.Pop(&t));

  CompressionTask a;
  a.node = 1;
  a.level = 0;
  a.high = 10;
  a.stamp = 5;
  q.Push(a, true);
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_TRUE(q.Contains(1));
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.node, 1u);
  EXPECT_TRUE(q.Empty());
}

TEST(CompressionQueueTest, HigherLevelsPopFirst) {
  // Footnote 17: give priority to nodes at higher levels.
  CompressionQueue q;
  CompressionTask leaf;
  leaf.node = 1;
  leaf.level = 0;
  CompressionTask parent;
  parent.node = 2;
  parent.level = 2;
  CompressionTask mid;
  mid.node = 3;
  mid.level = 1;
  q.Push(leaf, true);
  q.Push(parent, true);
  q.Push(mid, true);
  CompressionTask t;
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.node, 2u);
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.node, 3u);
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.node, 1u);
}

TEST(CompressionQueueTest, DuplicateNodeUpdatesOrKeeps) {
  CompressionQueue q;
  CompressionTask a;
  a.node = 1;
  a.high = 10;
  q.Push(a, true);
  a.high = 20;
  q.Push(a, /*update_if_present=*/true);
  EXPECT_EQ(q.Size(), 1u);
  CompressionTask t;
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.high, 20u);
  q.FinishTask(t.stamp);

  a.high = 30;
  q.Push(a, true);
  a.high = 40;
  q.Push(a, /*update_if_present=*/false);  // §5.4: must not overwrite
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.high, 30u);
}

TEST(CompressionQueueTest, RemoveDropsEntry) {
  CompressionQueue q;
  CompressionTask a;
  a.node = 7;
  q.Push(a, true);
  EXPECT_TRUE(q.Remove(7));
  EXPECT_FALSE(q.Remove(7));
  EXPECT_TRUE(q.Empty());
}

TEST(CompressionQueueTest, MinStampTracksQueuedAndInFlight) {
  CompressionQueue q;
  EXPECT_EQ(q.MinStamp(), kMaxTimestamp);
  CompressionTask a;
  a.node = 1;
  a.stamp = 10;
  CompressionTask b;
  b.node = 2;
  b.stamp = 5;
  b.level = 1;
  q.Push(a, true);
  q.Push(b, true);
  EXPECT_EQ(q.MinStamp(), 5u);
  CompressionTask t;
  ASSERT_TRUE(q.Pop(&t));  // pops b (higher level), stamp 5 now in flight
  EXPECT_EQ(t.stamp, 5u);
  EXPECT_EQ(q.MinStamp(), 5u);  // still protected while in flight
  q.FinishTask(5);
  EXPECT_EQ(q.MinStamp(), 10u);
}

TEST(QueueCompressorTest, EmptyQueueReportsEmpty) {
  QueueSetup s(2);
  QueueCompressor compressor(s.tree.get(), s.queue.get());
  EXPECT_EQ(compressor.CompressOne(), QueueCompressor::Outcome::kQueueEmpty);
  EXPECT_EQ(compressor.Drain(), 0u);
}

TEST(QueueCompressorTest, DeletionsEnqueueUnderfullLeaves) {
  QueueSetup s(3);
  for (Key k = 1; k <= 300; ++k) ASSERT_TRUE(s.tree->Insert(k, k).ok());
  EXPECT_TRUE(s.queue->Empty());
  for (Key k = 1; k <= 290; ++k) ASSERT_TRUE(s.tree->Delete(k).ok());
  EXPECT_FALSE(s.queue->Empty());
  EXPECT_GT(s.tree->stats()->Get(StatId::kQueueEnqueues), 0u);
}

TEST(QueueCompressorTest, DrainRestoresHalfFullInvariant) {
  QueueSetup s(3);
  constexpr Key kN = 2000;
  for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(s.tree->Insert(k, k * 7).ok());
  for (Key k = 1; k <= kN; ++k) {
    if (k % 8 != 0) {
      ASSERT_TRUE(s.tree->Delete(k).ok());
    }
  }
  QueueCompressor compressor(s.tree.get(), s.queue.get());
  const size_t work = compressor.Drain();
  EXPECT_GT(work, 0u);
  EXPECT_TRUE(s.queue->Empty());

  Status st = TreeChecker(s.tree.get()).CheckStructure();
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (Key k = 8; k <= kN; k += 8) {
    ASSERT_TRUE(s.tree->Search(k).ok()) << k;
    EXPECT_EQ(*s.tree->Search(k), k * 7);
  }
  // Queue-driven compression shrinks the tree substantially (it may leave
  // isolated under-full nodes whose neighbors were never enqueued, so we
  // assert a strong reduction rather than the strict invariant).
  const TreeShape shape = TreeChecker(s.tree.get()).ComputeShape();
  EXPECT_LT(shape.underfull_nodes, shape.num_nodes / 2 + 2);
}

TEST(QueueCompressorTest, EmptyingTreeCollapsesRoot) {
  QueueSetup s(2);
  constexpr Key kN = 1000;
  for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(s.tree->Insert(k, k).ok());
  EXPECT_GT(s.tree->Height(), 3u);
  QueueCompressor compressor(s.tree.get(), s.queue.get());
  for (Key k = 1; k <= kN; ++k) {
    ASSERT_TRUE(s.tree->Delete(k).ok());
    if (k % 100 == 0) compressor.Drain();
  }
  compressor.Drain();
  // Cascading merges + root collapse shrink the tree to (near) a single
  // node.
  EXPECT_LE(s.tree->Height(), 2u);
  EXPECT_EQ(s.tree->Size(), 0u);
  Status st = TreeChecker(s.tree.get()).CheckStructure();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(s.tree->stats()->Get(StatId::kRootCollapses), 0u);
}

// A parent left holding only the task's node cannot be compressed from
// below; unless the compressor also queues that parent, the child's task
// requeues forever waiting for a parent task nobody created.
TEST(QueueCompressorTest, DrainQueuesParentHoldingOnlyTheNode) {
  QueueSetup s(2);
  for (Key k = 1; k <= 400; ++k) ASSERT_TRUE(s.tree->Insert(k, k).ok());
  for (Key k = 1; k <= 400; ++k) {
    if (k % 10 != 0) {
      ASSERT_TRUE(s.tree->Delete(k).ok());
    }
  }
  QueueCompressor compressor(s.tree.get(), s.queue.get());
  compressor.Drain();
  EXPECT_TRUE(s.queue->Empty()) << s.queue->Size() << " tasks left";
  EXPECT_LE(s.tree->Height(), 4u);
  Status st = TreeChecker(s.tree.get()).CheckStructure();
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (Key k = 10; k <= 400; k += 10) {
    ASSERT_TRUE(s.tree->Search(k).ok()) << k;
  }
}

TEST(QueueCompressorTest, StaleTaskIsDropped) {
  QueueSetup s(2);
  for (Key k = 1; k <= 100; ++k) ASSERT_TRUE(s.tree->Insert(k, k).ok());
  // Fabricate a stale task: a node id that is long gone / never matched.
  CompressionTask bogus;
  bogus.node = 0;  // the original root leaf (long since an internal page)
  bogus.level = 0;
  bogus.high = 3;  // no leaf has high == 3 pointing at page 0
  bogus.stamp = s.tree->epoch()->Now();
  s.queue->Push(bogus, true);
  QueueCompressor compressor(s.tree.get(), s.queue.get());
  const auto outcome = compressor.CompressOne();
  EXPECT_TRUE(outcome == QueueCompressor::Outcome::kDropped ||
              outcome == QueueCompressor::Outcome::kNothing)
      << static_cast<int>(outcome);
  Status st = TreeChecker(s.tree.get()).CheckStructure();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(QueueCompressorTest, MixedWorkloadWithPeriodicDrains) {
  QueueSetup s(2);
  QueueCompressor compressor(s.tree.get(), s.queue.get());
  std::set<Key> reference;
  Random rng(4242);
  for (int i = 0; i < 30000; ++i) {
    const Key k = rng.UniformRange(1, 900);
    if (rng.Bernoulli(0.45)) {
      if (s.tree->Insert(k, k).ok()) reference.insert(k);
    } else {
      if (s.tree->Delete(k).ok()) reference.erase(k);
    }
    if (i % 1000 == 0) compressor.Drain();
  }
  compressor.Drain();
  EXPECT_EQ(s.tree->Size(), reference.size());
  Status st = TreeChecker(s.tree.get()).CheckStructure();
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (Key k = 1; k <= 900; ++k) {
    EXPECT_EQ(s.tree->Search(k).ok(), reference.count(k) > 0) << k;
  }
}

TEST(QueueCompressorTest, PagesReclaimedAfterDrain) {
  QueueSetup s(2);
  for (Key k = 1; k <= 1000; ++k) ASSERT_TRUE(s.tree->Insert(k, k).ok());
  const size_t live_before = s.tree->internal_pager()->live_pages();
  QueueCompressor compressor(s.tree.get(), s.queue.get());
  for (Key k = 1; k <= 1000; ++k) {
    ASSERT_TRUE(s.tree->Delete(k).ok());
    if (k % 50 == 0) compressor.Drain();
  }
  compressor.Drain();
  s.tree->internal_pager()->Reclaim();
  EXPECT_LT(s.tree->internal_pager()->live_pages(), live_before / 5);
}

}  // namespace
}  // namespace obtree
