// Copyright 2026 The obtree Authors.
//
// Unit tests of the on-page node layout and the restructuring primitives:
// leaf insert/remove, child-split posting (including the overtaking case),
// splits, merges, and redistributions; and NodeView's search, which must
// agree with Node's on consistent images and stay in the page on torn ones.

#include "obtree/node/node.h"

#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "obtree/util/random.h"

namespace obtree {
namespace {

Node MakeLeaf(Key low, Key high, PageId link) {
  Node n;
  n.Init(0, low, high, link);
  return n;
}

Node MakeInternal(Key low, std::initializer_list<Entry> entries,
                  PageId link = kInvalidPageId) {
  Node n;
  n.Init(1, low, 0, link);
  for (const Entry& e : entries) {
    n.entries[n.count++] = e;
  }
  n.high = n.entries[n.count - 1].key;  // internal invariant
  return n;
}

TEST(NodeLayoutTest, SizesAndCapacity) {
  EXPECT_LE(sizeof(Node), kPageSize);
  EXPECT_EQ(Node::kMaxEntries, 254u);
  EXPECT_EQ(offsetof(Node, entries), Node::kHeaderSize);
}

TEST(NodeLayoutTest, FlagsRoundTrip) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  EXPECT_TRUE(n.is_leaf());
  EXPECT_FALSE(n.is_root());
  EXPECT_FALSE(n.is_deleted());
  n.set_root(true);
  EXPECT_TRUE(n.is_root());
  n.set_root(false);
  EXPECT_FALSE(n.is_root());
  n.set_deleted(42);
  EXPECT_TRUE(n.is_deleted());
  EXPECT_EQ(n.merge_target, 42u);
}

TEST(NodeSearchTest, LowerBound) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (Key k : {10, 20, 30, 40}) n.InsertLeafEntry(k, k);
  EXPECT_EQ(n.LowerBound(5), 0u);
  EXPECT_EQ(n.LowerBound(10), 0u);
  EXPECT_EQ(n.LowerBound(11), 1u);
  EXPECT_EQ(n.LowerBound(40), 3u);
  EXPECT_EQ(n.LowerBound(41), 4u);
}

TEST(NodeSearchTest, FindLeafValue) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  n.InsertLeafEntry(10, 100);
  n.InsertLeafEntry(20, 200);
  EXPECT_EQ(n.FindLeafValue(10), 100u);
  EXPECT_EQ(n.FindLeafValue(20), 200u);
  EXPECT_FALSE(n.FindLeafValue(15).has_value());
  EXPECT_FALSE(n.FindLeafValue(30).has_value());
}

TEST(NodeSearchTest, ChildForPicksCoveringRange) {
  // Children: c1 covers (0,10], c2 covers (10,20], c3 covers (20,+inf].
  Node n = MakeInternal(0, {{10, 1}, {20, 2}, {kPlusInfinity, 3}});
  EXPECT_EQ(n.ChildFor(1), 1u);
  EXPECT_EQ(n.ChildFor(10), 1u);
  EXPECT_EQ(n.ChildFor(11), 2u);
  EXPECT_EQ(n.ChildFor(20), 2u);
  EXPECT_EQ(n.ChildFor(21), 3u);
  EXPECT_EQ(n.ChildFor(kMaxUserKey), 3u);
}

TEST(NodeLeafTest, InsertKeepsOrder) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (Key k : {30, 10, 20, 40, 5}) n.InsertLeafEntry(k, k * 2);
  ASSERT_EQ(n.count, 5u);
  Key prev = 0;
  for (uint32_t i = 0; i < n.count; ++i) {
    EXPECT_GT(n.entries[i].key, prev);
    EXPECT_EQ(n.entries[i].value, n.entries[i].key * 2);
    prev = n.entries[i].key;
  }
}

TEST(NodeLeafTest, RemovePresentAndAbsent) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (Key k : {10, 20, 30}) n.InsertLeafEntry(k, k);
  EXPECT_TRUE(n.RemoveLeafEntry(20));
  EXPECT_EQ(n.count, 2u);
  EXPECT_FALSE(n.RemoveLeafEntry(20));
  EXPECT_FALSE(n.RemoveLeafEntry(99));
  EXPECT_EQ(n.entries[0].key, 10u);
  EXPECT_EQ(n.entries[1].key, 30u);
}

TEST(NodeInternalTest, InsertChildSplitNormalCase) {
  // Child 1 (covering (0,10]) split at 5; keys > 5 went to page 7.
  Node n = MakeInternal(0, {{10, 1}, {20, 2}});
  ASSERT_TRUE(n.InsertChildSplit(5, 7));
  ASSERT_EQ(n.count, 3u);
  EXPECT_EQ(n.entries[0].key, 5u);
  EXPECT_EQ(n.entries[0].value, 1u);  // left part keeps the old child
  EXPECT_EQ(n.entries[1].key, 10u);
  EXPECT_EQ(n.entries[1].value, 7u);  // right part is the new node
  EXPECT_EQ(n.entries[2].key, 20u);
}

TEST(NodeInternalTest, InsertChildSplitWithOvertaking) {
  // Section 3.1: two splits below the same parent may post in any order.
  // Child A (page 1) covering (0,20] split at 10 -> B (page 7); B then
  // split at 15 -> C (page 8). B's post arrives FIRST.
  Node n = MakeInternal(0, {{20, 1}, {30, 2}});
  ASSERT_TRUE(n.InsertChildSplit(15, 8));  // B's split, overtaking
  // Now (15 -> 1), (20 -> 8): the 15-entry temporarily points left of the
  // true owner; links recover searches (Theorem 1's validity assertion).
  EXPECT_EQ(n.entries[0].key, 15u);
  EXPECT_EQ(n.entries[0].value, 1u);
  EXPECT_EQ(n.entries[1].value, 8u);
  ASSERT_TRUE(n.InsertChildSplit(10, 7));  // A's split arrives second
  ASSERT_EQ(n.count, 4u);
  // Final layout is exactly right: (10->1),(15->7),(20->8),(30->2).
  EXPECT_EQ(n.entries[0].key, 10u);
  EXPECT_EQ(n.entries[0].value, 1u);
  EXPECT_EQ(n.entries[1].key, 15u);
  EXPECT_EQ(n.entries[1].value, 7u);
  EXPECT_EQ(n.entries[2].key, 20u);
  EXPECT_EQ(n.entries[2].value, 8u);
  EXPECT_EQ(n.entries[3].key, 30u);
  EXPECT_EQ(n.entries[3].value, 2u);
}

TEST(NodeInternalTest, InsertChildSplitRejectsDuplicateSeparator) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}});
  EXPECT_FALSE(n.InsertChildSplit(10, 7));
  EXPECT_EQ(n.count, 2u);
}

TEST(NodeInternalTest, FindChildIndex) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}, {30, 3}});
  EXPECT_EQ(n.FindChildIndex(2), 1);
  EXPECT_EQ(n.FindChildIndex(3), 2);
  EXPECT_EQ(n.FindChildIndex(9), -1);
}

TEST(NodeInternalTest, ApplyChildMerge) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}, {30, 3}});
  // Child 2 merged into child 1: entry (10 -> 1) disappears, (20 -> 2)
  // becomes (20 -> 1).
  ASSERT_TRUE(n.ApplyChildMerge(10, 1, 2));
  ASSERT_EQ(n.count, 2u);
  EXPECT_EQ(n.entries[0].key, 20u);
  EXPECT_EQ(n.entries[0].value, 1u);
  EXPECT_EQ(n.entries[1].key, 30u);
  EXPECT_EQ(n.entries[1].value, 3u);
}

TEST(NodeInternalTest, ApplyChildMergeValidatesLayout) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}});
  EXPECT_FALSE(n.ApplyChildMerge(10, 9, 2));   // wrong left child
  EXPECT_FALSE(n.ApplyChildMerge(10, 1, 9));   // wrong right child
  EXPECT_FALSE(n.ApplyChildMerge(11, 1, 2));   // wrong separator
  EXPECT_FALSE(n.ApplyChildMerge(20, 2, 1));   // no successor entry
  EXPECT_EQ(n.count, 2u);
}

TEST(NodeInternalTest, ApplyChildSeparatorChange) {
  Node n = MakeInternal(0, {{10, 1}, {20, 2}});
  ASSERT_TRUE(n.ApplyChildSeparatorChange(10, 14, 1));
  EXPECT_EQ(n.entries[0].key, 14u);
  EXPECT_FALSE(n.ApplyChildSeparatorChange(14, 25, 1));  // would reorder
  EXPECT_FALSE(n.ApplyChildSeparatorChange(99, 5, 1));   // absent
  EXPECT_FALSE(n.ApplyChildSeparatorChange(20, 15, 9));  // wrong child
}

TEST(NodeSplitTest, LeafSplitBalancesAndChains) {
  Node a = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  for (Key k = 1; k <= 9; ++k) a.InsertLeafEntry(k * 10, k);
  Node b;
  a.SplitInto(&b, /*right_page=*/55);
  EXPECT_EQ(a.count, 5u);             // left keeps the ceiling half
  EXPECT_EQ(b.count, 4u);
  EXPECT_EQ(a.high, 50u);             // largest remaining key
  EXPECT_EQ(a.link, 55u);             // A links to B
  EXPECT_EQ(b.low, 50u);              // B.low == A.high
  EXPECT_EQ(b.high, kPlusInfinity);   // B inherits A's old high
  EXPECT_EQ(b.link, kInvalidPageId);  // and A's old link
  EXPECT_EQ(b.entries[0].key, 60u);
  EXPECT_EQ(b.level, a.level);
}

TEST(NodeSplitTest, InternalSplitKeepsHighInvariant) {
  Node a = MakeInternal(0, {{10, 1}, {20, 2}, {30, 3}, {kPlusInfinity, 4}});
  Node b;
  a.SplitInto(&b, 77);
  EXPECT_EQ(a.high, a.entries[a.count - 1].key);
  EXPECT_EQ(b.high, b.entries[b.count - 1].key);
  EXPECT_EQ(b.high, kPlusInfinity);
  EXPECT_EQ(a.count + b.count, 4u);
}

// The in-place split (SplitRightWith, then SplitLeftInPlace) against the
// copy split it replaces: insert, then SplitInto, on a copy. Every
// insertion position, for the midpoint, a one-entry left half and the
// tail keep, for leaves and internal nodes of several sizes. A's header
// and live entries and B's whole live image must match exactly; A's
// entries past its new count are dead and not compared.
TEST(NodeSplitTest, InPlaceSplitMatchesCopySplit) {
  constexpr PageId kRight = 91;
  for (const bool leaf : {true, false}) {
    for (const uint32_t n : {2u, 3u, 8u, 9u, 60u, 253u}) {
      Node proto;
      proto.Init(leaf ? 0 : 1, /*low=*/3, /*high=*/10 * n, /*link=*/17);
      for (uint32_t i = 0; i < n; ++i) {
        proto.entries[i] = Entry{10 * (i + 1), 1000 + i};
      }
      proto.count = n;
      // A leaf takes a key at every position in [0, n]; an internal
      // node's separator lies below its high, so at most position n - 1.
      const uint32_t last_pos = leaf ? n : n - 1;
      for (uint32_t pos = 0; pos <= last_pos; ++pos) {
        for (const uint32_t keep : {0u, 1u, n}) {
          SCOPED_TRACE(testing::Message() << (leaf ? "leaf" : "internal")
                                          << " n=" << n << " pos=" << pos
                                          << " keep=" << keep);
          const Key k = 10 * pos + 5;
          const uint64_t v = 7000 + pos;

          Node ref_a = proto;
          Node ref_b;
          if (leaf) {
            ref_a.InsertLeafEntry(k, v);
          } else {
            ASSERT_TRUE(ref_a.InsertChildSplit(k, static_cast<PageId>(v)));
          }
          ref_a.SplitInto(&ref_b, kRight, keep);

          Node a = proto;
          Node b;
          const size_t b_bytes = a.SplitRightWith(k, v, keep, &b);
          const size_t a_bytes = a.SplitLeftInPlace(k, v, keep, kRight);

          EXPECT_EQ(b_bytes, NodeBytes(ref_b.count));
          EXPECT_EQ(std::memcmp(&b, &ref_b, NodeBytes(ref_b.count)), 0);
          EXPECT_EQ(std::memcmp(&a, &ref_a, NodeBytes(ref_a.count)), 0);
          // A stores its three changed header words, plus entries only
          // when the new key stays on its side.
          const bool lands_left = pos < ref_a.count;
          EXPECT_EQ(a_bytes > 16, lands_left);
        }
      }
    }
  }
}

TEST(NodeMergeTest, MergeFromRightAppends) {
  Node a = MakeLeaf(0, 30, 2);
  a.InsertLeafEntry(10, 1);
  Node b = MakeLeaf(30, kPlusInfinity, kInvalidPageId);
  b.InsertLeafEntry(40, 4);
  b.InsertLeafEntry(50, 5);
  a.MergeFromRight(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.high, kPlusInfinity);
  EXPECT_EQ(a.link, kInvalidPageId);
  EXPECT_EQ(a.low, 0u);  // unchanged
  EXPECT_EQ(a.entries[2].key, 50u);
}

TEST(NodeRedistributeTest, RightToLeft) {
  Node a = MakeLeaf(0, 15, 2);
  a.InsertLeafEntry(10, 1);
  Node b = MakeLeaf(15, kPlusInfinity, kInvalidPageId);
  for (Key k : {20, 30, 40, 50, 60}) b.InsertLeafEntry(k, k);
  const Key sep = a.RedistributeWithRight(&b, 3);
  EXPECT_GE(a.count, 3u);
  EXPECT_GE(b.count, 3u);
  EXPECT_EQ(a.count + b.count, 6u);
  EXPECT_EQ(sep, a.entries[a.count - 1].key);
  EXPECT_EQ(a.high, sep);
  EXPECT_EQ(b.low, sep);
  EXPECT_LT(a.entries[a.count - 1].key, b.entries[0].key);
}

TEST(NodeRedistributeTest, LeftToRight) {
  Node a = MakeLeaf(0, 65, 2);
  for (Key k : {10, 20, 30, 40, 50, 60}) a.InsertLeafEntry(k, k);
  Node b = MakeLeaf(65, kPlusInfinity, kInvalidPageId);
  b.InsertLeafEntry(70, 7);
  const Key sep = a.RedistributeWithRight(&b, 3);
  EXPECT_GE(a.count, 3u);
  EXPECT_GE(b.count, 3u);
  EXPECT_EQ(sep, a.high);
  EXPECT_EQ(b.low, sep);
  // b's old entries stay at the tail, in order.
  EXPECT_EQ(b.entries[b.count - 1].key, 70u);
  Key prev = 0;
  for (uint32_t i = 0; i < b.count; ++i) {
    EXPECT_GT(b.entries[i].key, prev);
    prev = b.entries[i].key;
  }
}

TEST(NodeRedistributeTest, InternalEntriesCarryChildren) {
  Node a = MakeInternal(0, {{10, 1}});
  Node b = MakeInternal(10, {{20, 2}, {30, 3}, {40, 4}, {50, 5}});
  const Key sep = a.RedistributeWithRight(&b, 2);
  EXPECT_GE(a.count, 2u);
  EXPECT_GE(b.count, 2u);
  EXPECT_EQ(a.high, sep);
  EXPECT_EQ(a.entries[a.count - 1].key, sep);
  // Every (key, child) pair survived intact somewhere.
  std::map<Key, uint64_t> all;
  for (uint32_t i = 0; i < a.count; ++i) {
    all[a.entries[i].key] = a.entries[i].value;
  }
  for (uint32_t i = 0; i < b.count; ++i) {
    all[b.entries[i].key] = b.entries[i].value;
  }
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all[10], 1u);
  EXPECT_EQ(all[50], 5u);
}

// --- NodeView: the optimistic read path's search ---------------------------
//
// Each node lives in its own heap allocation of exactly one page, so a
// search (or prefetch of a page it should not touch) that strays past
// the entry array is an out-of-bounds read under ASan.

// A leaf (level 0) or internal (level 1) node whose entry i is
// (10 * i + 10, 1000 + i). An internal node's high is its last key.
std::unique_ptr<Node> MakeSearchNode(uint16_t level, uint32_t count) {
  auto n = std::make_unique<Node>();
  n->Init(level, 0, kPlusInfinity, kInvalidPageId);
  for (uint32_t i = 0; i < count; ++i) {
    n->entries[i] = Entry{static_cast<Key>(i) * 10 + 10, 1000u + i};
  }
  n->count = count;
  if (level > 0 && count > 0) n->high = n->entries[count - 1].key;
  return n;
}

TEST(NodeViewTest, LeafSearchAgreesWithNode) {
  for (uint32_t count : {0u, 1u, 120u, 254u}) {
    auto n = MakeSearchNode(0, count);
    const NodeView view(n.get());
    ASSERT_EQ(view.count(), count);
    for (Key k = 0; k <= Key{count} * 10 + 20; ++k) {
      ASSERT_EQ(view.LowerBound(k), n->LowerBound(k)) << count << " " << k;
      ASSERT_EQ(view.FindLeafValue(k), n->FindLeafValue(k))
          << count << " " << k;
    }
  }
}

TEST(NodeViewTest, ChildForAgreesWithNode) {
  for (uint32_t count : {1u, 120u, 254u}) {
    auto n = MakeSearchNode(1, count);
    const NodeView view(n.get());
    for (Key k = 0; k <= n->high; ++k) {
      ASSERT_EQ(view.LowerBound(k), n->LowerBound(k)) << count << " " << k;
      ASSERT_EQ(view.ChildFor(k), n->ChildFor(k)) << count << " " << k;
    }
    // Past the last separator the image is inconsistent for k: the view
    // reports it rather than reading past the live entries.
    EXPECT_EQ(view.ChildFor(n->high + 1), kInvalidPageId);
  }
}

TEST(NodeViewTest, ChildForOnEmptyInternalImageIsInvalid) {
  auto n = MakeSearchNode(1, 0);
  const NodeView view(n.get());
  EXPECT_EQ(view.LowerBound(5), 0u);
  EXPECT_EQ(view.ChildFor(5), kInvalidPageId);
}

// CopyEntries copies [from, to) in order and stops before the first key
// past hi. Entry i's key is 10 * i + 10.
TEST(NodeViewTest, CopyEntriesCutsAtHi) {
  auto n = MakeSearchNode(0, 120);
  const NodeView view(n.get());
  Entry out[Node::kMaxEntries];
  // The whole range, hi beyond every key.
  ASSERT_EQ(view.CopyEntries(0, 32, kMaxUserKey, out), 32u);
  for (uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(out[i].key, n->entries[i].key);
    EXPECT_EQ(out[i].value, n->entries[i].value);
  }
  // From the middle: entries 40..71.
  ASSERT_EQ(view.CopyEntries(40, 72, kMaxUserKey, out), 32u);
  EXPECT_EQ(out[0].key, 410u);
  EXPECT_EQ(out[31].value, 1071u);
  // hi on a key keeps it; hi just below a key drops it and everything after.
  EXPECT_EQ(view.CopyEntries(40, 72, 500, out), 10u);  // keys 410..500
  EXPECT_EQ(out[9].key, 500u);
  EXPECT_EQ(view.CopyEntries(40, 72, 499, out), 9u);
  // hi below the first key copies nothing.
  EXPECT_EQ(view.CopyEntries(40, 72, 409, out), 0u);
  // Empty range.
  EXPECT_EQ(view.CopyEntries(72, 72, kMaxUserKey, out), 0u);
  EXPECT_EQ(view.CopyEntries(120, 120, kMaxUserKey, out), 0u);
}

TEST(NodeViewTest, CopyEntriesFullNode) {
  auto n = MakeSearchNode(0, Node::kMaxEntries);
  const NodeView view(n.get());
  ASSERT_EQ(view.count(), Node::kMaxEntries);
  Entry out[Node::kMaxEntries];
  ASSERT_EQ(view.CopyEntries(0, Node::kMaxEntries, kMaxUserKey, out),
            Node::kMaxEntries);
  for (uint32_t i = 0; i < Node::kMaxEntries; ++i) {
    ASSERT_EQ(out[i].key, n->entries[i].key) << i;
    ASSERT_EQ(out[i].value, n->entries[i].value) << i;
  }
  // The last entry alone, and a cut just before it.
  const Key last = n->entries[Node::kMaxEntries - 1].key;
  EXPECT_EQ(view.CopyEntries(Node::kMaxEntries - 1, Node::kMaxEntries, last,
                             out),
            1u);
  EXPECT_EQ(out[0].key, last);
  EXPECT_EQ(view.CopyEntries(0, Node::kMaxEntries, last - 1, out),
            Node::kMaxEntries - 1);
}

// A torn count clamps to kMaxEntries, and every search stays inside the
// page whatever the key.
TEST(NodeViewTest, TornCountClampsToThePage) {
  for (uint16_t level : {uint16_t{0}, uint16_t{1}}) {
    auto n = MakeSearchNode(level, Node::kMaxEntries);
    n->count = 0xFFFFFFFFu;
    const NodeView view(n.get());
    EXPECT_EQ(view.count(), Node::kMaxEntries);
    const Key last = n->entries[Node::kMaxEntries - 1].key;
    EXPECT_EQ(view.LowerBound(last), Node::kMaxEntries - 1);
    EXPECT_EQ(view.LowerBound(last + 1), Node::kMaxEntries);
    EXPECT_EQ(view.LowerBound(kPlusInfinity), Node::kMaxEntries);
    if (level == 0) {
      EXPECT_EQ(view.FindLeafValue(last).value_or(0),
                1000u + Node::kMaxEntries - 1);
      EXPECT_FALSE(view.FindLeafValue(last + 1).has_value());
    } else {
      EXPECT_EQ(view.ChildFor(last), 1000u + Node::kMaxEntries - 1);
      EXPECT_EQ(view.ChildFor(last + 1), kInvalidPageId);
    }
  }
}

// Garbage images (unsorted keys, any count) give bounded answers.
TEST(NodeViewTest, GarbageImagesStayInBounds) {
  Random rng(19);
  auto n = std::make_unique<Node>();
  auto* words = reinterpret_cast<uint64_t*>(n.get());
  for (int round = 0; round < 200; ++round) {
    for (size_t i = 0; i < sizeof(Node) / sizeof(uint64_t); ++i) {
      words[i] = rng.Next();
    }
    if (round % 2 == 0) n->count = static_cast<uint32_t>(rng.Uniform(300));
    const NodeView view(n.get());
    ASSERT_LE(view.count(), Node::kMaxEntries);
    const Key k = rng.Next();
    ASSERT_LE(view.LowerBound(k), view.count());
    (void)view.FindLeafValue(k);
    (void)view.ChildFor(k);
  }
}

TEST(NodeDebugTest, DebugStringMentionsState) {
  Node n = MakeLeaf(0, kPlusInfinity, kInvalidPageId);
  n.set_root(true);
  const std::string s = n.DebugString();
  EXPECT_NE(s.find("root"), std::string::npos);
  EXPECT_NE(s.find("leaf"), std::string::npos);
}

}  // namespace
}  // namespace obtree
