// Copyright 2026 The obtree Authors.
//
// On-page layout and manipulation of B-link nodes (Section 2.1).
//
// A node stores, in one page:
//   * its level (0 = leaf), flags (root / deleted), entry count;
//   * its low value v0 (explicitly stored — required by the compression
//     protocol, Section 5.1) and high value v_{i+1};
//   * its link pointer p_{i+1} (right neighbor at the same level);
//   * a merge pointer, set when the node is deleted, naming the node its
//     data was merged into (the reader-recovery device of Section 5.2);
//   * a sorted array of (key, value) entries.
//
// Entry semantics differ by level:
//   * Leaf: (v, p) — p is the record handle for key v.
//   * Internal: (u, c) — c is the child page covering the key range
//     (prev_u, u]; i.e. u is the HIGH VALUE of child c. This is exactly the
//     paper's observation (Fig. 2) that level i+1 replays the sequence of
//     (high value, link) pairs of level i. The paper's layout
//     p0 v1 p1 ... vi pi with p_j covering (v_j, v_{j+1}] is isomorphic:
//     our entry j is (v_{j+1}, p_j). A consequence used throughout: an
//     internal node's high value equals its last entry's key.

#ifndef OBTREE_NODE_NODE_H_
#define OBTREE_NODE_NODE_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

#include "obtree/storage/page.h"
#include "obtree/util/common.h"

namespace obtree {

/// One (key, value/child) slot of a node.
struct Entry {
  Key key;
  uint64_t value;
};
static_assert(sizeof(Entry) == 16);

/// Node flag bits.
enum NodeFlags : uint16_t {
  kNodeFlagRoot = 1u << 0,     ///< the root bit of Section 3.3
  kNodeFlagDeleted = 1u << 1,  ///< the deletion bit of Section 5.1
};

/// POD image of a node; occupies the front of a Page.
struct Node {
  // --- header -----------------------------------------------------------
  uint16_t level;        ///< 0 for leaves
  uint16_t flags;        ///< NodeFlags
  uint32_t count;        ///< number of live entries
  Key low;               ///< v0: high value of the left neighbor, or 0
  Key high;              ///< v_{i+1}: largest key in this subtree
  PageId link;           ///< right neighbor, kInvalidPageId for rightmost
  PageId merge_target;   ///< where the data went when deleted
  // --- entries ----------------------------------------------------------
  static constexpr size_t kHeaderSize = 32;
  static constexpr size_t kMaxEntries = (kPageSize - kHeaderSize) / sizeof(Entry);

  Entry entries[kMaxEntries];

  // --- predicates ---------------------------------------------------------
  bool is_leaf() const { return level == 0; }
  bool is_root() const { return flags & kNodeFlagRoot; }
  bool is_deleted() const { return flags & kNodeFlagDeleted; }

  void set_root(bool on) {
    flags = on ? (flags | kNodeFlagRoot)
               : static_cast<uint16_t>(flags & ~kNodeFlagRoot);
  }
  void set_deleted(PageId target) {
    flags |= kNodeFlagDeleted;
    merge_target = target;
  }

  /// Initialize an empty node.
  void Init(uint16_t lvl, Key low_value, Key high_value, PageId link_ptr) {
    level = lvl;
    flags = 0;
    count = 0;
    low = low_value;
    high = high_value;
    link = link_ptr;
    merge_target = kInvalidPageId;
  }

  // --- searching ----------------------------------------------------------

  /// Index of the first entry with key >= k; count if none. Prefetches
  /// the live entries first (PrefetchEntries), then searches them with
  /// conditional moves: a cold node costs about one memory round trip
  /// rather than one miss per probe, and a hot one mispredicts no branch.
  uint32_t LowerBound(Key k) const;

  /// Leaf only: the value stored for key k, if present.
  std::optional<Value> FindLeafValue(Key k) const;

  /// Internal only: the child covering key k. Requires k <= high (caller
  /// must have handled the link case) and count > 0.
  PageId ChildFor(Key k) const;

  // --- leaf updates -------------------------------------------------------

  /// Insert (k, v) preserving order. Precondition: k absent, count <
  /// kMaxEntries (the tree enforces 2k-capacity before calling).
  void InsertLeafEntry(Key k, Value v);

  /// Remove key k. Returns false if absent.
  bool RemoveLeafEntry(Key k);

  // --- in-place updates (under a PageManager::WriteGuard) -----------------
  //
  // Store-side counterparts of NodeView: they mutate the LIVE page image
  // while concurrent optimistic readers probe it, so every store goes
  // through a relaxed word-sized atomic (PageStoreWord). The seqlock —
  // held odd by the caller's WriteGuard for the duration — is what makes
  // the relaxed stores safe: any reader racing them observes a moved
  // version and discards what it saw. The caller must also hold the paper
  // lock (sole-mutator invariant), which is why the PLAIN reads these
  // methods do (binary search, shift sources) are race-free.
  //
  // Each returns the number of bytes stored — the write-path bytes-moved
  // stats — with 0 meaning "no change" (separator already present). A
  // split is in place too (SplitRightWith / SplitLeftInPlace below): it
  // stores the new node's live prefix and the words of A that change,
  // never a whole page.

  /// In-place InsertLeafEntry: shifts the tail up one slot back-to-front
  /// and publishes the new count last. Same preconditions.
  size_t InsertLeafEntryInPlace(Key k, Value v);

  /// In-place append of (k, v) past the current last entry: no tail shift
  /// at all — two word stores into the slot at index count, then the new
  /// count published last (a racing optimistic reader either sees the old
  /// count and ignores the slot, or a moved seqlock version and discards
  /// everything). The rightmost-insert fast path's leaf primitive.
  /// Preconditions: leaf, count < kMaxEntries, and k greater than every
  /// stored key (k > entries[count-1].key, or any k when empty).
  size_t AppendLeafEntryInPlace(Key k, Value v);

  /// In-place RemoveLeafEntry, by index: the caller already located the
  /// entry (LowerBound under the same lock), so the removal does not
  /// repeat the search. Shifts the tail down one slot front-to-back.
  /// Precondition: i < count.
  size_t RemoveLeafEntryAtInPlace(uint32_t i);

  /// In-place value overwrite of an existing leaf entry (the Upsert
  /// replace case): a single word store, no shifting, count unchanged.
  /// Precondition: i < count.
  size_t SetLeafValueAtInPlace(uint32_t i, Value v);

  /// In-place InsertChildSplit. Same preconditions; returns 0 (no change)
  /// only if sep is already present.
  size_t InsertChildSplitInPlace(Key sep, PageId new_child);

  /// In-place header update: publish a new entry count (relaxed 32-bit
  /// atomic store). The count is stored LAST by the insert/remove
  /// primitives so a torn image never claims entries that were not yet
  /// shifted into place — NodeView clamps, the seqlock discards.
  void StoreCountInPlace(uint32_t c) { PageStoreWord32(&count, c); }

  /// In-place root-bit clear (a root split hands the bit to the new
  /// root). Returns the bytes stored.
  size_t ClearRootInPlace() {
    __atomic_store_n(&flags, static_cast<uint16_t>(flags & ~kNodeFlagRoot),
                     __ATOMIC_RELAXED);
    return sizeof(flags);
  }

  // --- splitting with an insert -----------------------------------------
  //
  // A full node A that must take one more entry (k, v) splits in two
  // halves, so the caller can put the new right node B before A changes
  // (Fig. 3). Both halves see the same merged sequence M: A's entries
  // with (k, v) added as InsertLeafEntry (leaf) or InsertChildSplit(k, v)
  // (internal) would add it. `keep` entries of M stay in A (0 = the
  // midpoint SplitInto uses), the rest go to B. The result equals
  // inserting and then calling SplitInto(right, right_page, keep), except
  // that nothing past the live entries is written. Preconditions: those
  // of the insert, minus its room check, and keep in [0, count].

  /// Build B = M[keep, count + 1) into *right: low is M[keep - 1]'s key,
  /// high and link are A's. Reads A only (plain reads: the caller holds
  /// A's paper lock). Returns NodeBytes(right->count), the prefix of
  /// *right that holds the node.
  size_t SplitRightWith(Key k, uint64_t v, uint32_t keep, Node* right) const;

  /// Rewrite A in place as M[0, keep), under a PageManager::WriteGuard:
  /// entries only where k lands on A's side, then high (M[keep - 1]'s
  /// key), link (right_page) and count. A tail split (k on B's side)
  /// stores only those three header words. Returns the bytes stored.
  size_t SplitLeftInPlace(Key k, uint64_t v, uint32_t keep,
                          PageId right_page);

  // --- internal updates ----------------------------------------------------

  /// Record a child split in this (parent) node: some child split at
  /// separator sep, handing keys > sep to `new_child`. Implements the
  /// paper's "insert the pair (v', p') immediately to the left of the
  /// smallest key u such that v' < u": in entry form, the successor entry
  /// (u, c) keeps key u but its child becomes new_child, and a new entry
  /// (sep, c) takes over the left part of c's old range. Under overtaking,
  /// c is not necessarily the node that split — it may be a node further
  /// left whose own split has not been posted yet; searches then recover
  /// through links exactly as Theorem 1's validity assertion describes.
  /// Requires low < sep <= high and count < kMaxEntries. Returns false
  /// (no change) only if sep is already present (protocol violation,
  /// checked defensively).
  bool InsertChildSplit(Key sep, PageId new_child);

  /// Remove the entry (old_sep -> left_child) and repoint the successor
  /// entry (right_high -> right_child) to left_child. Records a merge of
  /// right_child into left_child. Returns false if the layout does not
  /// match (caller re-validates).
  bool ApplyChildMerge(Key old_sep, PageId left_child, PageId right_child);

  /// Replace the separator of `child` (currently old_sep) with new_sep,
  /// after a redistribution changed the child's high value. Returns false
  /// if (old_sep -> child) is not present.
  bool ApplyChildSeparatorChange(Key old_sep, Key new_sep, PageId child);

  /// Index of the entry whose child pointer equals `child`; -1 if absent.
  int FindChildIndex(PageId child) const;

  // --- restructuring -------------------------------------------------------

  /// Split this (full) node: keep the first `keep` entries here, move the
  /// rest to *right (which must be a fresh node at page `right_page`).
  /// The copy split of the baselines, which split a private page image;
  /// SagivTree splits in place (SplitRightWith / SplitLeftInPlace).
  /// Afterwards this->high is the largest remaining key (leaf) / last
  /// upper bound (internal), and this->link points at right_page. Works
  /// for leaves and internal nodes alike. keep = 0 (the default) splits at
  /// the midpoint, keeping the ceiling half on the left; a caller-chosen
  /// keep in [1, count-1] supports the tail-biased splits of the
  /// append-optimized path (keep = count-1 leaves the old rightmost node
  /// ~full and seeds the new rightmost with a single entry).
  void SplitInto(Node* right, PageId right_page, uint32_t keep = 0);

  /// Absorb the right sibling `right` (all entries appended; high and link
  /// taken from right). Caller marks `right` deleted.
  void MergeFromRight(const Node& right);

  /// Move entries between this node and its right sibling so both end with
  /// >= min_entries (caller guarantees combined count allows it). Updates
  /// this->high and right->low to the new separator. Returns the new
  /// separator (new high value of this node).
  Key RedistributeWithRight(Node* right, uint32_t min_entries);

  /// Debug rendering: "[L0 n=5 low=.. high=.. link=..]".
  std::string DebugString() const;
};

static_assert(sizeof(Node) <= kPageSize, "Node must fit a page");
static_assert(Node::kMaxEntries == 254);

/// Read-only view over a node image that may be concurrently rewritten —
/// the optimistic in-place read path (PageManager::OptimisticRead). Every
/// access goes through relaxed word-sized atomic loads so a racing Put
/// stays defined behavior, and every value read may be torn garbage until
/// the caller validates the page version. The search entry points are
/// therefore total and bounded on ANY bit pattern: count is clamped, the
/// binary search cannot run away, no method chases a pointer, and
/// inconsistent images surface as kInvalidPageId / nullopt instead of
/// asserts. Nothing read through a NodeView may be trusted before
/// ReadGuard::Validate() returns true.
class NodeView {
 public:
  explicit NodeView(const Node* node) : node_(node) {}

  uint16_t level() const { return Load16(&node_->level); }
  uint16_t flags() const { return Load16(&node_->flags); }
  bool is_leaf() const { return level() == 0; }
  bool is_root() const { return flags() & kNodeFlagRoot; }
  bool is_deleted() const { return flags() & kNodeFlagDeleted; }

  /// Entry count clamped to kMaxEntries (a torn count must not widen any
  /// loop past the entry array).
  uint32_t count() const {
    const uint32_t c = Load32(&node_->count);
    return c <= Node::kMaxEntries ? c
                                  : static_cast<uint32_t>(Node::kMaxEntries);
  }

  Key low() const { return Load64(&node_->low); }
  Key high() const { return Load64(&node_->high); }
  PageId link() const { return Load32(&node_->link); }
  PageId merge_target() const { return Load32(&node_->merge_target); }

  Key entry_key(uint32_t i) const { return Load64(&node_->entries[i].key); }
  uint64_t entry_value(uint32_t i) const {
    return Load64(&node_->entries[i].value);
  }

  /// Index of the first entry with key >= k; count() if none. The same
  /// prefetch-then-search as Node::LowerBound, over the clamped count(),
  /// so on a torn image neither the prefetch nor the probes (at most
  /// 1 + log2(kMaxEntries), rounded up) read past a page from the node's
  /// start, and so none leaves the chunk's readable span (PageManager
  /// maps a page past every frame's start).
  uint32_t LowerBound(Key k) const;

  /// The value stored for key k in a leaf image, if present.
  std::optional<Value> FindLeafValue(Key k) const;

  /// Copy entries [from, to) into out[0, to - from), stopping before the
  /// first key > hi; returns how many were copied. The caller bounds
  /// from <= to <= count() (so <= kMaxEntries) and sizes out for to - from.
  /// Like every read here, the copy is garbage until the guard validates.
  uint32_t CopyEntries(uint32_t from, uint32_t to, Key hi, Entry* out) const;

  /// The child covering key k in an internal image, or kInvalidPageId
  /// when the image is inconsistent (empty node or k past the last
  /// entry). Callers must treat kInvalidPageId as a validation failure —
  /// never follow it. (The full next(A, v) evaluation over a view — which
  /// must also honor the deletion bit and merge pointer — lives in
  /// SagivTree's RouteForKey.)
  PageId ChildFor(Key k) const;

 private:
  // Relaxed, except under TSan (kSeqReadOrder).
  static uint16_t Load16(const uint16_t* p) {
    return __atomic_load_n(p, kSeqReadOrder);
  }
  static uint32_t Load32(const uint32_t* p) {
    return __atomic_load_n(p, kSeqReadOrder);
  }
  static uint64_t Load64(const uint64_t* p) {
    return __atomic_load_n(p, kSeqReadOrder);
  }

  const Node* node_;
};

/// Prefetch every cache line holding entries[0, count), so the binary
/// search that follows overlaps its cache misses instead of taking them
/// one probe at a time (a node of 82 entries spans ~21 lines; its search
/// probes ~7 of them, each a dependent miss when the node is cold). The
/// caller bounds count by kMaxEntries. A prefetch never faults and
/// changes no node-access count.
inline void PrefetchEntries(const Entry* entries, uint32_t count) {
  constexpr uintptr_t kLine = 64;
  const uintptr_t end = reinterpret_cast<uintptr_t>(entries + count);
  for (uintptr_t line = reinterpret_cast<uintptr_t>(entries) & ~(kLine - 1);
       line < end; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

/// Bytes of a page image that are meaningful for a node with `count`
/// entries (header + entries). Used to bound copy sizes.
constexpr size_t NodeBytes(uint32_t count) {
  return Node::kHeaderSize + static_cast<size_t>(count) * sizeof(Entry);
}

}  // namespace obtree

#endif  // OBTREE_NODE_NODE_H_
