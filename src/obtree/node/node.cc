// Copyright 2026 The obtree Authors.

#include "obtree/node/node.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace obtree {

uint32_t Node::LowerBound(Key k) const {
  // Branchless binary search over the sorted entry array, its lines
  // already in flight: the answer lies in [base, base + n], and each step
  // halves n with a conditional move instead of a mispredicted branch.
  uint32_t n = count;
  PrefetchEntries(entries, n);
  if (n == 0) return 0;
  const Entry* base = entries;
  while (n > 1) {
    const uint32_t half = n / 2;
    base = base[half].key < k ? base + half : base;
    n -= half;
  }
  return static_cast<uint32_t>(base - entries) + (base->key < k);
}

std::optional<Value> Node::FindLeafValue(Key k) const {
  assert(is_leaf());
  const uint32_t i = LowerBound(k);
  if (i < count && entries[i].key == k) return entries[i].value;
  return std::nullopt;
}

PageId Node::ChildFor(Key k) const {
  assert(!is_leaf());
  assert(count > 0);
  const uint32_t i = LowerBound(k);
  assert(i < count);  // guaranteed by k <= high == entries[count-1].key
  return static_cast<PageId>(entries[i].value);
}

void Node::InsertLeafEntry(Key k, Value v) {
  assert(is_leaf());
  assert(count < kMaxEntries);
  const uint32_t i = LowerBound(k);
  assert(i == count || entries[i].key != k);
  std::memmove(&entries[i + 1], &entries[i],
               (count - i) * sizeof(Entry));
  entries[i] = Entry{k, v};
  count++;
}

bool Node::RemoveLeafEntry(Key k) {
  assert(is_leaf());
  const uint32_t i = LowerBound(k);
  if (i >= count || entries[i].key != k) return false;
  std::memmove(&entries[i], &entries[i + 1],
               (count - i - 1) * sizeof(Entry));
  count--;
  return true;
}

size_t Node::InsertLeafEntryInPlace(Key k, Value v) {
  assert(is_leaf());
  assert(count < kMaxEntries);
  const uint32_t n = count;
  const uint32_t i = LowerBound(k);
  assert(i == n || entries[i].key != k);
  for (uint32_t j = n; j > i; --j) {
    PageStoreWord(&entries[j].key, entries[j - 1].key);
    PageStoreWord(&entries[j].value, entries[j - 1].value);
  }
  PageStoreWord(&entries[i].key, k);
  PageStoreWord(&entries[i].value, v);
  StoreCountInPlace(n + 1);
  return (n - i + 1) * sizeof(Entry) + sizeof(count);
}

size_t Node::AppendLeafEntryInPlace(Key k, Value v) {
  assert(is_leaf());
  assert(count < kMaxEntries);
  const uint32_t n = count;
  assert(n == 0 || entries[n - 1].key < k);
  PageStoreWord(&entries[n].key, k);
  PageStoreWord(&entries[n].value, v);
  StoreCountInPlace(n + 1);
  return sizeof(Entry) + sizeof(count);
}

size_t Node::RemoveLeafEntryAtInPlace(uint32_t i) {
  assert(is_leaf());
  const uint32_t n = count;
  assert(i < n);
  for (uint32_t j = i; j + 1 < n; ++j) {
    PageStoreWord(&entries[j].key, entries[j + 1].key);
    PageStoreWord(&entries[j].value, entries[j + 1].value);
  }
  StoreCountInPlace(n - 1);
  return (n - i - 1) * sizeof(Entry) + sizeof(count);
}

size_t Node::SetLeafValueAtInPlace(uint32_t i, Value v) {
  assert(is_leaf());
  assert(i < count);
  PageStoreWord(&entries[i].value, v);
  return sizeof(uint64_t);
}

size_t Node::InsertChildSplitInPlace(Key sep, PageId new_child) {
  assert(!is_leaf());
  assert(count > 0);
  assert(count < kMaxEntries);
  assert(sep > low && sep <= high);
  const uint32_t n = count;
  const uint32_t i = LowerBound(sep);
  assert(i < n);  // sep <= high == entries[count-1].key
  if (entries[i].key == sep) return 0;
  const uint64_t left_child = entries[i].value;
  for (uint32_t j = n; j > i; --j) {
    PageStoreWord(&entries[j].key, entries[j - 1].key);
    PageStoreWord(&entries[j].value, entries[j - 1].value);
  }
  PageStoreWord(&entries[i].key, sep);
  PageStoreWord(&entries[i].value, left_child);
  PageStoreWord(&entries[i + 1].value, new_child);
  StoreCountInPlace(n + 1);
  return (n - i + 1) * sizeof(Entry) + sizeof(uint64_t) + sizeof(count);
}

bool Node::InsertChildSplit(Key sep, PageId new_child) {
  assert(!is_leaf());
  assert(count > 0);
  assert(count < kMaxEntries);
  assert(sep > low && sep <= high);
  const uint32_t i = LowerBound(sep);
  assert(i < count);  // sep <= high == entries[count-1].key
  if (entries[i].key == sep) return false;
  const uint64_t left_child = entries[i].value;
  std::memmove(&entries[i + 1], &entries[i],
               (count - i) * sizeof(Entry));
  entries[i] = Entry{sep, left_child};
  entries[i + 1].value = new_child;
  count++;
  return true;
}

int Node::FindChildIndex(PageId child) const {
  assert(!is_leaf());
  for (uint32_t i = 0; i < count; ++i) {
    if (static_cast<PageId>(entries[i].value) == child) return static_cast<int>(i);
  }
  return -1;
}

bool Node::ApplyChildMerge(Key old_sep, PageId left_child,
                           PageId right_child) {
  assert(!is_leaf());
  const uint32_t i = LowerBound(old_sep);
  if (i + 1 >= count) return false;
  if (entries[i].key != old_sep ||
      static_cast<PageId>(entries[i].value) != left_child ||
      static_cast<PageId>(entries[i + 1].value) != right_child) {
    return false;
  }
  // Delete (old_sep -> left) and let the successor (right_high -> right)
  // become (right_high -> left): left now covers the union range.
  entries[i + 1].value = left_child;
  std::memmove(&entries[i], &entries[i + 1],
               (count - i - 1) * sizeof(Entry));
  count--;
  return true;
}

bool Node::ApplyChildSeparatorChange(Key old_sep, Key new_sep, PageId child) {
  assert(!is_leaf());
  const uint32_t i = LowerBound(old_sep);
  if (i >= count || entries[i].key != old_sep ||
      static_cast<PageId>(entries[i].value) != child) {
    return false;
  }
  // Order must be preserved: new_sep stays between the neighbors.
  if (i > 0 && entries[i - 1].key >= new_sep) return false;
  if (i + 1 < count && entries[i + 1].key <= new_sep) return false;
  entries[i].key = new_sep;
  return true;
}

namespace {

// The split point of `total` entries: `keep` if set, else the midpoint.
// The midpoint keeps the ceiling half on the left: splitting 2k+1 entries
// must leave BOTH halves strictly below capacity, or ascending insertions
// at k=1 re-split the (full) right node on every insert and the tree
// grows one level per insertion.
uint32_t ResolveKeep(uint32_t keep, uint32_t total) {
  if (keep == 0) keep = total - total / 2;
  assert(keep >= 1 && keep < total);
  return keep;
}

}  // namespace

void Node::SplitInto(Node* right, PageId right_page, uint32_t keep) {
  assert(count >= 2);
  keep = ResolveKeep(keep, count);
  const uint32_t move = count - keep;

  right->Init(level, /*low=*/entries[keep - 1].key, /*high=*/high, link);
  std::memcpy(right->entries, &entries[keep], move * sizeof(Entry));
  right->count = move;

  count = keep;
  high = entries[keep - 1].key;
  link = right_page;
}

size_t Node::SplitRightWith(Key k, uint64_t v, uint32_t keep,
                            Node* right) const {
  const uint32_t n = count;
  keep = ResolveKeep(keep, n + 1);
  const uint32_t pos = LowerBound(k);
  assert(pos == n || entries[pos].key != k);
  assert(is_leaf() || (pos < n && k > low));
  // M[pos] is (k, v) in a leaf; in an internal node it is (k, E[pos]'s
  // child) and the successor M[pos + 1] = (E[pos]'s key, v).
  const uint64_t at_pos = is_leaf() ? v : entries[pos].value;
  const uint32_t move = n + 1 - keep;
  Entry* out = right->entries;
  Key right_low;
  if (pos >= keep) {
    const uint32_t before = pos - keep;
    std::memcpy(out, &entries[keep], before * sizeof(Entry));
    out[before] = Entry{k, at_pos};
    std::memcpy(&out[before + 1], &entries[pos], (n - pos) * sizeof(Entry));
    right_low = entries[keep - 1].key;
  } else {
    std::memcpy(out, &entries[keep - 1], move * sizeof(Entry));
    right_low = pos == keep - 1 ? k : entries[keep - 2].key;
  }
  if (!is_leaf() && pos + 1 >= keep) out[pos + 1 - keep].value = v;
  right->Init(level, right_low, high, link);
  right->count = move;
  return NodeBytes(move);
}

size_t Node::SplitLeftInPlace(Key k, uint64_t v, uint32_t keep,
                              PageId right_page) {
  const uint32_t n = count;
  keep = ResolveKeep(keep, n + 1);
  const uint32_t pos = LowerBound(k);
  assert(pos == n || entries[pos].key != k);
  assert(is_leaf() || (pos < n && k > low));
  size_t bytes = 0;
  if (pos < keep) {
    // Shift E[pos, keep - 1) up one slot, back to front; E[keep - 1] and
    // everything after it now live in B.
    for (uint32_t j = keep - 1; j > pos; --j) {
      PageStoreWord(&entries[j].key, entries[j - 1].key);
      PageStoreWord(&entries[j].value, entries[j - 1].value);
      bytes += sizeof(Entry);
    }
    PageStoreWord(&entries[pos].key, k);
    bytes += sizeof(Key);
    if (is_leaf()) {
      PageStoreWord(&entries[pos].value, v);
      bytes += sizeof(uint64_t);
    } else if (pos + 1 < keep) {
      // entries[pos] keeps E[pos]'s child; its old key moved up a slot
      // and now bounds the new child.
      PageStoreWord(&entries[pos + 1].value, v);
      bytes += sizeof(uint64_t);
    }
  }
  PageStoreWord(&high, entries[keep - 1].key);
  PageStoreWord32(&link, right_page);
  StoreCountInPlace(keep);
  return bytes + sizeof(high) + sizeof(link) + sizeof(count);
}

void Node::MergeFromRight(const Node& right) {
  assert(level == right.level);
  assert(count + right.count <= kMaxEntries);
  std::memcpy(&entries[count], right.entries, right.count * sizeof(Entry));
  count += right.count;
  high = right.high;
  link = right.link;
}

Key Node::RedistributeWithRight(Node* right, uint32_t min_entries) {
  assert(level == right->level);
  const uint32_t total = count + right->count;
  assert(total >= 2 * min_entries);
  (void)min_entries;
  // Split the combined run as evenly as possible.
  const uint32_t new_left = total / 2;
  if (new_left > count) {
    // Shift the head of right into this node.
    const uint32_t move = new_left - count;
    std::memcpy(&entries[count], right->entries, move * sizeof(Entry));
    std::memmove(right->entries, &right->entries[move],
                 (right->count - move) * sizeof(Entry));
    count = new_left;
    right->count -= move;
  } else if (new_left < count) {
    // Shift the tail of this node into right.
    const uint32_t move = count - new_left;
    std::memmove(&right->entries[move], right->entries,
                 right->count * sizeof(Entry));
    std::memcpy(right->entries, &entries[new_left], move * sizeof(Entry));
    right->count += move;
    count = new_left;
  }
  const Key sep = entries[count - 1].key;
  high = sep;
  right->low = sep;
  return sep;
}

uint32_t NodeView::LowerBound(Key k) const {
  // Node::LowerBound's search over the clamped count: every probe stays
  // below it, so the search stays inside the array.
  uint32_t n = count();
  PrefetchEntries(node_->entries, n);
  if (n == 0) return 0;
  uint32_t base = 0;
  while (n > 1) {
    const uint32_t half = n / 2;
    base = entry_key(base + half) < k ? base + half : base;
    n -= half;
  }
  return base + (entry_key(base) < k);
}

std::optional<Value> NodeView::FindLeafValue(Key k) const {
  const uint32_t i = LowerBound(k);
  if (i < count() && entry_key(i) == k) return entry_value(i);
  return std::nullopt;
}

uint32_t NodeView::CopyEntries(uint32_t from, uint32_t to, Key hi,
                               Entry* out) const {
  uint32_t n = 0;
  for (uint32_t i = from; i < to; ++i) {
    const Key k = entry_key(i);
    if (k > hi) break;
    out[n].key = k;
    out[n].value = entry_value(i);
    ++n;
  }
  return n;
}

PageId NodeView::ChildFor(Key k) const {
  const uint32_t i = LowerBound(k);
  // On a consistent internal image k <= high == entries[count-1].key
  // guarantees i < count; a torn image may violate that, so report the
  // inconsistency instead of reading past the live entries.
  if (i >= count()) return kInvalidPageId;
  return static_cast<PageId>(entry_value(i));
}

std::string Node::DebugString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "[L%u n=%u low=%llu high=%llu link=%u%s%s%s]", level, count,
                static_cast<unsigned long long>(low),
                static_cast<unsigned long long>(high), link,
                is_root() ? " root" : "", is_deleted() ? " deleted" : "",
                is_leaf() ? " leaf" : "");
  return buf;
}

}  // namespace obtree
