// Copyright 2026 The obtree Authors.

#include "obtree/core/tree_checker.h"

#include <cstdio>
#include <string>

#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/fault_injector.h"

namespace obtree {

namespace {

std::string Msg(const char* fmt, PageId page, const Node& node) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s (page %u %s)", fmt, page,
                node.DebugString().c_str());
  return buf;
}

// A failed read of `page`, with the page named in its message; the code
// is the read's own (DataLoss for a corrupt image, Unavailable for an
// I/O fault).
Status ReadError(const Status& s, PageId page) {
  std::string msg =
      "reading page " + std::to_string(page) + ": " + s.message();
  switch (s.code()) {
    case Status::Code::kDataLoss:
      return Status::DataLoss(std::move(msg));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(msg));
    default:
      return s;
  }
}

// Facts about one node needed for cross-level validation.
struct NodeFacts {
  PageId page;
  Key high;
};

}  // namespace

std::string TreeShape::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "height=%u keys=%llu nodes=%llu underfull=%llu "
                "avg_leaf_fill=%.2f",
                height, static_cast<unsigned long long>(num_keys),
                static_cast<unsigned long long>(num_nodes),
                static_cast<unsigned long long>(underfull_nodes),
                avg_leaf_fill);
  std::string out = buf;
  out += " per_level=[";
  for (size_t i = 0; i < nodes_per_level.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(nodes_per_level[i]);
  }
  out += "]";
  if (leaf_fill_pct.count() > 0) {
    out += " leaf_fill_pct{" + leaf_fill_pct.ToString() + "}";
  }
  return out;
}

Status TreeChecker::CheckStructure(bool require_half_full) const {
  // The audit must see ground truth even while fault schedules are armed.
  FaultInjector::ScopedExemption exempt;
  PageManager* pager = tree_->internal_pager();
  const PrimeBlockData pb = tree_->internal_prime()->Read();
  if (pb.num_levels == 0 || pb.num_levels > kMaxLevels) {
    return Status::Internal("prime block level count out of range");
  }
  const uint32_t k = tree_->options().min_entries;

  Page page;
  const Node* node = page.As<Node>();
  std::vector<NodeFacts> child_level;  // facts about the level below
  uint64_t leaf_keys = 0;
  uint64_t root_bits = 0;

  for (uint32_t level = 0; level < pb.num_levels; ++level) {
    std::vector<NodeFacts> this_level;
    std::vector<std::vector<Entry>> internal_entries;
    PageId current = pb.leftmost[level];
    Key prev_high = kMinusInfinity;
    bool first = true;
    for (;;) {
      if (current == kInvalidPageId) {
        return Status::Internal("nil page inside a level chain");
      }
      const Status read = pager->Get(current, &page);
      if (!read.ok()) return ReadError(read, current);
      if (node->is_deleted()) {
        return Status::Internal(Msg("deleted node reachable", current, *node));
      }
      if (node->level != level) {
        return Status::Internal(Msg("level mismatch", current, *node));
      }
      if (node->is_root()) root_bits++;
      if (first && node->low != kMinusInfinity) {
        return Status::Internal(
            Msg("leftmost node low is not -inf", current, *node));
      }
      if (!first && node->low != prev_high) {
        return Status::Internal(
            Msg("low does not chain from left neighbor's high", current,
                *node));
      }
      if (node->low >= node->high) {
        return Status::Internal(Msg("low >= high", current, *node));
      }
      const bool is_sole_root_leaf = pb.num_levels == 1;
      if (node->count == 0 && level > 0) {
        return Status::Internal(Msg("empty internal node", current, *node));
      }
      Key prev_key = node->low;
      for (uint32_t i = 0; i < node->count; ++i) {
        const Key key = node->entries[i].key;
        if (key <= prev_key) {
          return Status::Internal(
              Msg("entries not strictly increasing", current, *node));
        }
        if (key > node->high) {
          return Status::Internal(Msg("entry above high", current, *node));
        }
        prev_key = key;
      }
      if (level > 0 && node->count > 0 &&
          node->entries[node->count - 1].key != node->high) {
        return Status::Internal(
            Msg("internal high != last entry key", current, *node));
      }
      if (node->count > tree_->options().capacity()) {
        return Status::Internal(Msg("node over capacity", current, *node));
      }
      if (require_half_full && !node->is_root() && !is_sole_root_leaf &&
          node->link != kInvalidPageId && node->count < k) {
        return Status::Internal(Msg("under-full node", current, *node));
      }
      if (level == 0) {
        leaf_keys += node->count;
      } else {
        internal_entries.emplace_back(node->entries,
                                      node->entries + node->count);
      }
      this_level.push_back(NodeFacts{current, node->high});
      prev_high = node->high;
      first = false;
      if (node->link == kInvalidPageId) {
        if (node->high != kPlusInfinity) {
          return Status::Internal(
              Msg("rightmost node high is not +inf", current, *node));
        }
        break;
      }
      current = node->link;
    }

    // Replay property: this level's entries, concatenated, must equal the
    // (high, page) sequence of the level below.
    if (level > 0) {
      size_t j = 0;
      for (const auto& entries : internal_entries) {
        for (const Entry& e : entries) {
          if (j >= child_level.size()) {
            return Status::Internal("more parent entries than children");
          }
          if (e.key != child_level[j].high ||
              static_cast<PageId>(e.value) != child_level[j].page) {
            char buf[160];
            std::snprintf(
                buf, sizeof(buf),
                "replay mismatch at level %u index %zu: entry (%llu,%u) vs "
                "child (%llu,%u)",
                level, j, static_cast<unsigned long long>(e.key),
                static_cast<PageId>(e.value),
                static_cast<unsigned long long>(child_level[j].high),
                child_level[j].page);
            return Status::Internal(buf);
          }
          ++j;
        }
      }
      if (j != child_level.size()) {
        return Status::Internal("fewer parent entries than children");
      }
    }
    child_level = std::move(this_level);
  }

  if (child_level.size() != 1) {
    return Status::Internal("top level has more than one node");
  }
  if (child_level[0].page != pb.root()) {
    return Status::Internal("prime block root is not the top node");
  }
  if (root_bits != 1) {
    return Status::Internal("root bit count != 1");
  }
  if (leaf_keys != tree_->Size()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "leaf keys %llu != Size() %llu",
                  static_cast<unsigned long long>(leaf_keys),
                  static_cast<unsigned long long>(tree_->Size()));
    return Status::Internal(buf);
  }
  return Status::OK();
}

TreeShape TreeChecker::ComputeShape() const {
  PageManager* pager = tree_->internal_pager();
  const PrimeBlockData pb = tree_->internal_prime()->Read();
  const uint32_t k = tree_->options().min_entries;
  const uint32_t capacity = tree_->options().capacity();

  TreeShape shape;
  shape.height = pb.num_levels;
  shape.nodes_per_level.assign(pb.num_levels, 0);

  Page page;
  const Node* node = page.As<Node>();
  uint64_t leaf_fill_total = 0;
  for (uint32_t level = 0; level < pb.num_levels; ++level) {
    PageId current = pb.leftmost[level];
    while (current != kInvalidPageId) {
      if (!pager->Get(current, &page).ok()) break;  // unreadable: stop here
      shape.num_nodes++;
      shape.nodes_per_level[level]++;
      if (!node->is_root() && node->count < k) shape.underfull_nodes++;
      if (level == 0) {
        shape.num_keys += node->count;
        leaf_fill_total += node->count;
        shape.leaf_fill_pct.Add(node->count * 100 / capacity);
      }
      current = node->link;
    }
  }
  if (shape.nodes_per_level[0] > 0) {
    shape.avg_leaf_fill =
        static_cast<double>(leaf_fill_total) /
        (static_cast<double>(shape.nodes_per_level[0]) * capacity);
  }
  return shape;
}

}  // namespace obtree
