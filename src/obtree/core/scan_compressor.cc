// Copyright 2026 The obtree Authors.

#include "obtree/core/scan_compressor.h"

#include <cassert>
#include <thread>

#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/stats.h"

namespace obtree {

namespace {

// Bound on the §5.2 case-(1) wait ("wait until two is inserted into F"):
// yield-retry rounds a pass spends on one pair before skipping it.
constexpr int kWaitRetries = 256;

// Re-locks the parent F at *current and aims the sweep at the child after
// `this_child`: the next entry of F, or, when `this_child` was F's last
// entry or has left F, the first pair of F's right neighbour. Returns
// false, leaving *current and *one alone, when F is no longer a live
// node of `parent_level`; *f_buf then holds that image for the caller.
bool StepPastChild(PageManager* pager, uint32_t parent_level,
                   PageId this_child, Page* f_buf, PageId* current,
                   PageId* one) {
  const PageId f_page = *current;
  pager->Lock(f_page);
  pager->Get(f_page, f_buf);
  const Node* fn = f_buf->As<Node>();
  const bool live = !fn->is_deleted() && fn->level == parent_level;
  if (live) {
    const int found = fn->FindChildIndex(this_child);
    if (found >= 0 && static_cast<uint32_t>(found) + 1 < fn->count) {
      *one = static_cast<PageId>(
          fn->entries[static_cast<uint32_t>(found) + 1].value);
    } else {
      *current = fn->link;
      *one = kInvalidPageId;
    }
  }
  pager->Unlock(f_page);
  return live;
}

}  // namespace

ScanCompressor::Advance ScanCompressor::ProcessPair(Page* f, PageId f_page,
                                                    uint32_t idx,
                                                    size_t* work) {
  PageManager* pager = tree_->internal_pager();
  StatsCollector* stats = tree_->stats();
  const uint32_t k = tree_->options().min_entries;
  Node* fn = f->As<Node>();

  const PageId left_page = static_cast<PageId>(fn->entries[idx].value);
  pager->Lock(left_page);
  Page left_buf;
  pager->Get(left_page, &left_buf);
  Node* left = left_buf.As<Node>();

  if (left->is_deleted() || left->level + 1 != fn->level) {
    // A concurrent compressor (queue-driven) beat us to this child, or the
    // pointer is stale. Skip the entry.
    pager->Unlock(left_page);
    pager->Unlock(f_page);
    return Advance::kSkipEntry;
  }
  const PageId right_page = left->link;
  if (right_page == kInvalidPageId) {
    // Rightmost node of the level: it has no right partner (it may stay
    // under-full; the checker exempts it).
    pager->Unlock(left_page);
    pager->Unlock(f_page);
    return Advance::kLevelDone;
  }
  pager->Lock(right_page);
  Page right_buf;
  pager->Get(right_page, &right_buf);
  Node* right = right_buf.As<Node>();

  // Is `two` in F, adjacent to `one`? (Fig. 7's "if two is in F".)
  const bool adjacent =
      idx + 1 < fn->count &&
      static_cast<PageId>(fn->entries[idx + 1].value) == right_page;

  if (adjacent) {
    if (left->count < k || right->count < k) {
      RearrangeContext ctx;
      ctx.queue = tree_->compression_queue();
      ctx.paper_write_order = paper_write_order_;
      RearrangeResult res = RearrangePair(tree_, f, f_page, idx, &left_buf,
                                          left_page, &right_buf, right_page,
                                          ctx);  // unlocks all three
      if (res.merged || res.redistributed) ++(*work);
      if (res.root_may_collapse) *work += TryCollapseRoot(tree_);
      return res.merged ? Advance::kStayOnLeft : Advance::kToRight;
    }
    pager->Unlock(right_page);
    pager->Unlock(left_page);
    pager->Unlock(f_page);
    return Advance::kToRight;
  }

  // `two` is not in F next to `one`.
  const bool two_belongs_in_f = right->high <= fn->high;
  const bool needs_rearrange = left->count < k || right->count < k;
  pager->Unlock(right_page);
  pager->Unlock(left_page);
  pager->Unlock(f_page);
  if (two_belongs_in_f && needs_rearrange) {
    // §5.2 case (1): the separator for `two` has not been posted into F
    // yet (an insertion is mid-ascent). Wait and retry the same pair.
    stats->Add(StatId::kCompressWaits);
    return Advance::kRetryPair;
  }
  if (two_belongs_in_f) {
    // §5.2 case (2): no rearrangement needed; examine the next children.
    return Advance::kSkipEntry;
  }
  // §5.2 case (3): `two` belongs to F's right neighbor.
  return Advance::kNextParent;
}

size_t ScanCompressor::CompressLevel(uint32_t level) {
  PageManager* pager = tree_->internal_pager();
  const PrimeBlockData pb = tree_->internal_prime()->Read();
  if (pb.num_levels <= level + 1) return 0;  // no parent level to walk

  size_t work = 0;
  PageId current = pb.leftmost[level + 1];
  PageId one = kInvalidPageId;  // left child of the next pair to examine
  int retries = 0;
  int hard_stop = 1 << 24;  // corruption guard

  Page f_buf;
  Node* fn = f_buf.As<Node>();
  while (current != kInvalidPageId) {
    if (--hard_stop <= 0) break;
    pager->Lock(current);
    pager->Get(current, &f_buf);
    if (fn->is_deleted()) {
      const PageId target = fn->merge_target;
      pager->Unlock(current);
      if (target == kInvalidPageId) return work;  // level disappeared
      tree_->stats()->Add(StatId::kMergePointerFollows);
      current = target;
      continue;
    }
    if (fn->level != level + 1) {
      pager->Unlock(current);
      return work;  // stale pointer (page reused); give up this sweep
    }

    // Locate the pair's left child within F.
    uint32_t idx = 0;
    if (one != kInvalidPageId) {
      const int found = fn->FindChildIndex(one);
      if (found < 0) {
        // `one` migrated right when F split; chase F's link.
        const PageId link = fn->link;
        pager->Unlock(current);
        if (link == kInvalidPageId) return work;
        current = link;
        continue;
      }
      idx = static_cast<uint32_t>(found);
    }
    if (idx >= fn->count) {
      const PageId link = fn->link;
      pager->Unlock(current);
      current = link;
      one = kInvalidPageId;
      continue;
    }

    const PageId this_child = static_cast<PageId>(fn->entries[idx].value);
    const Advance advance = ProcessPair(&f_buf, current, idx, &work);
    // ProcessPair released every lock (including F's).
    switch (advance) {
      case Advance::kStayOnLeft:
        one = this_child;
        retries = 0;
        break;
      case Advance::kToRight:
      case Advance::kSkipEntry:
        // Examine the pair after `this_child` next; F is re-read under its
        // lock for a stable successor entry.
        retries = 0;
        if (StepPastChild(pager, level + 1, this_child, &f_buf, &current,
                          &one)) {
          break;
        }
        if (!fn->is_deleted() || fn->merge_target == kInvalidPageId) {
          return work;
        }
        current = fn->merge_target;  // F merged away: resume in its target
        one = this_child;
        break;
      case Advance::kNextParent: {
        pager->Lock(current);
        pager->Get(current, &f_buf);
        const PageId link =
            (!fn->is_deleted() && fn->level == level + 1) ? fn->link
                                                          : kInvalidPageId;
        pager->Unlock(current);
        current = link;
        one = kInvalidPageId;
        retries = 0;
        break;
      }
      case Advance::kRetryPair:
        if (++retries > kWaitRetries) {
          // The pending insertion never posted (or keeps splitting A, the
          // paper's "minuscule probability" livelock). Skip the pair for
          // this pass.
          retries = 0;
          if (!StepPastChild(pager, level + 1, this_child, &f_buf, &current,
                             &one)) {
            return work;
          }
          break;
        }
        std::this_thread::yield();
        break;
      case Advance::kLevelDone:
        return work;
    }
  }
  return work;
}

size_t ScanCompressor::FullPass() {
  // Maintenance reads must see ground truth (see QueueCompressor).
  FaultInjector::ScopedExemption exempt;
  size_t work = 0;
  const uint32_t levels = tree_->internal_prime()->Read().num_levels;
  for (uint32_t level = 0; level + 1 < levels; ++level) {
    work += CompressLevel(level);
  }
  work += TryCollapseRoot(tree_);
  tree_->internal_pager()->Reclaim();
  return work;
}

void ScanCompressor::RunUntil(const std::atomic<bool>* stop,
                              std::chrono::milliseconds idle_sleep) {
  while (!stop->load(std::memory_order_acquire)) {
    const size_t work = FullPass();
    if (work == 0 && !stop->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(idle_sleep);
    }
  }
}

}  // namespace obtree
