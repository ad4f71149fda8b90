// Copyright 2026 The obtree Authors.

#include "obtree/core/queue_compressor.h"

#include <cassert>
#include <thread>

#include "obtree/node/node.h"
#include "obtree/storage/page_manager.h"
#include "obtree/storage/prime_block.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/stats.h"

namespace obtree {

QueueCompressor::Outcome QueueCompressor::CompressOne() {
  // Maintenance reads must see ground truth: an injected fetch error here
  // would be misread as a stale task and silently discard real work.
  FaultInjector::ScopedExemption exempt;
  CompressionTask task;
  if (!queue_->Pop(&task)) return Outcome::kQueueEmpty;
  const Timestamp stamp = task.stamp;
  const Outcome outcome = ProcessTask(std::move(task));
  // The stamp stops protecting the stack only after any requeue Push has
  // re-registered it, which ProcessTask did before returning.
  queue_->FinishTask(stamp);
  tree_->internal_pager()->Reclaim();
  return outcome;
}

QueueCompressor::Outcome QueueCompressor::ProcessTask(CompressionTask task) {
  PageManager* pager = tree_->internal_pager();
  StatsCollector* stats = tree_->stats();
  const uint32_t k = tree_->options().min_entries;
  const uint32_t parent_level = task.level + 1;

  // "The whole level is deleted": the node's level became (or is) the
  // root level after it was queued; nothing to do (§5.4).
  if (tree_->internal_prime()->Read().num_levels <= parent_level) {
    stats->Add(StatId::kQueueDiscards);
    return Outcome::kDropped;
  }

  // Pin the traversal; the queue's in-flight stamp keeps protecting the
  // recorded stack independently of this pin.
  EpochManager::Guard guard(tree_->epoch());

  // --- locate and lock the parent F -------------------------------------
  PageId start = kInvalidPageId;
  if (!task.stack.empty()) {
    start = task.stack.back();
  } else {
    Result<PageId> r = tree_->internal_FindNodeAtLevel(
        task.high, parent_level, nullptr, /*wait_for_level=*/false);
    if (!r.ok()) {
      stats->Add(StatId::kQueueDiscards);
      return Outcome::kDropped;
    }
    start = *r;
  }
  int restarts = 0;
  const Node* f_live = nullptr;
  Result<PageId> fr = tree_->internal_AcquireTargetInPlace(
      task.high, parent_level, start, nullptr, &restarts, &f_live,
      /*wait_for_level=*/false);
  if (!fr.ok()) {
    stats->Add(StatId::kQueueDiscards);
    return Outcome::kDropped;
  }
  const PageId f_page = *fr;
  // Rearrange edits a private image: copy F out under the lock.
  Page f_buf;
  Node* fn = f_buf.As<Node>();
  pager->Get(f_page, &f_buf);

  // --- verify F still has the pair (pointer to A, recorded high) --------
  // Footnote 14: the high value must be the key of the very entry that
  // points to A.
  const int found = fn->FindChildIndex(task.node);
  const bool pair_ok = found >= 0 &&
                       fn->entries[static_cast<uint32_t>(found)].key ==
                           task.high;
  if (!pair_ok) {
    Page a_probe;
    pager->Get(task.node, &a_probe);
    const Node* an = a_probe.As<Node>();
    const bool high_unchanged = !an->is_deleted() &&
                                an->level == task.level &&
                                an->high == task.high;
    pager->Unlock(f_page);
    if (high_unchanged) {
      // The separator has not been posted into F yet; revisit later.
      queue_->Push(std::move(task), /*update_if_present=*/false);
      stats->Add(StatId::kQueueRequeues);
      return Outcome::kRequeued;
    }
    // A was split or compressed since; whoever did that re-queued it if
    // still needed (Theorem 2's discard argument).
    stats->Add(StatId::kQueueDiscards);
    return Outcome::kDropped;
  }
  const uint32_t idx = static_cast<uint32_t>(found);

  // --- special case: F holds only the pointer to A ----------------------
  if (fn->count == 1) {
    const bool f_is_root = fn->is_root();
    if (!f_is_root) {
      // F itself is under-full and only its own compression can give A a
      // sibling to pair with. Queue F while its lock is held (§5.4), or
      // A's requeues would wait for an F task nobody created.
      CompressionTask f_task;
      f_task.node = f_page;
      f_task.level = parent_level;
      f_task.high = fn->high;
      f_task.stamp = task.stamp;
      if (!task.stack.empty()) {
        f_task.stack.assign(task.stack.begin(), task.stack.end() - 1);
      }
      queue_->Push(std::move(f_task), /*update_if_present=*/true);
      stats->Add(StatId::kQueueEnqueues);
    }
    pager->Unlock(f_page);
    if (f_is_root) {
      // Root with a single child: try to shrink the tree.
      if (TryCollapseRoot(tree_) > 0) return Outcome::kRestructured;
    }
    // Either F must be compressed before A, or separators of A's siblings
    // are still in flight; retry later (§5.4).
    queue_->Push(std::move(task), /*update_if_present=*/false);
    stats->Add(StatId::kQueueRequeues);
    return Outcome::kRequeued;
  }

  Page a_buf;
  Node* an = a_buf.As<Node>();
  bool a_locked = false;

  // --- case (1): A is not the rightmost pointer in F --------------------
  if (idx + 1 < fn->count) {
    pager->Lock(task.node);
    a_locked = true;
    pager->Get(task.node, &a_buf);
    if (an->is_deleted() || an->level != task.level) {
      // Cannot happen while F is locked (compressing A needs F's lock);
      // defensive against stale ids.
      pager->Unlock(task.node);
      pager->Unlock(f_page);
      stats->Add(StatId::kQueueDiscards);
      return Outcome::kDropped;
    }
    const PageId right_page = an->link;
    if (right_page != kInvalidPageId) {
      pager->Lock(right_page);
      Page b_buf;
      pager->Get(right_page, &b_buf);
      Node* bn = b_buf.As<Node>();
      const bool adjacent =
          static_cast<PageId>(fn->entries[idx + 1].value) == right_page &&
          !bn->is_deleted();
      if (adjacent) {
        if (an->count >= k && bn->count >= k) {
          // Footnote 15: nothing to compress after all.
          pager->Unlock(right_page);
          pager->Unlock(task.node);
          pager->Unlock(f_page);
          return Outcome::kNothing;
        }
        RearrangeContext ctx;
        ctx.queue = queue_;
        ctx.stack = &task.stack;
        ctx.stamp = task.stamp;
        RearrangeResult res =
            RearrangePair(tree_, &f_buf, f_page, idx, &a_buf, task.node,
                          &b_buf, right_page, ctx);  // unlocks all three
        if (res.root_may_collapse) TryCollapseRoot(tree_);
        return Outcome::kRestructured;
      }
      pager->Unlock(right_page);
      // F has no pointer to A's right neighbor yet: fall through to try
      // the LEFT neighbor while A stays locked (footnote 16).
    }
  }

  // --- case (2): pair A with its left neighbor --------------------------
  if (idx == 0) {
    // No left neighbor inside F and the right pairing failed. Record the
    // freshest information we may legally write and retry later.
    if (a_locked) {
      task.high = an->high;  // we hold A's lock: update is allowed
      pager->Unlock(task.node);
      pager->Unlock(f_page);
      queue_->Push(std::move(task), /*update_if_present=*/true);
    } else {
      pager->Unlock(f_page);
      queue_->Push(std::move(task), /*update_if_present=*/false);
    }
    stats->Add(StatId::kQueueRequeues);
    return Outcome::kRequeued;
  }

  const PageId b_page = static_cast<PageId>(fn->entries[idx - 1].value);
  pager->Lock(b_page);
  Page b_buf;
  pager->Get(b_page, &b_buf);
  Node* bn = b_buf.As<Node>();
  if (bn->is_deleted() || bn->level != task.level ||
      bn->link != task.node) {
    // The link of B does not point to A: unposted split(s) sit between
    // them. Put A back and retry later (§5.4 case (2)).
    pager->Unlock(b_page);
    if (a_locked) {
      task.high = an->high;
      pager->Unlock(task.node);
      pager->Unlock(f_page);
      queue_->Push(std::move(task), /*update_if_present=*/true);
    } else {
      pager->Unlock(f_page);
      queue_->Push(std::move(task), /*update_if_present=*/false);
    }
    stats->Add(StatId::kQueueRequeues);
    return Outcome::kRequeued;
  }
  if (!a_locked) {
    pager->Lock(task.node);  // B first, then A (§5.4 case (2) order)
    a_locked = true;
    pager->Get(task.node, &a_buf);
    if (an->is_deleted() || an->level != task.level) {
      pager->Unlock(task.node);
      pager->Unlock(b_page);
      pager->Unlock(f_page);
      stats->Add(StatId::kQueueDiscards);
      return Outcome::kDropped;
    }
  }
  if (an->count >= k && bn->count >= k) {
    pager->Unlock(task.node);
    pager->Unlock(b_page);
    pager->Unlock(f_page);
    return Outcome::kNothing;
  }
  RearrangeContext ctx;
  ctx.queue = queue_;
  ctx.stack = &task.stack;
  ctx.stamp = task.stamp;
  RearrangeResult res = RearrangePair(tree_, &f_buf, f_page, idx - 1, &b_buf,
                                      b_page, &a_buf, task.node, ctx);
  if (res.root_may_collapse) TryCollapseRoot(tree_);
  return Outcome::kRestructured;
}

size_t QueueCompressor::Drain(int max_stall) {
  size_t work = 0;
  int stall = 0;
  while (stall < max_stall) {
    const Outcome outcome = CompressOne();
    switch (outcome) {
      case Outcome::kQueueEmpty:
        return work;
      case Outcome::kRestructured:
        ++work;
        stall = 0;
        break;
      case Outcome::kDropped:
      case Outcome::kNothing:
        stall = 0;  // the queue shrank: progress
        break;
      case Outcome::kRequeued:
        ++stall;
        std::this_thread::yield();
        break;
    }
  }
  return work;
}

void QueueCompressor::RunUntil(const std::atomic<bool>* stop,
                               std::chrono::milliseconds idle_sleep) {
  while (!stop->load(std::memory_order_acquire)) {
    const Outcome outcome = CompressOne();
    if (outcome == Outcome::kQueueEmpty &&
        !stop->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(idle_sleep);
    } else if (outcome == Outcome::kRequeued) {
      std::this_thread::yield();
    }
  }
}

}  // namespace obtree
