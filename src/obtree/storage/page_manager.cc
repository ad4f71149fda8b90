// Copyright 2026 The obtree Authors.

#include "obtree/storage/page_manager.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obtree/storage/mem_store.h"

namespace obtree {

namespace {

// Paper-lock depth of the calling thread. A thread interacts with one tree
// at a time in all our protocols, so a single per-thread counter suffices
// to validate the "locks held simultaneously" claims.
thread_local int tl_locks_held = 0;

// Prepaid simulated-I/O credits deposited by PrefetchPages and consumed
// by the next MaybeSimulateIo calls on this thread (one credit = one
// skipped sleep, because the group's waits were already issued together).
// Scoped by PageManager::IoBatchScope so credits never outlive the batch
// that paid for them.
thread_local uint64_t tl_io_credits = 0;

// Word-granular copy. The seqlock retry loop discards torn reads; copying
// through relaxed word-sized atomic accesses (PageLoadWord/PageStoreWord,
// shared with Node's in-place mutation primitives) keeps the concurrent
// access well-defined.
void AtomicCopyOut(const uint8_t* src, uint8_t* dst, size_t bytes) {
  const auto* s = reinterpret_cast<const uint64_t*>(src);
  auto* d = reinterpret_cast<uint64_t*>(dst);
  const size_t words = bytes / 8;
  for (size_t i = 0; i < words; ++i) {
    d[i] = PageLoadWord(&s[i]);
  }
}

void AtomicCopyIn(const uint8_t* src, uint8_t* dst, size_t bytes) {
  const auto* s = reinterpret_cast<const uint64_t*>(src);
  auto* d = reinterpret_cast<uint64_t*>(dst);
  const size_t words = bytes / 8;
  for (size_t i = 0; i < words; ++i) {
    PageStoreWord(&d[i], s[i]);
  }
}

// Zero a page with the same word-granular atomic stores as AtomicCopyIn:
// optimistic readers may still be probing a page while its reuse zeroes
// it, and a plain memset racing those atomic loads would be undefined.
void AtomicZero(uint8_t* dst) {
  auto* d = reinterpret_cast<uint64_t*>(dst);
  for (size_t i = 0; i < kPageSize / 8; ++i) {
    PageStoreWord(&d[i], 0);
  }
}

}  // namespace

PageManager::PageManager(EpochManager* epoch, StatsCollector* stats,
                         PageStore* store, uint32_t buffer_pool_pages)
    : epoch_(epoch),
      stats_(stats),
      store_(store != nullptr ? store : MemStore::Shared()),
      paged_(store_ != nullptr && store_->persistent()),
      pool_cap_(buffer_pool_pages),
      chunks_(kMaxChunks),
      next_fresh_(0) {
  assert(epoch != nullptr && stats != nullptr);
  for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
}

PageManager::~PageManager() {
  // Drop our share of the shared trap gate if a hook is still installed.
  if (test_hook_ != nullptr) FaultInjector::ReleaseTrapRef();
  for (auto& c : chunks_) {
    delete c.load(std::memory_order_relaxed);
  }
}

bool PageManager::TrapSlow(const char* op, PageId id,
                           bool error_eligible) const {
  if (has_test_hook_.load(std::memory_order_acquire)) test_hook_(op, id);
  const FaultOutcome f =
      FaultInjector::Instance().Evaluate(op, error_eligible);
  // A kCrash armed on a pager site is an immediate power cut (the torn
  // variant lives in FileStore's "store-write" site).
  if (f.crash) std::_Exit(kCrashExitCode);
  if (f.inject_error) stats_->Add(StatId::kFaultsInjected);
  return f.inject_error;
}

PageManager::Slot* PageManager::SlotFor(PageId id) const {
  Chunk* chunk =
      chunks_[id >> kChunkBits].load(std::memory_order_acquire);
  assert(chunk != nullptr);
  return &chunk->slots[id & (kChunkSize - 1)];
}

void PageManager::EnsureChunk(size_t chunk_index) {
  if (chunks_[chunk_index].load(std::memory_order_acquire) != nullptr) return;
  Chunk* fresh = new Chunk();
  Chunk* expected = nullptr;
  if (!chunks_[chunk_index].compare_exchange_strong(
          expected, fresh, std::memory_order_acq_rel)) {
    delete fresh;  // another allocator won the race
  }
}

Result<PageId> PageManager::Allocate() {
  if (MaybeTrap("alloc", kInvalidPageId, /*error_eligible=*/true)) {
    // Protocol error paths (split/root-creation failures) already unlock
    // everything and leave the tree valid — the allocation-budget tests
    // prove it; this site exercises the same paths probabilistically.
    return Status::Unavailable("injected allocation fault");
  }
  int64_t budget = allocation_budget_.load(std::memory_order_relaxed);
  if (budget >= 0) {
    for (;;) {
      if (budget == 0) {
        return Status::ResourceExhausted("injected allocation failure");
      }
      if (allocation_budget_.compare_exchange_weak(
              budget, budget - 1, std::memory_order_relaxed)) {
        break;
      }
      if (budget < 0) break;  // reset to unlimited concurrently
    }
  }
  {
    std::lock_guard<std::mutex> l(alloc_mu_);
    if (free_list_.empty()) {
      // Opportunistically harvest retired pages before growing the arena.
      Timestamp min_active = epoch_->MinActive();
      std::lock_guard<std::mutex> r(retired_mu_);
      while (!retired_.empty() && retired_.front().time < min_active) {
        free_list_.push_back(retired_.front().id);
        retired_.pop_front();
        stats_->Add(StatId::kNodesReclaimed);
      }
    }
    if (!free_list_.empty()) {
      PageId id = free_list_.back();
      free_list_.pop_back();
      Slot* slot = SlotFor(id);
      // Zero the reused page under the seqlock so no reader sees a blend of
      // the dead node and the new one.
      uint64_t seq = slot->seq.fetch_add(1, std::memory_order_acq_rel);
      (void)seq;
      AtomicZero(slot->page.bytes);
      // The zeroed image fully defines the page's content: resident and
      // dirty with no store read (paged mode only).
      if (paged_) MarkResidentDirty(slot);
      slot->seq.fetch_add(1, std::memory_order_release);
      if (paged_) MaybeEvict();
      return id;
    }
  }
  const uint32_t id = next_fresh_.fetch_add(1, std::memory_order_acq_rel);
  const size_t chunk_index = id >> kChunkBits;
  if (chunk_index >= kMaxChunks) {
    return Status::ResourceExhausted("page arena exhausted");
  }
  EnsureChunk(chunk_index);
  if (paged_) {
    // Fresh chunk slots are value-initialized (all-zero pages), so the
    // content is defined without a store round trip here too.
    MarkResidentDirty(SlotFor(id));
    MaybeEvict();
  }
  return static_cast<PageId>(id);
}

void PageManager::MaybeSimulateIo() const {
  const uint64_t ns = simulated_io_ns_.load(std::memory_order_relaxed);
  if (ns == 0) return;
  if (tl_io_credits > 0) {
    // This access's wait was already issued with its group's leader
    // (PrefetchPages); consuming the credit is the "completion" side.
    --tl_io_credits;
    return;
  }
  // A real sleep (not a spin) so other threads overlap their "I/O" —
  // the property the 1985 disk-resident model gives concurrent protocols.
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

uint64_t PageManager::PrefetchPages(const PageId* ids, size_t n) const {
  (void)ids;  // a real PageStore backend would post the reads here
  if (n == 0) return 0;
  const uint64_t ns = simulated_io_ns_.load(std::memory_order_relaxed);
  if (ns == 0) return 0;
  // One latency covers the whole group: n reads posted in parallel
  // complete after max(latency_i) ~= one device latency, not the sum.
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  tl_io_credits += n;
  const uint64_t overlapped = static_cast<uint64_t>(n) - 1;
  if (overlapped > 0) stats_->Add(StatId::kBatchIoOverlapped, overlapped);
  return overlapped;
}

PageManager::IoBatchScope::IoBatchScope() : saved_(tl_io_credits) {}

PageManager::IoBatchScope::~IoBatchScope() { tl_io_credits = saved_; }

Status PageManager::Get(PageId id, Page* out) const {
  if (MaybeTrap("get", id, /*error_eligible=*/tl_locks_held == 0)) {
    // Injected fetch failure: hand back an inert zeroed image so a caller
    // that ignores the status decodes an empty node (restart / no-op),
    // never stale garbage. `out` is caller-private; plain stores suffice.
    std::memset(out->bytes, 0, kPageSize);
    return Status::Unavailable("injected page-fetch failure");
  }
  MaybeSimulateIo();
  Slot* slot = SlotFor(id);
  for (;;) {
    if (paged_) {
      // Fault the page in if evicted. Checked inside the loop: an
      // eviction can land between iterations, and a copy that raced one
      // must not pass off the zeroed arena bytes as the page.
      Status s = EnsureResident(id, slot);
      if (!s.ok()) {
        std::memset(out->bytes, 0, kPageSize);
        return s;
      }
    }
    const uint64_t s1 = slot->seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // a put is in flight
    if (paged_ &&
        !(slot->state.load(std::memory_order_acquire) & kSlotResident)) {
      continue;  // evicted after the version read: re-fault
    }
    AtomicCopyOut(slot->page.bytes, out->bytes, kPageSize);
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t s2 = slot->seq.load(std::memory_order_relaxed);
    if (s1 == s2) break;
  }
  stats_->Add(StatId::kGets);
  return Status::OK();
}

PageManager::ReadGuard PageManager::OptimisticRead(PageId id) const {
  if (MaybeTrap("get", id, /*error_eligible=*/tl_locks_held == 0)) {
    return ReadGuard::Faulted();  // injected fetch failure
  }
  MaybeSimulateIo();
  Slot* slot = SlotFor(id);
  if (paged_ && !EnsureResident(id, slot).ok()) {
    return ReadGuard::Faulted();  // store read error
  }
  // If the page is evicted after this point the eviction's version bumps
  // make Validate() fail, so the zeroed bytes can never be trusted.
  const uint64_t version = slot->seq.load(std::memory_order_acquire);
  stats_->Add(StatId::kGets);
  return ReadGuard(&slot->seq, &slot->page, version);
}

PageManager::ReadGuard PageManager::PeekLocked(PageId id) const {
  // Same acquisition and accounting as any other in-place read; the
  // separate entry point exists for its distinct contract (see header).
  return OptimisticRead(id);
}

PageManager::WriteGuard PageManager::BeginWrite(PageId id) {
  // Fire the "put" hook BEFORE taking the seqlock odd, mirroring Put: a
  // test pausing a writer here holds the paper lock but leaves the page
  // readable (the storage-model property the interleaving tests assert).
  MaybeTrap("put", id, /*error_eligible=*/false);
  assert(LocksHeldByThisThread() > 0);  // the paper lock is the mutator license
  Slot* slot = SlotFor(id);
  // The caller's paper lock excludes every Put/BeginWrite on this page;
  // only an in-flight reuse of a STALE page could hold the seq odd, and
  // the acquire discipline (validate as live under the lock first) rules
  // that out. The CAS loop is defensive.
  uint64_t seq = slot->seq.load(std::memory_order_relaxed);
  for (;;) {
    if ((seq & 1) == 0 &&
        slot->seq.compare_exchange_weak(seq, seq + 1,
                                        std::memory_order_acq_rel)) {
      break;
    }
  }
  if (paged_) {
    // Defensive re-fault: the caller validated the page under its paper
    // lock (PeekLocked), which pins it against eviction from then on —
    // but if a page was evicted before that lock/validate cycle the
    // image must come back before bytes are edited in place. We hold
    // the seqlock odd, so the fault-in is private.
    if (!(slot->state.load(std::memory_order_acquire) & kSlotResident)) {
      Page buf;
      Status s = store_->ReadPage(id, &buf.bytes[0]);
      // A store fault here cannot be surfaced (BeginWrite is
      // infallible by contract and the caller re-validates nothing);
      // zero-filling keeps the image inert and the caller's node-format
      // checks reject it. In practice the preceding PeekLocked already
      // faulted the page in, so this path is a race backstop.
      if (!s.ok()) std::memset(buf.bytes, 0, kPageSize);
      AtomicCopyIn(buf.bytes, slot->page.bytes, kPageSize);
      const uint32_t prev = slot->state.fetch_or(
          kSlotResident, std::memory_order_release);
      if (!(prev & kSlotResident)) {
        resident_count_.fetch_add(1, std::memory_order_relaxed);
      }
      stats_->Add(StatId::kStoreReads);
    }
    slot->state.fetch_or(kSlotDirty, std::memory_order_release);
  }
  stats_->Add(StatId::kPuts);
  return WriteGuard(&slot->seq, &slot->page);
}

void PageManager::Put(PageId id, const Page& in) {
  MaybeTrap("put", id, /*error_eligible=*/false);
  MaybeSimulateIo();
  Slot* slot = SlotFor(id);
  // Serialize concurrent puts on the same page via the seqlock's odd state.
  // Protocol-level locks already prevent concurrent writers in practice.
  uint64_t seq = slot->seq.load(std::memory_order_relaxed);
  for (;;) {
    if ((seq & 1) == 0 &&
        slot->seq.compare_exchange_weak(seq, seq + 1,
                                        std::memory_order_acq_rel)) {
      break;
    }
  }
  AtomicCopyIn(in.bytes, slot->page.bytes, kPageSize);
  // A put defines the page's full content: resident + dirty, no read.
  if (paged_) MarkResidentDirty(slot);
  slot->seq.store(seq + 2, std::memory_order_release);
  stats_->Add(StatId::kPuts);
  if (paged_) MaybeEvict();
}

bool PageManager::LockContended(Slot* slot, bool bounded) {
  // Telemetry only runs once contention is established: the uncontended
  // fast path (one CAS) never reads a clock or touches these counters.
  stats_->Add(StatId::kLocksContended);
  const auto t0 = std::chrono::steady_clock::now();
  const uint32_t spin = lock_spin_budget_.load(std::memory_order_relaxed);
  const uint32_t backoff = lock_backoff_max_.load(std::memory_order_relaxed);
  bool acquired;
  if (bounded) {
    acquired = slot->paper_lock.SpinAcquire(spin, backoff);
    if (!acquired) stats_->Add(StatId::kLockSpinGiveups);
  } else {
    if (slot->paper_lock.Lock(spin, backoff)) {
      stats_->Add(StatId::kLockParks);
    }
    acquired = true;
  }
  if (acquired) {
    stats_->RecordLockWait(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  return acquired;
}

void PageManager::Lock(PageId id) {
  MaybeTrap("lock", id, /*error_eligible=*/false);
  // First paper lock of a mutation: pass the checkpoint gate before
  // acquiring, so a checkpoint barrier sees every in-flight mutator as
  // "holds at least one lock" and can wait it out. Nested acquisitions
  // skip the gate — a lock holder must never block on the barrier, or a
  // checkpoint waiting for that holder would deadlock.
  if (paged_ && tl_locks_held == 0) EnterMutatorGate();
  Slot* slot = SlotFor(id);
  if (!slot->paper_lock.TryLock()) {
    LockContended(slot, /*bounded=*/false);
  }
  tl_locks_held++;
  stats_->Add(StatId::kLocksAcquired);
  stats_->RecordLockDepth(static_cast<uint64_t>(tl_locks_held));
}

bool PageManager::TryLock(PageId id) {
  const bool gated = paged_ && tl_locks_held == 0;
  if (gated && !TryEnterMutatorGate()) return false;
  if (!SlotFor(id)->paper_lock.TryLock()) {
    if (gated) ExitMutatorGate();
    return false;
  }
  tl_locks_held++;
  stats_->Add(StatId::kLocksAcquired);
  stats_->RecordLockDepth(static_cast<uint64_t>(tl_locks_held));
  return true;
}

bool PageManager::TryLockSpin(PageId id) {
  MaybeTrap("lock", id, /*error_eligible=*/false);
  const bool gated = paged_ && tl_locks_held == 0;
  if (gated) EnterMutatorGate();
  Slot* slot = SlotFor(id);
  if (!slot->paper_lock.TryLock() && !LockContended(slot, /*bounded=*/true)) {
    if (gated) ExitMutatorGate();
    return false;
  }
  tl_locks_held++;
  stats_->Add(StatId::kLocksAcquired);
  stats_->RecordLockDepth(static_cast<uint64_t>(tl_locks_held));
  return true;
}

void PageManager::Unlock(PageId id) {
  MaybeTrap("unlock", id, /*error_eligible=*/false);
  tl_locks_held--;
  assert(tl_locks_held >= 0);
  SlotFor(id)->paper_lock.Unlock();
  // Last lock released: this mutation is fully published (every Put /
  // WriteGuard release happened before the paper-lock release above), so
  // a checkpoint barrier that proceeds now captures it completely.
  if (paged_ && tl_locks_held == 0) ExitMutatorGate();
}

int PageManager::LocksHeldByThisThread() { return tl_locks_held; }

void PageManager::Retire(PageId id) {
  const Timestamp t = epoch_->Advance();
  std::lock_guard<std::mutex> l(retired_mu_);
  retired_.push_back(Retired{id, t});
  stats_->Add(StatId::kNodesRetired);
}

size_t PageManager::Reclaim() {
  const Timestamp min_active = epoch_->MinActive();
  size_t n = 0;
  std::lock_guard<std::mutex> a(alloc_mu_);
  std::lock_guard<std::mutex> l(retired_mu_);
  while (!retired_.empty() && retired_.front().time < min_active) {
    free_list_.push_back(retired_.front().id);
    retired_.pop_front();
    ++n;
  }
  if (n > 0) stats_->Add(StatId::kNodesReclaimed, n);
  return n;
}

size_t PageManager::live_pages() const {
  std::lock_guard<std::mutex> a(alloc_mu_);
  std::lock_guard<std::mutex> l(retired_mu_);
  return next_fresh_.load(std::memory_order_relaxed) - free_list_.size() -
         retired_.size();
}

size_t PageManager::retired_pages() const {
  std::lock_guard<std::mutex> l(retired_mu_);
  return retired_.size();
}

size_t PageManager::free_pages() const {
  std::lock_guard<std::mutex> l(alloc_mu_);
  return free_list_.size();
}

// --- buffer-pool internals (paged_ only) ------------------------------------

void PageManager::MarkResidentDirty(Slot* slot) const {
  const uint32_t prev = slot->state.fetch_or(kSlotResident | kSlotDirty,
                                             std::memory_order_release);
  if (!(prev & kSlotResident)) {
    resident_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

Status PageManager::EnsureResident(PageId id, Slot* slot) const {
  if (slot->state.load(std::memory_order_acquire) & kSlotResident) {
    return Status::OK();
  }
  return FaultInSlot(id, slot);
}

Status PageManager::FaultInSlot(PageId id, Slot* slot) const {
  // Take the slot's seqlock odd: the fault-in is then private — copy
  // readers wait, optimistic readers discard. Competing fault-ins on the
  // same page serialize here too.
  uint64_t seq = slot->seq.load(std::memory_order_relaxed);
  for (;;) {
    if ((seq & 1) == 0 &&
        slot->seq.compare_exchange_weak(seq, seq + 1,
                                        std::memory_order_acq_rel)) {
      break;
    }
  }
  // Lost a fault-in race (another thread published while we CASed)?
  if (slot->state.load(std::memory_order_acquire) & kSlotResident) {
    slot->seq.store(seq, std::memory_order_release);  // content untouched
    return Status::OK();
  }
  Page buf;
  Status s = store_->ReadPage(id, buf.bytes);
  if (!s.ok()) {
    // Restore the original even version: the arena content (zeroes) is
    // exactly what it was, so readers that captured `seq` lose nothing.
    slot->seq.store(seq, std::memory_order_release);
    return s;
  }
  AtomicCopyIn(buf.bytes, slot->page.bytes, kPageSize);
  slot->state.fetch_or(kSlotResident, std::memory_order_release);
  slot->seq.store(seq + 2, std::memory_order_release);
  resident_count_.fetch_add(1, std::memory_order_relaxed);
  stats_->Add(StatId::kStoreReads);
  MaybeEvict();
  return Status::OK();
}

void PageManager::MaybeEvict() const {
  if (pool_cap_ == 0) return;
  if (resident_count_.load(std::memory_order_relaxed) <= pool_cap_) return;
  // One sweeper at a time; everyone else goes on with their lives (the
  // pool budget is a soft target, not an admission control).
  std::unique_lock<std::mutex> lk(evict_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return;
  const uint32_t total = next_fresh_.load(std::memory_order_acquire);
  if (total == 0) return;
  size_t scanned = 0;
  while (resident_count_.load(std::memory_order_relaxed) > pool_cap_ &&
         scanned < 2ull * total) {
    const PageId victim = static_cast<PageId>(clock_hand_ % total);
    ++clock_hand_;
    ++scanned;
    TryEvictSlot(victim);
  }
}

bool PageManager::TryEvictSlot(PageId id) const {
  Slot* slot = SlotFor(id);
  if (!(slot->state.load(std::memory_order_acquire) & kSlotResident)) {
    return false;
  }
  // A locked page may be pinned by an in-place reader or writer whose
  // validated `live` pointer dereferences the arena bytes directly (see
  // PeekLocked): evicting under them would swap authentic content for
  // zeroes mid-read. The paper lock is what pins a validated image, so
  // take it — non-blocking, straight on the PaperLock (PageManager::
  // TryLock would perturb tl_locks_held and the checkpoint gate).
  if (!slot->paper_lock.TryLock()) return false;
  uint64_t seq = slot->seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot->seq.compare_exchange_strong(seq, seq + 1,
                                         std::memory_order_acq_rel)) {
    slot->paper_lock.Unlock();
    return false;
  }
  uint32_t state = slot->state.load(std::memory_order_acquire);
  if (!(state & kSlotResident)) {  // raced an eviction: nothing to do
    slot->seq.store(seq, std::memory_order_release);
    slot->paper_lock.Unlock();
    return false;
  }
  if (state & kSlotDirty) {
    Page buf;
    AtomicCopyOut(slot->page.bytes, buf.bytes, kPageSize);
    Status s = store_->WritePage(id, buf.bytes);
    if (!s.ok()) {
      // Keep the page resident and dirty; a later sweep or the next
      // checkpoint retries the write.
      slot->seq.store(seq, std::memory_order_release);
      slot->paper_lock.Unlock();
      return false;
    }
    stats_->Add(StatId::kStoreWrites);
  }
  // Zero the arena copy so a missed re-fault reads an inert empty image
  // (and so bugs in the residency protocol are loudly observable).
  AtomicZero(slot->page.bytes);
  slot->state.store(0, std::memory_order_release);
  slot->seq.store(seq + 2, std::memory_order_release);
  slot->paper_lock.Unlock();
  resident_count_.fetch_sub(1, std::memory_order_relaxed);
  stats_->Add(StatId::kPagesEvicted);
  return true;
}

// --- checkpoint gate --------------------------------------------------------

namespace {
// Per-thread gate hold depth. Only the 0->1 transition waits on a pending
// checkpoint and joins active_mutators_; nested entries (a paper-lock
// acquisition inside an open MutatorScope) just bump the depth, so a
// checkpoint barrier can never cut between the lock-holding steps of one
// logical operation, and a scope holder can never deadlock by re-waiting
// on the gate it already holds.
thread_local int tl_gate_depth = 0;
}  // namespace

void PageManager::EnterMutatorGate() {
  if (tl_gate_depth++ > 0) return;
  std::unique_lock<std::mutex> lk(gate_mu_);
  gate_cv_.wait(lk, [this] { return !checkpoint_blocking_; });
  ++active_mutators_;
}

bool PageManager::TryEnterMutatorGate() {
  if (tl_gate_depth > 0) {
    ++tl_gate_depth;
    return true;
  }
  std::lock_guard<std::mutex> lk(gate_mu_);
  if (checkpoint_blocking_) return false;
  ++active_mutators_;
  tl_gate_depth = 1;
  return true;
}

void PageManager::ExitMutatorGate() {
  assert(tl_gate_depth > 0);
  if (--tl_gate_depth > 0) return;
  std::lock_guard<std::mutex> lk(gate_mu_);
  if (--active_mutators_ == 0 && checkpoint_blocking_) {
    gate_cv_.notify_all();
  }
}

Status PageManager::Checkpoint(
    const std::function<void(StoreMeta*)>& fill_tree_meta) {
  if (!paged_) {
    return Status::FailedPrecondition("tree has no persistent store");
  }
  // A lock-holding (or scope-holding) thread calling Checkpoint would
  // wait for itself.
  assert(tl_locks_held == 0);
  assert(tl_gate_depth == 0);
  // Barrier: hold new mutators out, drain the in-flight ones. Readers
  // never touch the gate and keep running throughout.
  {
    std::unique_lock<std::mutex> lk(gate_mu_);
    gate_cv_.wait(lk, [this] { return !checkpoint_blocking_; });
    checkpoint_blocking_ = true;
    gate_cv_.wait(lk, [this] { return active_mutators_ == 0; });
  }
  Status result = Status::OK();
  {
    // Exclude the eviction sweep so no dirty page is concurrently staged
    // (double-writes would be harmless but wasteful) or zeroed mid-copy.
    std::lock_guard<std::mutex> ev(evict_mu_);
    StoreMeta meta;
    fill_tree_meta(&meta);
    const uint32_t total = next_fresh_.load(std::memory_order_acquire);
    Page buf;
    for (uint32_t id = 0; id < total; ++id) {
      Slot* slot = SlotFor(id);
      const uint32_t state = slot->state.load(std::memory_order_acquire);
      if (!(state & kSlotDirty)) continue;
      // No mutators and no eviction: the content is frozen, so a plain
      // word-granular copy is a consistent snapshot (readers only read).
      AtomicCopyOut(slot->page.bytes, buf.bytes, kPageSize);
      Status s = store_->WritePage(id, buf.bytes);
      if (!s.ok()) {
        result = s;
        break;
      }
      stats_->Add(StatId::kStoreWrites);
      // Clear dirty only after a successful stage. If the later Commit
      // fails, the staged image survives in the store's pending set and
      // rides into the next checkpoint's commit — nothing is lost.
      slot->state.fetch_and(~kSlotDirty, std::memory_order_release);
    }
    if (result.ok()) {
      meta.next_fresh = total;
      {
        std::lock_guard<std::mutex> a(alloc_mu_);
        std::lock_guard<std::mutex> r(retired_mu_);
        meta.free_pages = free_list_;
        // Retired pages are plain free pages after recovery: no reader
        // from before the crash can still be in flight.
        for (const Retired& rt : retired_) meta.free_pages.push_back(rt.id);
      }
      result = store_->Commit(&meta);
      if (result.ok()) stats_->Add(StatId::kCheckpoints);
    }
  }
  {
    std::lock_guard<std::mutex> lk(gate_mu_);
    checkpoint_blocking_ = false;
  }
  gate_cv_.notify_all();
  return result;
}

void PageManager::RestoreFromMeta(const StoreMeta& meta) {
  next_fresh_.store(meta.next_fresh, std::memory_order_release);
  for (size_t c = 0; (c << kChunkBits) < meta.next_fresh; ++c) {
    EnsureChunk(c);
  }
  std::lock_guard<std::mutex> a(alloc_mu_);
  free_list_ = meta.free_pages;
}

}  // namespace obtree
