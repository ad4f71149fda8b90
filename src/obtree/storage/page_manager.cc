// Copyright 2026 The obtree Authors.

#include "obtree/storage/page_manager.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>

#include <sys/mman.h>

#include "obtree/util/thread_index.h"

namespace obtree {

namespace {

// Paper-lock depth of the calling thread. A thread interacts with one tree
// at a time in all our protocols, so a single per-thread counter suffices
// to validate the "locks held simultaneously" claims.
thread_local int tl_locks_held = 0;

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

// Zero a frame with the same word-granular atomic stores as AtomicCopyIn:
// optimistic readers may still be probing a frame while its reuse zeroes
// it, and a plain memset racing those atomic loads would be undefined.
void AtomicZero(uint8_t* dst, size_t bytes) {
  auto* d = reinterpret_cast<uint64_t*>(dst);
  for (size_t i = 0; i < bytes / 8; ++i) {
    PageStoreWord(&d[i], 0);
  }
}

// What a store image must hold past the end of a frame.
alignas(64) constexpr uint8_t kZeroPage[kPageSize] = {};

}  // namespace

PageManager::PageManager(EpochManager* epoch, StatsCollector* stats,
                         FileStore* store, uint32_t buffer_pool_pages,
                         size_t max_node_bytes)
    : epoch_(epoch),
      stats_(stats),
      store_(store),
      paged_(store != nullptr),
      pool_cap_(paged_ ? buffer_pool_pages : 0),
      stride_(FrameStride(max_node_bytes)),
      frame_bytes_(std::min(stride_, kPageSize)),
      chunk_bytes_(ChunkBytes(stride_)),
      frame_chunks_(kMaxChunks),
      gate_slots_(paged_ ? std::make_unique<GateSlot[]>(kGateSlots) : nullptr),
      meta_chunks_(kMaxChunks),
      next_fresh_(0) {
  assert(epoch != nullptr && stats != nullptr);
  assert(max_node_bytes <= kPageSize);
  static_assert(
      [] {
        for (size_t node = 64; node <= kPageSize; node += 64) {
          if (ChunkBytes(FrameStride(node)) >
              ChunkBytes(FrameStride(kPageSize))) {
            return false;
          }
        }
        return true;
      }(),
      "no frame size may map a chunk larger than full-page frames do");
  for (auto& c : frame_chunks_) c.store(nullptr, std::memory_order_relaxed);
  for (auto& c : meta_chunks_) c.store(nullptr, std::memory_order_relaxed);
}

PageManager::~PageManager() {
  // Drop our share of the shared trap gate if a hook is still installed.
  if (test_hook_ != nullptr) FaultInjector::ReleaseTrapRef();
  for (auto& c : meta_chunks_) {
    delete c.load(std::memory_order_relaxed);
  }
  for (auto& c : frame_chunks_) {
    uint8_t* frames = c.load(std::memory_order_relaxed);
    if (frames != nullptr) munmap(frames, chunk_bytes_);
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

PageManager::Meta* PageManager::MetaFor(PageId id) const {
  MetaChunk* chunk =
      meta_chunks_[id >> kChunkBits].load(std::memory_order_acquire);
  assert(chunk != nullptr);
  return &chunk->meta[id & (kChunkSize - 1)];
}

void PageManager::EnsureMetaChunk(size_t chunk_index) {
  if (meta_chunks_[chunk_index].load(std::memory_order_relaxed) == nullptr) {
    meta_chunks_[chunk_index].store(new MetaChunk(),
                                    std::memory_order_release);
  }
}

Page* PageManager::Frame(uint32_t state) const {
  const uint32_t frame = state >> kFrameShift;
  uint8_t* chunk = frame_chunks_[frame >> kChunkBits].load(
      std::memory_order_acquire);
  assert(chunk != nullptr);
  return reinterpret_cast<Page*>(chunk + (frame & (kChunkSize - 1)) * stride_);
}

void PageManager::CopyFrameOut(const Page* frame, Page* out) const {
  AtomicCopyOut(frame->bytes, out->bytes, frame_bytes_);
  std::memset(out->bytes + frame_bytes_, 0, kPageSize - frame_bytes_);
}

uint64_t PageManager::BeginSeqWrite(Meta* m) {
  uint64_t seq = m->seq.load(std::memory_order_relaxed);
  for (;;) {
    if ((seq & 1) != 0) {
      // Another writer (often a fault-in waiting on the store) holds the
      // page: let it run, then look again.
      std::this_thread::yield();
      seq = m->seq.load(std::memory_order_relaxed);
    } else if (m->seq.compare_exchange_weak(seq, seq + 1,
                                            std::memory_order_acq_rel)) {
      return seq;
    }
  }
}

Result<PageId> PageManager::Allocate() {
  if (MaybeTrap("alloc", kInvalidPageId, /*error_eligible=*/true)) {
    // Protocol error paths (split/root-creation failures) must unlock
    // everything and leave the tree valid. FaultInjectionTest arms this
    // site with skip_first to fail every allocation after the first few.
    return Status::Unavailable("injected allocation fault");
  }
  PageId id;
  {
    std::lock_guard<std::mutex> l(alloc_mu_);
    // Opportunistically harvest retired pages before growing the arena.
    if (free_list_.empty()) HarvestRetiredLocked();
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
    } else {
      id = next_fresh_.load(std::memory_order_relaxed);
      if ((id >> kChunkBits) >= kMaxChunks) {
        return Status::ResourceExhausted("page arena exhausted");
      }
      // The metadata chunk exists before the frontier covers the page,
      // so the sweep and the checkpoint can index every id below it.
      EnsureMetaChunk(id >> kChunkBits);
      next_fresh_.store(id + 1, std::memory_order_release);
    }
  }
  // Zero the page under its seqlock so no reader sees a blend of a dead
  // node and the new one. The zeroed image fully defines the content:
  // resident and dirty with no store read.
  Meta* m = MetaFor(id);
  const uint64_t seq = BeginSeqWrite(m);
  FrameForWrite(m, /*zero=*/true);
  m->seq.store(seq + 2, std::memory_order_release);
  if (paged_) MaybeEvict();
  return id;
}

Status PageManager::Get(PageId id, Page* out) const {
  if (MaybeTrap("get", id, /*error_eligible=*/tl_locks_held == 0)) {
    // Injected fetch failure: hand back an inert zeroed image so a caller
    // that ignores the status decodes an empty node (restart / no-op),
    // never stale garbage. `out` is caller-private; plain stores suffice.
    std::memset(out->bytes, 0, kPageSize);
    return Status::Unavailable("injected page-fetch failure");
  }
  Meta* m = MetaFor(id);
  for (;;) {
    if (paged_) {
      // Fault the page in if evicted. Checked inside the loop: an
      // eviction can land between iterations, and its frame may already
      // hold another page.
      Status s = EnsureResident(id, m);
      if (!s.ok()) {
        std::memset(out->bytes, 0, kPageSize);
        return s;
      }
    }
    const uint64_t s1 = m->seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // a put is in flight
    const uint32_t st = m->state.load(std::memory_order_acquire);
    if (!(st & kResident)) {
      assert(paged_);
      continue;  // evicted after the fault-in: re-fault
    }
    CopyFrameOut(Frame(st), out);
    if (SeqlockUnchanged(m->seq, s1)) {
      Touch(m, st);
      break;
    }
  }
  stats_->Add(StatId::kGets);
  return Status::OK();
}

PageManager::ReadGuard PageManager::OptimisticRead(PageId id) const {
  if (MaybeTrap("get", id, /*error_eligible=*/tl_locks_held == 0)) {
    // Injected fetch failure.
    return ReadGuard::Faulted(Status::Code::kUnavailable);
  }
  Meta* m = MetaFor(id);
  for (;;) {
    if (paged_) {
      Status s = EnsureResident(id, m);
      if (!s.ok()) return ReadGuard::Faulted(s.code());  // store read error
    }
    // Version, then state, then (in the caller) the frame: a sweep that
    // evicts the page after the fault-in above shows up here as a
    // non-resident state, or later as a moved version in Validate().
    const uint64_t version = m->seq.load(std::memory_order_acquire);
    const uint32_t st = m->state.load(std::memory_order_acquire);
    if (!(st & kResident)) {
      assert(paged_);
      continue;  // evicted between the fault-in and the version: re-fault
    }
    Touch(m, st);
    stats_->Add(StatId::kGets);
    return ReadGuard(&m->seq, Frame(st), version);
  }
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
  Meta* m = MetaFor(id);
  // The caller's paper lock excludes every Put/BeginWrite on this page;
  // only an in-flight reuse of a STALE page could hold the seq odd, and
  // the acquire discipline (validate as live under the lock first) rules
  // that out. The wait in BeginSeqWrite is defensive.
  BeginSeqWrite(m);
  // The caller validated the page under its paper lock (PeekLocked), and
  // the sweep cannot evict a locked page: it is resident in its frame.
  const uint32_t st = m->state.load(std::memory_order_relaxed);
  assert(st & kResident);
  if (paged_) {
    m->state.fetch_or(kDirty | kReferenced, std::memory_order_relaxed);
  }
  stats_->Add(StatId::kPuts);
  return WriteGuard(&m->seq, Frame(st));
}

void PageManager::Put(PageId id, const Page& in, size_t bytes) {
  assert(bytes % 8 == 0 && bytes <= kPageSize);
  bytes = std::min(bytes, frame_bytes_);
  MaybeTrap("put", id, /*error_eligible=*/false);
  Meta* m = MetaFor(id);
  // Serialize concurrent puts on the same page via the seqlock's odd state.
  // Protocol-level locks already prevent concurrent writers in practice.
  const uint64_t seq = BeginSeqWrite(m);
  // A put defines the page's content: resident + dirty, no store read. A
  // short put into a frame taken just now zeroes the frame first, since
  // the page's zeroed image went out with its old frame.
  const bool zero = bytes < frame_bytes_ &&
                    !(m->state.load(std::memory_order_relaxed) & kResident);
  AtomicCopyIn(in.bytes, FrameForWrite(m, zero)->bytes, bytes);
  m->seq.store(seq + 2, std::memory_order_release);
  stats_->Add(StatId::kPuts);
  if (paged_) MaybeEvict();
}

bool PageManager::LockContended(Meta* m, bool bounded) {
  // Telemetry only runs once contention is established: the uncontended
  // fast path (one CAS) never reads a clock or touches these counters.
  stats_->Add(StatId::kLocksContended);
  const auto t0 = std::chrono::steady_clock::now();
  bool acquired;
  if (bounded) {
    acquired = m->paper_lock.SpinAcquire();
    if (!acquired) stats_->Add(StatId::kLockSpinGiveups);
  } else {
    if (m->paper_lock.Lock()) {
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
  Meta* m = MetaFor(id);
  if (!m->paper_lock.TryLock()) {
    LockContended(m, /*bounded=*/false);
  }
  tl_locks_held++;
  stats_->Add(StatId::kLocksAcquired);
  stats_->RecordLockDepth(static_cast<uint64_t>(tl_locks_held));
}

bool PageManager::TryLock(PageId id) {
  const bool gated = paged_ && tl_locks_held == 0;
  if (gated && !TryEnterMutatorGate()) return false;
  if (!MetaFor(id)->paper_lock.TryLock()) {
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
  Meta* m = MetaFor(id);
  if (!m->paper_lock.TryLock() && !LockContended(m, /*bounded=*/true)) {
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
  MetaFor(id)->paper_lock.Unlock();
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
  std::lock_guard<std::mutex> a(alloc_mu_);
  return HarvestRetiredLocked();
}

size_t PageManager::HarvestRetiredLocked() {
  // The floor is MinActive() capped by the clock read before it. A page
  // retired after that read ticked the clock past the cap, so it waits
  // for a later harvest. Uncapped, a page retired between the slot scan
  // and the list lock would be judged by a floor that predates its tick,
  // and freed while an operation that pinned after the scan still holds
  // its id. A page retired at or before the read ticked before the scan,
  // so the scan sees every operation that may hold it.
  const Timestamp now = epoch_->Now();
  const Timestamp floor = std::min(now + 1, epoch_->MinActive());
  size_t n = 0;
  std::lock_guard<std::mutex> l(retired_mu_);
  while (!retired_.empty() && retired_.front().time < floor) {
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

// --- frame arena and buffer pool -------------------------------------------

Page* PageManager::FrameForWrite(Meta* m, bool zero) const {
  uint32_t st = m->state.load(std::memory_order_relaxed);
  bool fresh = false;
  if (st & kResident) {
    if (paged_) {
      m->state.fetch_or(kDirty | kReferenced, std::memory_order_relaxed);
    }
  } else {
    st = AcquireFrame(&fresh) << kFrameShift | kResident |
         (paged_ ? kDirty | kReferenced : 0u);
    // Release: a reader that sees this state also sees the frame's chunk.
    m->state.store(st, std::memory_order_release);
    resident_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Page* frame = Frame(st);
  if (zero && !fresh) AtomicZero(frame->bytes, frame_bytes_);
  return frame;
}

uint32_t PageManager::AcquireFrame(bool* fresh) const {
  for (;;) {
    {
      std::lock_guard<std::mutex> l(frame_mu_);
      if (!free_frames_.empty()) {
        const uint32_t frame = free_frames_.back();
        free_frames_.pop_back();
        return frame;
      }
      if (pool_cap_ == 0 || frame_count_.load(std::memory_order_relaxed) <
                                static_cast<uint64_t>(pool_cap_) +
                                    kFrameSlack) {
        if (fresh) *fresh = true;
        return CarveFrameLocked();
      }
    }
    // Every frame is taken: evict a page for one. Waits for a sweep in
    // progress, which may free the frame this thread needs.
    std::lock_guard<std::mutex> ev(evict_mu_);
    {
      std::lock_guard<std::mutex> l(frame_mu_);
      if (!free_frames_.empty()) continue;
    }
    if (EvictPages(1) == 0) {
      // Every resident page is pinned by a paper or seq lock: exceed the
      // cap rather than wait on holders that may need a frame themselves.
      std::lock_guard<std::mutex> l(frame_mu_);
      return CarveFrameLocked();
    }
  }
}

uint32_t PageManager::CarveFrameLocked() const {
  const uint32_t frame = frame_count_.load(std::memory_order_relaxed);
  const size_t chunk = frame >> kChunkBits;
  // A frame per page at most, so the page-id limit bounds this too.
  assert(chunk < kMaxChunks);
  if (frame_chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
    // Anonymous mappings come back zeroed. A chunk whose frames will all
    // be carved is faulted in here, at once, so a split does not pay a
    // page fault on its fresh frame. It also goes on transparent huge
    // pages, so a frame visit does not pay a TLB miss per 4 KiB: mapped
    // 2 MiB too long and trimmed to start on a 2 MiB boundary at its exact
    // size (what the destructor unmaps), advised, and only then populated
    // one byte per 4 KiB page, since a page faulted before the advice (as
    // MAP_POPULATE would) is faulted as 4 KiB. Without THP, or if the
    // advice fails, it is populated on 4 KiB pages. The last chunk of a
    // bounded pool is neither advised nor populated: it faults frame by
    // frame, so its unused tail costs no memory.
    const bool filled =
        pool_cap_ == 0 || (chunk + 1) * kChunkSize <= pool_cap_ + kFrameSlack;
    const size_t span = filled ? chunk_bytes_ + kHugePage : chunk_bytes_;
    void* p = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    uint8_t* frames = static_cast<uint8_t*>(p);
    if (filled) {
      const uintptr_t at = reinterpret_cast<uintptr_t>(frames);
      const size_t head = ((at + kHugePage - 1) & ~(kHugePage - 1)) - at;
      if (head != 0) munmap(frames, head);
      frames += head;
      munmap(frames + chunk_bytes_, kHugePage - head);
#ifdef MADV_HUGEPAGE
      madvise(frames, chunk_bytes_, MADV_HUGEPAGE);
#endif
      // Unpublished yet: no reader races these stores.
      volatile uint8_t* touch = frames;
      for (size_t off = 0; off < chunk_bytes_; off += 4096) touch[off] = 0;
    }
    frame_chunks_[chunk].store(frames, std::memory_order_release);
  }
  frame_count_.store(frame + 1, std::memory_order_relaxed);
  return frame;
}

Status PageManager::EnsureResident(PageId id, Meta* m) const {
  if (m->state.load(std::memory_order_acquire) & kResident) {
    return Status::OK();
  }
  return FaultIn(id, m);
}

Status PageManager::FaultIn(PageId id, Meta* m) const {
  // Take the seqlock odd: the fault-in is then private — copy readers
  // wait, optimistic readers discard. Competing fault-ins on the same
  // page serialize here too.
  const uint64_t seq = BeginSeqWrite(m);
  // Lost a fault-in race (another thread published while we waited)?
  if (m->state.load(std::memory_order_acquire) & kResident) {
    m->seq.store(seq, std::memory_order_release);  // content untouched
    return Status::OK();
  }
  Page buf;
  Status s = store_->ReadPage(id, buf.bytes);
  // An image with bytes past the frame holds a node larger than this
  // manager's (a store written with a larger min_entries): refuse it
  // rather than truncate its entries.
  if (s.ok() && std::memcmp(buf.bytes + frame_bytes_, kZeroPage,
                            kPageSize - frame_bytes_) != 0) {
    s = Status::DataLoss("page " + std::to_string(id) +
                         " does not fit a frame of " +
                         std::to_string(frame_bytes_) + " bytes");
  }
  if (!s.ok()) {
    // Restore the original even version: the page still has no frame,
    // so readers that captured `seq` lose nothing.
    m->seq.store(seq, std::memory_order_release);
    return s;
  }
  const uint32_t frame_state =
      AcquireFrame(nullptr) << kFrameShift | kResident | kReferenced;
  // Readers of the frame's previous page may still be probing it; they
  // fail validation, and the atomic stores keep their loads defined.
  AtomicCopyIn(buf.bytes, Frame(frame_state)->bytes, frame_bytes_);
  m->state.store(frame_state, std::memory_order_release);
  m->seq.store(seq + 2, std::memory_order_release);
  resident_count_.fetch_add(1, std::memory_order_relaxed);
  stats_->Add(StatId::kStoreReads);
  MaybeEvict();
  return Status::OK();
}

void PageManager::MaybeEvict() const {
  if (pool_cap_ == 0) return;
  if (resident_count_.load(std::memory_order_relaxed) <= pool_cap_) return;
  // One sweeper at a time; everyone else goes on with their lives (the
  // pool budget is a soft target; kFrameSlack absorbs the overshoot).
  std::unique_lock<std::mutex> lk(evict_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return;
  const size_t resident = resident_count_.load(std::memory_order_relaxed);
  if (resident > pool_cap_) EvictPages(resident - pool_cap_);
}

size_t PageManager::EvictPages(size_t n) const {
  const PageId total = next_fresh_.load(std::memory_order_acquire);
  size_t evicted = 0;
  // Three passes at most: the first two can only clear reference bits.
  for (size_t scanned = 0; evicted < n && scanned < 3ull * total;
       ++scanned) {
    if (clock_hand_ >= total) clock_hand_ = 0;
    const PageId id = clock_hand_++;
    Meta* m = MetaFor(id);
    const uint32_t st = m->state.load(std::memory_order_relaxed);
    if (!(st & kResident)) continue;
    if (st & kReferenced) {  // second chance
      m->state.fetch_and(~kReferenced, std::memory_order_relaxed);
      continue;
    }
    if (TryEvict(id)) ++evicted;
  }
  return evicted;
}

bool PageManager::TryEvict(PageId id) const {
  Meta* m = MetaFor(id);
  // A locked page may be pinned by an in-place reader or writer whose
  // validated `live` pointer dereferences its frame directly (see
  // PeekLocked): handing the frame to another page under them would
  // swap in foreign content mid-read. The paper lock is what pins a
  // validated image, so take it — non-blocking, straight on the
  // PaperLock (PageManager::TryLock would perturb tl_locks_held and the
  // checkpoint gate).
  if (!m->paper_lock.TryLock()) return false;
  uint64_t seq = m->seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !m->seq.compare_exchange_strong(seq, seq + 1,
                                      std::memory_order_acq_rel)) {
    m->paper_lock.Unlock();
    return false;
  }
  const uint32_t st = m->state.load(std::memory_order_acquire);
  if (!(st & kResident)) {  // raced an eviction: nothing to do
    m->seq.store(seq, std::memory_order_release);
    m->paper_lock.Unlock();
    return false;
  }
  if (st & kDirty) {
    Page buf;
    CopyFrameOut(Frame(st), &buf);
    Status s = store_->WritePage(id, buf.bytes);
    if (!s.ok()) {
      // Keep the page resident and dirty; a later sweep or the next
      // checkpoint retries the write.
      m->seq.store(seq, std::memory_order_release);
      m->paper_lock.Unlock();
      return false;
    }
    stats_->Add(StatId::kStoreWrites);
  }
  // The frame keeps its bytes: the version bump below is what tells a
  // reader still probing the frame that its bytes are no longer this
  // page's.
  m->state.store(0, std::memory_order_release);
  m->seq.store(seq + 2, std::memory_order_release);
  m->paper_lock.Unlock();
  resident_count_.fetch_sub(1, std::memory_order_relaxed);
  stats_->Add(StatId::kPagesEvicted);
  std::lock_guard<std::mutex> l(frame_mu_);
  free_frames_.push_back(st >> kFrameShift);
  return true;
}

// --- checkpoint gate --------------------------------------------------------

namespace {
// Per-thread gate hold depth. Only the 0->1 transition enters the gate
// (bumps the thread's gate slot, waiting out a pending checkpoint); nested
// entries (a paper-lock acquisition inside an open MutatorScope) just bump
// the depth, so a checkpoint barrier can never cut between the
// lock-holding steps of one logical operation, and a scope holder can
// never deadlock by re-waiting on the gate it already holds.
thread_local int tl_gate_depth = 0;
}  // namespace

PageManager::GateSlot& PageManager::MyGateSlot() {
  return gate_slots_[ThisThreadIndex() % kGateSlots];
}

bool PageManager::TryJoinGate(GateSlot& slot) {
  // Store-then-load: publish this mutator, then look for a checkpoint.
  slot.mutators.fetch_add(1, std::memory_order_seq_cst);
  if (!checkpoint_blocking_.load(std::memory_order_seq_cst)) return true;
  LeaveGate(slot);  // back out: the checkpointer may be waiting on us
  return false;
}

void PageManager::LeaveGate(GateSlot& slot) {
  // Store-then-load again: a checkpointer that saw our count before this
  // decrement raised its flag first, so we see the flag and wake it.
  slot.mutators.fetch_sub(1, std::memory_order_seq_cst);
  if (checkpoint_blocking_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lk(gate_mu_);
    gate_cv_.notify_all();
  }
}

void PageManager::EnterMutatorGate() {
  if (tl_gate_depth++ > 0) return;
  GateSlot& slot = MyGateSlot();
  while (!TryJoinGate(slot)) {
    std::unique_lock<std::mutex> lk(gate_mu_);
    gate_cv_.wait(lk, [this] {
      return !checkpoint_blocking_.load(std::memory_order_seq_cst);
    });
  }
}

bool PageManager::TryEnterMutatorGate() {
  if (tl_gate_depth > 0) {
    ++tl_gate_depth;
    return true;
  }
  if (!TryJoinGate(MyGateSlot())) return false;
  tl_gate_depth = 1;
  return true;
}

void PageManager::ExitMutatorGate() {
  assert(tl_gate_depth > 0);
  if (--tl_gate_depth > 0) return;
  LeaveGate(MyGateSlot());
}

bool PageManager::GateDrained() const {
  for (uint32_t i = 0; i < kGateSlots; ++i) {
    if (gate_slots_[i].mutators.load(std::memory_order_seq_cst) != 0) {
      return false;
    }
  }
  return true;
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
    gate_cv_.wait(lk, [this] {
      return !checkpoint_blocking_.load(std::memory_order_seq_cst);
    });
    checkpoint_blocking_.store(true, std::memory_order_seq_cst);
    gate_cv_.wait(lk, [this] { return GateDrained(); });
  }
  Status result = Status::OK();
  {
    // Exclude the eviction sweep so no dirty page is concurrently staged
    // (double-writes would be harmless but wasteful) or loses its frame
    // mid-copy.
    std::lock_guard<std::mutex> ev(evict_mu_);
    StoreMeta meta;
    fill_tree_meta(&meta);
    const uint32_t total = next_fresh_.load(std::memory_order_acquire);
    Page buf;
    for (uint32_t id = 0; id < total; ++id) {
      Meta* m = MetaFor(id);
      const uint32_t state = m->state.load(std::memory_order_acquire);
      if (!(state & kDirty)) continue;
      // No mutators and no eviction: the content is frozen, so a plain
      // word-granular copy is a consistent snapshot (readers only read).
      CopyFrameOut(Frame(state), &buf);
      Status s = store_->WritePage(id, buf.bytes);
      if (!s.ok()) {
        result = s;
        break;
      }
      stats_->Add(StatId::kStoreWrites);
      // Clear dirty only after a successful stage. If the later Commit
      // fails, the staged image survives in the store's pending set and
      // rides into the next checkpoint's commit — nothing is lost.
      m->state.fetch_and(~kDirty, std::memory_order_release);
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
    checkpoint_blocking_.store(false, std::memory_order_seq_cst);
  }
  gate_cv_.notify_all();
  return result;
}

void PageManager::RestoreFromMeta(const StoreMeta& meta) {
  // Metadata only: every page starts non-resident and takes a frame on
  // its first fault-in. The store rejects a manifest past kMaxPageIds.
  assert(meta.next_fresh <= kMaxPageIds);
  std::lock_guard<std::mutex> a(alloc_mu_);
  for (size_t c = 0; (c << kChunkBits) < meta.next_fresh; ++c) {
    EnsureMetaChunk(c);
  }
  next_fresh_.store(meta.next_fresh, std::memory_order_release);
  free_list_ = meta.free_pages;
}

}  // namespace obtree
