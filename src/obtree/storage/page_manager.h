// Copyright 2026 The obtree Authors.
//
// PageManager implements the storage model of Section 2.2:
//
//   * get(x)  — returns the contents of the node pointed to by x;
//   * put(A,x) — writes buffer A into the node pointed to by x;
//     get/put on the same node are indivisible with respect to each other;
//   * lock(x)/unlock(x) — the paper's single lock type: it blocks other
//     lockers but does NOT block readers ("a lock on a node does not
//     prevent other processes from reading the locked node").
//
// Indivisibility is provided by a per-page seqlock, so readers never block
// and never observe a torn node image. The paper lock is a separate
// per-page PaperLock (paper_lock.h): a compact test-and-test-and-set
// spin-then-park lock, because the hot-path critical sections are a few
// hundred ns and parking every contended writer in the kernel is what
// capped single-tree multi-core scaling. On top of the literal get/put,
// two in-place fast paths
// ride the same seqlock: OptimisticRead (version-validated reads that
// move no bytes) and BeginWrite/WriteGuard (a paper-lock holder mutating
// the live page between odd/even version bumps — one node access instead
// of the get + put pair).
//
// Deallocation follows Section 5.3: deleted pages are *retired* with a
// deletion timestamp and returned to the free list only once every active
// operation started after that timestamp (EpochManager::MinActive).

#ifndef OBTREE_STORAGE_PAGE_MANAGER_H_
#define OBTREE_STORAGE_PAGE_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obtree/storage/page.h"
#include "obtree/storage/file_store.h"
#include "obtree/storage/paper_lock.h"
#include "obtree/util/common.h"
#include "obtree/util/epoch.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/stats.h"
#include "obtree/util/status.h"

namespace obtree {

/// Allocator + indivisible reader/writer + paper-lock table for pages.
class PageManager {
 public:
  /// @param epoch governs deferred release of retired pages (§5.3); must
  ///              outlive the manager.
  /// @param stats counter sink; must outlive the manager. May not be null.
  /// @param store backing file store for page images (must outlive the
  ///              manager), or nullptr for an in-memory manager: pages
  ///              live only in the RAM arena and every store-related
  ///              path below (residency, eviction, checkpoint gate) is
  ///              skipped on the hot paths behind one plain bool. A
  ///              store turns the frame arena into a buffer pool over
  ///              it: non-resident pages fault in on access
  ///              (kStoreReads), dirty pages stage out on eviction and
  ///              checkpoint (kStoreWrites).
  /// @param buffer_pool_pages resident-page budget over a store (0 =
  ///              unbounded); it also caps the frame arena at
  ///              buffer_pool_pages + kFrameSlack frames. See
  ///              TreeOptions::buffer_pool_pages.
  /// @param max_node_bytes the largest image the manager's users put (a
  ///              tree passes NodeBytes(options.capacity())); at most
  ///              kPageSize. It sizes the frames (FrameStride), and so
  ///              the RAM a resident page takes; store slots stay a
  ///              full page.
  PageManager(EpochManager* epoch, StatsCollector* stats,
              FileStore* store = nullptr, uint32_t buffer_pool_pages = 0,
              size_t max_node_bytes = kPageSize);
  ~PageManager();
  OBTREE_DISALLOW_COPY_AND_ASSIGN(PageManager);

  /// Allocate a zeroed page. Reuses reclaimable retired pages first.
  Result<PageId> Allocate();

  /// Test-only interleaving hook: when set, invoked at the entry of Get
  /// ("get"), Put/BeginWrite ("put"), Lock ("lock") and Unlock
  /// ("unlock") with the page id. Tests use it to pause a protocol thread
  /// at an exact point (e.g. after a merge wrote the gaining child but
  /// before the parent) and observe the tree from other threads. Set/clear
  /// only while those calls cannot race the change.
  ///
  /// Hooks and FaultInjector failpoints share one site-naming scheme (the
  /// op string IS the failpoint site) and one hot-path gate: when neither
  /// a hook nor any fault site is armed, every call collapses to a single
  /// relaxed atomic load (FaultInjector::TrapsArmed()).
  using TestHook = std::function<void(const char* op, PageId id)>;
  void SetTestHook(TestHook hook) {
    const bool had = test_hook_ != nullptr;
    test_hook_ = std::move(hook);
    const bool has = test_hook_ != nullptr;
    has_test_hook_.store(has, std::memory_order_release);
    if (has && !had) FaultInjector::AddTrapRef();
    if (!has && had) FaultInjector::ReleaseTrapRef();
  }

  /// Indivisible read of a page into *out (the paper's get(x)): the
  /// frame's bytes, then zeroes to the end of the page. Every
  /// node access (Get, OptimisticRead, PeekLocked) evaluates the "get"
  /// failpoint once and counts one StatId::kGets; every Put and BeginWrite
  /// does the same with "put" and kPuts. Outside a ScopedExemption, a
  /// FaultAction::kStall armed on both sites therefore charges a latency
  /// per §2.2 cost unit, which is how the benches model nodes on
  /// secondary storage.
  ///
  /// Fallible: a failed fault-in of an evicted page returns the store's
  /// error (DataLoss for a corrupt image), and a fault armed on site
  /// "get" can inject Status::Unavailable. On failure *out is zeroed,
  /// which a page-format reader decodes as an inert empty node: a caller
  /// that ignores the status (maintenance code runs exempt; legacy
  /// baselines are not fault-hardened) restarts or no-ops instead of
  /// acting on garbage.
  /// Errors are only injected into lock-free readers (threads holding a
  /// paper lock are immune — their reads sit between mutation steps where
  /// "retry later" is not an option); stalls can hit anyone.
  Status Get(PageId id, Page* out) const;

  /// Handle for an optimistic in-place read of one page: the live page
  /// plus the seqlock version observed at acquisition. The page content
  /// may be rewritten underneath at any time, so anything read through
  /// page() is untrusted garbage until Validate() returns true AFTER the
  /// reads — and every access to page() bytes must go through relaxed
  /// atomic loads (see NodeView) to stay defined under a racing Put.
  /// page() is the page's frame at acquisition; if the page is evicted
  /// meanwhile, the frame may already hold another page's image, and the
  /// eviction's version bumps make Validate() fail exactly as a rewrite
  /// would.
  class ReadGuard {
   public:
    /// Invalid guard: stable() and Validate() are false.
    ReadGuard() = default;

    /// The live page image (never copied). nullptr on an invalid guard.
    const Page* page() const { return page_; }

    /// True if no put was in flight when the guard was acquired. An
    /// unstable guard can never validate; re-acquire instead of spinning
    /// on Validate().
    bool stable() const { return seq_ != nullptr && (version_ & 1) == 0; }

    /// True if the fetch itself failed (an injected fault on site "get",
    /// or a store read error faulting the page in). Never stable. Unlike
    /// a torn read, re-reading at once rarely helps: callers retry a
    /// transient fault with backoff (SagivTree::FetchPage) or surface
    /// fault().
    bool faulted() const { return fault_ != Status::Code::kOk; }

    /// Why the fetch failed: DataLoss when the stored image is corrupt
    /// (it failed its checksum, or is truncated; every re-read returns
    /// the same bytes, so it is never worth retrying), Unavailable for an
    /// injected fault or any other store error. OK when not faulted.
    Status fault() const {
      switch (fault_) {
        case Status::Code::kOk:
          return Status::OK();
        case Status::Code::kDataLoss:
          return Status::DataLoss("page fetch failed: corrupt page image");
        default:
          return Status::Unavailable("page fetch failed");
      }
    }

    /// True iff no put has started or finished on the page since
    /// acquisition — everything read from page() in between is a
    /// consistent snapshot. (Page reuse via Retire/Allocate also bumps
    /// the version, so a recycled page never validates.)
    bool Validate() const {
      return stable() && SeqlockUnchanged(*seq_, version_);
    }

   private:
    friend class PageManager;
    ReadGuard(const std::atomic<uint64_t>* seq, const Page* page,
              uint64_t version)
        : seq_(seq), page_(page), version_(version) {}
    static ReadGuard Faulted(Status::Code code) {
      ReadGuard g;
      g.fault_ = code;
      return g;
    }

    const std::atomic<uint64_t>* seq_ = nullptr;
    const Page* page_ = nullptr;
    uint64_t version_ = 1;  // odd: never validates
    Status::Code fault_ = Status::Code::kOk;
  };

  /// Begin an optimistic in-place read (the fast-path alternative to Get
  /// that moves no page bytes). Counts as a node access: it evaluates the
  /// "get" site and counts kGets exactly like Get, so the paper's cost
  /// model still holds; Validate() is free. A failed fetch
  /// returns a faulted() guard; like Get, injected errors only reach
  /// threads holding no paper lock.
  ReadGuard OptimisticRead(PageId id) const;

  /// In-place inspection for a paper-lock holder. Counts as a node
  /// access exactly like Get/OptimisticRead (one "get" evaluation + one
  /// kGets), so the paper's cost model holds on the locked moveright too;
  /// it is also the read half of an in-place read-modify-write, whose
  /// BeginWrite pays the put: the RMW costs a get + put like the copy
  /// path, without moving the page bytes. The guard
  /// still needs validation: page reuse (Retire -> Allocate zeroing ->
  /// initializing Put) runs WITHOUT the paper lock, so a stale page can
  /// move underneath even a lock holder — but once an image validates as
  /// a live node, the lock alone pins it until Unlock (every further
  /// mutation, including the deletion marking that precedes Retire,
  /// requires the paper lock). Note the lock says nothing about
  /// REACHABILITY: a validated image may be a half-published split's
  /// fresh right node that no link points at yet; callers for whom that
  /// matters need their own publication protocol (see SagivTree's
  /// frontier_seq_ epoch and TryAppendFast).
  ///
  /// Pinning invariant: the eviction sweep must TryLock a page's paper
  /// lock before it evicts the page, so a page whose lock the caller
  /// holds stays resident in the same frame until Unlock. A validated
  /// guard from PeekLocked therefore keeps its frame, and the BeginWrite
  /// that follows never has to fault the page in.
  ReadGuard PeekLocked(PageId id) const;

  /// Handle for an in-place mutation of one page by the paper-lock
  /// holder: acquisition bumps the seqlock to odd (optimistic readers
  /// discard what they read, copy-readers wait), Release() stores it back
  /// to even, publishing the stores. Between the two, every store to
  /// page() bytes must go through relaxed word-sized atomics
  /// (PageStoreWord / Node's *InPlace primitives) so racing NodeView
  /// readers stay defined. Move-only; the destructor releases a guard
  /// that is still held.
  class WriteGuard {
   public:
    WriteGuard() = default;
    WriteGuard(WriteGuard&& other) noexcept
        : seq_(other.seq_), page_(other.page_), version_(other.version_) {
      other.seq_ = nullptr;
      other.page_ = nullptr;
    }
    WriteGuard& operator=(WriteGuard&& other) noexcept {
      if (this != &other) {
        Release();
        seq_ = other.seq_;
        page_ = other.page_;
        version_ = other.version_;
        other.seq_ = nullptr;
        other.page_ = nullptr;
      }
      return *this;
    }
    ~WriteGuard() { Release(); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

    /// The live page image (never copied). nullptr after Release().
    Page* page() const { return page_; }

    /// True while the seqlock is held odd by this guard.
    bool held() const { return seq_ != nullptr; }

    /// Store the seqlock back to even (the version it held before the
    /// write, plus 2), publishing every in-place store. A plain release
    /// store suffices, as in Put: while the seqlock is odd no other
    /// thread writes it, since every seq writer (TryEvict included) CASes
    /// from an even value. Idempotent; also run by the destructor.
    void Release() {
      if (seq_ == nullptr) return;
      seq_->store(version_ + 2, std::memory_order_release);
      seq_ = nullptr;
      page_ = nullptr;
    }

   private:
    friend class PageManager;
    WriteGuard(std::atomic<uint64_t>* seq, Page* page, uint64_t version)
        : seq_(seq), page_(page), version_(version) {}

    std::atomic<uint64_t>* seq_ = nullptr;
    Page* page_ = nullptr;
    uint64_t version_ = 0;  // the even version BeginSeqWrite replaced
  };

  /// Begin an in-place read-modify-write of a page (where a Get + Put
  /// copy cycle would move 8 KiB to change a few words; every tree
  /// mutation, splits included, writes this way or puts a fresh page).
  /// The caller MUST hold the paper lock on `id` and
  /// have validated the page as a live node under that lock (see
  /// PeekLocked) — the lock is what makes it the sole mutator. Counts as
  /// the paper's put(A, x) exactly like Put: one "put" evaluation and one
  /// kPuts. Over a store it marks the page dirty, with no atomic RMW on a
  /// page already dirty and referenced; the seqlock CAS is then the only
  /// locked instruction a write takes here.
  WriteGuard BeginWrite(PageId id);

  /// Indivisible write of a page (the paper's put(A, x)): the first
  /// `bytes` bytes of `in` (a multiple of 8), of which the frame keeps
  /// what it holds (see frame_stride(); bytes past the largest node image
  /// carry no entry). A short put leaves the rest of the frame as it was, which
  /// for a page fresh from Allocate is zero: a split puts only the live
  /// prefix (NodeBytes) of a new node. A page evicted since then gets a
  /// zeroed frame, so its tail reads as zero too.
  void Put(PageId id, const Page& in, size_t bytes = kPageSize);

  /// Acquire the paper lock on a page. Blocks only other lockers. The
  /// lock is a compact spin-then-park PaperLock (storage/paper_lock.h):
  /// a contended acquisition spins PaperLock::kSpinBudget probe rounds
  /// with exponential backoff before sleeping. Contended acquisitions count
  /// StatId::kLocksContended (plus kLockParks when they slept) and feed
  /// the wait time into StatsCollector's lock-wait histogram.
  void Lock(PageId id);

  /// Release the paper lock.
  void Unlock(PageId id);

  /// True when a thread waiting for the paper lock on `id` has announced
  /// that it parks (PaperLock::HasParkedWaiterForTest; test use only).
  bool LockHasParkedWaiterForTest(PageId id) const {
    return MetaFor(id)->paper_lock.HasParkedWaiterForTest();
  }

  /// Number of paper locks the calling thread currently holds (through any
  /// PageManager). Exposed for tests asserting the "one lock at a time"
  /// property.
  static int LocksHeldByThisThread();

  /// Mark a page deleted at the current logical time. The page stays
  /// readable until reclaimed.
  void Retire(PageId id);

  /// Move retired pages that satisfy the §5.3 rule to the free list.
  /// Returns the number of pages reclaimed.
  size_t Reclaim();

  /// Total pages ever allocated from the OS (high-water mark).
  size_t allocated_pages() const {
    return next_fresh_.load(std::memory_order_relaxed);
  }

  /// Pages currently allocated to live nodes (allocated - free - retired).
  size_t live_pages() const;

  /// Pages awaiting reclamation.
  size_t retired_pages() const;

  /// Pages on the free list.
  size_t free_pages() const;

  /// The epoch manager governing deferred page release (not owned).
  EpochManager* epoch() const { return epoch_; }
  /// The counter sink every operation reports to (not owned).
  StatsCollector* stats() const { return stats_; }

  // --- persistence (active only over a FileStore) --------------------------

  /// True when this manager pages against a FileStore.
  bool persistent() const { return paged_; }

  /// Pages currently holding a frame (== live pages when no eviction has
  /// happened; only meaningful when persistent()).
  size_t resident_pages() const {
    return resident_count_.load(std::memory_order_relaxed);
  }

  /// Bytes between the starts of consecutive frames for node images of
  /// at most `max_node_bytes`: the smallest odd number of 64-byte lines
  /// that holds them. Packed at a power of two, every node's header (and
  /// every binary-search probe at a given offset) would fall into the
  /// same few L1 sets, and a descent's pages would evict each other: the
  /// benchmark's ingest-checkpoint get_p50 measured about 12% slower
  /// with full frames packed at 4 KiB (4-vCPU Xeon). An odd line count
  /// spreads frames over every set. k = 60 (NodeBytes(120) = 1952 B)
  /// gives 31 lines, 1984 B; a full page gives 65 lines, 4160 B.
  static constexpr size_t FrameStride(size_t max_node_bytes) {
    return (((max_node_bytes + 63) / 64) | 1) * 64;
  }

  /// This manager's FrameStride. A frame holds min(stride, kPageSize)
  /// bytes of its page.
  size_t frame_stride() const { return stride_; }

  /// Frames above buffer_pool_pages the arena may carve: resident pages
  /// can briefly exceed the budget while the single sweeper is busy, and
  /// these frames let concurrent fault-ins proceed instead of queueing
  /// behind it.
  static constexpr uint32_t kFrameSlack = 64;

  /// Frames carved from the arena so far (resident pages plus frames
  /// waiting on the free list). Never shrinks. With buffer_pool_pages =
  /// N > 0 it stays <= N + kFrameSlack as long as fewer than N pages are
  /// paper-locked at once (a fault-in that finds every resident page
  /// pinned carves an extra frame rather than deadlock); with N = 0 every
  /// page that was ever resident keeps its frame.
  size_t frame_count() const {
    return frame_count_.load(std::memory_order_relaxed);
  }

  /// Adopt a recovered checkpoint's allocator state: the fresh-page
  /// frontier and free list from the manifest. Every page below the
  /// frontier starts NON-resident, with metadata but no frame (faulted in
  /// from the store on first access). Call once, before any concurrent
  /// use.
  void RestoreFromMeta(const StoreMeta& meta);

  /// Checkpoint barrier. Blocks until every in-flight mutator (thread
  /// inside a MutatorScope or holding >= 1 paper lock) drains and holds
  /// new mutators out — readers are never gated — then invokes
  /// `fill_tree_meta` to capture the tree-level state (prime block,
  /// size, hints) at the barrier, flushes every dirty resident page to
  /// the store, snapshots the allocator state, and commits the store
  /// manifest. On return with OK the checkpoint is durable and contains
  /// every operation whose MutatorScope closed before the barrier.
  /// FailedPrecondition unless persistent(); must not be called from a
  /// thread holding paper locks or inside a MutatorScope.
  Status Checkpoint(const std::function<void(StoreMeta*)>& fill_tree_meta);

  /// RAII shared hold on the checkpoint gate for one WHOLE logical
  /// mutation (an insert/delete including its split ascent, or one
  /// compression rearrangement). The gate is reentrant per thread:
  /// paper-lock acquisitions inside an open scope do not re-enter it, so
  /// a checkpoint can never cut BETWEEN the lock-holding steps of a
  /// multi-step restructuring (e.g. after a split wrote the halves but
  /// before the separator reached the parent) — such half-states are
  /// valid B-link states but are not fixpoints the checker or a
  /// recovered tree should ever start from. No-op over a non-persistent
  /// manager. Cheap when no checkpoint is pending: entering and leaving
  /// each write only the calling thread's own gate slot and read the
  /// checkpoint flag.
  class MutatorScope {
   public:
    explicit MutatorScope(PageManager* pm)
        : pm_(pm != nullptr && pm->persistent() ? pm : nullptr) {
      if (pm_ != nullptr) pm_->EnterMutatorGate();
    }
    ~MutatorScope() {
      if (pm_ != nullptr) pm_->ExitMutatorGate();
    }
    OBTREE_DISALLOW_COPY_AND_ASSIGN(MutatorScope);

   private:
    PageManager* pm_;
  };

 private:
  // Per-page metadata, 16 bytes; the page's bytes live in a frame of
  // the separate arena. `state` packs three flag bits with the frame
  // number (state >> kFrameShift), valid only while kResident is set.
  // Residency and frame change only with `seq` held odd, so a reader
  // that loads the version, then the state, then reads the frame, and
  // finally re-checks the version never trusts bytes of a frame that
  // stopped being this page's. In memory (no store) every allocated page
  // is resident and keeps its frame for good.
  static constexpr uint32_t kResident = 1u;
  static constexpr uint32_t kDirty = 2u;       // image newer than the store
  static constexpr uint32_t kReferenced = 4u;  // CLOCK bit: accessed since
                                               // the hand last passed
  static constexpr int kFrameShift = 3;

  struct Meta {
    std::atomic<uint64_t> seq{0};  // seqlock: odd while a put is in flight
    PaperLock paper_lock;          // 4-byte spin-then-park lock
    std::atomic<uint32_t> state{0};  // flags | frame << kFrameShift
  };
  static_assert(sizeof(Meta) == 16, "per-page metadata must stay compact");

  // Both the metadata and the frame arena grow in chunks of 1024 entries:
  // 16 KiB of metadata, or 1024 frames mmap'd as one region of
  // chunk_bytes_. A torn image can claim Node::kMaxEntries entries, so an
  // optimistic reader may read a full page from any frame's start; the
  // region therefore runs at least a page past the last frame's start,
  // and such a read stays mapped (past its own frame, it reads another
  // frame or the zeroed tail, and fails validation). A chunk the pool
  // will fill starts on a 2 MiB boundary and is advised onto transparent
  // huge pages before it is populated, so a frame visit rarely misses the
  // TLB. Its size rounds up to a whole huge page when that adds less
  // than half of one: at k = 60 (1984 B frames) a chunk is one 2 MiB
  // page; with full-page frames (4160 B) it is two plus a 64 KiB tail on
  // 4 KiB pages. No frame size makes a chunk larger than full-page
  // frames do. A bounded pool's partial last chunk stays on lazily
  // faulted 4 KiB pages; without THP every chunk does (see
  // CarveFrameLocked).
  static constexpr int kChunkBits = 10;
  static constexpr size_t kChunkSize = 1ull << kChunkBits;
  static constexpr size_t kMaxChunks = kMaxPageIds >> kChunkBits;
  static_assert(kMaxChunks * kChunkSize == kMaxPageIds);
  static constexpr size_t kHugePage = size_t{2} << 20;

  // Bytes mapped for a chunk of frames `stride` apart (see above).
  static constexpr size_t ChunkBytes(size_t stride) {
    size_t bytes = (kChunkSize - 1) * stride + std::max(stride, kPageSize);
    bytes = (bytes + 4095) & ~size_t{4095};
    if (bytes % kHugePage >= kHugePage / 2) {
      bytes = (bytes + kHugePage - 1) & ~(kHugePage - 1);
    }
    return bytes;
  }

  struct MetaChunk {
    Meta meta[kChunkSize];
  };

  Meta* MetaFor(PageId id) const;
  void EnsureMetaChunk(size_t chunk_index);  // alloc_mu_ held or no races
  Page* Frame(uint32_t state) const;

  // Copy a frame's bytes into a full page image whose remaining bytes
  // read as zero: the image a Get returns and eviction or a checkpoint
  // stages. Word-granular atomic loads, so a racing writer stays defined.
  void CopyFrameOut(const Page* frame, Page* out) const;

  // Take `m`'s seqlock odd, waiting out any put in flight; returns the
  // even version it replaced (store version + 2 to publish, or version
  // itself to roll back an untouched page).
  static uint64_t BeginSeqWrite(Meta* m);

  // Set the CLOCK reference bit of a page read with state `st` (bounded
  // pool only; a no-op once the bit is set, so hot pages are not written).
  void Touch(Meta* m, uint32_t st) const {
    if (pool_cap_ != 0 && !(st & kReferenced)) {
      m->state.fetch_or(kReferenced, std::memory_order_relaxed);
    }
  }

  // Mark a resident page read with state `st` dirty and referenced for a
  // write, with an RMW only when one of the two bits is clear: a page
  // written again and again stays both, so its writes store nothing here.
  // Skipping on a stale `st` is safe. The writer holds the checkpoint
  // gate, so no checkpoint clears kDirty under it, and the paper lock or
  // the odd seqlock, so no sweep evicts the page. A sweep that clears
  // kReferenced meanwhile only costs CLOCK one second chance.
  static void MarkDirty(Meta* m, uint32_t st) {
    if ((st & (kDirty | kReferenced)) != (kDirty | kReferenced)) {
      m->state.fetch_or(kDirty | kReferenced, std::memory_order_relaxed);
    }
  }

  // --- frame arena and buffer pool ----------------------------------------

  // Make the page resident for a full-image write (Allocate/Put define
  // the whole content, so no store read is needed): a non-resident page
  // gets a frame first. Marks it dirty and referenced when paged_.
  // Caller holds m->seq odd. Returns the page's frame, zeroed if `zero`.
  Page* FrameForWrite(Meta* m, bool zero) const;

  // A free frame number: from the free list, else freshly carved while
  // under the cap, else one the sweep evicts. Sets *fresh (if non-null)
  // when the frame is newly carved, and so still all zeroes.
  uint32_t AcquireFrame(bool* fresh) const;
  uint32_t CarveFrameLocked() const;  // frame_mu_ held

  // Fault `id` into a frame if non-resident (no-op otherwise): seqlock
  // odd, read the store image into a scratch buffer, publish it into a
  // frame via relaxed word stores, mark resident, seqlock even. Errors
  // (checksum mismatch, transient I/O, or an image with non-zero bytes
  // past the frame, i.e. a node larger than this manager's, which is
  // DataLoss) leave the page non-resident with its version restored.
  Status EnsureResident(PageId id, Meta* m) const;
  Status FaultIn(PageId id, Meta* m) const;

  // CLOCK sweep: while the resident count exceeds the pool budget, advance
  // the hand over page ids; a referenced page loses its bit and is
  // skipped, an unreferenced one is evicted (dirty image staged to the
  // store, frame returned to the free list, bytes left as they are).
  // Skips pages whose paper lock or seqlock is held (a locked page may be
  // pinned by an in-place reader/writer). EvictPages runs with evict_mu_
  // held and returns how many of the `n` wanted it evicted.
  void MaybeEvict() const;
  size_t EvictPages(size_t n) const;
  bool TryEvict(PageId id) const;

  // Checkpoint gate (persistent mode only): mutators hold it shared and
  // Checkpoint holds it exclusive. Insert, Upsert and Delete hold it for
  // the whole operation via MutatorScope. Compressor restructures open
  // no scope: their gate is the paper-lock span, entered by the first
  // Lock of a thread that holds none and left by its last Unlock, so a
  // checkpoint waits out each restructure while it holds locks, and a
  // first Lock waits out a pending checkpoint. Reentrant per thread (a
  // thread-local depth counter): only the 0->1 transition enters, only
  // 1->0 leaves, so a scope holder acquiring paper locks never re-waits
  // and cannot deadlock against a pending checkpoint. Readers never
  // touch the gate.
  // Entering bumps the thread's own gate slot (its ThisThreadIndex()
  // modulo kGateSlots, a counter on its own cache line, since threads
  // past the first kGateSlots share slots) and then checks
  // checkpoint_blocking_; Checkpoint sets the flag, then waits until
  // every slot reads zero. Those two store-then-load pairs are seq_cst,
  // so either the mutator sees the flag and backs out, or the
  // checkpointer sees the slot and waits for it. gate_mu_ and gate_cv_
  // serve only the slow paths: a mutator waiting out a checkpoint, and
  // the last mutator to leave waking the drainer. A flag the
  // checkpointer raises, rather than a shared_mutex, so it cannot be
  // starved by a reader-preferring implementation.
  void EnterMutatorGate();
  void ExitMutatorGate();
  struct GateSlot;
  GateSlot& MyGateSlot();
  bool TryJoinGate(GateSlot& slot);  // false: a checkpoint is pending
  void LeaveGate(GateSlot& slot);
  bool GateDrained() const;  // every gate slot reads zero

  // Slow path of Lock, once the lock was found held: waits for it,
  // recording the wait time and whether the waiter parked.
  void LockContended(Meta* m);

  EpochManager* const epoch_;
  StatsCollector* const stats_;
  FileStore* const store_;   // nullptr: in memory
  const bool paged_;         // store_ != nullptr: gates all pool logic
  const uint32_t pool_cap_;  // 0 = unbounded (always 0 unless paged_)
  const size_t stride_;       // FrameStride(max_node_bytes)
  const size_t frame_bytes_;  // min(stride_, kPageSize): a frame's bytes
  const size_t chunk_bytes_;  // ChunkBytes(stride_)
  mutable std::atomic<size_t> resident_count_{0};

  // Eviction sweep state; evict_mu_ also excludes eviction from the
  // checkpoint flush.
  mutable std::mutex evict_mu_;
  mutable PageId clock_hand_ = 0;

  // Frame arena: chunk directory (atomic so readers index it while a
  // carve maps a new chunk), carve count and free list.
  mutable std::vector<std::atomic<uint8_t*>> frame_chunks_;
  mutable std::mutex frame_mu_;
  mutable std::atomic<uint32_t> frame_count_{0};
  mutable std::vector<uint32_t> free_frames_;

  // Checkpoint gate; gate_slots_ is allocated only when paged_.
  static constexpr uint32_t kGateSlots = 64;
  struct alignas(64) GateSlot {
    std::atomic<uint32_t> mutators{0};
  };
  std::unique_ptr<GateSlot[]> gate_slots_;
  std::atomic<bool> checkpoint_blocking_{false};
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;

  std::atomic<bool> has_test_hook_{false};
  TestHook test_hook_;

  // Unified trap point: fires the test hook (if installed) and evaluates
  // the failpoint site named `op`. Returns true when an error fault must
  // be injected (only call sites that pass error_eligible and handle the
  // return can see true). One relaxed load when nothing is armed anywhere.
  bool MaybeTrap(const char* op, PageId id, bool error_eligible) const {
    if (!FaultInjector::TrapsArmed()) return false;
    return TrapSlow(op, id, error_eligible);
  }
  bool TrapSlow(const char* op, PageId id, bool error_eligible) const;

  // Moves to the free list every retired page the §5.3 rule releases;
  // returns how many. Caller holds alloc_mu_.
  size_t HarvestRetiredLocked();

  // Metadata directory: atomic pointers so readers can index while the
  // allocator grows it. A chunk is in place before next_fresh_ covers it.
  std::vector<std::atomic<MetaChunk*>> meta_chunks_;
  std::atomic<uint32_t> next_fresh_;  // next never-used page id

  mutable std::mutex alloc_mu_;
  std::vector<PageId> free_list_;

  struct Retired {
    PageId id;
    Timestamp time;
  };
  mutable std::mutex retired_mu_;
  // FIFO. Retire ticks before it locks, so timestamps are only nearly
  // sorted; a harvest stops at the first page too young to free.
  std::deque<Retired> retired_;
};

}  // namespace obtree

#endif  // OBTREE_STORAGE_PAGE_MANAGER_H_
