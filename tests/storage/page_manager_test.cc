// Copyright 2026 The obtree Authors.
//
// Tests of the §2.2 storage model: indivisible get/put (readers never see a
// torn page), paper locks that exclude lockers but not readers, and the
// §5.3 retire/reclaim cycle.

#include "obtree/storage/page_manager.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include <gtest/gtest.h>

#include "obtree/node/node.h"
#include "obtree/storage/file_store.h"

namespace obtree {
namespace {

class PageManagerTest : public ::testing::Test {
 protected:
  EpochManager epoch_;
  StatsCollector stats_;
  PageManager pm_{&epoch_, &stats_};
};

TEST_F(PageManagerTest, AllocateDistinctIds) {
  auto a = pm_.Allocate();
  auto b = pm_.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(pm_.live_pages(), 2u);
}

TEST_F(PageManagerTest, PutThenGetRoundTrips) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page w;
  for (size_t i = 0; i < kPageSize; ++i) w.bytes[i] = static_cast<uint8_t>(i);
  pm_.Put(*id, w);
  Page r;
  pm_.Get(*id, &r);
  EXPECT_EQ(std::memcmp(w.bytes, r.bytes, kPageSize), 0);
}

TEST_F(PageManagerTest, FreshAllocationIsZeroed) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page r;
  pm_.Get(*id, &r);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r.bytes[i], 0u) << i;
}

TEST_F(PageManagerTest, GetPutCountStats) {
  auto id = pm_.Allocate();
  Page p{};
  pm_.Put(*id, p);
  pm_.Get(*id, &p);
  pm_.Get(*id, &p);
  EXPECT_EQ(stats_.Get(StatId::kPuts), 1u);
  EXPECT_EQ(stats_.Get(StatId::kGets), 2u);
}

TEST_F(PageManagerTest, LockExcludesOtherLockers) {
  auto id = pm_.Allocate();
  pm_.Lock(*id);
  std::atomic<bool> acquired{false};
  std::thread t([&]() {
    pm_.Lock(*id);
    acquired.store(true);
    pm_.Unlock(*id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  pm_.Unlock(*id);
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST_F(PageManagerTest, LockDoesNotBlockReaders) {
  auto id = pm_.Allocate();
  Page w{};
  w.bytes[0] = 42;
  pm_.Put(*id, w);
  pm_.Lock(*id);
  // The paper: "a lock on a node does not prevent other processes from
  // reading the locked node."
  std::atomic<bool> read_ok{false};
  std::thread t([&]() {
    Page r;
    pm_.Get(*id, &r);
    read_ok.store(r.bytes[0] == 42);
  });
  t.join();
  pm_.Unlock(*id);
  EXPECT_TRUE(read_ok.load());
}

TEST_F(PageManagerTest, TryLockReportsContention) {
  auto id = pm_.Allocate();
  EXPECT_TRUE(pm_.TryLock(*id));
  std::thread t([&]() { EXPECT_FALSE(pm_.TryLock(*id)); });
  t.join();
  pm_.Unlock(*id);
  EXPECT_TRUE(pm_.TryLock(*id));
  pm_.Unlock(*id);
}

TEST_F(PageManagerTest, LockDepthTracked) {
  auto a = pm_.Allocate();
  auto b = pm_.Allocate();
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 0);
  pm_.Lock(*a);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 1);
  pm_.Lock(*b);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 2);
  EXPECT_EQ(stats_.max_locks_held(), 2u);
  pm_.Unlock(*b);
  pm_.Unlock(*a);
  EXPECT_EQ(PageManager::LocksHeldByThisThread(), 0);
}

TEST_F(PageManagerTest, RetiredPageNotReusedWhileGuardActive) {
  auto id = pm_.Allocate();
  auto guard = std::make_unique<EpochManager::Guard>(&epoch_);
  pm_.Retire(*id);  // retired AFTER the guard started -> protected
  EXPECT_EQ(pm_.Reclaim(), 0u);
  EXPECT_EQ(pm_.retired_pages(), 1u);
  guard.reset();
  EXPECT_EQ(pm_.Reclaim(), 1u);
  EXPECT_EQ(pm_.free_pages(), 1u);
}

TEST_F(PageManagerTest, RetireBeforeGuardIsReclaimable) {
  auto id = pm_.Allocate();
  pm_.Retire(*id);
  EpochManager::Guard guard(&epoch_);  // started after the retirement
  EXPECT_EQ(pm_.Reclaim(), 1u);
}

// Runs `race` once, from inside the next MinActive() call: after its
// slot scan, before a harvest locks the retired list. A page retired
// there under a fresh pin is what the harvest's floor must still cover.
void RaceInsideNextMinActive(EpochManager* epoch,
                             std::function<void()> race) {
  auto pending = std::make_shared<std::function<void()>>(std::move(race));
  epoch->RegisterExternalMinProvider([pending]() {
    if (*pending) {
      auto f = std::move(*pending);
      *pending = nullptr;
      f();
    }
    return kMaxTimestamp;
  });
}

// An operation pins, then a page it may hold is retired, both after
// Reclaim's slot scan found no one active. The page must stay retired
// while that operation lives.
TEST_F(PageManagerTest, PageRetiredDuringReclaimScanIsKept) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  std::unique_ptr<EpochManager::Guard> guard;
  RaceInsideNextMinActive(&epoch_, [&] {
    guard = std::make_unique<EpochManager::Guard>(&epoch_);
    pm_.Retire(*id);
  });
  EXPECT_EQ(pm_.Reclaim(), 0u);
  EXPECT_EQ(pm_.retired_pages(), 1u);
  ASSERT_NE(guard, nullptr);
  EXPECT_LE(guard->start_time(), epoch_.Now());  // it may hold the page
  guard.reset();
  EXPECT_EQ(pm_.Reclaim(), 1u);
}

// The same race against Allocate's own harvest: the page must not be
// handed out again while the racing operation lives.
TEST_F(PageManagerTest, PageRetiredDuringAllocateHarvestIsNotReused) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  std::unique_ptr<EpochManager::Guard> guard;
  RaceInsideNextMinActive(&epoch_, [&] {
    guard = std::make_unique<EpochManager::Guard>(&epoch_);
    pm_.Retire(*id);
  });
  auto id2 = pm_.Allocate();
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id2, *id);
  EXPECT_EQ(pm_.retired_pages(), 1u);
  guard.reset();
}

TEST_F(PageManagerTest, ReusedPageIsZeroed) {
  auto id = pm_.Allocate();
  Page w;
  std::memset(w.bytes, 0xAB, kPageSize);
  pm_.Put(*id, w);
  pm_.Retire(*id);
  ASSERT_EQ(pm_.Reclaim(), 1u);
  auto id2 = pm_.Allocate();
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, *id);  // the page was recycled
  Page r;
  pm_.Get(*id2, &r);
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r.bytes[i], 0u) << i;
}

// Without a buffer pool (in memory here) every page takes one frame at
// its first allocation and keeps it through retirement and reuse.
TEST_F(PageManagerTest, EveryPageKeepsItsFrameWithoutAPool) {
  constexpr uint32_t kPages = 3000;  // spans three arena chunks
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < kPages; ++i) {
    auto id = pm_.Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_EQ(pm_.frame_count(), kPages);
  for (uint32_t i = 0; i < kPages; i += 3) pm_.Retire(ids[i]);
  ASSERT_EQ(pm_.Reclaim(), kPages / 3);
  for (uint32_t i = 0; i < kPages / 3; ++i) ASSERT_TRUE(pm_.Allocate().ok());
  EXPECT_EQ(pm_.allocated_pages(), kPages);
  EXPECT_EQ(pm_.frame_count(), kPages);
  EXPECT_EQ(pm_.resident_pages(), kPages);
}

TEST_F(PageManagerTest, AllocateHarvestsRetiredWithoutExplicitReclaim) {
  auto id = pm_.Allocate();
  pm_.Retire(*id);
  // No Reclaim() call: Allocate must harvest on its own.
  auto id2 = pm_.Allocate();
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, *id);
}

TEST_F(PageManagerTest, StatsCountRetireAndReclaim) {
  auto id = pm_.Allocate();
  pm_.Retire(*id);
  pm_.Reclaim();
  EXPECT_EQ(stats_.Get(StatId::kNodesRetired), 1u);
  EXPECT_EQ(stats_.Get(StatId::kNodesReclaimed), 1u);
}

TEST_F(PageManagerTest, ManyPagesAcrossChunks) {
  // Cross the 1024-page chunk boundary.
  std::vector<PageId> ids;
  for (int i = 0; i < 3000; ++i) {
    auto id = pm_.Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  Page w{};
  w.bytes[7] = 9;
  pm_.Put(ids.back(), w);
  Page r;
  pm_.Get(ids.back(), &r);
  EXPECT_EQ(r.bytes[7], 9u);
  EXPECT_EQ(pm_.allocated_pages(), 3000u);
}

TEST_F(PageManagerTest, OptimisticReadValidatesWhenUnchanged) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page w{};
  w.bytes[0] = 7;
  pm_.Put(*id, w);
  PageManager::ReadGuard g = pm_.OptimisticRead(*id);
  ASSERT_TRUE(g.stable());
  EXPECT_EQ(__atomic_load_n(g.page()->bytes, __ATOMIC_RELAXED), 7);
  EXPECT_TRUE(g.Validate());
  EXPECT_TRUE(g.Validate());  // validation is repeatable
}

TEST_F(PageManagerTest, DefaultReadGuardNeverValidates) {
  PageManager::ReadGuard g;
  EXPECT_FALSE(g.stable());
  EXPECT_FALSE(g.Validate());
}

TEST_F(PageManagerTest, OptimisticReadInvalidatedByPut) {
  auto id = pm_.Allocate();
  PageManager::ReadGuard g = pm_.OptimisticRead(*id);
  ASSERT_TRUE(g.stable());
  Page w{};
  pm_.Put(*id, w);
  EXPECT_FALSE(g.Validate());
}

TEST_F(PageManagerTest, OptimisticReadInvalidatedByReuse) {
  auto id = pm_.Allocate();
  PageManager::ReadGuard g = pm_.OptimisticRead(*id);
  ASSERT_TRUE(g.stable());
  pm_.Retire(*id);
  ASSERT_EQ(pm_.Reclaim(), 1u);
  auto id2 = pm_.Allocate();  // recycles the page, zeroing it under the seq
  ASSERT_TRUE(id2.ok());
  ASSERT_EQ(*id2, *id);
  EXPECT_FALSE(g.Validate());
}

TEST_F(PageManagerTest, OptimisticReadCountsAsGet) {
  auto id = pm_.Allocate();
  const uint64_t before = stats_.Get(StatId::kGets);
  (void)pm_.OptimisticRead(*id);
  EXPECT_EQ(stats_.Get(StatId::kGets), before + 1);
}

// Optimistic torture: a writer alternates two full-page patterns while
// readers probe the live page in place. A read that VALIDATES must have
// observed exactly one pattern; reads that fail validation may be torn
// and are discarded, exactly like the tree's optimistic descents do.
TEST_F(PageManagerTest, ValidatedOptimisticReadsAreNeverTorn) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page a;
  Page b;
  std::memset(a.bytes, 0x11, kPageSize);
  std::memset(b.bytes, 0xEE, kPageSize);
  pm_.Put(*id, a);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<uint64_t> validated{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      uint64_t ok = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        PageManager::ReadGuard g = pm_.OptimisticRead(*id);
        if (!g.stable()) continue;
        // Sample words across the page through relaxed atomic loads (the
        // only defined way to touch a concurrently-rewritten page).
        const auto* words =
            reinterpret_cast<const uint64_t*>(g.page()->bytes);
        uint64_t first = __atomic_load_n(&words[0], __ATOMIC_RELAXED);
        uint64_t last =
            __atomic_load_n(&words[kPageSize / 8 - 1], __ATOMIC_RELAXED);
        uint64_t mid =
            __atomic_load_n(&words[kPageSize / 16], __ATOMIC_RELAXED);
        if (!g.Validate()) continue;  // discarded: may be torn
        ++ok;
        if (first != last || first != mid ||
            (first != 0x1111111111111111ull &&
             first != 0xEEEEEEEEEEEEEEEEull)) {
          torn.store(true);
          return;
        }
      }
      validated.fetch_add(ok);
    });
  }
  std::thread writer([&]() {
    for (int i = 0; i < 20000; ++i) pm_.Put(*id, (i & 1) ? b : a);
    stop.store(true);
  });
  writer.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GT(validated.load(), 0u);
}

TEST_F(PageManagerTest, WriteGuardPublishesInPlaceStores) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  pm_.Lock(*id);
  {
    PageManager::WriteGuard wg = pm_.BeginWrite(*id);
    ASSERT_TRUE(wg.held());
    auto* words = reinterpret_cast<uint64_t*>(wg.page()->bytes);
    PageStoreWord(&words[0], 0x42);
    PageStoreWord(&words[kPageSize / 8 - 1], 0x43);
    wg.Release();
    EXPECT_FALSE(wg.held());
  }
  pm_.Unlock(*id);
  Page r;
  pm_.Get(*id, &r);
  const auto* words = reinterpret_cast<const uint64_t*>(r.bytes);
  EXPECT_EQ(words[0], 0x42u);
  EXPECT_EQ(words[kPageSize / 8 - 1], 0x43u);
}

TEST_F(PageManagerTest, WriteGuardInvalidatesOptimisticReaders) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  PageManager::ReadGuard before = pm_.OptimisticRead(*id);
  ASSERT_TRUE(before.Validate());
  pm_.Lock(*id);
  PageManager::WriteGuard wg = pm_.BeginWrite(*id);
  // While the guard holds the seqlock odd, nothing can validate and new
  // optimistic reads are unstable.
  EXPECT_FALSE(before.Validate());
  EXPECT_FALSE(pm_.OptimisticRead(*id).stable());
  wg.Release();
  pm_.Unlock(*id);
  // Even after release the pre-write guard stays dead (version moved)...
  EXPECT_FALSE(before.Validate());
  // ...and a fresh read validates again.
  EXPECT_TRUE(pm_.OptimisticRead(*id).Validate());
}

TEST_F(PageManagerTest, WriteGuardDestructorReleases) {
  auto id = pm_.Allocate();
  pm_.Lock(*id);
  { PageManager::WriteGuard wg = pm_.BeginWrite(*id); }
  pm_.Unlock(*id);
  EXPECT_TRUE(pm_.OptimisticRead(*id).stable());
  // Move transfers ownership: releasing through the destination once.
  pm_.Lock(*id);
  {
    PageManager::WriteGuard a = pm_.BeginWrite(*id);
    PageManager::WriteGuard b = std::move(a);
    EXPECT_FALSE(a.held());
    EXPECT_TRUE(b.held());
  }
  pm_.Unlock(*id);
  EXPECT_TRUE(pm_.OptimisticRead(*id).Validate());
}

TEST_F(PageManagerTest, ReadModifyWriteChargesOneGetOnePut) {
  auto id = pm_.Allocate();
  pm_.Lock(*id);
  const uint64_t gets = stats_.Get(StatId::kGets);
  const uint64_t puts = stats_.Get(StatId::kPuts);
  // The locked peek is the RMW's get and the BeginWrite completing it is
  // its put: the whole RMW costs a get + put, like the copy path.
  PageManager::ReadGuard peek = pm_.PeekLocked(*id);
  EXPECT_TRUE(peek.Validate());
  EXPECT_EQ(stats_.Get(StatId::kGets), gets + 1);
  PageManager::WriteGuard wg = pm_.BeginWrite(*id);
  EXPECT_EQ(stats_.Get(StatId::kPuts), puts + 1);
  EXPECT_EQ(stats_.Get(StatId::kGets), gets + 1);
  wg.Release();
  pm_.Unlock(*id);
}

TEST_F(PageManagerTest, WriteGuardBlocksCopyReadersUntilRelease) {
  auto id = pm_.Allocate();
  Page w{};
  w.bytes[0] = 7;
  pm_.Put(*id, w);
  pm_.Lock(*id);
  PageManager::WriteGuard wg = pm_.BeginWrite(*id);
  std::atomic<bool> read_done{false};
  std::thread reader([&]() {
    Page r;
    pm_.Get(*id, &r);  // spins while the seqlock is odd
    read_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(read_done.load());
  wg.Release();
  reader.join();
  EXPECT_TRUE(read_done.load());
  pm_.Unlock(*id);
}

// Seqlock torture: a writer alternates between two full-page patterns while
// readers verify they only ever observe one pattern or the other.
TEST_F(PageManagerTest, ReadersNeverSeeTornPages) {
  auto id = pm_.Allocate();
  ASSERT_TRUE(id.ok());
  Page a;
  Page b;
  std::memset(a.bytes, 0x11, kPageSize);
  std::memset(b.bytes, 0xEE, kPageSize);
  pm_.Put(*id, a);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      Page r;
      while (!stop.load(std::memory_order_relaxed)) {
        pm_.Get(*id, &r);
        const uint8_t first = r.bytes[0];
        if (first != 0x11 && first != 0xEE) {
          torn.store(true);
          break;
        }
        for (size_t i = 0; i < kPageSize; ++i) {
          if (r.bytes[i] != first) {
            torn.store(true);
            return;
          }
        }
      }
    });
  }
  std::thread writer([&]() {
    for (int i = 0; i < 20000; ++i) pm_.Put(*id, (i & 1) ? b : a);
    stop.store(true);
  });
  writer.join();
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_FALSE(torn.load());
}

// --- the frame arena -------------------------------------------------------

constexpr uintptr_t kHugePage = uintptr_t{2} << 20;
constexpr size_t kChunk = 1024;  // frames per chunk

// The largest node of a tree of order k = 60.
constexpr size_t kNodeBytesK60 = NodeBytes(120);

// The frame a resident page lives in.
uintptr_t FrameAddress(const PageManager& pm, PageId id) {
  return reinterpret_cast<uintptr_t>(pm.OptimisticRead(id).page());
}

// The system-wide THP mode ("always", "madvise" or "never"), or "" when
// the kernel does not report one.
std::string ThpMode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(f, line);
  const size_t open = line.find('[');
  const size_t close = line.find(']');
  if (open == std::string::npos || close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

// The THPeligible field (1 or 0) of the /proc/self/smaps mapping that
// holds `addr`, or -1 when the kernel does not report it.
int ThpEligible(uintptr_t addr) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR, &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
      continue;
    }
    int eligible = 0;
    if (inside &&
        std::sscanf(line.c_str(), "THPeligible: %d", &eligible) == 1) {
      return eligible;
    }
  }
  return -1;
}

// Every chunk of an unbounded pool is filled, so each one's first frame
// sits on a 2 MiB boundary; frames stay 64-byte aligned, `stride` apart
// within a chunk.
void ExpectFilledChunksOnHugePageBoundaries(size_t max_node_bytes,
                                            size_t stride) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats, nullptr, 0, max_node_bytes);
  ASSERT_EQ(pm.frame_stride(), stride);
  constexpr size_t kPages = 3 * kChunk + 5;
  std::vector<uintptr_t> frames;
  for (size_t i = 0; i < kPages; ++i) {
    auto id = pm.Allocate();
    ASSERT_TRUE(id.ok());
    frames.push_back(FrameAddress(pm, *id));
  }
  EXPECT_EQ(pm.frame_count(), kPages);
  std::sort(frames.begin(), frames.end());
  // Split the sorted frames into runs frame_stride() apart: one per chunk.
  std::vector<size_t> run_lengths;
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i] % 64, 0u) << i;
    if (i > 0 && frames[i] - frames[i - 1] == pm.frame_stride()) {
      ++run_lengths.back();
      continue;
    }
    EXPECT_EQ(frames[i] % kHugePage, 0u) << "chunk starting at frame " << i;
    run_lengths.push_back(1);
  }
  std::sort(run_lengths.begin(), run_lengths.end());
  EXPECT_EQ(run_lengths, (std::vector<size_t>{5, kChunk, kChunk, kChunk}));
}

TEST(PageManagerArenaTest, FilledChunksStartOnHugePageBoundaries) {
  ExpectFilledChunksOnHugePageBoundaries(kPageSize, 4160);
}

TEST(PageManagerArenaTest, NodeSizedFilledChunksStartOnHugePageBoundaries) {
  ExpectFilledChunksOnHugePageBoundaries(kNodeBytesK60, 1984);
}

// The stride is the smallest odd number of cache lines holding a node.
TEST(PageManagerArenaTest, FrameStrideIsTheSmallestOddLineCount) {
  EXPECT_EQ(PageManager::FrameStride(kNodeBytesK60), 1984u);  // 31 lines
  EXPECT_EQ(PageManager::FrameStride(NodeBytes(252)), 4160u);  // k = 126
  EXPECT_EQ(PageManager::FrameStride(kPageSize), 4160u);
  EXPECT_EQ(PageManager::FrameStride(64), 64u);
  EXPECT_EQ(PageManager::FrameStride(65), 192u);
}

// A node-sized frame keeps the first frame_stride() bytes of a put; a Get
// returns them and zeroes after.
TEST(PageManagerArenaTest, NodeSizedFrameKeepsOnlyItsBytes) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats, nullptr, 0, kNodeBytesK60);
  auto id = pm.Allocate();
  ASSERT_TRUE(id.ok());
  Page w;
  std::memset(w.bytes, 0xAB, kPageSize);
  pm.Put(*id, w);
  Page r;
  std::memset(r.bytes, 0xCD, kPageSize);
  ASSERT_TRUE(pm.Get(*id, &r).ok());
  const size_t frame = pm.frame_stride();
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(r.bytes[i], i < frame ? 0xAB : 0) << i;
  }
}

// A torn image may claim Node::kMaxEntries entries, and NodeView then
// reads up to a full page from the frame's start, far past a node-sized
// frame. Each chunk is mapped at least a page past its last frame's
// start, so even that frame's reads stay in mapped memory (a chunk mapped
// at exactly 1024 frames crashes here).
TEST(PageManagerArenaTest, TornReadOfTheLastFrameStaysInTheChunk) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats, nullptr, 0, kNodeBytesK60);
  std::vector<PageId> ids;
  for (size_t i = 0; i < kChunk; ++i) {
    auto id = pm.Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_EQ(pm.frame_count(), kChunk);
  // The chunk's last frame is the one at the highest address.
  PageId last = ids.front();
  uintptr_t lo = FrameAddress(pm, last);
  for (const PageId id : ids) {
    if (FrameAddress(pm, id) > FrameAddress(pm, last)) last = id;
    lo = std::min(lo, FrameAddress(pm, id));
  }
  ASSERT_EQ(FrameAddress(pm, last), lo + (kChunk - 1) * pm.frame_stride());

  Page w;
  w.Clear();
  Node* n = w.As<Node>();
  n->Init(0, kMinusInfinity, kPlusInfinity, kInvalidPageId);
  n->count = Node::kMaxEntries;
  pm.Put(last, w);

  const PageManager::ReadGuard g = pm.OptimisticRead(last);
  ASSERT_TRUE(g.stable());
  const NodeView view(g.page()->As<Node>());
  ASSERT_EQ(view.count(), Node::kMaxEntries);
  // Every key the view reads is zero: the frame's own entries were put
  // as zeroes, and past the frame lies the chunk's zeroed tail.
  EXPECT_EQ(view.LowerBound(kMaxUserKey), Node::kMaxEntries);
  EXPECT_FALSE(view.FindLeafValue(kMaxUserKey).has_value());
  Entry out[Node::kMaxEntries];
  EXPECT_EQ(view.CopyEntries(0, Node::kMaxEntries, kPlusInfinity, out),
            Node::kMaxEntries);
  EXPECT_TRUE(g.Validate());
}

// A filled chunk is advised onto transparent huge pages; a bounded pool's
// partial last chunk is not, so its unused tail is never faulted in.
TEST(PageManagerArenaTest, OnlyFilledChunksAreHugePageEligible) {
  const std::string mode = ThpMode();
  if (mode.empty() || mode == "never") GTEST_SKIP() << "THP is off";
  if (prctl(PR_GET_THP_DISABLE, 0, 0, 0, 0) == 1) {
    GTEST_SKIP() << "THP is disabled for this process";
  }
  EpochManager epoch;
  StatsCollector stats;
  for (const size_t node_bytes : {kPageSize, kNodeBytesK60}) {
    SCOPED_TRACE(node_bytes);
    PageManager unbounded(&epoch, &stats, nullptr, 0, node_bytes);
    auto id = unbounded.Allocate();
    ASSERT_TRUE(id.ok());
    const int filled = ThpEligible(FrameAddress(unbounded, *id));
    if (filled < 0) GTEST_SKIP() << "smaps reports no THPeligible field";
    EXPECT_EQ(filled, 1);

    // Pool of 1100 frames: chunk 0 (frames 0-1023) is filled, chunk 1 is
    // the partial last one.
    const std::string dir = ::testing::TempDir() + "obtree_pm_arena";
    std::filesystem::remove_all(dir);
    {
      auto store = FileStore::Open(dir);
      ASSERT_TRUE(store.ok());
      PageManager bounded(&epoch, &stats, store->get(),
                          /*buffer_pool_pages=*/1100, node_bytes);
      std::vector<PageId> ids;
      for (int i = 0; i < 1030; ++i) {
        auto page = bounded.Allocate();
        ASSERT_TRUE(page.ok());
        ids.push_back(*page);
      }
      ASSERT_EQ(bounded.frame_count(), ids.size());
      const uintptr_t first = FrameAddress(bounded, ids.front());
      EXPECT_EQ(first % kHugePage, 0u);
      EXPECT_EQ(ThpEligible(first), 1);
      // In "always" mode every large enough mapping is eligible.
      if (mode == "madvise") {
        EXPECT_EQ(ThpEligible(FrameAddress(bounded, ids.back())), 0);
      }
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace obtree
