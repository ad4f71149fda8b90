// Copyright 2026 The obtree Authors.
//
// Backend unit tests of FileStore: the CRC-32 checksum format, page round
// trips through the shadow (ping-pong) slot pairs, manifest atomicity,
// checksum verification on read-back, and the PageManager-level buffer
// pool over it (fault-in, eviction, counters). Crash injection is
// exercised separately by crash_recovery_test (it forks); everything here
// stays in-process.

#include "obtree/storage/file_store.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/storage/page_manager.h"
#include "obtree/util/epoch.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/random.h"
#include "obtree/util/stats.h"

namespace obtree {
namespace {

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "obtree_fs_" + info->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

Page MakePage(uint8_t fill) {
  Page p;
  std::memset(p.bytes, fill, kPageSize);
  return p;
}

// --- checksum format ------------------------------------------------------
//
// Every page image and manifest on disk carries this checksum, so its
// value for a given input must never change.

// One bit at a time, straight from the definition of the reflected IEEE
// CRC-32: the reference both Crc32 paths must agree with.
uint32_t BitwiseCrc32(const unsigned char* p, size_t n) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(FileStore::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(FileStore::Crc32("", 0), 0u);
}

// Golden value of a full page, fixed from the byte-at-a-time
// implementation that wrote every existing store.
// Crc32Portable is the table loop alone, so hosts whose Crc32 folds
// with carry-less multiplies still check it at page length.
TEST(Crc32Test, PageChecksumIsUnchanged) {
  Page p;
  for (size_t i = 0; i < kPageSize; ++i) {
    p.bytes[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  EXPECT_EQ(FileStore::Crc32(p.bytes, kPageSize), 0xA3F5519Cu);
  EXPECT_EQ(FileStore::Crc32Portable(p.bytes, kPageSize), 0xA3F5519Cu);
}

// Every tail length and misalignment of the 8-byte table steps and the
// 16-byte folds, below, at and well past the 64-byte fold minimum.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 1100;
  constexpr size_t kOffsets = 16;
  std::vector<unsigned char> buf(kMaxLen + kOffsets);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const unsigned char* p = buf.data() + offset;
      const uint32_t want = BitwiseCrc32(p, len);
      ASSERT_EQ(FileStore::Crc32(p, len), want)
          << "offset " << offset << " len " << len;
      ASSERT_EQ(FileStore::Crc32Portable(p, len), want)
          << "offset " << offset << " len " << len;
    }
  }
}

TEST_F(FileStoreTest, OpenCreatesDirectoryAndEmptyStore) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE((*store)->has_checkpoint());
  EXPECT_EQ((*store)->checkpoint_epoch(), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/pages.dat"));
}

TEST_F(FileStoreTest, UnknownPageReadsAsZeroes) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  Page p = MakePage(0xff);
  ASSERT_TRUE((*store)->ReadPage(7, p.bytes).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(p.bytes[i], 0u) << i;
}

TEST_F(FileStoreTest, WriteCommitReadRoundTrip) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const Page w = MakePage(0xab);
  ASSERT_TRUE((*store)->WritePage(3, w.bytes).ok());
  // Staged writes are readable before the commit (the buffer pool may
  // evict and re-fault a page between checkpoints).
  Page r;
  ASSERT_TRUE((*store)->ReadPage(3, r.bytes).ok());
  EXPECT_EQ(std::memcmp(w.bytes, r.bytes, kPageSize), 0);

  StoreMeta meta;
  meta.next_fresh = 4;
  ASSERT_TRUE((*store)->Commit(&meta).ok());
  EXPECT_TRUE((*store)->has_checkpoint());
  EXPECT_EQ((*store)->checkpoint_epoch(), 1u);
  ASSERT_TRUE((*store)->ReadPage(3, r.bytes).ok());
  EXPECT_EQ(std::memcmp(w.bytes, r.bytes, kPageSize), 0);
}

TEST_F(FileStoreTest, ReopenRecoversCommittedState) {
  {
    auto store = FileStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    const Page w = MakePage(0x5a);
    ASSERT_TRUE((*store)->WritePage(0, w.bytes).ok());
    StoreMeta meta;
    meta.next_fresh = 1;
    meta.tree_size = 42;
    meta.max_key = 999;
    meta.rightmost_leaf = 0;
    meta.leftmost = {0};
    meta.free_pages = {};
    ASSERT_TRUE((*store)->Commit(&meta).ok());
  }
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->has_checkpoint());
  EXPECT_EQ((*store)->checkpoint_epoch(), 1u);
  const StoreMeta& meta = (*store)->recovered_meta();
  EXPECT_EQ(meta.next_fresh, 1u);
  EXPECT_EQ(meta.tree_size, 42u);
  EXPECT_EQ(meta.max_key, 999u);
  EXPECT_EQ(meta.rightmost_leaf, 0u);
  ASSERT_EQ(meta.leftmost.size(), 1u);
  Page r;
  ASSERT_TRUE((*store)->ReadPage(0, r.bytes).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r.bytes[i], 0x5au) << i;
}

// An uncommitted write must never displace the committed image: it lands
// in the shadow slot, and a reopen (which drops the pending table) reads
// the committed one.
TEST_F(FileStoreTest, UncommittedWriteDoesNotReplaceCommittedImage) {
  {
    auto store = FileStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    const Page v1 = MakePage(0x11);
    ASSERT_TRUE((*store)->WritePage(5, v1.bytes).ok());
    StoreMeta meta;
    meta.next_fresh = 6;
    ASSERT_TRUE((*store)->Commit(&meta).ok());
    const Page v2 = MakePage(0x22);
    ASSERT_TRUE((*store)->WritePage(5, v2.bytes).ok());
    // No commit: v2 sits in the shadow slot only.
  }
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  Page r;
  ASSERT_TRUE((*store)->ReadPage(5, r.bytes).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(r.bytes[i], 0x11u) << i;
}

// Successive committed versions of one page ping-pong between its two
// slots; each commit's image must read back intact.
TEST_F(FileStoreTest, SlotPingPongAcrossCommits) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (uint8_t round = 1; round <= 5; ++round) {
    const Page w = MakePage(round);
    ASSERT_TRUE((*store)->WritePage(2, w.bytes).ok());
    StoreMeta meta;
    meta.next_fresh = 3;
    ASSERT_TRUE((*store)->Commit(&meta).ok());
    Page r;
    ASSERT_TRUE((*store)->ReadPage(2, r.bytes).ok());
    EXPECT_EQ(std::memcmp(w.bytes, r.bytes, kPageSize), 0) << int{round};
    EXPECT_EQ((*store)->checkpoint_epoch(), round);
  }
}

// Flipping a bit in the committed slot must surface as DataLoss on read,
// not as silently wrong bytes.
TEST_F(FileStoreTest, CorruptedPageImageReadsAsDataLoss) {
  uint64_t offset_of_committed_slot = 0;
  {
    auto store = FileStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    const Page w = MakePage(0x77);
    ASSERT_TRUE((*store)->WritePage(0, w.bytes).ok());
    StoreMeta meta;
    meta.next_fresh = 1;
    ASSERT_TRUE((*store)->Commit(&meta).ok());
    // Find which slot the commit landed in by checking the first byte of
    // both: exactly one holds 0x77.
  }
  {
    std::FILE* f = std::fopen((dir_ + "/pages.dat").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    unsigned char b0 = 0;
    ASSERT_EQ(std::fread(&b0, 1, 1, f), 1u);
    offset_of_committed_slot = (b0 == 0x77) ? 0 : kPageSize;
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset_of_committed_slot + 100),
                         SEEK_SET),
              0);
    const unsigned char flipped = 0x77 ^ 0x01;
    ASSERT_EQ(std::fwrite(&flipped, 1, 1, f), 1u);
    std::fclose(f);
  }
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  Page r;
  Status s = (*store)->ReadPage(0, r.bytes);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_NE(s.message().find("page 0 slot"), std::string::npos)
      << s.ToString();
}

// Staging a page twice before a Commit reuses its shadow slot; reads,
// the commit and a reopen all see the newest image.
TEST_F(FileStoreTest, PageStagedTwiceReadsBackNewestImage) {
  const Page v1 = MakePage(0x11);
  const Page v2 = MakePage(0x22);
  const Page v3 = MakePage(0x33);
  {
    auto store = FileStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    // Page 4 never committed, page 6 committed once before its restages.
    ASSERT_TRUE((*store)->WritePage(6, v1.bytes).ok());
    StoreMeta meta;
    meta.next_fresh = 7;
    ASSERT_TRUE((*store)->Commit(&meta).ok());
    for (PageId id : {PageId{4}, PageId{6}}) {
      ASSERT_TRUE((*store)->WritePage(id, v2.bytes).ok());
      ASSERT_TRUE((*store)->WritePage(id, v3.bytes).ok());
      Page r;
      ASSERT_TRUE((*store)->ReadPage(id, r.bytes).ok());
      EXPECT_EQ(std::memcmp(v3.bytes, r.bytes, kPageSize), 0) << id;
    }
    ASSERT_TRUE((*store)->Commit(&meta).ok());
  }
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (PageId id : {PageId{4}, PageId{6}}) {
    Page r;
    ASSERT_TRUE((*store)->ReadPage(id, r.bytes).ok());
    EXPECT_EQ(std::memcmp(v3.bytes, r.bytes, kPageSize), 0) << id;
  }
}

// The manifest's page table indexes the store's slot table, so the
// loader checks each id even when the trailer checksum is valid: an id
// at or past next_fresh, or one named twice, is DataLoss. Entry order
// is free (the writer sorts by id; a reversed table still opens).
TEST_F(FileStoreTest, ManifestPageTableIsCheckedOnOpen) {
  // Layout with no levels and no free pages: a 56-byte header, then
  // 12-byte {id, slot, crc} entries, then the 4-byte trailer CRC.
  constexpr size_t kEntriesAt = 56;
  const Page w0 = MakePage(0x0a);
  const Page w1 = MakePage(0x1b);
  {
    auto store = FileStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->WritePage(0, w0.bytes).ok());
    ASSERT_TRUE((*store)->WritePage(1, w1.bytes).ok());
    StoreMeta meta;
    meta.next_fresh = 2;
    ASSERT_TRUE((*store)->Commit(&meta).ok());
  }
  const std::string path = dir_ + "/MANIFEST";
  std::string good;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[256];
    const size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    good.assign(buf, n);
  }
  ASSERT_EQ(good.size(), kEntriesAt + 2 * 12 + 4);
  auto put32 = [](std::string* m, size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) (*m)[at + i] = static_cast<char>(v >> (8 * i));
  };
  // Rewrite the manifest with a valid trailer over the edited bytes.
  auto install = [&](std::string m) {
    put32(&m, m.size() - 4, FileStore::Crc32(m.data(), m.size() - 4));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(m.data(), 1, m.size(), f), m.size());
    std::fclose(f);
  };

  std::string past_end = good;
  put32(&past_end, kEntriesAt + 12, 2);  // the second entry names page 2
  install(past_end);
  auto store = FileStore::Open(dir_);
  EXPECT_TRUE(store.status().IsDataLoss()) << store.status().ToString();

  std::string duplicate = good;
  put32(&duplicate, kEntriesAt + 12, 0);  // the second entry names page 0
  install(duplicate);
  store = FileStore::Open(dir_);
  EXPECT_TRUE(store.status().IsDataLoss()) << store.status().ToString();

  std::string reversed = good;
  reversed.replace(kEntriesAt, 12, good, kEntriesAt + 12, 12);
  reversed.replace(kEntriesAt + 12, 12, good, kEntriesAt, 12);
  install(reversed);
  store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Page r;
  ASSERT_TRUE((*store)->ReadPage(0, r.bytes).ok());
  EXPECT_EQ(std::memcmp(w0.bytes, r.bytes, kPageSize), 0);
  ASSERT_TRUE((*store)->ReadPage(1, r.bytes).ok());
  EXPECT_EQ(std::memcmp(w1.bytes, r.bytes, kPageSize), 0);
}

// next_fresh sizes PageManager's page directory on recovery, and every
// free page id is handed out by the allocator, so Open rejects a
// checksummed manifest whose next_fresh exceeds kMaxPageIds or whose free
// list names a page at or past next_fresh.
TEST_F(FileStoreTest, ManifestAllocatorStateIsBoundedOnOpen) {
  auto commit = [&](uint32_t next_fresh, std::vector<PageId> free_pages) {
    std::filesystem::remove_all(dir_);
    auto store = FileStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    StoreMeta meta;
    meta.next_fresh = next_fresh;
    meta.free_pages = std::move(free_pages);
    ASSERT_TRUE((*store)->Commit(&meta).ok());
  };
  commit(kMaxPageIds, {kMaxPageIds - 1});
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovered_meta().next_fresh, kMaxPageIds);

  commit(kMaxPageIds + 1, {});
  store = FileStore::Open(dir_);
  EXPECT_TRUE(store.status().IsDataLoss()) << store.status().ToString();

  commit(4, {1, 4});
  store = FileStore::Open(dir_);
  EXPECT_TRUE(store.status().IsDataLoss()) << store.status().ToString();
}

// A torn manifest (trailing checksum broken) must fail Open loudly.
TEST_F(FileStoreTest, CorruptedManifestFailsOpen) {
  {
    auto store = FileStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    StoreMeta meta;
    meta.next_fresh = 0;
    ASSERT_TRUE((*store)->Commit(&meta).ok());
  }
  {
    std::FILE* f = std::fopen((dir_ + "/MANIFEST").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    unsigned char last = 0;
    ASSERT_EQ(std::fread(&last, 1, 1, f), 1u);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    last ^= 0xff;
    ASSERT_EQ(std::fwrite(&last, 1, 1, f), 1u);
    std::fclose(f);
  }
  auto store = FileStore::Open(dir_);
  EXPECT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsDataLoss()) << store.status().ToString();
  EXPECT_NE(store.status().message().find("stored 0x"), std::string::npos)
      << store.status().ToString();
}

// A leftover MANIFEST.tmp (crash between the tmp fsync and the rename)
// must be ignored: the previous commit, if any, stays authoritative.
TEST_F(FileStoreTest, LeftoverManifestTmpIsDiscarded) {
  {
    auto store = FileStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    StoreMeta meta;
    meta.next_fresh = 1;
    meta.tree_size = 7;
    ASSERT_TRUE((*store)->Commit(&meta).ok());
  }
  {
    std::FILE* f = std::fopen((dir_ + "/MANIFEST.tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn future manifest", f);
    std::fclose(f);
  }
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->has_checkpoint());
  EXPECT_EQ((*store)->recovered_meta().tree_size, 7u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/MANIFEST.tmp"));
}

// kError on the durability sites surfaces Unavailable without advancing
// the committed state, and a later clean Commit still lands everything.
TEST_F(FileStoreTest, TransientCommitFailureIsRetryable) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const Page w = MakePage(0x33);
  ASSERT_TRUE((*store)->WritePage(1, w.bytes).ok());

  FaultSpec fail_once;
  fail_once.action = FaultAction::kError;
  fail_once.probability = 1.0;
  fail_once.max_fires = 1;
  FaultInjector::Instance().Arm("store-fsync", fail_once);
  StoreMeta meta;
  meta.next_fresh = 2;
  Status s = (*store)->Commit(&meta);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ((*store)->checkpoint_epoch(), 0u);
  FaultInjector::Instance().DisarmAll();

  ASSERT_TRUE((*store)->Commit(&meta).ok());
  EXPECT_EQ((*store)->checkpoint_epoch(), 1u);
  Page r;
  ASSERT_TRUE((*store)->ReadPage(1, r.bytes).ok());
  EXPECT_EQ(std::memcmp(w.bytes, r.bytes, kPageSize), 0);
}

// --- PageManager-over-FileStore: buffer pool ------------------------------

class BufferPoolTest : public FileStoreTest {};

TEST_F(BufferPoolTest, EvictionStagesDirtyPagesAndFaultsThemBack) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EpochManager epoch;
  StatsCollector stats;
  // Pool budget of 64 (the minimum TreeOptions accepts) with many more
  // pages than that: allocation-triggered sweeps must evict.
  PageManager pm(&epoch, &stats, store->get(), /*buffer_pool_pages=*/64);
  ASSERT_TRUE(pm.persistent());

  constexpr uint32_t kPages = 256;
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < kPages; ++i) {
    auto id = pm.Allocate();
    ASSERT_TRUE(id.ok());
    Page w = MakePage(static_cast<uint8_t>(*id & 0xff));
    w.bytes[0] = static_cast<uint8_t>(*id >> 8);  // make pages distinct
    pm.Put(*id, w);
    ids.push_back(*id);
  }
  EXPECT_LE(pm.resident_pages(), 2u * 64u);  // sweep keeps it near budget
  EXPECT_GT(stats.Get(StatId::kPagesEvicted), 0u);
  EXPECT_GT(stats.Get(StatId::kStoreWrites), 0u);

  // Every page reads back intact — evicted ones fault in from the store.
  for (PageId id : ids) {
    Page r;
    ASSERT_TRUE(pm.Get(id, &r).ok()) << id;
    EXPECT_EQ(r.bytes[0], static_cast<uint8_t>(id >> 8)) << id;
    EXPECT_EQ(r.bytes[1], static_cast<uint8_t>(id & 0xff)) << id;
  }
  EXPECT_GT(stats.Get(StatId::kStoreReads), 0u);
}

// An optimistic read must never validate the image of a page that is no
// longer resident. The sweep that ends a fault-in may evict other pages,
// and it used to be able to evict the very page just faulted in, after
// which the guard validated an all-zero image: a node with high = 0 and
// link = 0 that sent descents to page 0.
TEST_F(BufferPoolTest, OptimisticReadNeverValidatesAnEvictedImage) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats, store->get(), /*buffer_pool_pages=*/64);

  constexpr uint32_t kPages = 256;
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < kPages; ++i) {
    auto id = pm.Allocate();
    ASSERT_TRUE(id.ok());
    Page w = MakePage(static_cast<uint8_t>(1 + i % 255));  // never zero
    std::memcpy(w.bytes, &*id, sizeof(PageId));
    pm.Put(*id, w);
    ids.push_back(*id);
  }

  Random rng(15);
  uint64_t validated = 0;
  for (int i = 0; i < 100'000; ++i) {
    const uint32_t idx = static_cast<uint32_t>(rng.Uniform(kPages));
    const PageManager::ReadGuard g = pm.OptimisticRead(ids[idx]);
    ASSERT_FALSE(g.faulted());
    if (!g.stable()) continue;
    // One thread: nothing writes the frame between here and Validate.
    PageId seen;
    std::memcpy(&seen, g.page()->bytes, sizeof(PageId));
    const uint8_t fill = g.page()->bytes[kPageSize - 1];
    if (!g.Validate()) continue;
    ++validated;
    ASSERT_EQ(fill, static_cast<uint8_t>(1 + idx % 255))
        << "read " << i << " validated a zeroed or foreign image";
    ASSERT_EQ(seen, ids[idx]) << "read " << i;
  }
  EXPECT_GT(validated, 90'000u);
  EXPECT_GT(stats.Get(StatId::kPagesEvicted), 0u);
}

// The pinning invariant behind BeginWrite: a page whose paper lock is
// held cannot be evicted, so a PeekLocked guard taken under the lock
// keeps validating — with its frame unchanged — however much the pool
// churns, and the in-place write that follows needs no fault-in.
TEST_F(BufferPoolTest, LockedPageStaysResidentThroughSweeps) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EpochManager epoch;
  StatsCollector stats;
  constexpr uint32_t kPool = 64;
  PageManager pm(&epoch, &stats, store->get(), kPool);

  auto target = pm.Allocate();
  ASSERT_TRUE(target.ok());
  pm.Put(*target, MakePage(0x5a));
  pm.Lock(*target);
  const PageManager::ReadGuard g = pm.PeekLocked(*target);
  ASSERT_TRUE(g.stable());

  // Allocations and fault-ins of 10x the pool while the lock is held.
  std::vector<PageId> others;
  for (uint32_t i = 0; i < 5 * kPool; ++i) {
    auto id = pm.Allocate();
    ASSERT_TRUE(id.ok());
    pm.Put(*id, MakePage(static_cast<uint8_t>(i)));
    others.push_back(*id);
  }
  Page r;
  for (PageId id : others) ASSERT_TRUE(pm.Get(id, &r).ok());
  EXPECT_GE(stats.Get(StatId::kStoreReads), 4u * kPool);
  EXPECT_GE(stats.Get(StatId::kPagesEvicted), 8u * kPool);

  EXPECT_TRUE(g.Validate());
  EXPECT_EQ(g.page()->bytes[0], 0x5a);
  const uint64_t reads_before = stats.Get(StatId::kStoreReads);
  {
    PageManager::WriteGuard wg = pm.BeginWrite(*target);
    EXPECT_EQ(wg.page(), g.page());
  }
  EXPECT_EQ(stats.Get(StatId::kStoreReads), reads_before);
  pm.Unlock(*target);
}

// The sweep is a CLOCK: a page read between two passes of the hand
// keeps its frame however many colder pages stream through the pool
// (a FIFO hand would evict it once per lap), and the frame arena stays
// within the documented bound.
TEST_F(BufferPoolTest, PageReadBetweenSweepsIsNeverEvicted) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EpochManager epoch;
  StatsCollector stats;
  constexpr uint32_t kPool = 64;
  PageManager pm(&epoch, &stats, store->get(), kPool);

  auto hot = pm.Allocate();
  ASSERT_TRUE(hot.ok());
  pm.Put(*hot, MakePage(0x77));
  std::vector<PageId> cold;
  for (uint32_t i = 0; i < 4 * kPool; ++i) {
    auto id = pm.Allocate();
    ASSERT_TRUE(id.ok());
    pm.Put(*id, MakePage(static_cast<uint8_t>(i)));
    cold.push_back(*id);
  }
  Random rng(3);
  Page r;
  uint64_t hot_faults = 0;
  // The first lap warms up: `hot` went cold while the pool filled, and
  // pages stay equally referenced until the hand has passed them once.
  for (uint32_t i = 0; i < 22 * kPool; ++i) {
    ASSERT_TRUE(pm.Get(cold[rng.Uniform(cold.size())], &r).ok());
    const uint64_t reads = stats.Get(StatId::kStoreReads);
    ASSERT_TRUE(pm.Get(*hot, &r).ok());
    ASSERT_EQ(r.bytes[0], 0x77);
    if (i >= 2 * kPool) hot_faults += stats.Get(StatId::kStoreReads) - reads;
  }
  EXPECT_GE(stats.Get(StatId::kPagesEvicted), 10u * kPool);
  EXPECT_EQ(hot_faults, 0u);
  EXPECT_LE(pm.resident_pages(), kPool);
  EXPECT_LE(pm.frame_count(), kPool + PageManager::kFrameSlack);
}

TEST_F(BufferPoolTest, CheckpointFlushesDirtyPagesAndCounts) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats, store->get(), /*buffer_pool_pages=*/0);

  auto id = pm.Allocate();
  ASSERT_TRUE(id.ok());
  const Page w = MakePage(0x44);
  pm.Put(*id, w);

  Status s = pm.Checkpoint([](StoreMeta* meta) { meta->tree_size = 1; });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.Get(StatId::kCheckpoints), 1u);
  EXPECT_GE(stats.Get(StatId::kStoreWrites), 1u);
  EXPECT_EQ((*store)->checkpoint_epoch(), 1u);

  // Clean pages are not re-staged by the next checkpoint.
  const uint64_t writes_before = stats.Get(StatId::kStoreWrites);
  ASSERT_TRUE(pm.Checkpoint([](StoreMeta*) {}).ok());
  EXPECT_EQ(stats.Get(StatId::kStoreWrites), writes_before);
}

TEST_F(BufferPoolTest, CheckpointOnMemStoreIsFailedPrecondition) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);  // default MemStore
  EXPECT_FALSE(pm.persistent());
  Status s = pm.Checkpoint([](StoreMeta*) {});
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
}

}  // namespace
}  // namespace obtree
