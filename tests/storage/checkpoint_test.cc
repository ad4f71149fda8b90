// Copyright 2026 The obtree Authors.
//
// Tree-level checkpoint/recover tests over the FileStore backend — all
// in-process (no fork), so they run under TSan and exercise exactly the
// concurrency the checkpoint barrier claims to handle: a checkpoint cut
// under live mutator traffic must capture every operation acknowledged
// before Checkpoint() was called, and a reopen of the directory must
// reproduce a tree that passes TreeChecker and serves those operations.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/api/sharded_map.h"
#include "obtree/core/sagiv_tree.h"
#include "obtree/core/tree_checker.h"
#include "obtree/storage/file_store.h"
#include "obtree/storage/page_manager.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "obtree_ckpt_" + info->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(CheckpointTest, FreshPersistentTreeStartsEmpty) {
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.compression = CompressionMode::kNone;
  ConcurrentMap map(opt);
  ASSERT_TRUE(map.init_status().ok()) << map.init_status().ToString();
  EXPECT_FALSE(map.recovered_from_checkpoint());
  EXPECT_EQ(map.checkpoint_epoch(), 0u);
  EXPECT_EQ(map.Size(), 0u);
}

TEST_F(CheckpointTest, CheckpointWithoutStorageDirIsFailedPrecondition) {
  ConcurrentMap map;
  Status s = map.Checkpoint();
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
}

TEST_F(CheckpointTest, RoundTripPreservesEveryPair) {
  constexpr Key kN = 10'000;
  {
    MapOptions opt;
    opt.tree.storage_dir = dir_;
    opt.compression = CompressionMode::kNone;
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    for (Key k = 1; k <= kN; ++k) {
      ASSERT_TRUE(map.Insert(k, k * 11).ok()) << k;
    }
    ASSERT_TRUE(map.Checkpoint().ok());
    EXPECT_EQ(map.checkpoint_epoch(), 1u);
  }
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.compression = CompressionMode::kNone;
  ConcurrentMap map(opt);
  ASSERT_TRUE(map.init_status().ok()) << map.init_status().ToString();
  ASSERT_TRUE(map.recovered_from_checkpoint());
  EXPECT_EQ(map.checkpoint_epoch(), 1u);
  EXPECT_EQ(map.Size(), kN);
  for (Key k = 1; k <= kN; ++k) {
    Result<Value> r = map.Get(k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, k * 11) << k;
  }
  // The recovered structure is a valid B-link tree.
  Status s = map.ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
  // And still fully writable: the allocator state (frontier + free list)
  // recovered too, so splits keep working.
  for (Key k = kN + 1; k <= kN + 2'000; ++k) {
    ASSERT_TRUE(map.Insert(k, k * 11).ok()) << k;
  }
  EXPECT_EQ(map.Size(), kN + 2'000);
}

TEST_F(CheckpointTest, RecoverRefusesEmptyDirAndAcceptsCheckpointed) {
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.compression = CompressionMode::kNone;
  {
    auto r = ConcurrentMap::Recover(opt);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
  }
  {
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.Insert(1, 100).ok());
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  auto r = ConcurrentMap::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<Value> v = (*r)->Get(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 100u);
  // Recover without a storage_dir is a usage error.
  MapOptions bad;
  auto r2 = ConcurrentMap::Recover(bad);
  EXPECT_TRUE(r2.status().IsInvalidArgument());
}

// Recovery arms the append fast-path hints at the recovered frontier: the
// watermark rises to the stored max, so an insert below it takes the plain
// descent with no fast-path attempt, and the rightmost hint names the
// recovered rightmost leaf, so the first max-extending insert hits it.
TEST_F(CheckpointTest, RecoveryArmsAppendFastPathHints) {
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  // 1000 ascending keys fill 8 leaves of 2k = 120 pairs and leave 40 in
  // the rightmost, which therefore has room for the append below.
  opt.tree.min_entries = 60;
  opt.compression = CompressionMode::kNone;
  {
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    // Even keys 2..2000 leave gaps to insert into below the stored max.
    for (Key k = 2; k <= 2'000; k += 2) ASSERT_TRUE(map.Insert(k, k).ok());
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  auto r = ConcurrentMap::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ConcurrentMap& map = **r;
  const StatsCollector* stats = map.tree()->stats();
  ASSERT_GT(map.Height(), 1u);

  // 999 < stored max 2000: no fast-path attempt at all.
  ASSERT_TRUE(map.Insert(999, 1).ok());
  EXPECT_EQ(stats->Get(StatId::kAppendFastHits), 0u);
  EXPECT_EQ(stats->Get(StatId::kAppendFastMisses), 0u);

  // 2001 extends the max: one hit on the recovered rightmost leaf.
  ASSERT_TRUE(map.Insert(2'001, 2).ok());
  EXPECT_EQ(stats->Get(StatId::kAppendFastHits), 1u);
  EXPECT_EQ(stats->Get(StatId::kAppendFastMisses), 0u);

  EXPECT_EQ(*map.Get(999), 1u);
  EXPECT_EQ(*map.Get(2'001), 2u);
  Status s = map.ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(CheckpointTest, DeletesAndReusedPagesSurviveRoundTrip) {
  constexpr Key kN = 5'000;
  {
    MapOptions opt;
    opt.tree.storage_dir = dir_;
    opt.tree.min_entries = 3;
    opt.compression = CompressionMode::kQueueWorkers;
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
    for (Key k = 2; k <= kN; k += 2) ASSERT_TRUE(map.Erase(k).ok());
    map.Quiesce();
    map.CompressNow();  // retire pages -> free list with real content
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.compression = CompressionMode::kNone;
  ConcurrentMap map(opt);
  ASSERT_TRUE(map.recovered_from_checkpoint());
  EXPECT_EQ(map.Size(), kN / 2);
  for (Key k = 1; k <= kN; ++k) {
    Result<Value> r = map.Get(k);
    if (k % 2 == 1) {
      ASSERT_TRUE(r.ok()) << k;
      EXPECT_EQ(*r, k) << k;
    } else {
      EXPECT_TRUE(r.status().IsNotFound()) << k;
    }
  }
  Status s = map.ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(CheckpointTest, BufferPoolBoundedTreeRoundTrips) {
  constexpr Key kN = 20'000;
  {
    MapOptions opt;
    opt.tree.storage_dir = dir_;
    opt.tree.buffer_pool_pages = 64;  // far fewer than the tree's pages
    opt.compression = CompressionMode::kNone;
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(map.Insert(k, k + 5).ok());
    // Eviction really happened on the way here. (The ascending inserts
    // themselves need no fault-in: the CLOCK sweep keeps their hot path
    // resident and evicts the cold leaves behind it.)
    EXPECT_GT(map.Stats().Get(StatId::kPagesEvicted), 0u);
    // Reads fault evicted pages back in correctly.
    for (Key k = 1; k <= kN; k += 97) {
      Result<Value> r = map.Get(k);
      ASSERT_TRUE(r.ok()) << k;
      EXPECT_EQ(*r, k + 5) << k;
    }
    EXPECT_GT(map.Stats().Get(StatId::kStoreReads), 0u);
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.tree.buffer_pool_pages = 64;
  opt.compression = CompressionMode::kNone;
  ConcurrentMap map(opt);
  ASSERT_TRUE(map.recovered_from_checkpoint());
  EXPECT_EQ(map.Size(), kN);
  for (Key k = 1; k <= kN; ++k) {
    Result<Value> r = map.Get(k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, k + 5) << k;
  }
  Status s = map.ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// A page whose stored image fails its checksum reads back the same bytes
// on every try, so the descents surface DataLoss at once instead of
// retrying it with backoff as if it were a transient fault.
TEST_F(CheckpointTest, CorruptPageSurfacesAsDataLossWithoutRetries) {
  constexpr Key kN = 20'000;
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.compression = CompressionMode::kNone;
  {
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  {
    // Flip one byte in every slot of pages.dat: whichever slot the
    // manifest names, every page's image is now corrupt.
    const std::string path = dir_ + "/pages.dat";
    const auto size = std::filesystem::file_size(path);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    for (uint64_t off = 100; off < size; off += kPageSize) {
      ASSERT_EQ(std::fseek(f, static_cast<long>(off), SEEK_SET), 0);
      const int c = std::fgetc(f);
      ASSERT_NE(c, EOF);
      ASSERT_EQ(std::fseek(f, static_cast<long>(off), SEEK_SET), 0);
      ASSERT_NE(std::fputc(c ^ 0xff, f), EOF);
    }
    std::fclose(f);
  }
  auto r = ConcurrentMap::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ConcurrentMap& map = **r;

  const Result<Value> got = map.Get(kN / 2);
  EXPECT_TRUE(got.status().IsDataLoss()) << got.status().ToString();
  const BatchResult multi = map.MultiGet({1, kN / 3, kN / 2, kN});
  for (const Result<Value>& v : multi.values) {
    EXPECT_TRUE(v.status().IsDataLoss()) << v.status().ToString();
  }
  const Status up = map.Upsert(kN / 2, 7);
  EXPECT_TRUE(up.IsDataLoss()) << up.ToString();
  EXPECT_EQ(map.Stats().Get(StatId::kFetchRetries), 0u);
  EXPECT_EQ(map.Size(), kN);
}

// Optimistic readers racing eviction and frame reuse through a pool far
// smaller than the tree: three readers (Get, MultiGet(32), Scan(50)) on
// preloaded keys and one upserter on its own key range, each checked
// against its own model. Every reader must keep making progress (a
// livelock fails the op floor), the structure must stay valid, and the
// frame arena must stay within its documented bound throughout.
TEST_F(CheckpointTest, ReadersRaceEvictionAndFrameReuse) {
  constexpr uint32_t kPool = 64;
  constexpr Key kN = 20'000;        // readers' keys: 1..kN
  constexpr Key kWriterKeys = 4'000;  // upserter's keys: kN+1..kN+kWriterKeys
  constexpr uint64_t kMinOps = 1'000;
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.tree.buffer_pool_pages = kPool;
  // kN ascending keys in leaves of up to 2k = 120 pairs make ~170 pages,
  // well over the 2 * kPool the pool must be smaller than.
  opt.tree.min_entries = 60;
  opt.compression = CompressionMode::kNone;
  ConcurrentMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(map.Insert(k, k * 3 + 1).ok());
  const PageManager* pager = map.tree()->internal_pager();
  ASSERT_GT(pager->allocated_pages(), 2u * kPool);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_ops[3] = {{0}, {0}, {0}};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // Get
    Random rng(1);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key k = 1 + rng.Uniform(kN);
      Result<Value> r = map.Get(k);
      if (!r.ok() || *r != k * 3 + 1) wrong.fetch_add(1);
      reader_ops[0].fetch_add(1, std::memory_order_relaxed);
    }
  });
  threads.emplace_back([&] {  // MultiGet(32)
    Random rng(2);
    std::vector<Key> keys(32);
    while (!stop.load(std::memory_order_relaxed)) {
      for (Key& k : keys) k = 1 + rng.Uniform(kN);
      const BatchResult r = map.MultiGet(keys);
      for (size_t i = 0; i < keys.size(); ++i) {
        if (!r.values[i].ok() || *r.values[i] != keys[i] * 3 + 1) {
          wrong.fetch_add(1);
        }
      }
      reader_ops[1].fetch_add(1, std::memory_order_relaxed);
    }
  });
  threads.emplace_back([&] {  // Scan(50)
    Random rng(3);
    while (!stop.load(std::memory_order_relaxed)) {
      const Key lo = 1 + rng.Uniform(kN - 49);
      Key next = lo;
      map.Scan(lo, lo + 49, [&](Key k, Value v) {
        if (k != next || v != k * 3 + 1) wrong.fetch_add(1);
        ++next;
        return true;
      });
      if (next != lo + 50) wrong.fetch_add(1);
      reader_ops[2].fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<Value> model(kWriterKeys, 0);  // 0 = never written
  threads.emplace_back([&] {  // upserter, read-your-writes
    Random rng(4);
    for (Value v = 1; !stop.load(std::memory_order_relaxed); ++v) {
      const Key i = rng.Uniform(kWriterKeys);
      if (!map.Upsert(kN + 1 + i, v).ok()) wrong.fetch_add(1);
      model[i] = v;
      Result<Value> r = map.Get(kN + 1 + i);
      if (!r.ok() || *r != v) wrong.fetch_add(1);
    }
  });

  // At least ~2 s of traffic, and long enough for every reader to reach
  // the op floor on slow (sanitized) builds; a livelocked reader hits
  // the time cap instead.
  const auto start = std::chrono::steady_clock::now();
  size_t max_frames = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    max_frames = std::max(max_frames, pager->frame_count());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    bool floor_met = true;
    for (const auto& ops : reader_ops) floor_met &= ops.load() >= kMinOps;
    if ((floor_met && elapsed >= std::chrono::seconds(2)) ||
        elapsed >= std::chrono::seconds(60)) {
      break;
    }
  }
  stop.store(true);
  for (auto& t : threads) t.join();

  for (const auto& ops : reader_ops) EXPECT_GE(ops.load(), kMinOps);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(map.Stats().Get(StatId::kPagesEvicted), 0u);
  EXPECT_LE(max_frames, kPool + PageManager::kFrameSlack);
  for (Key i = 0; i < kWriterKeys; ++i) {
    Result<Value> r = map.Get(kN + 1 + i);
    if (model[i] == 0) {
      EXPECT_FALSE(r.ok()) << kN + 1 + i;
    } else {
      ASSERT_TRUE(r.ok()) << kN + 1 + i;
      EXPECT_EQ(*r, model[i]) << kN + 1 + i;
    }
  }
  Status s = map.ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// The acceptance-criteria scenario: a checkpoint cut while mutator
// threads are running. Everything acknowledged BEFORE Checkpoint() was
// invoked must be in the recovered image; operations racing the barrier
// may or may not be (each is either fully in or fully out — the audit
// only accepts states consistent with SOME prefix-respecting cut).
TEST_F(CheckpointTest, CheckpointUnderLiveTrafficIsLossless) {
  constexpr int kThreads = 4;
  constexpr Key kPreloaded = 4'000;
  constexpr int kOpsPerThread = 8'000;

  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.tree.min_entries = 3;
  opt.compression = CompressionMode::kNone;
  uint64_t epoch_at_cut = 0;
  std::vector<std::vector<Key>> acked_before(kThreads);
  std::vector<std::vector<Key>> acked_ever(kThreads);
  {
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    // Committed baseline: preloaded keys, all acked before the barrier.
    for (Key k = 1; k <= kPreloaded; ++k) {
      ASSERT_TRUE(map.Insert(k, k * 3).ok());
    }
    std::atomic<bool> cut_started{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        Random rng(0xc0ffee + static_cast<uint64_t>(t));
        for (int i = 0; i < kOpsPerThread; ++i) {
          // Disjoint fresh keys per thread, above the preload.
          const Key k = kPreloaded + 1 + static_cast<Key>(t) +
                        static_cast<Key>(i) * kThreads;
          if (!map.Insert(k, k * 3).ok()) continue;
          acked_ever[static_cast<size_t>(t)].push_back(k);
          if (!cut_started.load(std::memory_order_acquire)) {
            // Acked while the checkpoint had definitely not begun: the
            // recovered image MUST contain it. (Keys acked after the
            // flag flipped race the barrier and may fall on either
            // side.)
            acked_before[static_cast<size_t>(t)].push_back(k);
          }
        }
      });
    }
    // Let the writers get going, then cut under full traffic.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cut_started.store(true, std::memory_order_release);
    ASSERT_TRUE(map.Checkpoint().ok());
    epoch_at_cut = map.checkpoint_epoch();
    for (auto& th : threads) th.join();
  }

  ConcurrentMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  ASSERT_TRUE(map.recovered_from_checkpoint());
  EXPECT_EQ(map.checkpoint_epoch(), epoch_at_cut);

  // Structure first: the recovered tree is valid.
  Status s = map.ValidateStructure();
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Every pre-barrier acknowledged key is present with its value.
  for (Key k = 1; k <= kPreloaded; ++k) {
    Result<Value> r = map.Get(k);
    ASSERT_TRUE(r.ok()) << "lost preloaded key " << k;
    EXPECT_EQ(*r, k * 3);
  }
  for (const auto& keys : acked_before) {
    for (Key k : keys) {
      Result<Value> r = map.Get(k);
      ASSERT_TRUE(r.ok()) << "lost pre-checkpoint acked key " << k;
      EXPECT_EQ(*r, k * 3) << k;
    }
  }
  // No ghosts: everything in the recovered image was actually inserted
  // (acked or in flight at the cut — never an invented key), with the
  // writer's value.
  std::vector<bool> inserted_ever(
      kPreloaded + static_cast<Key>(kThreads) * kOpsPerThread + kThreads + 1,
      false);
  for (Key k = 1; k <= kPreloaded; ++k) inserted_ever[k] = true;
  for (const auto& keys : acked_ever) {
    for (Key k : keys) inserted_ever[k] = true;
  }
  size_t scanned = 0;
  map.Scan(1, kMaxUserKey, [&](Key k, Value v) {
    EXPECT_EQ(v, k * 3) << k;
    // A key can be in the checkpoint without this test having seen its
    // ack (the barrier cut between the leaf mutation and the return), so
    // an ack is not required — but a key no thread ever attempted cannot
    // appear.
    EXPECT_LT(k, inserted_ever.size()) << "ghost key " << k;
    ++scanned;
    return true;
  });
  EXPECT_GT(scanned, 0u);
  EXPECT_EQ(scanned, map.Size());
}

// Checkpoint concurrent traffic for a ShardedMap: per-shard directories,
// per-key durability.
TEST_F(CheckpointTest, ShardedMapRoundTripsAcrossShardDirs) {
  constexpr Key kN = 8'000;
  ShardOptions opt;
  opt.num_shards = 4;
  opt.key_space_hint = kN;
  opt.compression = CompressionMode::kNone;
  opt.tree.storage_dir = dir_;
  {
    ShardedMap map(opt);
    ASSERT_TRUE(map.init_status().ok()) << map.init_status().ToString();
    for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(map.Insert(k, k + 9).ok());
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  // Shard subdirectories exist.
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/shard-" + std::to_string(i) +
                                        "/MANIFEST"))
        << i;
  }
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  ASSERT_TRUE(map.recovered_from_checkpoint());
  EXPECT_EQ(map.Size(), kN);
  for (Key k = 1; k <= kN; ++k) {
    Result<Value> r = map.Get(k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, k + 9) << k;
  }
  Status s = map.ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// buffer_pool_pages below the floor is rejected.
TEST_F(CheckpointTest, TinyBufferPoolIsRejected) {
  TreeOptions opt;
  opt.buffer_pool_pages = 8;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

// --- images in node-sized frames -------------------------------------------

// Entry counts along the leaf chain, left to right (quiescent tree).
std::vector<uint32_t> LeafCounts(const SagivTree& tree) {
  std::vector<uint32_t> counts;
  PageId id = tree.internal_prime()->Read().leftmost[0];
  Page page;
  while (id != kInvalidPageId) {
    EXPECT_TRUE(tree.internal_pager()->Get(id, &page).ok()) << id;
    counts.push_back(page.As<Node>()->count);
    id = page.As<Node>()->link;
  }
  return counts;
}

// At k = 60 a full leaf (2k = 120 entries, 1952 bytes) nearly fills its
// 1984-byte frame. Ascending inserts with tail splits leave every leaf at
// exactly 120 entries; through a 64-page pool each is evicted, faulted
// back in, checkpointed and recovered with every value intact.
TEST_F(CheckpointTest, FullLeavesSurviveEvictionAndRecovery) {
  constexpr uint32_t kFull = 120;
  constexpr Key kN = kFull * 200;
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.tree.buffer_pool_pages = 64;
  opt.compression = CompressionMode::kNone;
  ASSERT_EQ(opt.tree.capacity(), kFull);
  const auto check = [&](const ConcurrentMap& map) {
    for (Key k = 1; k <= kN; ++k) {
      Result<Value> r = map.Get(k);
      ASSERT_TRUE(r.ok()) << k << ": " << r.status().ToString();
      ASSERT_EQ(*r, k * 3) << k;
    }
    EXPECT_EQ(LeafCounts(*map.tree()),
              std::vector<uint32_t>(kN / kFull, kFull));
  };
  {
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(map.Insert(k, k * 3).ok());
    check(map);
    EXPECT_GT(map.Stats().Get(StatId::kPagesEvicted), 0u);
    EXPECT_GT(map.Stats().Get(StatId::kStoreReads), 0u);
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  auto r = ConcurrentMap::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  check(**r);
  const Status s = (*r)->ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// A store written at k = 120 holds leaves of up to 240 entries (3872
// bytes). Recovered at k = 60, whose frames hold 1984 bytes, such a leaf
// must not be truncated into a frame: every Get that reaches one returns
// DataLoss, never a wrong value or NotFound.
TEST_F(CheckpointTest, NodesLargerThanTheFrameAreRefused) {
  constexpr uint32_t kFull = 240;
  constexpr Key kN = kFull * 20;
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.tree.min_entries = kFull / 2;
  opt.compression = CompressionMode::kNone;
  {
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(map.Insert(k, k * 5).ok());
    ASSERT_EQ(LeafCounts(*map.tree()),
              std::vector<uint32_t>(kN / kFull, kFull));
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  opt.tree.min_entries = 60;
  auto r = ConcurrentMap::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Tally the outcomes so a failure shows what a truncated leaf returns.
  Key right = 0, wrong = 0, not_found = 0, data_loss = 0;
  for (Key k = 1; k <= kN; ++k) {
    const Result<Value> got = (*r)->Get(k);
    if (got.ok()) {
      ++(*got == k * 5 ? right : wrong);
    } else if (got.status().IsNotFound()) {
      ++not_found;
    } else if (got.status().IsDataLoss()) {
      ++data_loss;
    }
  }
  EXPECT_EQ(data_loss, kN) << "right values " << right << ", wrong values "
                           << wrong << ", NotFound " << not_found;
  // The audit reports the read error, and recovery keeps the
  // checkpoint's key count instead of what a failed leaf walk counted.
  const Status valid = (*r)->ValidateStructure();
  EXPECT_TRUE(valid.IsDataLoss()) << valid.ToString();
  EXPECT_EQ((*r)->Size(), kN);
}

// The converse: a store written at k = 60 recovers at k = 120, whose
// frames hold every image in it, with every key readable and the tree
// still writable.
TEST_F(CheckpointTest, SmallerNodesRecoverIntoLargerFrames) {
  constexpr Key kN = 10'000;
  MapOptions opt;
  opt.tree.storage_dir = dir_;
  opt.compression = CompressionMode::kNone;
  {
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    Random rng(11);
    std::vector<Key> keys;
    for (Key k = 1; k <= kN; ++k) keys.push_back(k);
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.Uniform(i)]);
    }
    for (const Key k : keys) ASSERT_TRUE(map.Insert(k, k * 7).ok());
    ASSERT_TRUE(map.Checkpoint().ok());
  }
  opt.tree.min_entries = 120;
  auto r = ConcurrentMap::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ConcurrentMap& map = **r;
  for (Key k = 1; k <= kN; ++k) {
    const Result<Value> got = map.Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    ASSERT_EQ(*got, k * 7) << k;
  }
  for (Key k = kN + 1; k <= kN + 2'000; ++k) {
    ASSERT_TRUE(map.Insert(k, k * 7).ok()) << k;
  }
  const Status s = map.ValidateStructure();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// --- the checkpoint gate itself -------------------------------------------

// Mutators churn MutatorScopes (each with a nested paper lock and a page
// write inside) while another thread loops Checkpoint(): the barrier must
// hold every scope out while fill_tree_meta runs, and no thread may hang.
TEST_F(CheckpointTest, GateExcludesMutatorScopesDuringCheckpoint) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats, store->get(), /*buffer_pool_pages=*/0);
  constexpr int kMutators = 8;
  std::vector<PageId> pages;
  for (int i = 0; i < kMutators; ++i) pages.push_back(*pm.Allocate());

  std::atomic<int> open_scopes{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scopes{0};
  std::vector<std::thread> mutators;
  for (int t = 0; t < kMutators; ++t) {
    mutators.emplace_back([&, t]() {
      const PageId id = pages[static_cast<size_t>(t)];
      Page p{};
      for (uint8_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        PageManager::MutatorScope scope(&pm);
        open_scopes.fetch_add(1);
        pm.Lock(id);  // nested: must not re-enter the gate
        p.bytes[0] = i;
        pm.Put(id, p);
        pm.Unlock(id);
        open_scopes.fetch_sub(1);
        scopes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  int checkpoints = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < deadline || checkpoints < 20) {
    const Status s = pm.Checkpoint(
        [&](StoreMeta*) { EXPECT_EQ(open_scopes.load(), 0); });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ++checkpoints;
  }
  stop.store(true);
  for (auto& th : mutators) th.join();
  EXPECT_GT(scopes.load(), 0u);
  EXPECT_EQ(stats.Get(StatId::kCheckpoints),
            static_cast<uint64_t>(checkpoints));
}

// While a checkpoint holds the barrier, a thread's first paper lock
// outside any MutatorScope (how a compressor restructure enters the
// gate) must wait: it acquires only once the checkpoint lets go.
TEST_F(CheckpointTest, UnscopedFirstLockWaitsOutTheCheckpoint) {
  auto store = FileStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats, store->get(), /*buffer_pool_pages=*/0);
  const PageId id = *pm.Allocate();

  std::atomic<bool> entered{false};
  std::atomic<bool> acquired{false};
  pm.SetTestHook([&](const char* op, PageId page) {
    if (page == id && std::string(op) == "lock") entered.store(true);
  });
  std::thread locker;
  bool acquired_during = true;
  const Status s = pm.Checkpoint([&](StoreMeta*) {
    locker = std::thread([&]() {
      pm.Lock(id);
      acquired.store(true);
      pm.Unlock(id);
    });
    while (!entered.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    acquired_during = acquired.load();
  });
  if (locker.joinable()) locker.join();
  pm.SetTestHook(nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(acquired_during);
  EXPECT_TRUE(acquired.load());
}

// A page checkpointed after an in-place write is clean but still
// referenced. Writing it in place again must set kDirty again, so the
// next checkpoint stages it (exactly it: nothing else was written) and
// recovery reads the newer value. With a bounded pool the page is also
// evicted after its first write, so it comes back from the store clean
// and referenced before the second.
void RewriteAfterCheckpointIsStagedAgain(const std::string& dir,
                                         uint32_t pool_pages) {
  constexpr uint32_t kFull = 120;
  constexpr Key kN = kFull * 200;
  MapOptions opt;
  opt.tree.storage_dir = dir;
  opt.tree.buffer_pool_pages = pool_pages;
  opt.compression = CompressionMode::kNone;
  const auto store_writes = [](const ConcurrentMap& map) {
    return map.Stats().Get(StatId::kStoreWrites);
  };
  {
    ConcurrentMap map(opt);
    ASSERT_TRUE(map.init_status().ok());
    for (Key k = 1; k <= kN; ++k) ASSERT_TRUE(map.Insert(k, k).ok());
    ASSERT_TRUE(map.Checkpoint().ok());

    uint64_t inplace = map.Stats().Get(StatId::kInplaceWrites);
    ASSERT_TRUE(map.Upsert(1, 100).ok());
    EXPECT_EQ(map.Stats().Get(StatId::kInplaceWrites), inplace + 1);
    uint64_t before = store_writes(map);
    if (pool_pages != 0) {
      // Read every other leaf until the sweep evicts key 1's leaf, the
      // only dirty page, which writes it to the store.
      for (int round = 0; round < 10 && store_writes(map) == before;
           ++round) {
        for (Key k = kFull + 1; k <= kN; k += kFull) {
          ASSERT_TRUE(map.Get(k).ok()) << k;
        }
      }
      ASSERT_EQ(store_writes(map), before + 1) << "leaf never evicted";
      before = store_writes(map);
    }
    ASSERT_TRUE(map.Checkpoint().ok());
    EXPECT_EQ(store_writes(map) - before, pool_pages == 0 ? 1u : 0u);

    inplace = map.Stats().Get(StatId::kInplaceWrites);
    ASSERT_TRUE(map.Upsert(1, 200).ok());
    EXPECT_EQ(map.Stats().Get(StatId::kInplaceWrites), inplace + 1);
    before = store_writes(map);
    ASSERT_TRUE(map.Checkpoint().ok());
    EXPECT_EQ(store_writes(map) - before, 1u);
  }
  auto r = ConcurrentMap::Recover(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<Value> v = (*r)->Get(1);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, 200u);
  v = (*r)->Get(kN);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, kN);
}

TEST_F(CheckpointTest, RewriteAfterCheckpointIsStagedAgain) {
  {
    SCOPED_TRACE("unbounded pool");
    RewriteAfterCheckpointIsStagedAgain(dir_, /*pool_pages=*/0);
  }
  std::filesystem::remove_all(dir_);
  {
    SCOPED_TRACE("64-page pool");
    RewriteAfterCheckpointIsStagedAgain(dir_, /*pool_pages=*/64);
  }
}

}  // namespace
}  // namespace obtree
