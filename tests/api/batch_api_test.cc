// Copyright 2026 The obtree Authors.
//
// The batched operation API: MultiGet/MultiInsert/MultiErase/
// MultiUpsert on both map front-ends, each a loop over the single-op
// calls. Covers mode agreement (batched results must equal a single-op
// loop, including per-op error slots), a batch's counters (exactly its
// single ops' plus kBatchOps), partial-failure batches under fault
// injection, the single-descent atomicity of Upsert, and a writer/reader
// stress for TSan.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obtree/api/concurrent_map.h"
#include "obtree/api/sharded_map.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

MapOptions PlainMap() {
  MapOptions opt;
  opt.compression = CompressionMode::kNone;
  opt.tree.min_entries = 32;
  return opt;
}

// Even keys in [2, 2n] present with value key + 1; odd keys absent.
void PreloadEven(ConcurrentMap* map, Key n) {
  for (Key k = 1; k <= n; ++k) {
    ASSERT_TRUE(map->Insert(2 * k, 2 * k + 1).ok());
  }
}

TEST(BatchApiTest, MultiGetAgreesWithSingleOpLoop) {
  ConcurrentMap map(PlainMap());
  PreloadEven(&map, 5'000);  // height >= 2 with 32-entry minimum nodes

  // Mixed present/absent keys.
  std::vector<Key> keys;
  Random rng(123);
  for (int i = 0; i < 200; ++i) keys.push_back(1 + rng.Next() % 10'000);

  const BatchResult r = map.MultiGet(keys);
  ASSERT_EQ(r.values.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Result<Value> single = map.Get(keys[i]);
    ASSERT_EQ(r.values[i].ok(), single.ok()) << "key " << keys[i];
    if (single.ok()) {
      EXPECT_EQ(*r.values[i], *single) << "key " << keys[i];
    } else {
      EXPECT_TRUE(r.values[i].status().IsNotFound()) << "key " << keys[i];
    }
    // Satellite: Search IS Get, on the map type too.
    EXPECT_EQ(map.Search(keys[i]).ok(), single.ok());
  }

  EXPECT_EQ(map.Stats().Get(StatId::kBatchOps), keys.size());
}

TEST(BatchApiTest, BatchCostsExactlyItsSingleOps) {
  // Two identical maps: a MultiGet on one and a Get loop over the same
  // keys on the other must read the same pages and count the same
  // logical ops, out-of-range keys included (they count no search).
  ConcurrentMap batched(PlainMap());
  ConcurrentMap serial(PlainMap());
  PreloadEven(&batched, 5'000);
  PreloadEven(&serial, 5'000);

  std::vector<Key> keys;
  Random rng(321);
  for (int i = 0; i < 100; ++i) keys.push_back(1 + rng.Next() % 10'000);
  keys.push_back(0);
  keys.push_back(kMaxUserKey + 1);

  const StatsSnapshot b0 = batched.Stats();
  const StatsSnapshot s0 = serial.Stats();
  const BatchResult r = batched.MultiGet(keys);
  std::vector<Result<Value>> singles;
  for (Key k : keys) singles.push_back(serial.Get(k));
  const StatsSnapshot bd = batched.Stats().Delta(b0);
  const StatsSnapshot sd = serial.Stats().Delta(s0);

  ASSERT_EQ(r.values.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(r.values[i].ok(), singles[i].ok()) << "key " << keys[i];
    if (singles[i].ok()) {
      EXPECT_EQ(*r.values[i], *singles[i]) << "key " << keys[i];
    } else {
      EXPECT_EQ(r.values[i].status().code(), singles[i].status().code())
          << "key " << keys[i];
    }
  }
  for (StatId id : {StatId::kGets, StatId::kSearches,
                    StatId::kOptimisticValidations}) {
    EXPECT_EQ(bd.Get(id), sd.Get(id)) << StatName(id);
  }
  EXPECT_EQ(sd.Get(StatId::kSearches), keys.size() - 2);
  EXPECT_EQ(bd.Get(StatId::kBatchOps), keys.size());
  EXPECT_EQ(sd.Get(StatId::kBatchOps), 0u);

  // The same on the sharded front-end: a batch routes each key as a
  // single Get does, and the map counts kBatchOps for the whole batch.
  ShardOptions sopt;
  sopt.num_shards = 4;
  sopt.key_space_hint = 10'000;
  sopt.compression = CompressionMode::kNone;
  sopt.tree.min_entries = 32;
  ShardedMap sharded_batched(sopt);
  ShardedMap sharded_serial(sopt);
  for (Key k = 1; k <= 5'000; ++k) {
    ASSERT_TRUE(sharded_batched.Insert(2 * k, 2 * k + 1).ok());
    ASSERT_TRUE(sharded_serial.Insert(2 * k, 2 * k + 1).ok());
  }
  const StatsSnapshot sb0 = sharded_batched.Stats();
  const StatsSnapshot ss0 = sharded_serial.Stats();
  const BatchResult sr = sharded_batched.MultiGet(keys);
  std::vector<Result<Value>> sharded_singles;
  for (Key k : keys) sharded_singles.push_back(sharded_serial.Get(k));
  const StatsSnapshot sbd = sharded_batched.Stats().Delta(sb0);
  const StatsSnapshot ssd = sharded_serial.Stats().Delta(ss0);

  ASSERT_EQ(sr.values.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(sr.values[i].ok(), sharded_singles[i].ok()) << "key " << keys[i];
    if (sharded_singles[i].ok()) {
      EXPECT_EQ(*sr.values[i], *sharded_singles[i]) << "key " << keys[i];
    } else {
      EXPECT_EQ(sr.values[i].status().code(),
                sharded_singles[i].status().code())
          << "key " << keys[i];
    }
  }
  for (StatId id : {StatId::kGets, StatId::kSearches}) {
    EXPECT_EQ(sbd.Get(id), ssd.Get(id)) << StatName(id);
  }
  EXPECT_EQ(ssd.Get(StatId::kSearches), keys.size() - 2);
  EXPECT_EQ(sbd.Get(StatId::kBatchOps), keys.size());
  EXPECT_EQ(ssd.Get(StatId::kBatchOps), 0u);
}

TEST(BatchApiTest, WriteBatchesAgreeWithSingleOpLoop) {
  // Drive the same op sequence through batched and single-op maps; the
  // per-op statuses and the final contents must match exactly.
  ConcurrentMap batched(PlainMap());
  ConcurrentMap serial(PlainMap());

  std::vector<Key> ins_keys;
  std::vector<Value> ins_vals;
  for (Key k = 1; k <= 300; ++k) {
    ins_keys.push_back(k % 200 + 1);  // duplicates past k=200
    ins_vals.push_back(k * 7);
  }
  const BatchResult bi = batched.MultiInsert(ins_keys, ins_vals);
  ASSERT_EQ(bi.statuses.size(), ins_keys.size());
  for (size_t i = 0; i < ins_keys.size(); ++i) {
    const Status s = serial.Insert(ins_keys[i], ins_vals[i]);
    EXPECT_EQ(bi.statuses[i].ok(), s.ok()) << i;
    if (!s.ok()) {
      EXPECT_TRUE(bi.statuses[i].IsAlreadyExists()) << i;
    }
  }

  // Upsert every key (present and absent) to a new value.
  std::vector<Key> up_keys;
  std::vector<Value> up_vals;
  for (Key k = 100; k <= 400; ++k) {
    up_keys.push_back(k);
    up_vals.push_back(k + 1'000'000);
  }
  const BatchResult bu = batched.MultiUpsert(up_keys, up_vals);
  for (size_t i = 0; i < up_keys.size(); ++i) {
    EXPECT_TRUE(bu.statuses[i].ok()) << i;
    ASSERT_TRUE(serial.Upsert(up_keys[i], up_vals[i]).ok()) << i;
  }

  // Erase a mix of present and absent keys.
  std::vector<Key> del_keys;
  for (Key k = 1; k <= 500; k += 3) del_keys.push_back(k);
  const BatchResult be = batched.MultiErase(del_keys);
  for (size_t i = 0; i < del_keys.size(); ++i) {
    const Status s = serial.Erase(del_keys[i]);
    EXPECT_EQ(be.statuses[i].ok(), s.ok()) << "key " << del_keys[i];
    if (!s.ok()) {
      EXPECT_TRUE(be.statuses[i].IsNotFound());
    }
    // Satellite: Delete IS Erase (both already removed the key, so both
    // aliases must agree on NotFound now).
    EXPECT_TRUE(batched.Delete(del_keys[i]).IsNotFound());
    EXPECT_TRUE(serial.Delete(del_keys[i]).IsNotFound());
  }

  ASSERT_EQ(batched.Size(), serial.Size());
  std::vector<std::pair<Key, Value>> a = batched.ScanLimit(1, 10'000);
  std::vector<std::pair<Key, Value>> b = serial.ScanLimit(1, 10'000);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(batched.ValidateStructure().ok());
}

TEST(BatchApiTest, EmptySingleAndMismatchedBatches) {
  ConcurrentMap map(PlainMap());
  ASSERT_TRUE(map.Insert(10, 11).ok());

  EXPECT_EQ(map.MultiGet({}).size(), 0u);
  EXPECT_TRUE(map.MultiGet({}).all_ok());

  // A batch of one agrees with the single-op call.
  const BatchResult one = map.MultiGet({10});
  ASSERT_EQ(one.values.size(), 1u);
  EXPECT_EQ(*one.values[0], 11u);

  // Out-of-range keys fail per-op, not per-batch.
  const BatchResult bad = map.MultiGet({10, 0, kMaxUserKey + 1});
  EXPECT_TRUE(bad.values[0].ok());
  EXPECT_TRUE(bad.values[1].status().IsInvalidArgument());
  EXPECT_TRUE(bad.values[2].status().IsInvalidArgument());

  // Length-mismatched write batches reject every op.
  const BatchResult mm = map.MultiInsert({1, 2, 3}, {1});
  ASSERT_EQ(mm.statuses.size(), 3u);
  for (const Status& s : mm.statuses) {
    EXPECT_TRUE(s.IsInvalidArgument());
  }
  EXPECT_FALSE(map.Get(1).ok());  // nothing was applied
}

TEST(BatchApiTest, PartialFailureUnderFaultInjection) {
  ConcurrentMap map(PlainMap());
  PreloadEven(&map, 5'000);

  std::vector<Key> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(2 * (i + 1));

  // A bounded burst of page-fetch failures: the earliest ops eat the
  // fires (each through its fetch-retry budget) and report Unavailable,
  // while later batch-mates run after the injector has stopped firing
  // and succeed. Per-op independence is the contract under test.
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.probability = 1.0;
  spec.max_fires = 30;
  FaultInjector::Instance().Arm("get", spec);
  const BatchResult r = map.MultiGet(keys);
  FaultInjector::Instance().DisarmAll();

  ASSERT_EQ(r.values.size(), keys.size());
  size_t failed = 0;
  size_t succeeded = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (r.values[i].ok()) {
      ++succeeded;
      EXPECT_EQ(*r.values[i], keys[i] + 1) << "key " << keys[i];
    } else {
      ++failed;
      EXPECT_TRUE(r.values[i].status().IsUnavailable()) << "key " << keys[i];
    }
  }
  EXPECT_GT(failed, 0u) << "injector never surfaced a per-op error";
  EXPECT_GT(succeeded, 0u) << "one op's failure disturbed its batch-mates";

  // The same batch with the injector quiet is fully served.
  EXPECT_TRUE(map.MultiGet(keys).all_ok());
}

TEST(BatchApiTest, UpsertIsAtomicUnderConcurrentReaders) {
  // The old Upsert was a documented erase-then-insert: a reader could
  // catch the key ABSENT between the two steps. The single-descent
  // rewrite overwrites the value inside the same locked critical section
  // as the presence check, so a hammered key must never read NotFound.
  ConcurrentMap map(PlainMap());
  const Key hot = 4'242;
  ASSERT_TRUE(map.Insert(hot, 1).ok());
  for (Key k = 1; k <= 2'000; ++k) {
    ASSERT_TRUE(map.Upsert(2 * k, k).ok());  // give the tree some height
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> misses{0};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      if (!map.Get(hot).ok()) misses.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t]() {
      for (uint64_t i = 1; i <= 4'000; ++i) {
        ASSERT_TRUE(map.Upsert(hot, i * 4 + static_cast<uint64_t>(t)).ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(misses.load(), 0u) << "a reader observed the key absent mid-upsert";
  EXPECT_EQ(map.Size(), 2'001u);  // upserts never change the count
}

// --- sharded front-end -----------------------------------------------------

TEST(BatchApiTest, ShardedBatchesAgreeWithSingleOpLoop) {
  ShardOptions opt;
  opt.num_shards = 4;
  opt.key_space_hint = 40'000;
  opt.compression = CompressionMode::kNone;
  opt.tree.min_entries = 32;
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());

  std::vector<Key> keys;
  std::vector<Value> vals;
  Random rng(99);
  for (int i = 0; i < 500; ++i) {
    keys.push_back(1 + rng.Next() % 40'000);  // spans all four shards
    vals.push_back(keys.back() + 1);
  }
  const BatchResult ins = map.MultiInsert(keys, vals);
  ASSERT_EQ(ins.statuses.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    // A duplicate key in the batch fails exactly like a duplicate Insert.
    EXPECT_EQ(ins.statuses[i].ok(),
              std::find(keys.begin(), keys.begin() + static_cast<long>(i),
                        keys[i]) == keys.begin() + static_cast<long>(i))
        << i;
  }

  const BatchResult got = map.MultiGet(keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    const Result<Value> single = map.Get(keys[i]);
    ASSERT_TRUE(single.ok() && got.values[i].ok()) << i;
    EXPECT_EQ(*got.values[i], *single);
    EXPECT_EQ(*map.Search(keys[i]), *single);  // alias
  }

  const BatchResult del = map.MultiErase(keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    // First occurrence erases; duplicates see NotFound, like Erase.
    EXPECT_EQ(del.statuses[i].ok(), ins.statuses[i].ok()) << i;
  }
  EXPECT_TRUE(map.Empty());
}

TEST(BatchApiTest, BatchedWritersReadersStress) {
  // TSan target: batched writers and batched + single-op readers on a
  // sharded map, all at once. Passing means the optimistic reads and the
  // locked commits stay race-free when driven through the batch API.
  constexpr int kRounds = 2'000;
  ShardOptions opt;
  opt.num_shards = 2;
  opt.key_space_hint = 8'000;
  opt.compression = CompressionMode::kNone;
  opt.tree.min_entries = 3;
  ShardedMap map(opt);
  ASSERT_TRUE(map.init_status().ok());
  for (Key k = 1; k <= 4'000; k += 2) ASSERT_TRUE(map.Insert(k, k + 1).ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {  // batched writers
      Random rng(1000 + static_cast<uint64_t>(t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Key> keys;
        std::vector<Value> vals;
        for (int i = 0; i < 16; ++i) {
          keys.push_back(1 + rng.Next() % 8'000);
          vals.push_back(keys.back() + 1);
        }
        if (t == 0) {
          map.MultiUpsert(keys, vals);
        } else {
          map.MultiErase(keys);
          map.MultiInsert(keys, vals);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t]() {  // readers: batched + single-op
      Random rng(2000 + static_cast<uint64_t>(t));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Key> keys;
        for (int i = 0; i < 16; ++i) keys.push_back(1 + rng.Next() % 8'000);
        const BatchResult r = map.MultiGet(keys);
        for (size_t i = 0; i < keys.size(); ++i) {
          if (r.values[i].ok()) {
            EXPECT_EQ(*r.values[i], keys[i] + 1);
          }
        }
        (void)map.Get(keys[0]);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_TRUE(map.ValidateStructure().ok());
  // Quiescent agreement: a full batched read must match Scan's contents.
  std::vector<std::pair<Key, Value>> scanned = map.ScanLimit(1, 10'000);
  std::vector<Key> keys;
  keys.reserve(scanned.size());
  for (const auto& kv : scanned) keys.push_back(kv.first);
  const BatchResult all = map.MultiGet(keys);
  ASSERT_TRUE(all.all_ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(*all.values[i], scanned[i].second);
  }
}

}  // namespace
}  // namespace obtree
