// Copyright 2026 The obtree Authors.
//
// cold-read: data larger than the program's own cache. 2M scrambled keys
// over [1, 4M] are loaded into a ConcurrentMap on FileStore and
// checkpointed; the map is then reopened with ConcurrentMap::Recover and
// a 16384-page (64 MB) buffer pool, against about 25k leaf pages, and
// warmed with MultiGets. One closed-loop client draws uniform keys and
// runs 50% MultiGet(32) / 10% Get / 20% Scan(100) / 20% Upsert. With one
// client the model is exact for every read and scan.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obtree/api/concurrent_map.h"
#include "obtree/core/tree_checker.h"
#include "obtree/storage/page_manager.h"

namespace perfbench {
namespace {

using obtree::BatchResult;
using obtree::ConcurrentMap;
using obtree::Result;
using obtree::Status;

constexpr uint64_t kLoad = uint64_t{1} << 21;  // 2M keys
// One client: with two, the reads through a capped pool stop making
// progress (both threads spin without syscalls). With 8192 pages, a few
// MultiGet calls per run spin for up to a second, so throughput moved
// with the seed; 16384 pages (about 2/3 of the leaves) shows no stalls.
constexpr uint32_t kPoolPages = 16384;
constexpr size_t kBatch = 32;
constexpr size_t kScanLength = 100;
constexpr int kWarmupBatches = 2000;
constexpr int kVerifyKeys = 1 << 16;

struct State {
  std::unique_ptr<ConcurrentMap> map;
  std::unique_ptr<Model> model;
};

obtree::MapOptions Options(const std::string& dir, uint32_t pool_pages) {
  obtree::MapOptions options;
  options.tree.storage_dir = dir;
  options.tree.buffer_pool_pages = pool_pages;
  return options;
}

/// One MultiGet of `keys`, each result checked against the model.
/// Returns the number of mismatches.
uint64_t CheckedMultiGet(const ConcurrentMap& map, const Model& model,
                         const std::vector<Key>& keys, BatchResult* out) {
  *out = map.MultiGet(keys);
  uint64_t bad = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Value want = model.Get(keys[i]);
    const Result<Value>& r = out->values[i];
    if (r.ok() ? r.value() != want : (!r.status().IsNotFound() || want != 0)) {
      ++bad;
    }
  }
  return bad;
}

State Setup(const std::string& dir, uint64_t salt, uint64_t seed) {
  std::filesystem::remove_all(dir);
  State s;
  s.model = std::make_unique<Model>(kKeySpace);
  {
    // One loader thread: the page layout, and with it what the capped
    // buffer pool keeps and evicts, then depends only on the seed.
    ConcurrentMap load(Options(dir, 0));
    if (!load.init_status().ok()) {
      Die("cold-read: " + load.init_status().ToString());
    }
    for (uint64_t i = 0; i < kLoad; ++i) {
      const Key k = KeyOf(i, salt);
      const Value v = Encode(k, 0);
      if (!load.Insert(k, v).ok()) Die("cold-read: load insert failed");
      s.model->Set(k, v);
    }
    const Status c = load.Checkpoint();
    if (!c.ok()) Die("cold-read: load checkpoint: " + c.ToString());
  }
  auto recovered = ConcurrentMap::Recover(Options(dir, kPoolPages));
  if (!recovered.ok()) {
    Die("cold-read: Recover: " + recovered.status().ToString());
  }
  s.map = std::move(recovered).value();
  obtree::Random rng(seed * 0x9E3779B97F4A7C15ULL + 303);
  std::vector<Key> keys(kBatch);
  BatchResult r;
  for (int b = 0; b < kWarmupBatches; ++b) {
    for (Key& k : keys) k = rng.UniformRange(1, kKeySpace);
    if (CheckedMultiGet(*s.map, *s.model, keys, &r) != 0) {
      Die("cold-read: warm-up read a wrong value");
    }
  }
  return s;
}

void Client(ConcurrentMap* map, Model* model, uint64_t seed, int64_t start_ns,
            int64_t end_ns, bool traced, OpSlot* slot, ClientStats* st) {
  TraceBuffer* tb = &st->trace;
  tb->Init(traced, 0);
  obtree::Random rng(seed * 0x9E3779B97F4A7C15ULL + 404);
  uint32_t version = 0;
  std::vector<Key> keys(kBatch);
  BatchResult batch;
  std::vector<std::pair<Key, Value>> scanned;
  scanned.reserve(kScanLength);
  for (;;) {
    const int64_t start = NowNs();
    if (start >= end_ns) break;
    const double p = rng.NextDouble();
    const uint64_t op = tb->BeginOp();
    int64_t end;
    if (p < 0.5) {
      for (Key& k : keys) k = rng.UniformRange(1, kKeySpace);
      slot->Begin("MultiGet", start);
      const uint64_t bad = CheckedMultiGet(*map, *model, keys, &batch);
      end = NowNs();
      slot->End();
      st->batch.Add(start - start_ns, static_cast<uint64_t>(end - start));
      if (op != 0) tb->Add(op, kSpanBatch, kSpanOp, start, end);
      for (uint64_t i = 0; i < bad; ++i) NoteFailure(st, "MultiGet mismatch");
      st->AddOps(start - start_ns, kBatch);
      st->attempted += kBatch;
    } else {
      const Key k = rng.UniformRange(1, kKeySpace);
      if (p < 0.6) {
        slot->Begin("Get", start);
        const Result<Value> r = map->Get(k);
        end = NowNs();
        slot->End();
        st->get.Add(start - start_ns, static_cast<uint64_t>(end - start));
        const Value want = model->Get(k);
        if (r.ok() ? r.value() != want
                   : (!r.status().IsNotFound() || want != 0)) {
          NoteFailure(st, "Get(" + std::to_string(k) + ") mismatch");
        }
      } else if (p < 0.8) {
        scanned.clear();
        slot->Begin("Scan", start);
        map->Scan(k, obtree::kMaxUserKey, [&scanned](Key key, Value value) {
          scanned.emplace_back(key, value);
          return scanned.size() < kScanLength;
        });
        end = NowNs();
        slot->End();
        st->scan.Add(start - start_ns, static_cast<uint64_t>(end - start));
        // The model names the exact keys and values the scan must return.
        Key m = k;
        bool ok = true;
        for (const auto& [key, value] : scanned) {
          while (m <= kKeySpace && model->Get(m) == 0) ++m;
          if (key != m || value != model->Get(m)) {
            ok = false;
            break;
          }
          ++m;
        }
        if (ok && scanned.size() < kScanLength) {
          while (m <= kKeySpace && model->Get(m) == 0) ++m;
          ok = m > kKeySpace;
        }
        if (!ok) NoteFailure(st, "Scan(" + std::to_string(k) + ") mismatch");
      } else {
        const Value v = Encode(k, ++version);
        slot->Begin("Upsert", start);
        const Status s = map->Upsert(k, v);
        end = NowNs();
        slot->End();
        st->write.Add(start - start_ns, static_cast<uint64_t>(end - start));
        if (s.ok()) {
          model->Set(k, v);
        } else {
          NoteFailure(st, "Upsert(" + std::to_string(k) + ") " + s.ToString());
        }
      }
      if (op != 0) tb->Add(op, kSpanCall, kSpanOp, start, end);
      st->AddOps(start - start_ns, 1);
      ++st->attempted;
    }
    if (op != 0) tb->Add(op, kSpanOp, kNoParent, start, end);
  }
}

}  // namespace

PhaseResult RunColdRead(const PhaseOptions& opt, Watchdog* dog) {
  PhaseResult res;
  const std::string dir = opt.dir + "/cold";
  const uint64_t salt = obtree::ScrambleKey(opt.seed);

  State s;
  for (int rep = 0; rep < opt.setup_reps; ++rep) {
    s = State();
    dog->Arm("cold-read set-up", 90);
    const int64_t t0 = NowNs();
    s = Setup(dir, salt, opt.seed);
    res.setup_seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  ConcurrentMap& map = *s.map;

  const obtree::StatsSnapshot before = map.Stats();
  dog->Arm("cold-read measure", opt.seconds + 10);
  const int64_t start = NowNs();
  ClientStats& st = res.stats;
  Client(&map, s.model.get(), opt.seed, start,
         start + static_cast<int64_t>(opt.seconds * 1e9), opt.traced,
         dog->slot(0), &st);

  const obtree::StatsSnapshot delta = map.Stats().Delta(before);
  res.rss_mb = ReadRssMb();
  res.disk_bytes_per_key = DiskBytesPerKey(dir, map.Size());

  auto& layer = res.layer;
  AddCounterLayers(delta, map.tree()->stats()->LockWaitHistogram(), st.ops,
                   &layer);
  layer["storage.resident_pages"] =
      static_cast<double>(map.tree()->internal_pager()->resident_pages());

  dog->Arm("cold-read verify", 90);
  map.Quiesce();
  layer["core.leaf_fill_pct"] = map.Shape().avg_leaf_fill * 100.0;
  const Status valid = map.ValidateStructure();
  ++st.attempted;
  if (!valid.ok()) NoteFailure(&st, "ValidateStructure: " + valid.ToString());
  obtree::Random rng(opt.seed + 13);
  for (int i = 0; i < kVerifyKeys; ++i) {
    const Key k = rng.UniformRange(1, kKeySpace);
    const Value want = s.model->Get(k);
    const Result<Value> r = map.Get(k);
    ++st.attempted;
    if (r.ok() ? r.value() != want : (!r.status().IsNotFound() || want != 0)) {
      NoteFailure(&st, "final Get(" + std::to_string(k) + ") mismatch");
    }
  }
  return res;
}

}  // namespace perfbench
