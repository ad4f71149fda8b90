// Copyright 2026 The obtree Authors.
//
// point-mixed: the in-memory hot path. A ShardedMap of 4 static shards on
// the default MemStore holds 2M of the 4M keys; 3 closed-loop clients
// draw Zipf(0.99) keys and run 60% Get / 20% Upsert / 8% Insert /
// 8% Erase / 4% Scan(50). Each key has one writer client (key mod 3), so
// the writer checks every outcome against its exact model; reads of other
// clients' keys check that the value belongs to the key.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obtree/api/sharded_map.h"
#include "obtree/core/tree_checker.h"

namespace perfbench {
namespace {

using obtree::ConcurrentMap;
using obtree::Result;
using obtree::ShardedMap;
using obtree::Status;

constexpr int kClients = 3;
constexpr uint64_t kPreload = uint64_t{1} << 21;  // 2M keys
constexpr size_t kScanLength = 50;
constexpr int kVerifyKeys = 1 << 16;

struct State {
  std::unique_ptr<ShardedMap> map;
  std::unique_ptr<Model> model;
};

State Setup(uint64_t salt) {
  obtree::ShardOptions options;
  options.num_shards = 4;
  options.key_space_hint = kKeySpace;
  options.pool_threads = 1;  // the one CPU the clients leave free
  State s;
  s.map = std::make_unique<ShardedMap>(options);
  if (!s.map->init_status().ok()) {
    Die("point-mixed: " + s.map->init_status().ToString());
  }
  s.model = std::make_unique<Model>(kKeySpace);
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> loaders;
  for (int t = 0; t < kClients; ++t) {
    loaders.emplace_back([&s, &bad, salt, t] {
      for (uint64_t i = static_cast<uint64_t>(t); i < kPreload;
           i += kClients) {
        const Key k = KeyOf(i, salt);
        const Value v = Encode(k, 0);
        if (s.map->Insert(k, v).ok()) {
          s.model->Set(k, v);
        } else {
          bad.fetch_add(1);
        }
      }
    });
  }
  JoinAll(&loaders);
  if (bad.load() != 0) Die("point-mixed: preload inserts failed");
  return s;
}

/// The key next to `k` that client `t` writes: keys with (k - 1) % 3 == t.
Key OwnKey(Key k, int t) {
  Key own = k - (k - 1) % kClients + static_cast<Key>(t);
  if (own > kKeySpace) own -= kClients;
  return own;
}

struct Shared {
  ShardedMap* map;
  Model* model;
  const obtree::ZipfGenerator* zipf;
  uint64_t salt;
  uint64_t seed;
  int64_t start_ns;
  int64_t end_ns;
};

void CheckGet(const Shared& sh, int t, Key k, const Result<Value>& r,
              ClientStats* st) {
  if (static_cast<int>((k - 1) % kClients) == t) {
    const Value want = sh.model->Get(k);
    const bool ok = r.ok() ? r.value() == want
                           : (r.status().IsNotFound() && want == 0);
    if (!ok) NoteFailure(st, "Get(" + std::to_string(k) + ") mismatch");
  } else if (r.ok() ? !TagMatches(k, r.value()) : !r.status().IsNotFound()) {
    NoteFailure(st, "Get(" + std::to_string(k) + ") returned a foreign value");
  }
}

/// Runs `call` (a generic lambda over the map type) for `k`. An untraced
/// op calls the ShardedMap, which routes by itself; a traced op routes
/// here and calls the owning shard, timing the routing (api.route) and
/// the shard call (api.call) as separate spans.
template <typename Call>
auto Routed(const Shared& sh, Key k, uint64_t op, TraceBuffer* tb,
            Call call) {
  if (op == 0) return call(sh.map);
  const int64_t t0 = NowNs();
  ConcurrentMap* shard = sh.map->shard(sh.map->ShardIndex(k));
  const int64_t t1 = NowNs();
  auto r = call(shard);
  const int64_t t2 = NowNs();
  tb->Add(op, kSpanRoute, kSpanOp, t0, t1);
  tb->Add(op, kSpanCall, kSpanOp, t1, t2);
  return r;
}

void Client(const Shared& sh, int t, bool traced, OpSlot* slot,
            ClientStats* st) {
  obtree::Random rng(sh.seed * 0x9E3779B97F4A7C15ULL + 101 +
                     static_cast<uint64_t>(t));
  obtree::ZipfGenerator zipf = *sh.zipf;
  TraceBuffer* tb = &st->trace;
  tb->Init(traced, t);
  uint32_t version = 0;
  std::vector<Key> scanned;
  scanned.reserve(kScanLength);
  for (;;) {
    const int64_t start = NowNs();
    if (start >= sh.end_ns) break;
    const double p = rng.NextDouble();
    Key k = KeyOf(zipf.Next(&rng), sh.salt);
    const uint64_t op = tb->BeginOp();
    if (p < 0.60) {
      slot->Begin("Get", start);
      const Result<Value> r =
          Routed(sh, k, op, tb, [k](auto* m) { return m->Get(k); });
      const int64_t end = NowNs();
      slot->End();
      st->get.Add(start - sh.start_ns, static_cast<uint64_t>(end - start));
      if (op != 0) tb->Add(op, kSpanOp, kNoParent, start, end);
      CheckGet(sh, t, k, r, st);
    } else if (p < 0.96) {
      k = OwnKey(k, t);
      const Value before = sh.model->Get(k);
      const Value v = Encode(k, ++version);
      const char* name = p < 0.80 ? "Upsert" : p < 0.88 ? "Insert" : "Erase";
      slot->Begin(name, start);
      Status s;
      if (p < 0.80) {
        s = Routed(sh, k, op, tb, [k, v](auto* m) { return m->Upsert(k, v); });
      } else if (p < 0.88) {
        s = Routed(sh, k, op, tb, [k, v](auto* m) { return m->Insert(k, v); });
      } else {
        s = Routed(sh, k, op, tb, [k](auto* m) { return m->Erase(k); });
      }
      const int64_t end = NowNs();
      slot->End();
      st->write.Add(start - sh.start_ns, static_cast<uint64_t>(end - start));
      if (op != 0) tb->Add(op, kSpanOp, kNoParent, start, end);
      bool ok;
      if (p < 0.80) {
        ok = s.ok();
        if (ok) sh.model->Set(k, v);
      } else if (p < 0.88) {
        ok = before == 0 ? s.ok() : s.IsAlreadyExists();
        if (s.ok()) sh.model->Set(k, v);
      } else {
        ok = before != 0 ? s.ok() : s.IsNotFound();
        if (s.ok()) sh.model->Set(k, 0);
      }
      if (!ok) {
        NoteFailure(st, std::string(name) + "(" + std::to_string(k) +
                            ") returned " + s.ToString());
      }
    } else {
      scanned.clear();
      slot->Begin("Scan", start);
      auto visit = [&scanned](Key key, Value value) {
        if (!TagMatches(key, value)) key = 0;  // flagged below
        scanned.push_back(key);
        return scanned.size() < kScanLength;
      };
      const int64_t t1 = op != 0 ? NowNs() : 0;
      sh.map->Scan(k, obtree::kMaxUserKey, visit);
      const int64_t end = NowNs();
      slot->End();
      st->scan.Add(start - sh.start_ns, static_cast<uint64_t>(end - start));
      if (op != 0) {
        tb->Add(op, kSpanCall, kSpanOp, t1, end);
        tb->Add(op, kSpanOp, kNoParent, start, end);
      }
      Key prev = k - 1;
      for (Key key : scanned) {
        if (key <= prev) {
          NoteFailure(st, "Scan(" + std::to_string(k) +
                              ") out of order or foreign value");
          break;
        }
        prev = key;
      }
    }
    st->AddOps(start - sh.start_ns, 1);
    ++st->attempted;
  }
}

}  // namespace

PhaseResult RunPointMixed(const PhaseOptions& opt, Watchdog* dog) {
  PhaseResult res;
  const uint64_t salt = obtree::ScrambleKey(opt.seed);
  const obtree::ZipfGenerator zipf(kKeySpace, 0.99);

  State s;
  for (int rep = 0; rep < opt.setup_reps; ++rep) {
    s = State();  // tear the previous repetition down first
    dog->Arm("point-mixed set-up", 60);
    const int64_t t0 = NowNs();
    s = Setup(salt);
    res.setup_seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  ShardedMap& map = *s.map;
  std::vector<obtree::StatsSnapshot> shard_before;
  for (uint32_t i = 0; i < map.num_shards(); ++i) {
    shard_before.push_back(map.shard(i)->Stats());
  }
  const obtree::StatsSnapshot before = map.Stats();
  const obtree::PoolStatsSnapshot pool_before = map.PoolStats();

  dog->Arm("point-mixed measure", opt.seconds + 10);
  const int64_t start = NowNs();
  const Shared sh{&map, s.model.get(), &zipf, salt, opt.seed, start,
                  start + static_cast<int64_t>(opt.seconds * 1e9)};
  std::vector<ClientStats> per(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client(sh, t, opt.traced, dog->slot(t), &per[t]);
    });
  }
  JoinAll(&clients);

  const obtree::StatsSnapshot delta = map.Stats().Delta(before);
  const obtree::PoolStatsSnapshot pool_after = map.PoolStats();
  res.rss_mb = ReadRssMb();
  for (const ClientStats& c : per) res.stats.Merge(c);

  obtree::Histogram lock_wait;
  double max_ops = 0;
  double sum_ops = 0;
  for (uint32_t i = 0; i < map.num_shards(); ++i) {
    lock_wait.Merge(map.shard(i)->tree()->stats()->LockWaitHistogram());
    const obtree::StatsSnapshot d =
        map.shard(i)->Stats().Delta(shard_before[i]);
    const double ops = static_cast<double>(d.Get(obtree::StatId::kSearches) +
                                           d.Get(obtree::StatId::kInserts) +
                                           d.Get(obtree::StatId::kDeletes));
    max_ops = std::max(max_ops, ops);
    sum_ops += ops;
  }
  auto& layer = res.layer;
  AddCounterLayers(delta, lock_wait, res.stats.ops, &layer);
  layer["api.shard_skew"] =
      sum_ops > 0 ? max_ops / (sum_ops / map.num_shards()) : 0.0;
  const uint64_t erases = delta.Get(obtree::StatId::kDeletes);
  const uint64_t rounds = pool_after.rounds - pool_before.rounds;
  layer["core.pool.drained_per_erase"] =
      erases == 0 ? 0.0
                  : static_cast<double>(pool_after.tasks_drained -
                                        pool_before.tasks_drained) /
                        static_cast<double>(erases);
  layer["core.pool.idle_ratio"] =
      rounds == 0 ? 0.0
                  : static_cast<double>(pool_after.idle_sleeps -
                                        pool_before.idle_sleeps) /
                        static_cast<double>(rounds);
  layer["storage.resident_pages"] = 0;  // MemStore: no buffer pool

  // Checks after the clients stop: background compression is stopped so
  // the structure walk sees a quiescent tree.
  dog->Arm("point-mixed verify", 60);
  for (uint32_t i = 0; i < map.num_shards(); ++i) map.shard(i)->Quiesce();
  layer["core.leaf_fill_pct"] = map.Shape().avg_leaf_fill * 100.0;
  ClientStats& st = res.stats;
  const Status valid = map.ValidateStructure();
  ++st.attempted;
  if (!valid.ok()) NoteFailure(&st, "ValidateStructure: " + valid.ToString());
  obtree::Random rng(opt.seed + 7);
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
