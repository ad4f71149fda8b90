// Copyright 2026 The obtree Authors.
//
// The live-migration half of online rebalancing lives here; the decision
// half is core/shard_rebalancer.cc. Protocol walkthrough, invariants, and
// per-interleaving correctness arguments: docs/REBALANCING.md.

#include "obtree/api/sharded_map.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "obtree/core/background_pool.h"
#include "obtree/core/tree_checker.h"
#include "obtree/util/fault_injector.h"

namespace obtree {

namespace {

// Watchdog: wall-clock budget for one migration. A migration that cannot
// finish within it (stalled batches, persistent fetch errors) aborts at
// the next batch boundary and rolls back.
constexpr std::chrono::milliseconds kMigrationDeadline{10'000};

}  // namespace

ShardedMap::ShardedMap(const ShardOptions& options) : options_(options) {
  init_status_ = options_.Validate();
  if (!init_status_.ok()) {
    options_ = ShardOptions();  // degrade to a working default
  }
  const uint32_t n = options_.num_shards;
  // Ceil division without overflow (key_space_hint may be near 2^64).
  shard_width_ =
      options_.key_space_hint / n + (options_.key_space_hint % n != 0);
  if (shard_width_ == 0) shard_width_ = 1;
  dynamic_ = options_.rebalance.enabled;

  // One machine-sized maintenance pool serves every shard.
  if (options_.compression != CompressionMode::kNone) {
    BackgroundPool::Options pool_options;
    pool_options.threads = options_.pool_threads;
    pool_ = std::make_unique<BackgroundPool>(pool_options);
  }

  auto initial = std::make_unique<RoutingTable>();
  initial->entries.reserve(n);
  {
    std::lock_guard<std::mutex> lk(trees_mu_);
    for (uint32_t i = 0; i < n; ++i) {
      trees_.push_back(MakeTree());
      if (init_status_.ok()) {
        init_status_ = trees_.back()->init_status();
      }
      RouteEntry e;
      e.lo = static_cast<Key>(i) * shard_width_ + 1;
      e.tree = trees_.back().get();
      initial->entries.push_back(e);
    }
  }
  table_.store(initial.get(), std::memory_order_release);
  tables_.push_back(std::move(initial));

  if (dynamic_) {
    rebalancer_ = std::make_unique<ShardRebalancer>(
        static_cast<ShardRebalancer::Host*>(this), options_.rebalance);
    rebalancer_->Start();
  }
}

// Members tear down in reverse order: the rebalancer first (joins the
// controller thread, so no migration is in flight), then the table and
// migration graveyards, then every tree (each detaches from the pool,
// blocking until no worker touches it), then pool_.
ShardedMap::~ShardedMap() = default;

std::unique_ptr<ConcurrentMap> ShardedMap::MakeTree() {
  MapOptions shard_options;
  shard_options.tree = options_.tree;
  shard_options.compression = options_.compression;
  if (!shard_options.tree.storage_dir.empty()) {
    // Each shard persists into its own subdirectory, numbered by creation
    // order — stable across restarts because a persistent topology is
    // static (ShardOptions::Validate rejects rebalancing + storage_dir,
    // and only the rebalancer creates trees after construction). Only
    // construction reaches this branch, and it holds trees_mu_.
    shard_options.tree.storage_dir +=
        "/shard-" + std::to_string(trees_.size());
  }
  return std::make_unique<ConcurrentMap>(shard_options, pool_.get());
}

Status ShardedMap::Checkpoint() {
  // The topology is static with persistence on, so the table snapshot is
  // the full shard set. Shards checkpoint independently (each cuts its
  // own barrier); the durability contract is per-key, matching routing.
  const RoutingTable* t = table();
  for (size_t i = 0; i < t->entries.size(); ++i) {
    Status s = t->entries[i].tree->Checkpoint();
    if (!s.ok()) return s;  // code preserved so callers can dispatch on it
  }
  return Status::OK();
}

bool ShardedMap::recovered_from_checkpoint() const {
  const RoutingTable* t = table();
  for (const RouteEntry& e : t->entries) {
    if (e.tree->recovered_from_checkpoint()) return true;
  }
  return false;
}

size_t ShardedMap::RouteIndex(const RoutingTable* t, Key key) {
  const auto& es = t->entries;
  size_t lo = 0;
  size_t hi = es.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (es[mid].lo <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

const ShardedMap::RouteEntry& ShardedMap::Route(const RoutingTable* t,
                                                Key key) {
  return t->entries[RouteIndex(t, key)];
}

uint32_t ShardedMap::ShardIndex(Key key) const {
  const RoutingTable* t = table();
  if (!dynamic_) {
    const uint64_t idx = (key - 1) / shard_width_;
    const uint64_t last = t->entries.size() - 1;
    return static_cast<uint32_t>(idx < last ? idx : last);
  }
  return static_cast<uint32_t>(RouteIndex(t, key));
}

bool ShardedMap::Settled(const ShardMigration* mig, Key key) {
  return mig == nullptr || mig->done.load(std::memory_order_acquire) ||
         key < mig->drained_below.load(std::memory_order_acquire);
}

void ShardedMap::WaitOutBatch(const ShardMigration* mig, Key key) {
  bool waited = false;
  while (true) {
    const uint64_t seq = mig->batch_seq.load(std::memory_order_acquire);
    if ((seq & 1) == 0) break;  // no batch in flight
    // The bounds are published before the seq goes odd (release), so an
    // odd observation implies valid bounds for THAT batch.
    if (key < mig->batch_lo.load(std::memory_order_relaxed) ||
        key > mig->batch_hi.load(std::memory_order_relaxed)) {
      break;  // in flight, but not over this key
    }
    waited = true;
    std::this_thread::yield();
  }
  if (waited) {
    mig->donor->tree()->stats()->Add(StatId::kMigrationRetries);
  }
}

// --- point operations ------------------------------------------------------
//
// Dual-zone rule (key not yet settled): the DONOR is checked first, and a
// donor miss waits out any in-flight batch covering the key before the
// receiver lookup becomes authoritative. The migrator removes a key from
// the donor strictly before inserting it into the receiver, and only
// inside an odd batch window — so "miss in donor, then batch quiet, then
// look in receiver" can never miss a live key.

Result<Value> ShardedMap::DualGet(const RouteEntry& e, Key key) const {
  Result<Value> v = e.mig->donor->Get(key);
  if (v.ok()) return v;
  WaitOutBatch(e.mig, key);
  return e.mig->receiver->Get(key);
}

Status ShardedMap::DualInsert(const RouteEntry& e, Key key, Value value) {
  // The donor check makes AlreadyExists authoritative: a key still in the
  // donor must refuse the insert. If the migrator moves it concurrently,
  // the donor miss is followed by the batch wait, after which the key is
  // visible in the receiver and the receiver's own Insert refuses it.
  if (e.mig->donor->Get(key).ok()) {
    return Status::AlreadyExists("key present in migrating donor shard");
  }
  WaitOutBatch(e.mig, key);
  return e.mig->receiver->Insert(key, value);
}

Status ShardedMap::DualErase(const RouteEntry& e, Key key) {
  Status s = e.mig->donor->Erase(key);
  if (!s.IsNotFound()) return s;  // removed from the donor, or a real error
  WaitOutBatch(e.mig, key);
  return e.mig->receiver->Erase(key);
}

Status ShardedMap::DualUpsert(const RouteEntry& e, Key key, Value value) {
  // While the key's ownership is split between donor and receiver there
  // is no single locked critical section to make the upsert atomic, so
  // this path keeps the erase-then-insert shape with a bounded retry,
  // each step running the dual-zone protocol. It only runs during the
  // migration window; settled keys get the atomic single-tree Upsert.
  Status erased = DualErase(e, key);
  if (!erased.ok() && !erased.IsNotFound()) return erased;
  for (int attempt = 0; attempt < 16; ++attempt) {
    Status s = DualInsert(e, key, value);
    if (!s.IsAlreadyExists()) return s;
    s = DualErase(e, key);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::Aborted("upsert lost repeated races on the same key");
}

Status ShardedMap::Insert(Key key, Value value) {
  if (!dynamic_) {
    return StaticRoute(table(), key).tree->Insert(key, value);
  }
  EpochManager::Guard g(&table_epoch_);
  const RouteEntry e = Route(table(), key);
  if (Settled(e.mig, key)) return e.tree->Insert(key, value);
  return DualInsert(e, key, value);
}

Result<Value> ShardedMap::Get(Key key) const {
  if (!dynamic_) {
    return StaticRoute(table(), key).tree->Get(key);
  }
  EpochManager::Guard g(&table_epoch_);
  const RouteEntry e = Route(table(), key);
  if (Settled(e.mig, key)) return e.tree->Get(key);
  return DualGet(e, key);
}

Status ShardedMap::Erase(Key key) {
  if (!dynamic_) {
    return StaticRoute(table(), key).tree->Erase(key);
  }
  EpochManager::Guard g(&table_epoch_);
  const RouteEntry e = Route(table(), key);
  if (Settled(e.mig, key)) return e.tree->Erase(key);
  return DualErase(e, key);
}

Status ShardedMap::Upsert(Key key, Value value) {
  if (!dynamic_) {
    return StaticRoute(table(), key).tree->Upsert(key, value);
  }
  EpochManager::Guard g(&table_epoch_);
  const RouteEntry e = Route(table(), key);
  if (Settled(e.mig, key)) return e.tree->Upsert(key, value);
  return DualUpsert(e, key, value);
}

// --- batched operations ----------------------------------------------------

BatchResult ShardedMap::MultiGet(const std::vector<Key>& keys) const {
  BatchResult r;
  r.values.reserve(keys.size());
  for (Key k : keys) r.values.push_back(Get(k));
  batch_ops_.fetch_add(keys.size(), std::memory_order_relaxed);
  return r;
}

BatchResult ShardedMap::MultiInsert(const std::vector<Key>& keys,
                                    const std::vector<Value>& values) {
  BatchResult r;
  if (keys.size() != values.size()) {
    r.statuses.assign(keys.size(),
                      Status::InvalidArgument("keys/values size mismatch"));
    return r;
  }
  r.statuses.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    r.statuses.push_back(Insert(keys[i], values[i]));
  }
  batch_ops_.fetch_add(keys.size(), std::memory_order_relaxed);
  return r;
}

BatchResult ShardedMap::MultiErase(const std::vector<Key>& keys) {
  BatchResult r;
  r.statuses.reserve(keys.size());
  for (Key k : keys) r.statuses.push_back(Erase(k));
  batch_ops_.fetch_add(keys.size(), std::memory_order_relaxed);
  return r;
}

BatchResult ShardedMap::MultiUpsert(const std::vector<Key>& keys,
                                    const std::vector<Value>& values) {
  BatchResult r;
  if (keys.size() != values.size()) {
    r.statuses.assign(keys.size(),
                      Status::InvalidArgument("keys/values size mismatch"));
    return r;
  }
  r.statuses.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    r.statuses.push_back(Upsert(keys[i], values[i]));
  }
  batch_ops_.fetch_add(keys.size(), std::memory_order_relaxed);
  return r;
}

// --- scans -----------------------------------------------------------------

bool ShardedMap::ScanMergedRange(
    const ShardMigration* mig, Key lo, Key hi,
    const std::function<bool(Key, Value)>& visitor, size_t* visited) const {
  // A migrating range is the union of what is left in the donor and what
  // has arrived in the receiver. Chunks are fetched from both and merged
  // two-way (the partition invariant makes duplicates impossible at rest;
  // preferring the receiver on a transient tie is the safe direction). A
  // chunk fetched while a batch window was open — or across a window
  // boundary — may miss the in-flight keys, so it is retried a bounded
  // number of times; after the budget the chunk is accepted as-is, which
  // is the documented relaxation for scans under active migration
  // (docs/REBALANCING.md §5).
  //
  // Each side's fetch stops at `hi`, and the chunk starts at kFirstChunk
  // pairs per side and doubles up to kMaxChunk, so a scan whose visitor
  // stops after n pairs reads O(n) pairs. The donor holds no key below
  // drained_below (the receiver is authoritative there, as for point
  // operations), so its fetch starts past that prefix instead of walking
  // the leaves the migration emptied.
  static constexpr size_t kFirstChunk = 8;
  static constexpr size_t kMaxChunk = 128;
  static constexpr int kChunkRetries = 3;
  std::vector<std::pair<Key, Value>> from_donor;
  std::vector<std::pair<Key, Value>> from_recv;
  size_t chunk = kFirstChunk;
  auto fetch = [&](const ConcurrentMap* side, Key from,
                   std::vector<std::pair<Key, Value>>* out) {
    out->clear();
    if (from > hi) return;
    side->Scan(from, hi, [&](Key k, Value v) {
      out->emplace_back(k, v);
      return out->size() < chunk;
    });
  };
  Key pos = lo;
  while (pos <= hi) {
    for (int attempt = 0;; ++attempt) {
      const uint64_t before = mig->batch_seq.load(std::memory_order_acquire);
      const Key drained = mig->drained_below.load(std::memory_order_acquire);
      fetch(mig->donor, std::max(pos, drained), &from_donor);
      fetch(mig->receiver, pos, &from_recv);
      const uint64_t after = mig->batch_seq.load(std::memory_order_acquire);
      if (((before & 1) == 0 && after == before) || attempt >= kChunkRetries) {
        break;
      }
      std::this_thread::yield();
    }
    // A full chunk only vouches for keys up to its own last key; a short
    // chunk saw everything to the end of the range.
    const Key donor_bound =
        from_donor.size() == chunk ? from_donor.back().first : hi;
    const Key recv_bound =
        from_recv.size() == chunk ? from_recv.back().first : hi;
    const Key bound = std::min(donor_bound, recv_bound);
    chunk = std::min(2 * chunk, kMaxChunk);

    size_t di = 0;
    size_t ri = 0;
    while (true) {
      const bool d_ok =
          di < from_donor.size() && from_donor[di].first <= bound;
      const bool r_ok = ri < from_recv.size() && from_recv[ri].first <= bound;
      if (!d_ok && !r_ok) break;
      std::pair<Key, Value> kv;
      if (d_ok && r_ok && from_donor[di].first == from_recv[ri].first) {
        kv = from_recv[ri];
        ++di;
        ++ri;
      } else if (!r_ok ||
                 (d_ok && from_donor[di].first < from_recv[ri].first)) {
        kv = from_donor[di++];
      } else {
        kv = from_recv[ri++];
      }
      ++*visited;
      if (!visitor(kv.first, kv.second)) return false;
    }
    if (bound >= hi) break;
    pos = bound + 1;
  }
  return true;
}

size_t ShardedMap::ScanTable(
    const RoutingTable* t, Key lo, Key hi,
    const std::function<bool(Key, Value)>& visitor) const {
  const auto& es = t->entries;
  const Key cap = std::min(hi, kMaxUserKey);
  size_t visited = 0;
  bool stopped = false;
  // The partition is ordered, so visiting shards left to right delivers
  // globally ascending keys: every key of shard s precedes every key of
  // shard s+1.
  for (size_t s = RouteIndex(t, lo); s < es.size() && !stopped; ++s) {
    const RouteEntry& e = es[s];
    if (e.lo > cap) break;
    const Key seg_lo = std::max(lo, e.lo);
    const Key seg_hi = s + 1 < es.size() ? std::min(cap, es[s + 1].lo - 1)
                                         : cap;
    if (seg_hi < seg_lo) continue;  // lo above the user-key cap
    if (e.mig != nullptr && !e.mig->done.load(std::memory_order_acquire)) {
      stopped = !ScanMergedRange(e.mig, seg_lo, seg_hi, visitor, &visited);
      continue;
    }
    visited += e.tree->tree()->Scan(seg_lo, seg_hi, visitor, &stopped);
  }
  return visited;
}

size_t ShardedMap::Scan(
    Key lo, Key hi, const std::function<bool(Key, Value)>& visitor) const {
  if (lo < 1) lo = 1;
  if (hi < lo) return 0;
  if (!dynamic_) return ScanTable(table(), lo, hi, visitor);
  EpochManager::Guard g(&table_epoch_);
  return ScanTable(table(), lo, hi, visitor);
}

std::vector<std::pair<Key, Value>> ShardedMap::ScanLimit(
    Key from, size_t limit) const {
  std::vector<std::pair<Key, Value>> out;
  if (limit == 0) return out;
  out.reserve(std::min<size_t>(limit, 4096));
  Scan(from, kMaxUserKey, [&](Key k, Value v) {
    out.emplace_back(k, v);
    return out.size() < limit;
  });
  return out;
}

// --- aggregation -----------------------------------------------------------

std::vector<ConcurrentMap*> ShardedMap::LiveTrees(
    const RoutingTable* t) const {
  std::vector<ConcurrentMap*> out;
  out.reserve(t->entries.size() + 1);
  auto add = [&out](ConcurrentMap* m) {
    if (m == nullptr) return;
    if (std::find(out.begin(), out.end(), m) == out.end()) out.push_back(m);
  };
  for (const RouteEntry& e : t->entries) {
    add(e.tree);
    // An unfinished migration's donor still holds part of the range.
    if (e.mig != nullptr && !e.mig->done.load(std::memory_order_acquire)) {
      add(e.mig->donor);
    }
  }
  return out;
}

uint64_t ShardedMap::Size() const {
  // A key lives in at most one tree at any instant (see REBALANCING.md
  // invariant I1), so donor + receiver sums never double count.
  uint64_t total = 0;
  for (const ConcurrentMap* m : LiveTrees(table())) total += m->Size();
  return total;
}

uint32_t ShardedMap::Height() const {
  uint32_t tallest = 0;
  for (const ConcurrentMap* m : LiveTrees(table())) {
    tallest = std::max(tallest, m->Height());
  }
  return tallest;
}

void ShardedMap::CompressNow() {
  for (ConcurrentMap* m : LiveTrees(table())) m->CompressNow();
}

PoolStatsSnapshot ShardedMap::PoolStats() const {
  return pool_ != nullptr ? pool_->Stats() : PoolStatsSnapshot();
}

int ShardedMap::background_thread_count() const {
  return pool_ != nullptr ? pool_->thread_count() : 0;
}

StatsSnapshot ShardedMap::Stats() const {
  // Summed over every tree ever created — retired merge donors included —
  // so counters remain monotone across rebalancing actions.
  StatsSnapshot total;
  {
    std::lock_guard<std::mutex> lk(trees_mu_);
    for (const auto& m : trees_) {
      const StatsSnapshot snap = m->Stats();
      for (size_t i = 0; i < total.counters.size(); ++i) {
        total.counters[i] += snap.counters[i];
      }
      total.max_locks_held =
          std::max(total.max_locks_held, snap.max_locks_held);
    }
  }
  // Batched ops are counted on the map, since a batch spans shards.
  total.counters[static_cast<size_t>(StatId::kBatchOps)] +=
      batch_ops_.load(std::memory_order_relaxed);
  // Breaker trips are controller-level, not per-tree; surface them in the
  // same snapshot so operators see degradation in one place.
  if (rebalancer_ != nullptr) {
    total.counters[static_cast<size_t>(StatId::kRebalanceBreakerTrips)] +=
        rebalancer_->breaker_trips();
  }
  return total;
}

TreeShape ShardedMap::Shape() const {
  TreeShape total;
  double fill_weighted = 0.0;
  uint64_t leaves = 0;
  for (const ConcurrentMap* m : LiveTrees(table())) {
    const TreeShape shape = m->Shape();
    total.height = std::max(total.height, shape.height);
    total.num_keys += shape.num_keys;
    total.num_nodes += shape.num_nodes;
    total.underfull_nodes += shape.underfull_nodes;
    if (shape.nodes_per_level.size() > total.nodes_per_level.size()) {
      total.nodes_per_level.resize(shape.nodes_per_level.size(), 0);
    }
    for (size_t i = 0; i < shape.nodes_per_level.size(); ++i) {
      total.nodes_per_level[i] += shape.nodes_per_level[i];
    }
    const uint64_t shard_leaves =
        shape.nodes_per_level.empty() ? 0 : shape.nodes_per_level[0];
    fill_weighted += shape.avg_leaf_fill * static_cast<double>(shard_leaves);
    leaves += shard_leaves;
  }
  total.avg_leaf_fill =
      leaves > 0 ? fill_weighted / static_cast<double>(leaves) : 0.0;
  return total;
}

Status ShardedMap::ValidateStructure() const {
  const std::vector<ConcurrentMap*> live = LiveTrees(table());
  for (size_t i = 0; i < live.size(); ++i) {
    Status s = live[i]->ValidateStructure();
    if (!s.ok()) {
      return Status::Internal("shard " + std::to_string(i) + ": " +
                              s.ToString());
    }
  }
  return Status::OK();
}

// --- rebalancing: controller host + migration machinery --------------------

void ShardedMap::SetMigrationHookForTest(MigrationHook hook) {
  std::lock_guard<std::mutex> lk(admin_mu_);
  migration_hook_ = std::move(hook);
}

void ShardedMap::FireHook(const char* point, Key key) {
  if (migration_hook_) migration_hook_(point, key);
}

std::vector<ShardLoad> ShardedMap::SnapshotLoads() {
  const RoutingTable* t = table();
  std::vector<ShardLoad> out;
  out.reserve(t->entries.size());
  for (const RouteEntry& e : t->entries) {
    ShardLoad load;
    load.id = e.tree;
    const StatsSnapshot s = e.tree->Stats();
    load.ops = s.Get(StatId::kSearches) + s.Get(StatId::kInserts) +
               s.Get(StatId::kDeletes);
    load.contention = s.Get(StatId::kLocksContended);
    if (pool_ != nullptr) {
      const PoolShardStats ps = pool_->StatsFor(e.tree->pool_handle());
      load.pool_drains = ps.tasks_drained;
      load.pool_boosts = ps.boosts;
    }
    load.keys = e.tree->Size();
    out.push_back(load);
  }
  return out;
}

void ShardedMap::PublishTable(std::unique_ptr<RoutingTable> next,
                              bool wait_grace) {
  RoutingTable* raw = next.get();
  tables_.push_back(std::move(next));
  // seq_cst store: the grace protocol below needs the swap ordered before
  // the Advance() that defines "pre-swap" (a release store could sink past
  // the clock RMW under store-load reordering).
  table_.store(raw, std::memory_order_seq_cst);
  FireHook("table-swap", static_cast<Key>(raw->entries.size()));
  if (!wait_grace) return;
  // Grace period: an operation on the dynamic route pins a Guard (publish
  // its slot, then read the clock c and pin c + 1) BEFORE loading the
  // table pointer. Ticking the fence f = Advance() after the swap and
  // waiting while MinActive() <= f therefore waits out every pin whose
  // clock read preceded the tick, i.e. every operation that may have
  // loaded an older table. A pin > f read the clock at or after the tick,
  // which the swap happened before, so it routes through the new table
  // and needs no waiting. A pin equal to f read the clock just before the
  // tick: `<` instead of `<=` would let such an operation run on with the
  // old table.
  const Timestamp fence = table_epoch_.Advance();
  while (table_epoch_.MinActive() <= fence) {
    std::this_thread::yield();
  }
}

bool ShardedMap::LandKey(ShardMigration* mig, Key key, Value value) {
  // The key is in NEITHER tree and the batch window is open: it MUST land
  // before the window closes. The first attempts honor injected faults;
  // after that the insert runs exempt (injection cannot touch it), and the
  // donor is the fallback of last resort so a failed batch stays
  // donor-authoritative. AlreadyExists means an earlier attempt landed
  // despite reporting a (mid-restart) failure — the key is safe.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const Status s = mig->receiver->Insert(key, value);
    if (s.ok() || s.IsAlreadyExists()) return true;
  }
  FaultInjector::ScopedExemption exempt;
  const Status s = mig->receiver->Insert(key, value);
  if (s.ok() || s.IsAlreadyExists()) return true;
  mig->donor->Insert(key, value);
  return false;
}

bool ShardedMap::RunMigration(ShardMigration* mig) {
  ConcurrentMap* donor = mig->donor;
  const size_t batch =
      std::max<uint32_t>(1, options_.rebalance.migration_batch);
  const auto deadline = std::chrono::steady_clock::now() + kMigrationDeadline;
  uint32_t failures = 0;
  Key pos = mig->lo;
  while (true) {
    // Watchdog: a migration that keeps failing batches (or keeps being
    // stalled) must not pin admin_mu_ forever — past the deadline it
    // aborts and the caller rolls back.
    if (std::chrono::steady_clock::now() > deadline) {
      donor->tree()->stats()->Add(StatId::kMigrationAborts);
      SetLastRebalanceError(
          Status::Aborted("migration exceeded its deadline; rolled back"));
      return false;
    }
    // Plan the batch OUTSIDE the window: the window only needs to cover
    // the delete/insert handoff, not the scan. Planning is control-plane
    // work and reads ground truth — an injected short read here would
    // silently skip keys, which is corruption, not degradation.
    std::vector<std::pair<Key, Value>> chunk;
    {
      FaultInjector::ScopedExemption exempt;
      chunk = donor->ScanLimit(pos, batch);
    }
    while (!chunk.empty() && chunk.back().first > mig->hi) chunk.pop_back();
    if (chunk.empty()) break;  // range drained
    const Key first = chunk.front().first;
    const Key last = chunk.back().first;

    bool batch_ok = true;
    // Highest key of this batch that is fully resolved (moved, or erased
    // by a racing user delete). drained_below may advance past resolved
    // keys even when the batch later fails — but never past a failure.
    Key completed_through = first - 1;
    if (FaultInjector::TrapsArmed() &&
        FaultInjector::Instance().Evaluate("migration-batch").inject_error) {
      batch_ok = false;  // injected batch failure: nothing moved yet
    } else {
      mig->batch_lo.store(first, std::memory_order_relaxed);
      mig->batch_hi.store(last, std::memory_order_relaxed);
      mig->batch_seq.fetch_add(1, std::memory_order_acq_rel);  // open (odd)
      FireHook("batch-begin", first);
      uint64_t moved = 0;
      for (const auto& kv : chunk) {
        // Delete-then-insert: the key is in NEITHER tree for an instant,
        // which is exactly what the odd batch window guards. A donor
        // delete returning NotFound means a concurrent user Erase won the
        // race — the user deletion wins and the key is not re-inserted.
        const Status es = donor->Erase(kv.first);
        if (es.ok()) {
          FireHook("key-moved", kv.first);
          if (!LandKey(mig, kv.first, kv.second)) {
            batch_ok = false;  // fell back into the donor: not migrated
            break;
          }
          ++moved;
          completed_through = kv.first;
        } else if (es.IsNotFound()) {
          completed_through = kv.first;
        } else {
          // Transient donor failure (injected or real): the key may still
          // be donor-side, so the batch stops HERE and drained_below must
          // not pass it.
          batch_ok = false;
          break;
        }
      }
      if (completed_through >= pos && completed_through < kMaxUserKey) {
        mig->drained_below.store(completed_through + 1,
                                 std::memory_order_release);
      }
      mig->batch_seq.fetch_add(1, std::memory_order_release);  // close
      FireHook("batch-end", last);
      donor->tree()->stats()->Add(StatId::kKeysMigrated, moved);
      mig->keys_moved.fetch_add(moved, std::memory_order_relaxed);
    }

    if (batch_ok) {
      failures = 0;
      if (last >= mig->hi) break;
      pos = last + 1;
    } else {
      if (++failures > options_.rebalance.migration_retry_limit) {
        donor->tree()->stats()->Add(StatId::kMigrationAborts);
        SetLastRebalanceError(Status::Aborted(
            "migration batch exhausted its retries; rolled back"));
        return false;
      }
      // Retry the same position after a short backoff; keys that already
      // resolved are gone from the donor, so the re-planned chunk picks
      // up exactly where the failure stopped.
      std::this_thread::sleep_for(std::chrono::microseconds(
          200u << (failures < 4 ? failures : 4)));
    }
  }
  mig->done.store(true, std::memory_order_release);
  return true;
}

ShardedMap::ShardMigration* ShardedMap::MakeRollback(
    const ShardMigration* aborted) {
  migrations_.push_back(std::make_unique<ShardMigration>());
  ShardMigration* back = migrations_.back().get();
  back->lo = aborted->lo;
  back->hi = aborted->hi;
  back->donor = aborted->receiver;    // keys drain back OUT of the receiver
  back->receiver = aborted->donor;    // ... INTO the original donor
  back->drained_below.store(back->lo, std::memory_order_relaxed);
  return back;
}

ShardedMap::ActionResult ShardedMap::SplitShard(size_t index) {
  if (!dynamic_) return ActionResult::kSkipped;
  std::lock_guard<std::mutex> lk(admin_mu_);
  const RoutingTable* cur = table();
  const size_t n = cur->entries.size();
  if (index >= n) return ActionResult::kSkipped;
  if (n >= options_.rebalance.max_shards) return ActionResult::kSkipped;
  const RouteEntry e = cur->entries[index];
  ConcurrentMap* donor = e.tree;
  const Key lo = e.lo;
  const Key hi =
      index + 1 < n ? cur->entries[index + 1].lo - 1 : kMaxUserKey;
  if (hi <= lo) return ActionResult::kSkipped;  // width-one range

  // Split at the median STORED key, not the range midpoint: under a
  // skewed workload the keys (and the load) concentrate in a slice of the
  // range, and a midpoint split would leave one side empty. Planning is
  // control-plane: read ground truth.
  Key mid = 0;
  {
    FaultInjector::ScopedExemption exempt;
    const uint64_t total = donor->Size();
    if (total < 2) return ActionResult::kSkipped;
    const uint64_t half = total / 2;
    uint64_t seen = 0;
    donor->Scan(lo, hi, [&](Key k, Value) {
      ++seen;
      if (seen > half) {
        mid = k;
        return false;
      }
      return true;
    });
  }
  if (mid <= lo) mid = lo + 1;
  if (mid > hi) return ActionResult::kSkipped;

  auto fresh_owned = MakeTree();
  if (!fresh_owned->init_status().ok()) return ActionResult::kSkipped;
  ConcurrentMap* fresh = fresh_owned.get();
  {
    std::lock_guard<std::mutex> tlk(trees_mu_);
    trees_.push_back(std::move(fresh_owned));
  }
  migrations_.push_back(std::make_unique<ShardMigration>());
  ShardMigration* mig = migrations_.back().get();
  mig->lo = mid;
  mig->hi = hi;
  mig->donor = donor;
  mig->receiver = fresh;
  mig->drained_below.store(mid, std::memory_order_relaxed);

  // Handoff-first: the table points the upper half at the RECEIVER before
  // a single key moves, and the grace wait flushes every operation still
  // routing the upper half at the donor. From then on the donor can only
  // LOSE keys in [mid, hi] — the invariant the migrator depends on.
  auto next = std::make_unique<RoutingTable>(*cur);
  RouteEntry fresh_entry;
  fresh_entry.lo = mid;
  fresh_entry.tree = fresh;
  fresh_entry.mig = mig;
  next->entries.insert(
      next->entries.begin() + static_cast<std::ptrdiff_t>(index) + 1,
      fresh_entry);
  PublishTable(std::move(next), /*wait_grace=*/true);

  if (!RunMigration(mig)) {
    // Abort -> donor-authoritative rollback (docs/REBALANCING.md §10).
    // Point the upper half back at the donor FIRST, with a grace wait, so
    // no straggler is still running the aborted migration's dual protocol
    // when the reversed one starts moving keys; then drain everything the
    // receiver got back into the donor, exempt from injection (rollback
    // must terminate).
    ShardMigration* back = MakeRollback(mig);
    auto undo = std::make_unique<RoutingTable>(*table());
    undo->entries[index + 1].tree = donor;
    undo->entries[index + 1].mig = back;
    PublishTable(std::move(undo), /*wait_grace=*/true);
    bool rolled_back;
    {
      FaultInjector::ScopedExemption exempt;
      rolled_back = RunMigration(back);
    }
    donor->tree()->stats()->Add(StatId::kMigrationRollbackKeys,
                                back->keys_moved.load());
    if (rolled_back) {
      // The donor's own row covers [lo, hi] again; the stillborn shard
      // leaves the table and stops costing maintenance.
      auto clean = std::make_unique<RoutingTable>(*table());
      clean->entries.erase(clean->entries.begin() +
                           static_cast<std::ptrdiff_t>(index) + 1);
      PublishTable(std::move(clean), /*wait_grace=*/false);
      fresh->Quiesce();
    } else {
      // A rollback can only fail on a real (non-injected) error. Leave
      // the range in dual mode permanently — slower but never lossy.
      SetLastRebalanceError(Status::Internal(
          "split rollback incomplete; range left in dual-lookup mode"));
    }
    return ActionResult::kFailed;
  }

  // Retire the finished migration from the table so future traffic takes
  // the single-lookup fast path. No grace needed: stragglers on the old
  // table run the dual protocol against a done migration, which resolves
  // to the receiver.
  auto clean = std::make_unique<RoutingTable>(*table());
  clean->entries[index + 1].mig = nullptr;
  PublishTable(std::move(clean), /*wait_grace=*/false);

  fresh->tree()->stats()->Add(StatId::kRebalanceSplits);
  return ActionResult::kOk;
}

ShardedMap::ActionResult ShardedMap::MergeShards(size_t left) {
  if (!dynamic_) return ActionResult::kSkipped;
  std::lock_guard<std::mutex> lk(admin_mu_);
  const RoutingTable* cur = table();
  const size_t n = cur->entries.size();
  if (left + 1 >= n) return ActionResult::kSkipped;
  if (n <= options_.rebalance.min_shards) return ActionResult::kSkipped;
  ConcurrentMap* receiver = cur->entries[left].tree;
  ConcurrentMap* donor = cur->entries[left + 1].tree;
  const Key lo = cur->entries[left + 1].lo;
  const Key hi =
      left + 2 < n ? cur->entries[left + 2].lo - 1 : kMaxUserKey;

  migrations_.push_back(std::make_unique<ShardMigration>());
  ShardMigration* mig = migrations_.back().get();
  mig->lo = lo;
  mig->hi = hi;
  mig->donor = donor;
  mig->receiver = receiver;
  mig->drained_below.store(lo, std::memory_order_relaxed);

  // Same handoff-first shape as SplitShard: the right range is pointed at
  // the surviving left tree (the receiver) before any key moves.
  auto next = std::make_unique<RoutingTable>(*cur);
  next->entries[left + 1].tree = receiver;
  next->entries[left + 1].mig = mig;
  PublishTable(std::move(next), /*wait_grace=*/true);

  if (!RunMigration(mig)) {
    // Same rollback shape as SplitShard: restore the right range to its
    // original (donor) tree with a grace wait, then drain back whatever
    // reached the receiver, exempt from injection.
    ShardMigration* back = MakeRollback(mig);
    auto undo = std::make_unique<RoutingTable>(*table());
    undo->entries[left + 1].tree = donor;
    undo->entries[left + 1].mig = back;
    PublishTable(std::move(undo), /*wait_grace=*/true);
    bool rolled_back;
    {
      FaultInjector::ScopedExemption exempt;
      rolled_back = RunMigration(back);
    }
    donor->tree()->stats()->Add(StatId::kMigrationRollbackKeys,
                                back->keys_moved.load());
    if (rolled_back) {
      // The right shard is exactly as before the merge attempt.
      auto clean = std::make_unique<RoutingTable>(*table());
      clean->entries[left + 1].mig = nullptr;
      PublishTable(std::move(clean), /*wait_grace=*/false);
    } else {
      SetLastRebalanceError(Status::Internal(
          "merge rollback incomplete; range left in dual-lookup mode"));
    }
    return ActionResult::kFailed;
  }

  // Coalesce: entry `left` now covers both ranges; the drained donor
  // leaves the table for good.
  auto clean = std::make_unique<RoutingTable>(*table());
  clean->entries.erase(clean->entries.begin() +
                       static_cast<std::ptrdiff_t>(left) + 1);
  PublishTable(std::move(clean), /*wait_grace=*/false);

  // The donor is empty and unreachable for writes; stop paying for its
  // background maintenance. The tree object itself stays alive (readers
  // on stale table snapshots may still probe it) until the map dies.
  donor->Quiesce();
  receiver->tree()->stats()->Add(StatId::kRebalanceMerges);
  return ActionResult::kOk;
}

}  // namespace obtree
