// Copyright 2026 The obtree Authors.
//
// E9: node-level micro-benchmarks. The paper's cost model counts node
// reads/writes; these measure what one such operation costs on the
// in-memory page substrate: in-node binary search, leaf insert/remove,
// split, merge, redistribution, and the seqlock get/put page copies; plus
// the checksum FileStore computes on every page it reads or writes, the
// store half of a page fault, a short range scan over a whole tree, and
// the whole-tree append and hot point-read paths.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "obtree/core/sagiv_tree.h"
#include "obtree/node/node.h"
#include "obtree/storage/file_store.h"
#include "obtree/storage/page_manager.h"
#include "obtree/util/fault_injector.h"
#include "obtree/util/random.h"

namespace obtree {
namespace {

Node MakeFullLeaf(uint32_t count) {
  Node n;
  n.Init(0, 0, kPlusInfinity, kInvalidPageId);
  for (uint32_t i = 0; i < count; ++i) {
    n.entries[i] = Entry{static_cast<Key>(i) * 10 + 10, i};
  }
  n.count = count;
  return n;
}

void BM_NodeLowerBound(benchmark::State& state) {
  const uint32_t count = static_cast<uint32_t>(state.range(0));
  Node n = MakeFullLeaf(count);
  Random rng(1);
  for (auto _ : state) {
    const Key k = rng.Uniform(count * 10 + 20);
    benchmark::DoNotOptimize(n.LowerBound(k));
  }
}
BENCHMARK(BM_NodeLowerBound)->Arg(16)->Arg(64)->Arg(254);

void BM_NodeFindLeafValue(benchmark::State& state) {
  Node n = MakeFullLeaf(static_cast<uint32_t>(state.range(0)));
  Random rng(2);
  for (auto _ : state) {
    const Key k = rng.Uniform(static_cast<uint64_t>(state.range(0)) * 10) + 1;
    benchmark::DoNotOptimize(n.FindLeafValue(k));
  }
}
BENCHMARK(BM_NodeFindLeafValue)->Arg(64)->Arg(254);

// A scan's harvest: one chunk of SagivTree::kScanChunk pairs (Arg 32) or a
// whole full leaf (Arg 254) copied out of an L1-resident node through
// NodeView, from a random start so the chunk is not always aligned.
void BM_NodeCopyEntries(benchmark::State& state) {
  const uint32_t length = static_cast<uint32_t>(state.range(0));
  const Node n = MakeFullLeaf(Node::kMaxEntries);
  const NodeView view(&n);
  Entry out[Node::kMaxEntries];
  Random rng(5);
  for (auto _ : state) {
    const uint32_t from =
        static_cast<uint32_t>(rng.Uniform(Node::kMaxEntries - length + 1));
    benchmark::DoNotOptimize(
        view.CopyEntries(from, from + length, kMaxUserKey, out));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * length);
}
BENCHMARK(BM_NodeCopyEntries)->Arg(32)->Arg(254);

// The optimistic read path's leaf search on COLD nodes: a pool of 16k
// leaves (31 MiB) holding 82 entries each, the mean fill of a k = 60
// tree, laid out as a k = 60 tree's PageManager lays out its frames
// (FrameStride(NodeBytes(120)) = 1984 B apart). Every value names a
// random node, and each search's result picks the next node, as a
// descent's does; the key is random too. So nearly every search starts
// with its node outside the core's caches, and one search's misses cannot
// overlap the next one's.
void BM_NodeSearchCold(benchmark::State& state) {
  constexpr uint32_t kNodes = 16384;
  constexpr uint32_t kCount = 82;
  constexpr size_t kStride = PageManager::FrameStride(NodeBytes(120));
  struct alignas(64) Line {
    uint8_t bytes[64];
  };
  std::vector<Line> lines(kNodes * kStride / sizeof(Line));
  const auto node = [&](uint64_t i) {
    return reinterpret_cast<Node*>(lines[i * kStride / sizeof(Line)].bytes);
  };
  const Node leaf = MakeFullLeaf(kCount);
  Random rng(3);
  for (uint32_t n = 0; n < kNodes; ++n) {
    std::memcpy(node(n), &leaf, NodeBytes(kCount));
    for (uint32_t i = 0; i < kCount; ++i) {
      node(n)->entries[i].value = rng.Uniform(kNodes);
    }
  }
  uint64_t at = 0;
  for (auto _ : state) {
    const Key k = rng.Uniform(kCount) * 10 + 10;
    at = *NodeView(node(at)).FindLeafValue(k);
    benchmark::DoNotOptimize(at);
  }
}
BENCHMARK(BM_NodeSearchCold);

// BM_NodeSearchCold through the page layer: 32768 leaf pages (136 MB of
// frames) in an in-memory PageManager, each visit an OptimisticRead, a
// FindLeafValue and a Validate, with the found value naming the next page.
// The frames are PageManager's own, so the visit pays whatever TLB misses
// the arena's page size costs; a std::vector pool cannot show that. The
// pool is built once (~0.3 s) and kept.
void BM_PageReadCold(benchmark::State& state) {
  constexpr uint32_t kPages = 32768;
  constexpr uint32_t kCount = 82;
  struct Pool {
    EpochManager epoch;
    StatsCollector stats;
    PageManager pm{&epoch, &stats};
    std::vector<PageId> ids;
  };
  static Pool* pool = [] {
    auto* p = new Pool();
    for (uint32_t i = 0; i < kPages; ++i) p->ids.push_back(*p->pm.Allocate());
    Random rng(3);
    Page w{};
    for (const PageId id : p->ids) {
      Node* n = w.As<Node>();
      *n = MakeFullLeaf(kCount);
      for (uint32_t i = 0; i < kCount; ++i) {
        n->entries[i].value = rng.Uniform(kPages);
      }
      p->pm.Put(id, w);
    }
    return p;
  }();
  Random rng(5);
  uint64_t at = 0;
  for (auto _ : state) {
    const Key k = rng.Uniform(kCount) * 10 + 10;
    const PageManager::ReadGuard g = pool->pm.OptimisticRead(pool->ids[at]);
    const std::optional<Value> v =
        NodeView(g.page()->As<Node>()).FindLeafValue(k);
    if (!g.Validate() || !v.has_value()) std::abort();
    at = *v;
  }
  benchmark::DoNotOptimize(at);
}
BENCHMARK(BM_PageReadCold);

void BM_NodeInsertRemoveCycle(benchmark::State& state) {
  Node n = MakeFullLeaf(static_cast<uint32_t>(state.range(0)));
  Random rng(3);
  for (auto _ : state) {
    const Key k = rng.Uniform(static_cast<uint64_t>(state.range(0)) * 10) * 10 + 5;
    if (!n.FindLeafValue(k).has_value() && n.count < Node::kMaxEntries) {
      n.InsertLeafEntry(k, 1);
      benchmark::DoNotOptimize(n.RemoveLeafEntry(k));
    }
  }
}
BENCHMARK(BM_NodeInsertRemoveCycle)->Arg(16)->Arg(128)->Arg(253);

// The tree's split of a full 253-entry leaf taking one more key: B built
// from A with the key merged in (SplitRightWith), then A rewritten in
// place (SplitLeftInPlace). Arg 0: a midpoint split, the key landing in
// A's half (A's entries shift); Arg 1: the tail split of an append (the
// key past the end, A keeps all it had and stores header words only).
// Each iteration also restores A from a copy (a 4 KiB memcpy).
void BM_NodeSplit(benchmark::State& state) {
  const Node full = MakeFullLeaf(Node::kMaxEntries - 1);
  const bool tail = state.range(0) == 1;
  const Key k = tail ? full.entries[full.count - 1].key + 5
                     : full.entries[full.count / 4].key + 5;
  const uint32_t keep = tail ? full.count : 0;
  for (auto _ : state) {
    Node a = full;
    Node b;
    const size_t bytes = a.SplitRightWith(k, 1, keep, &b);
    benchmark::DoNotOptimize(bytes + a.SplitLeftInPlace(k, 1, keep, 7));
    benchmark::DoNotOptimize(b.count);
  }
}
BENCHMARK(BM_NodeSplit)->Arg(0)->Arg(1);

// One leaf split of an in-memory tree under ascending inserts (the
// append path with its tail splits, default node size): each iteration
// appends keys until the rightmost leaf is full, untimed, then times the
// one insert that splits it (descent, locked peek, B's put, A's rewrite,
// the separator posted one level up). Manual time: ns per split, a mean
// that includes the rare split whose Allocate maps and populates a new
// 4 MiB frame chunk (about one split in 1024, each 0.1-10 ms); the
// p50_ns and p99_ns counters leave those out. The iteration count is
// fixed so the tree stays near 2.4M keys (~85 MB).
void BM_AppendSplit(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  SagivTree tree;
  const uint32_t capacity = tree.options().capacity();
  Key next = 1;
  std::vector<double> ns;
  ns.reserve(static_cast<size_t>(state.max_iterations));
  for (auto _ : state) {
    // After a tail split the rightmost leaf holds one entry.
    while ((next - 1) % capacity != 0 || next == 1) {
      if (!tree.Insert(next, next).ok()) std::abort();
      ++next;
    }
    const uint64_t splits = tree.stats()->Get(StatId::kSplits);
    const auto t0 = Clock::now();
    const Status s = tree.Insert(next, next);
    const auto t1 = Clock::now();
    ++next;
    if (!s.ok() || tree.stats()->Get(StatId::kSplits) == splits) std::abort();
    const std::chrono::duration<double, std::nano> took = t1 - t0;
    state.SetIterationTime(took.count() * 1e-9);
    ns.push_back(took.count());
  }
  std::sort(ns.begin(), ns.end());
  state.counters["p50_ns"] = ns[ns.size() / 2];
  state.counters["p99_ns"] = ns[ns.size() * 99 / 100];
}
BENCHMARK(BM_AppendSplit)->UseManualTime()->Iterations(20000);

void BM_NodeMerge(benchmark::State& state) {
  Node left = MakeFullLeaf(60);
  left.high = 1000;
  left.link = 5;
  Node right;
  right.Init(0, 1000, kPlusInfinity, kInvalidPageId);
  for (uint32_t i = 0; i < 60; ++i) {
    right.entries[i] = Entry{2000 + static_cast<Key>(i), i};
  }
  right.count = 60;
  for (auto _ : state) {
    Node a = left;
    a.MergeFromRight(right);
    benchmark::DoNotOptimize(a.count);
  }
}
BENCHMARK(BM_NodeMerge);

void BM_NodeRedistribute(benchmark::State& state) {
  Node left_proto = MakeFullLeaf(10);
  left_proto.high = 200;
  left_proto.link = 5;
  Node right_proto;
  right_proto.Init(0, 200, kPlusInfinity, kInvalidPageId);
  for (uint32_t i = 0; i < 200; ++i) {
    right_proto.entries[i] = Entry{1000 + static_cast<Key>(i), i};
  }
  right_proto.count = 200;
  for (auto _ : state) {
    Node a = left_proto;
    Node b = right_proto;
    benchmark::DoNotOptimize(a.RedistributeWithRight(&b, 60));
  }
}
BENCHMARK(BM_NodeRedistribute);

void BM_PageGet(benchmark::State& state) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  const PageId id = *pm.Allocate();
  Page w{};
  pm.Put(id, w);
  Page r;
  for (auto _ : state) {
    pm.Get(id, &r);
    benchmark::DoNotOptimize(r.bytes[0]);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_PageGet);

// An in-memory tree of 1.1M ascending keys (full append-path leaves),
// built once on first use and shared by BM_TreeScan and BM_TreeGetHot.
constexpr Key kScanTreeKeys = 1100000;
constexpr Key kScanTreeNewest = 100000;

const SagivTree* ScanTree() {
  static const SagivTree* tree = [] {
    auto* t = new SagivTree();
    for (Key k = 1; k <= kScanTreeKeys; ++k) {
      if (!t->Insert(k, k).ok()) std::abort();
    }
    return t;
  }();
  return tree;
}

// A range scan of ScanTree() starting at a random key among the newest
// 100k, as ingest-checkpoint's scans do. Arg = pairs delivered before the
// visitor stops.
void BM_TreeScan(benchmark::State& state) {
  const SagivTree* tree = ScanTree();
  const size_t length = static_cast<size_t>(state.range(0));
  Random rng(4);
  for (auto _ : state) {
    const Key start =
        kScanTreeKeys - kScanTreeNewest + 1 + rng.Uniform(kScanTreeNewest);
    size_t seen = 0;
    tree->Scan(start, kMaxUserKey, [&](Key, Value v) {
      benchmark::DoNotOptimize(v);
      return ++seen < length;
    });
  }
}
BENCHMARK(BM_TreeScan)->Arg(1)->Arg(32)->Arg(100);

// Ascending inserts, one per iteration, into a fresh tree: Arg 0 in
// memory, Arg 1 over a FileStore (unbounded pool, never checkpointed, so
// no store I/O). Nearly every insert takes the append fast path into the
// rightmost leaf: the write path's fixed costs (epoch pin, checkpoint
// gate, paper lock, seqlock, dirty bit, counters) around one entry store.
// The iteration count is fixed so each repetition builds the same 1M-key
// tree (~20 MB of frames).
void BM_TreeAppend(benchmark::State& state) {
  const bool on_store = state.range(0) != 0;
  TreeOptions opt;
  if (on_store) {
    opt.storage_dir = (std::filesystem::temp_directory_path() /
                       ("obtree_bench_append_" + std::to_string(::getpid())))
                          .string();
    std::filesystem::remove_all(opt.storage_dir);
  }
  {
    SagivTree tree(opt);
    if (!tree.init_status().ok()) std::abort();
    Key next = 1;
    for (auto _ : state) {
      if (!tree.Insert(next, next).ok()) std::abort();
      ++next;
    }
    state.counters["append_hit_ratio"] =
        static_cast<double>(tree.stats()->Get(StatId::kAppendFastHits)) /
        static_cast<double>(state.iterations());
  }
  if (on_store) std::filesystem::remove_all(opt.storage_dir);
}
BENCHMARK(BM_TreeAppend)->Arg(0)->Arg(1)->Iterations(1000000);

// A point Get at a random key among the newest 100k of the 1.1M-key
// in-memory tree BM_TreeScan shares: the read path of an ingest workload
// (epoch pin, a 3-level optimistic descent, validation, counters).
void BM_TreeGetHot(benchmark::State& state) {
  const SagivTree* tree = ScanTree();
  Random rng(5);
  for (auto _ : state) {
    const Key key =
        kScanTreeKeys - kScanTreeNewest + 1 + rng.Uniform(kScanTreeNewest);
    benchmark::DoNotOptimize(tree->Search(key));
  }
}
BENCHMARK(BM_TreeGetHot);

// The CRC-32 FileStore verifies on every page fault and computes on every
// eviction write-back and checkpointed page: the per-page checksum cost,
// apart from the device read or write it rides on.
void BM_FileStoreCrc32Page(benchmark::State& state) {
  Page p;
  Random rng(5);
  for (size_t i = 0; i < kPageSize; ++i) {
    p.bytes[i] = static_cast<uint8_t>(rng.Uniform(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FileStore::Crc32(p.bytes, kPageSize));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_FileStoreCrc32Page);

// A committed FileStore of `kPages` random pages in a fresh temporary
// directory, built once per process and removed at exit.
class CommittedStore {
 public:
  static constexpr PageId kPages = 25'000;  // about cold-read's page count

  static FileStore* Get() {
    static CommittedStore instance;
    return instance.store_.get();
  }

 private:
  CommittedStore()
      : dir_((std::filesystem::temp_directory_path() /
              ("obtree_bench_store_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(dir_);
    auto opened = FileStore::Open(dir_);
    if (!opened.ok()) std::abort();
    store_ = std::move(*opened);
    Random rng(6);
    Page p;
    for (PageId id = 0; id < kPages; ++id) {
      for (size_t i = 0; i < kPageSize; i += 8) {
        const uint64_t v = rng.Next();
        std::memcpy(p.bytes + i, &v, sizeof(v));
      }
      if (!store_->WritePage(id, p.bytes).ok()) std::abort();
    }
    StoreMeta meta;
    meta.next_fresh = kPages;
    if (!store_->Commit(&meta).ok()) std::abort();
  }
  ~CommittedStore() {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<FileStore> store_;
};

// The store half of a page fault (PageManager::FaultIn minus the frame
// copy and the sweep): one ReadPage of a random committed page, which is
// the slot lookup, a pread served from the OS page cache (the file was
// just written) and the checksum.
void BM_FileStoreReadPage(benchmark::State& state) {
  FileStore* store = CommittedStore::Get();
  Random rng(7);
  Page p;
  for (auto _ : state) {
    const auto id = static_cast<PageId>(rng.Uniform(CommittedStore::kPages));
    if (!store->ReadPage(id, p.bytes).ok()) state.SkipWithError("ReadPage");
    benchmark::DoNotOptimize(p.bytes);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_FileStoreReadPage);

// The tentpole comparison at node granularity: one copy-read (BM_PageGet
// moves 4 KB) vs one optimistic in-place probe (header + binary search +
// version validation, no bytes moved).
void BM_PageOptimisticProbe(benchmark::State& state) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  const PageId id = *pm.Allocate();
  Page w{};
  Node* n = w.As<Node>();
  n->Init(0, 0, kPlusInfinity, kInvalidPageId);
  for (uint32_t i = 0; i < 254; ++i) {
    n->entries[i] = Entry{static_cast<Key>(i) * 10 + 10, i};
  }
  n->count = 254;
  pm.Put(id, w);
  Random rng(4);
  for (auto _ : state) {
    const Key k = rng.Uniform(2560) + 1;
    const PageManager::ReadGuard g = pm.OptimisticRead(id);
    const NodeView view(g.page()->As<Node>());
    std::optional<Value> v = view.FindLeafValue(k);
    if (!g.Validate()) continue;
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_PageOptimisticProbe);

// Failpoint-gate overhead on the page hot path. With nothing armed the
// gate is one relaxed atomic load folded into BM_PageGet above (compare
// that cell across commits for the <1% disarmed-overhead bar). This cell
// arms an UNRELATED site, so every Get takes the slow path — a registry
// lock + hash lookup that misses — quantifying what merely having any
// failpoint armed costs traffic that never fires one.
void BM_PageGetFaultGateArmedElsewhere(benchmark::State& state) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  const PageId id = *pm.Allocate();
  Page w{};
  pm.Put(id, w);
  FaultSpec spec;
  spec.action = FaultAction::kError;
  spec.probability = 0.0;  // never fires; only the lookup cost remains
  FaultInjector::Instance().Arm("bench-unused-site", spec);
  Page r;
  for (auto _ : state) {
    pm.Get(id, &r);
    benchmark::DoNotOptimize(r.bytes[0]);
  }
  FaultInjector::Instance().DisarmAll();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_PageGetFaultGateArmedElsewhere);

void BM_PagePut(benchmark::State& state) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  const PageId id = *pm.Allocate();
  Page w{};
  for (auto _ : state) {
    pm.Put(id, w);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_PagePut);

// The PR 4 tentpole comparison at node granularity: one copy-mutation
// (Get 4 KB out + edit + Put 4 KB back) vs one in-place mutation under
// the seqlock (WriteGuard bracket + shifted-entry atomic stores only).
// Both alternate insert/remove of the same key so node occupancy is
// stable across iterations.
void BM_PageCopyMutate(benchmark::State& state) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  const PageId id = *pm.Allocate();
  Page w{};
  Node* n = w.As<Node>();
  n->Init(0, 0, kPlusInfinity, kInvalidPageId);
  for (uint32_t i = 0; i < 128; ++i) {
    n->entries[i] = Entry{static_cast<Key>(i) * 10 + 10, i};
  }
  n->count = 128;
  pm.Put(id, w);
  Page r;
  bool present = false;
  for (auto _ : state) {
    pm.Lock(id);
    pm.Get(id, &r);
    Node* node = r.As<Node>();
    if (present) {
      node->RemoveLeafEntry(5);
    } else {
      node->InsertLeafEntry(5, 5);
    }
    present = !present;
    pm.Put(id, r);
    pm.Unlock(id);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * kPageSize));
}
BENCHMARK(BM_PageCopyMutate);

void BM_PageInplaceMutate(benchmark::State& state) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  const PageId id = *pm.Allocate();
  Page w{};
  Node* n = w.As<Node>();
  n->Init(0, 0, kPlusInfinity, kInvalidPageId);
  for (uint32_t i = 0; i < 128; ++i) {
    n->entries[i] = Entry{static_cast<Key>(i) * 10 + 10, i};
  }
  n->count = 128;
  pm.Put(id, w);
  bool present = false;
  for (auto _ : state) {
    pm.Lock(id);
    PageManager::WriteGuard wg = pm.BeginWrite(id);
    Node* node = wg.page()->As<Node>();
    if (present) {
      benchmark::DoNotOptimize(
          node->RemoveLeafEntryAtInPlace(node->LowerBound(5)));
    } else {
      benchmark::DoNotOptimize(node->InsertLeafEntryInPlace(5, 5));
    }
    present = !present;
    wg.Release();
    pm.Unlock(id);
  }
}
BENCHMARK(BM_PageInplaceMutate);

void BM_PaperLockUncontended(benchmark::State& state) {
  EpochManager epoch;
  StatsCollector stats;
  PageManager pm(&epoch, &stats);
  const PageId id = *pm.Allocate();
  for (auto _ : state) {
    pm.Lock(id);
    pm.Unlock(id);
  }
}
BENCHMARK(BM_PaperLockUncontended);

// Admitting an operation, on one manager shared by every benchmark
// thread: an epoch pin (Guard, which every Get, Scan, MultiGet and write
// takes) and a checkpoint-gate entry (MutatorScope, which every write on a
// FileStore tree takes). Both touch only the calling thread's own slot, so
// the per-op cost should not grow with the thread count.
void BM_EpochPin(benchmark::State& state) {
  static EpochManager* epoch = nullptr;
  if (state.thread_index() == 0) epoch = new EpochManager();
  for (auto _ : state) {
    EpochManager::Guard guard(epoch);
    benchmark::DoNotOptimize(guard.start_time());
  }
  if (state.thread_index() == 0) {
    delete epoch;
    epoch = nullptr;
  }
}
BENCHMARK(BM_EpochPin)->Threads(1)->Threads(3);

// The reclamation floor a page allocation computes (PageManager harvests
// retired pages through it) with 4 live pins, nested in this thread: it
// scans the slots below the manager's high-water mark.
void BM_MinActive(benchmark::State& state) {
  EpochManager epoch;
  std::vector<std::unique_ptr<EpochManager::Guard>> pins;
  for (int i = 0; i < 4; ++i) {
    pins.push_back(std::make_unique<EpochManager::Guard>(&epoch));
  }
  for (auto _ : state) benchmark::DoNotOptimize(epoch.MinActive());
}
BENCHMARK(BM_MinActive);

void BM_MutatorGate(benchmark::State& state) {
  struct Gate {
    std::string dir;
    std::unique_ptr<FileStore> store;
    EpochManager epoch;
    StatsCollector stats;
    std::unique_ptr<PageManager> pm;
  };
  static Gate* gate = nullptr;
  if (state.thread_index() == 0) {
    gate = new Gate();
    gate->dir = (std::filesystem::temp_directory_path() /
                 ("obtree_bench_gate_" + std::to_string(::getpid())))
                    .string();
    std::filesystem::remove_all(gate->dir);
    auto opened = FileStore::Open(gate->dir);
    if (!opened.ok()) std::abort();
    gate->store = std::move(*opened);
    gate->pm = std::make_unique<PageManager>(&gate->epoch, &gate->stats,
                                             gate->store.get());
  }
  for (auto _ : state) {
    PageManager::MutatorScope scope(gate->pm.get());
    benchmark::ClobberMemory();
  }
  if (state.thread_index() == 0) {
    const std::string dir = gate->dir;
    delete gate;
    gate = nullptr;
    std::filesystem::remove_all(dir);
  }
}
BENCHMARK(BM_MutatorGate)->Threads(1)->Threads(3);

}  // namespace
}  // namespace obtree

BENCHMARK_MAIN();
