// Copyright 2026 The obtree Authors.

#include "obtree/storage/file_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "obtree/util/fault_injector.h"

namespace obtree {

namespace {

constexpr uint64_t kManifestMagic = 0x464d454552544f42ULL;  // "OBTREEMF"
constexpr uint32_t kManifestVersion = 2;
constexpr char kDataFileName[] = "pages.dat";
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";

// Bytes of the new image a "store-write" kCrash persists before dying:
// one classic disk sector, so recovery faces a genuinely torn page.
constexpr size_t kTornWriteBytes = 512;

// Every page holds at most a committed and a staged image, and a write
// takes the lowest free slot, so no slot at or past this bound is ever
// in use.
constexpr uint32_t kMaxSlots = 2 * kMaxPageIds;

off_t SlotOffset(uint32_t slot) {
  return static_cast<off_t>(static_cast<uint64_t>(slot) * kPageSize);
}

// Full-length pwrite (retrying short writes / EINTR).
Status PwriteAll(int fd, const void* buf, size_t n, off_t off) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, p, n, off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("pwrite: ") +
                                 std::strerror(errno));
    }
    p += w;
    off += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

// Full-length pread; *short_read reports bytes missing off the end (a
// slot past EOF reads as zeros for never-written pages).
Status PreadAll(int fd, void* buf, size_t n, off_t off, size_t* got) {
  char* p = static_cast<char*>(buf);
  *got = 0;
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("pread: ") +
                                 std::strerror(errno));
    }
    if (r == 0) break;  // EOF
    p += r;
    off += r;
    n -= static_cast<size_t>(r);
    *got += static_cast<size_t>(r);
  }
  return Status::OK();
}

// IEEE CRC-32 (reflected polynomial 0xedb88320) tables for slicing-by-8:
// t[0] is the classic byte table and t[k][b] is t[0][b] advanced through
// k more zero bytes, so one step folds 8 input bytes with 8 independent
// lookups and gives the same checksum as t[0] alone, byte by byte.
struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Advances the CRC register `crc` (pre-inverted, not yet finalized) over
// `n` bytes with the slicing-by-8 tables.
uint32_t TableFold(uint32_t crc, const unsigned char* p, size_t n) {
  const auto& t = kCrc32Tables.t;
  for (; n >= 8; n -= 8, p += 8) {
    // Bytes combined little-endian: no alignment or host-order assumption.
    const uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    const uint32_t hi = uint32_t{p[4]} | uint32_t{p[5]} << 8 |
                        uint32_t{p[6]} << 16 | uint32_t{p[7]} << 24;
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
#define OBTREE_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

OBTREE_CLMUL_TARGET inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Lane `x` carried forward by the fold constants `k` (low qword times
// k's low, high qword times k's high) and added to input block `in`.
OBTREE_CLMUL_TARGET inline __m128i Fold128(__m128i x, __m128i k, __m128i in) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       in);
}

// Advances the CRC register like TableFold, with carry-less multiplies
// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", Intel, 2009). Four 128-bit lanes absorb 64
// bytes per step, fold into one lane, which then absorbs 16 bytes per
// step; a Barrett reduction takes the remainder to 32 bits. `n` must be
// a multiple of 16 and at least 64. The constants are x^e mod P for the
// IEEE polynomial P, bit-reflected and shifted left one: e = 544 and 480
// fold a lane 512 bits on, 160 and 96 fold it 128 bits, 64 folds 64.
// The last pair is P itself and floor(x^64 / P), reflected.
OBTREE_CLMUL_TARGET uint32_t ClmulFold(uint32_t crc, const unsigned char* p,
                                       size_t n) {
  const __m128i k544_480 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k160_96 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k64 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; n -= 64, p += 64) {
    x1 = Fold128(x1, k544_480, Load128(p));
    x2 = Fold128(x2, k544_480, Load128(p + 16));
    x3 = Fold128(x3, k544_480, Load128(p + 32));
    x4 = Fold128(x4, k544_480, Load128(p + 48));
  }
  x1 = Fold128(x1, k160_96, x2);
  x1 = Fold128(x1, k160_96, x3);
  x1 = Fold128(x1, k160_96, x4);
  for (; n >= 16; n -= 16, p += 16) x1 = Fold128(x1, k160_96, Load128(p));

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k160_96, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k64, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#undef OBTREE_CLMUL_TARGET

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif  // defined(__x86_64__)

// "0x" + 8 hex digits, the form checksum errors print CRCs in.
std::string Hex32(uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

// --- little-endian buffer serialization -----------------------------------

void Put32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void Put64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

// Bounds-checked little-endian reads; ok() goes false on overrun and
// stays false (so a parse can run straight through and check once).
class Parser {
 public:
  Parser(const char* data, size_t n) : data_(data), n_(n) {}

  uint32_t U32() { return static_cast<uint32_t>(Bytes(4)); }
  uint64_t U64() { return Bytes(8); }
  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }

 private:
  uint64_t Bytes(int width) {
    if (!ok_ || n_ - pos_ < static_cast<size_t>(width)) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<size_t>(width);
    return v;
  }

  const char* data_;
  size_t n_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

uint32_t FileStore::Crc32(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xffffffffu;
#if defined(__x86_64__)
  static const bool has_clmul = CpuHasClmul();
  if (has_clmul && n >= 64) {
    const size_t folded = n & ~size_t{15};
    crc = ClmulFold(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return TableFold(crc, p, n) ^ 0xffffffffu;
}

uint32_t FileStore::Crc32Portable(const void* data, size_t n) {
  return TableFold(0xffffffffu, static_cast<const unsigned char*>(data), n) ^
         0xffffffffu;
}

FileStore::FileStore(std::string dir, int data_fd, int dir_fd)
    : dir_(std::move(dir)), data_fd_(data_fd), dir_fd_(dir_fd) {}

FileStore::~FileStore() {
  ::close(data_fd_);
  ::close(dir_fd_);
}

Result<std::unique_ptr<FileStore>> FileStore::Open(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("FileStore directory must be non-empty");
  }
  // mkdir -p: create every missing ancestor so callers can point a fresh
  // store at a nested path (ShardedMap derives "<dir>/shard-<i>" before
  // <dir> exists).
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos < dir.size() && dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Unavailable(std::string("mkdir ") + prefix + ": " +
                                 std::strerror(errno));
    }
  }
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::Unavailable(std::string("open ") + dir + ": " +
                               std::strerror(errno));
  }
  const std::string data_path = dir + "/" + kDataFileName;
  const int data_fd = ::open(data_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (data_fd < 0) {
    ::close(dir_fd);
    return Status::Unavailable(std::string("open ") + data_path + ": " +
                               std::strerror(errno));
  }
  // A leftover tmp manifest means a crash hit before the rename: the
  // committed manifest (if any) is the truth, the tmp is garbage.
  ::unlink((dir + "/" + kManifestTmpName).c_str());

  std::unique_ptr<FileStore> store(new FileStore(dir, data_fd, dir_fd));
  Status s = store->LoadManifest();
  if (!s.ok()) return s;
  return store;
}

Status FileStore::LoadManifest() {
  const std::string path = dir_ + "/" + kManifestName;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();  // fresh store
    return Status::Unavailable(std::string("open ") + path + ": " +
                               std::strerror(errno));
  }
  std::string blob;
  {
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::Unavailable(std::string("read ") + path + ": " +
                                   std::strerror(errno));
      }
      if (r == 0) break;
      blob.append(buf, static_cast<size_t>(r));
    }
  }
  ::close(fd);

  if (blob.size() < 4) return Status::DataLoss("manifest truncated");
  Parser tail(blob.data() + blob.size() - 4, 4);
  const uint32_t trailer = tail.U32();
  const uint32_t computed = Crc32(blob.data(), blob.size() - 4);
  if (computed != trailer) {
    return Status::DataLoss("manifest checksum mismatch: stored " +
                            Hex32(trailer) + ", computed " + Hex32(computed));
  }

  Parser p(blob.data(), blob.size() - 4);
  if (p.U64() != kManifestMagic) return Status::DataLoss("manifest magic");
  if (p.U32() != kManifestVersion) {
    return Status::DataLoss("manifest version");
  }
  StoreMeta meta;
  meta.checkpoint_epoch = p.U64();
  meta.next_fresh = p.U32();
  meta.tree_size = p.U64();
  meta.max_key = p.U64();
  if (meta.next_fresh > kMaxPageIds) {
    return Status::DataLoss("manifest next_fresh " +
                            std::to_string(meta.next_fresh) + " > " +
                            std::to_string(kMaxPageIds));
  }
  const uint32_t num_levels = p.U32();
  if (!p.ok() || num_levels > 64) return Status::DataLoss("manifest levels");
  meta.leftmost.resize(num_levels);
  for (uint32_t i = 0; i < num_levels; ++i) meta.leftmost[i] = p.U32();
  const uint32_t free_count = p.U32();
  if (!p.ok() || free_count > meta.next_fresh) {
    return Status::DataLoss("manifest free list");
  }
  meta.free_pages.resize(free_count);
  for (uint32_t i = 0; i < free_count; ++i) {
    meta.free_pages[i] = p.U32();
    if (p.ok() && meta.free_pages[i] >= meta.next_fresh) {
      return Status::DataLoss("manifest free page " +
                              std::to_string(meta.free_pages[i]) +
                              " >= next_fresh");
    }
  }
  const uint32_t page_count = p.U32();
  if (!p.ok() || page_count > meta.next_fresh) {
    return Status::DataLoss("manifest page table");
  }
  // Entries may come in any order. Each id indexes the slot table and
  // each slot the data file, so an id the allocator never handed out, a
  // slot past the bound, or either one named twice is corruption.
  std::vector<SlotEntry> table;
  std::vector<bool> named;  // indexed by slot
  for (uint32_t i = 0; i < page_count; ++i) {
    const PageId id = p.U32();
    const uint32_t slot = p.U32();
    const uint32_t crc = p.U32();
    if (!p.ok()) break;
    if (id >= meta.next_fresh) {
      return Status::DataLoss("manifest page id " + std::to_string(id) +
                              " >= next_fresh " +
                              std::to_string(meta.next_fresh));
    }
    if (slot >= kMaxSlots) {
      return Status::DataLoss("manifest slot " + std::to_string(slot) +
                              " >= " + std::to_string(kMaxSlots));
    }
    if (id >= table.size()) table.resize(id + size_t{1});
    SlotEntry& e = table[id];
    if (e.committed != kNoSlot) {
      return Status::DataLoss("manifest names page " + std::to_string(id) +
                              " twice");
    }
    if (slot >= named.size()) named.resize(slot + size_t{1});
    if (named[slot]) {
      return Status::DataLoss("manifest names slot " + std::to_string(slot) +
                              " twice");
    }
    named[slot] = true;
    e.committed = slot;
    e.committed_crc = crc;
  }
  if (!p.ok()) return Status::DataLoss("manifest truncated");
  // Every slot below the highest named one that no page names is free.
  // Ascending order is already a valid min-heap.
  std::vector<uint32_t> free_slots;
  for (uint32_t slot = 0; slot < named.size(); ++slot) {
    if (!named[slot]) free_slots.push_back(slot);
  }

  std::lock_guard<std::mutex> lk(mu_);
  slots_ = std::move(table);
  free_slots_ = std::move(free_slots);
  end_slot_ = static_cast<uint32_t>(named.size());
  committed_epoch_ = meta.checkpoint_epoch;
  recovered_meta_ = std::move(meta);
  has_checkpoint_ = true;
  return Status::OK();
}

uint32_t FileStore::TakeSlotLocked() {
  if (free_slots_.empty()) return end_slot_++;
  std::pop_heap(free_slots_.begin(), free_slots_.end(), std::greater<>());
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void FileStore::FreeSlotLocked(uint32_t slot) {
  free_slots_.push_back(slot);
  std::push_heap(free_slots_.begin(), free_slots_.end(), std::greater<>());
}

Status FileStore::ReadPage(PageId id, void* buf) {
  uint32_t slot = kNoSlot;
  uint32_t crc = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (id < slots_.size()) {
      slot = slots_[id].live();
      crc = slots_[id].live_crc();
    }
  }
  if (slot == kNoSlot) {
    // Never written: an inert all-zero image (decodes as an empty node).
    std::memset(buf, 0, kPageSize);
    return Status::OK();
  }
  size_t got = 0;
  Status s = PreadAll(data_fd_, buf, kPageSize, SlotOffset(slot), &got);
  if (!s.ok()) return s;
  if (got < kPageSize) {
    return Status::DataLoss("page image truncated");
  }
  const uint32_t computed = Crc32(buf, kPageSize);
  if (computed != crc) {
    return Status::DataLoss(
        "page checksum mismatch: page " + std::to_string(id) + " slot " +
        std::to_string(slot) + ", stored " + Hex32(crc) + ", computed " +
        Hex32(computed));
  }
  return Status::OK();
}

Status FileStore::WritePage(PageId id, const void* buf) {
  uint32_t slot;
  bool taken = false;  // slot came out of the free set for this write
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (id >= slots_.size()) slots_.resize(id + size_t{1});
    slot = slots_[id].pending;  // re-stage into the same shadow slot
    if (slot == kNoSlot) {
      slot = TakeSlotLocked();
      taken = true;
    }
  }
  const FaultOutcome f = FaultInjector::TrapsArmed()
                             ? FaultInjector::Instance().Evaluate("store-write")
                             : FaultOutcome();
  if (f.crash) {
    // Power cut mid-write: one sector of the new image lands, then death.
    // The torn bytes live in a slot no committed manifest names, which is
    // the property the crash harness exists to verify.
    (void)PwriteAll(data_fd_, buf, kTornWriteBytes, SlotOffset(slot));
    std::_Exit(kCrashExitCode);
  }
  Status s = f.inject_error
                 ? Status::Unavailable("injected store-write failure")
                 : PwriteAll(data_fd_, buf, kPageSize, SlotOffset(slot));
  const uint32_t crc = s.ok() ? Crc32(buf, kPageSize) : 0;
  std::lock_guard<std::mutex> lk(mu_);
  if (!s.ok()) {
    if (taken) FreeSlotLocked(slot);
    return s;
  }
  SlotEntry& e = slots_[id];
  if (e.pending == kNoSlot) pending_ids_.push_back(id);
  e.pending = slot;
  e.pending_crc = crc;
  return Status::OK();
}

Status FileStore::PublishManifestLocked(const StoreMeta& meta) {
  std::string blob;
  blob.reserve(64 + 12 * slots_.size() + 4 * meta.free_pages.size());
  Put64(&blob, kManifestMagic);
  Put32(&blob, kManifestVersion);
  Put64(&blob, meta.checkpoint_epoch);
  Put32(&blob, meta.next_fresh);
  Put64(&blob, meta.tree_size);
  Put64(&blob, meta.max_key);
  Put32(&blob, static_cast<uint32_t>(meta.leftmost.size()));
  for (PageId id : meta.leftmost) Put32(&blob, id);
  Put32(&blob, static_cast<uint32_t>(meta.free_pages.size()));
  for (PageId id : meta.free_pages) Put32(&blob, id);
  uint32_t count = 0;
  for (const SlotEntry& e : slots_) count += e.live() != kNoSlot;
  Put32(&blob, count);
  for (PageId id = 0; id < slots_.size(); ++id) {
    const SlotEntry& e = slots_[id];
    if (e.live() == kNoSlot) continue;
    Put32(&blob, id);
    Put32(&blob, e.live());
    Put32(&blob, e.live_crc());
  }
  Put32(&blob, Crc32(blob.data(), blob.size()));

  const std::string tmp_path = dir_ + "/" + kManifestTmpName;
  const std::string final_path = dir_ + "/" + kManifestName;
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable(std::string("open ") + tmp_path + ": " +
                               std::strerror(errno));
  }
  Status s = PwriteAll(fd, blob.data(), blob.size(), 0);
  if (s.ok() && ::fsync(fd) != 0) {
    s = Status::Unavailable(std::string("fsync manifest: ") +
                            std::strerror(errno));
  }
  ::close(fd);
  if (!s.ok()) return s;

  // The tmp manifest is durable; the rename below is the commit point.
  const FaultOutcome f =
      FaultInjector::TrapsArmed()
          ? FaultInjector::Instance().Evaluate("manifest-rename")
          : FaultOutcome();
  if (f.crash) std::_Exit(kCrashExitCode);
  if (f.inject_error) {
    return Status::Unavailable("injected manifest-rename failure");
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Unavailable(std::string("rename manifest: ") +
                               std::strerror(errno));
  }
  if (::fsync(dir_fd_) != 0) {
    return Status::Unavailable(std::string("fsync dir: ") +
                               std::strerror(errno));
  }
  return Status::OK();
}

Status FileStore::Commit(StoreMeta* meta) {
  std::lock_guard<std::mutex> lk(mu_);

  const FaultOutcome f = FaultInjector::TrapsArmed()
                             ? FaultInjector::Instance().Evaluate("store-fsync")
                             : FaultOutcome();
  if (f.crash) std::_Exit(kCrashExitCode);
  if (f.inject_error) {
    return Status::Unavailable("injected store-fsync failure");
  }
  if (::fsync(data_fd_) != 0) {
    return Status::Unavailable(std::string("fsync pages.dat: ") +
                               std::strerror(errno));
  }

  meta->checkpoint_epoch = committed_epoch_ + 1;
  Status s = PublishManifestLocked(*meta);
  if (!s.ok()) return s;

  // The new manifest is durable, so the slots only the old one named
  // are free from here on.
  for (PageId id : pending_ids_) {
    SlotEntry& e = slots_[id];
    if (e.committed != kNoSlot) FreeSlotLocked(e.committed);
    e.committed = e.pending;
    e.committed_crc = e.pending_crc;
    e.pending = kNoSlot;
  }
  pending_ids_.clear();
  committed_epoch_ = meta->checkpoint_epoch;
  has_checkpoint_ = true;

  // The checkpoint is durable from here; this site exists so the crash
  // harness can verify that a post-commit death recovers the NEW epoch.
  const FaultOutcome g =
      FaultInjector::TrapsArmed()
          ? FaultInjector::Instance().Evaluate("checkpoint-commit")
          : FaultOutcome();
  if (g.crash) std::_Exit(kCrashExitCode);
  return Status::OK();
}

}  // namespace obtree
