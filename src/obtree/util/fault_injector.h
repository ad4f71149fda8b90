// Copyright 2026 The obtree Authors.
//
// Deterministic process-wide fault-injection registry.
//
// A *failpoint site* is a short string naming a place in the code that can
// misbehave ("get", "put", "alloc", "store-write", ...). Sites share the
// naming scheme of the PageManager test hooks: the hook op string IS the
// failpoint site name, so a test can observe and perturb the same program
// point with one vocabulary.
//
// Tests arm a site with a FaultSpec describing *when* it fires (seeded
// probability, every-Nth hit, bounded fire count, optional thread filter)
// and *what* happens (an injected error or a stall). Production code asks
// `Evaluate(site)` at the site; the returned FaultOutcome says whether to
// inject. When nothing is armed anywhere the whole machinery collapses to
// one relaxed atomic load (`TrapsArmed()`), which is also the gate shared
// with the PageManager test hooks.
//
// Determinism: each armed site owns a private xorshift stream seeded from
// FaultSpec::seed, and hit counters are per-site, so a given site fires at
// the same *hit ordinals* across runs. (Which thread reaches a given hit
// ordinal first still depends on the schedule; the stress harness prints
// its seed so a failing schedule can be replayed under the same spec.)
//
// Maintenance and audit code (compressors, TreeChecker, TreeDump,
// recovery) must observe ground truth, not injected chaos: they wrap
// themselves in a ScopedExemption, which suppresses all fault evaluation
// on the current thread for its lifetime.

#ifndef OBTREE_UTIL_FAULT_INJECTOR_H_
#define OBTREE_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obtree/util/common.h"

namespace obtree {

/// What an armed site does when it fires.
enum class FaultAction : unsigned char {
  /// The site reports failure (e.g. PageManager::Get returns
  /// Status::Unavailable, a pool worker exits its loop).
  kError = 0,
  /// The site sleeps for FaultSpec::stall_us microseconds, widening race
  /// windows without failing.
  kStall = 1,
  /// The PROCESS dies at the site (the durability-test "power cut").
  /// Evaluate() reports the fire in FaultOutcome::crash and leaves the
  /// actual death to the call site, so a site can model a torn write
  /// (persist a partial image, then _Exit) rather than just vanish;
  /// sites with nothing to tear call std::_Exit(kCrashExitCode)
  /// immediately. Only meaningful in a child process a test harness can
  /// wait on (see tests/storage/crash_recovery_test.cc).
  kCrash = 2,
};

/// Exit code a kCrash fire terminates the process with, so the parent
/// harness can tell an injected crash from an ordinary test failure.
inline constexpr int kCrashExitCode = 42;

/// Trigger + behavior description for one failpoint site.
struct FaultSpec {
  FaultAction action = FaultAction::kError;

  /// Probability in [0, 1] that an eligible hit fires. Evaluated on the
  /// site's private seeded stream. 1.0 = every eligible hit.
  double probability = 1.0;

  /// If non-zero, fire only on every Nth eligible hit (1st, N+1th, ...).
  /// Composes with `probability` (the dice roll happens on those hits).
  uint64_t every_nth = 0;

  /// Swallow this many eligible hits before the site may fire (they still
  /// count as hits). skip_first = k-1 with max_fires = 1 fires at exactly
  /// the k-th eligible hit — how the crash harness enumerates kill points:
  /// count a fault-free run's hits, then replay, dying at each ordinal.
  uint64_t skip_first = 0;

  /// If non-zero, disarm the site automatically after this many fires
  /// (1 = one-shot).
  uint64_t max_fires = 0;

  /// Stall duration for kStall, in microseconds.
  uint64_t stall_us = 0;

  /// Seed for the site's private PRNG stream.
  uint64_t seed = 0x5eed;

  /// If true, only the thread that called Arm() can trigger the site.
  bool calling_thread_only = false;
};

/// Result of evaluating a site: at most one of the fields is set. Stalls
/// are performed by Evaluate() itself (outside the registry lock);
/// `stall_us` reports how long it slept. A kCrash fire sets `crash`; the
/// call site must then terminate the process (after persisting whatever
/// partial state the scenario calls for).
struct FaultOutcome {
  bool inject_error = false;
  bool crash = false;
  uint64_t stall_us = 0;
};

/// Lifetime counters for one site, for test assertions.
struct FaultSiteStats {
  uint64_t hits = 0;   // eligible evaluations while armed
  uint64_t fires = 0;  // evaluations that injected a fault
};

class FaultInjector {
 public:
  /// The process-wide instance. Never destroyed (intentionally leaked so
  /// that detached/late threads may evaluate sites during shutdown).
  static FaultInjector& Instance();

  /// One relaxed load: true iff any site is armed OR any PageManager test
  /// hook is installed. Hot paths check this before doing anything else.
  static bool TrapsArmed() {
    return trap_refs_.load(std::memory_order_relaxed) != 0;
  }

  /// Contribute to / release the shared trap gate without arming a fault
  /// site. PageManager::SetTestHook uses this so hooks and failpoints
  /// share one hot-path gate.
  static void AddTrapRef() {
    trap_refs_.fetch_add(1, std::memory_order_relaxed);
  }
  static void ReleaseTrapRef() {
    trap_refs_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Arm (or re-arm, replacing the previous spec of) a site.
  void Arm(const std::string& site, const FaultSpec& spec);

  /// Disarm one site. No-op if not armed.
  void Disarm(const std::string& site);

  /// Disarm everything. Tests call this in teardown.
  void DisarmAll();

  /// Evaluate a site. Returns the action to take (if any) and advances the
  /// site's deterministic schedule. `error_eligible` lets a call site that
  /// cannot tolerate an error here (e.g. a page read under a paper lock)
  /// suppress kError outcomes *without* consuming a trigger, so one-shot
  /// and every-Nth schedules stay aligned with the eligible hits.
  FaultOutcome Evaluate(const char* site, bool error_eligible = true);

  /// Counters for a site (zeros if never armed).
  FaultSiteStats SiteStats(const std::string& site) const;

  /// Names of currently armed sites (for diagnostics).
  std::vector<std::string> ArmedSites() const;

  /// True while the current thread is inside a ScopedExemption.
  static bool ThreadExempt() { return tl_exempt_depth_ > 0; }

  /// RAII: suppress all fault evaluation on this thread. Used by
  /// maintenance/audit code that must see ground truth.
  class ScopedExemption {
   public:
    ScopedExemption() { ++tl_exempt_depth_; }
    ~ScopedExemption() { --tl_exempt_depth_; }
    OBTREE_DISALLOW_COPY_AND_ASSIGN(ScopedExemption);
  };

 private:
  FaultInjector() = default;
  ~FaultInjector() = delete;  // never destroyed; see Instance()

  struct Site {
    FaultSpec spec;
    std::thread::id armed_by;
    uint64_t rng_state = 0;
    uint64_t hits = 0;
    uint64_t fires = 0;
    bool exhausted = false;  // max_fires reached; kept for counters
  };

  // xorshift64*: tiny, deterministic, good enough for dice rolls.
  static uint64_t NextRand(uint64_t* state);

  static std::atomic<uint64_t> trap_refs_;
  static thread_local int tl_exempt_depth_;

  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
  // Count of non-exhausted armed sites; mirrors our share of trap_refs_.
  uint64_t armed_count_ = 0;

  OBTREE_DISALLOW_COPY_AND_ASSIGN(FaultInjector);
};

}  // namespace obtree

#endif  // OBTREE_UTIL_FAULT_INJECTOR_H_
