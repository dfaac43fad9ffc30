// Lock-rank / lock-order runtime validator (correctness tooling; DESIGN.md
// "Correctness tooling").
//
// Every lock in the engine belongs to a *class* — a (rank, name) pair — and
// all acquisitions go through RankedLock<T>, which forwards to the wrapped
// primitive and, when FAIRMPI_LOCKCHECK is enabled, maintains a thread-local
// held-lock stack plus a global acquisition-order graph:
//
//   * rank rule — a *blocking* lock() must target a rank strictly greater
//     than every rank already held (equal rank is tolerated across distinct
//     classes, see below; equal rank on the same class is a self-deadlock
//     and reported). The engine's hierarchy is
//
//         progress gate (10) < CRI instance (20) < match (30)
//                            < RMA accumulate (40)
//                            < RMA slots (45) < rndv state (50)
//                            < rndv control (55) < comm create (60)
//
//   * cycle rule — blocking acquisitions record directed edges
//     held-class -> acquired-class; an acquisition that would close a cycle
//     (e.g. A->B established, then B held while blocking on A) is reported
//     naming both classes and both acquisition sites. This catches
//     inversions between same-rank classes that the rank rule tolerates.
//
//   * try_lock() is exempt from both rules: a try-lock cannot block, so it
//     cannot deadlock, and Algorithm 2's sweep *depends* on being allowed to
//     try-lock same-rank sibling instances. A successful try_lock is pushed
//     on the held stack (so locks acquired under it are still validated);
//     a FAILED try_lock touches neither the lock nor any validator state —
//     the sweep's correctness requires failure to be entirely effect-free.
//
// RankedLock is also the attachment point for the lock-contention profiler
// (obs/contention.hpp): every class the validator knows is a class the
// profiler can attribute wait time to, using the same (rank, name) identity.
// Profiling is gated on obs::enabled() — one relaxed load and a predicted-
// not-taken branch per lock op when off (benchmarked by BM_RankedLockObs* in
// bench_ablation_locks) — so RankedLock<T> stays a near-zero-cost wrapper
// with FAIRMPI_LOCKCHECK=0 and FAIRMPI_OBS unset. The wrapper does carry the
// class identity (rank, name, cached profiler id) in both build modes now;
// that is data, not per-operation code.
#pragma once

#include <cstdint>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/obs/contention.hpp"

#ifndef FAIRMPI_LOCKCHECK
#define FAIRMPI_LOCKCHECK 0
#endif

#if FAIRMPI_LOCKCHECK
#include <source_location>
#endif

namespace fairmpi::debug {

/// Lock ranks, lowest acquired first. Gaps are deliberate: future classes
/// slot in without renumbering. Tests may mint private ranks >= kTestBase.
enum class LockRank : std::uint16_t {
  kProgressGate = 10,   ///< progress::ProgressEngine serial gate
  kCriInstance = 20,    ///< cri::CommResourceInstance lock
  kMatch = 30,          ///< match::MatchEngine per-communicator lock
  kRmaAccumulate = 40,  ///< rma::Window accumulate stripe locks
  kRmaSlots = 45,       ///< rma::Window pending-slot vector lock
  kReliability = 47,    ///< p2p::ReliabilityTracker in-flight table
  kRndvState = 50,      ///< core::Rank rendezvous registries (rndv_lock_)
  kRndvControl = 55,    ///< core::Rank deferred control queue (control_lock_)
  kCommCreate = 60,     ///< core::Universe communicator creation
  kFaultInject = 65,    ///< fabric::FaultInjector per-link state (held only
                        ///< across one injection; acquires only the payload
                        ///< pool, rank 70, for duplication)
  kSlabPool = 70,       ///< common::SlabArena global freelist (leaf: a pool
                        ///< refill/flush may run under any engine lock, so it
                        ///< must rank above all of them and acquire nothing)
  kTestBase = 1000,     ///< first rank available to unit tests
};

#if FAIRMPI_LOCKCHECK

/// One lock class: all locks sharing a (rank, name) are validated together.
struct LockClass {
  const char* name;
  LockRank rank;
  std::uint32_t id;  ///< index into the order graph
};

/// A rule violation, handed to the installed handler before (by default)
/// aborting. `report` is a complete human-readable description naming both
/// lock classes and both acquisition sites.
struct Violation {
  enum class Kind : std::uint8_t { kRankOrder, kCycle, kOverflow };
  Kind kind;
  const LockClass* attempted;    ///< class being acquired
  const LockClass* conflicting;  ///< held class it conflicts with (may be null)
  char report[1024];
};

using ViolationHandler = void (*)(const Violation&);

/// Install a handler (tests use this to capture reports instead of
/// aborting). Passing nullptr restores the default print-and-abort handler.
/// Returns the previous handler.
ViolationHandler set_violation_handler(ViolationHandler handler) noexcept;

/// Intern a lock class. Classes are identified by (rank, name string value);
/// repeated interning returns the same pointer. At most kMaxLockClasses
/// distinct classes may exist (aborts beyond that — raise the cap).
const LockClass* intern_lock_class(LockRank rank, const char* name);

inline constexpr int kMaxLockClasses = 64;
inline constexpr int kMaxHeldLocks = 16;

/// Rank + cycle validation for a *blocking* acquisition of `cls`. Call
/// before the underlying lock() so deadlocks are reported instead of hung.
void check_blocking_acquire(const LockClass* cls, const void* addr,
                            const std::source_location& loc);
/// Push an acquired lock (blocking or successful try_lock) on the held
/// stack. Failed try_locks must NOT call this.
void note_acquired(const LockClass* cls, const void* addr,
                   const std::source_location& loc);
/// Pop a released lock (out-of-order release is tolerated).
void note_released(const void* addr) noexcept;

/// Number of locks the calling thread currently holds (test hook).
int held_count() noexcept;
/// Reset the calling thread's held stack and the global order graph —
/// test isolation only, never called by the engine.
void reset_for_test() noexcept;

#endif  // FAIRMPI_LOCKCHECK

/// Ranked wrapper: the only way engine code should declare a lock. `LockT`
/// must be Lockable (lock / try_lock / unlock). The wrapper is itself
/// Lockable, so fairmpi::LockGuard / std::unique_lock work unchanged.
///
/// RankedLock is also a thread-safety capability in its own right: engine
/// state is declared FAIRMPI_GUARDED_BY the *wrapper*, not the wrapped
/// primitive, so one annotation covers all three build modes (plain,
/// FAIRMPI_LOCKCHECK, FAIRMPI_OBS). The forwarding shims carry interface
/// annotations for callers but suppress body analysis (FAIRMPI_NO_TSA):
/// the body's job is to manipulate `impl_` — a second capability the
/// analysis must not conflate with the wrapper. This is the standard
/// wrapper-primitive idiom; this header is lint-exempt, and the
/// no-tsa-hotpath lint rule keeps the escape hatch from spreading into
/// engine code.
template <typename LockT>
class FAIRMPI_CAPABILITY("mutex") RankedLock {
 public:
#if FAIRMPI_LOCKCHECK
  RankedLock(LockRank rank, const char* name)
      : rank_(rank), name_(name), cls_(intern_lock_class(rank, name)) {}
  RankedLock(const RankedLock&) = delete;
  RankedLock& operator=(const RankedLock&) = delete;

  void lock(const std::source_location& loc = std::source_location::current())
      FAIRMPI_ACQUIRE() FAIRMPI_NO_TSA {
    check_blocking_acquire(cls_, this, loc);
    if (obs::enabled()) [[unlikely]] {
      lock_profiled();
    } else {
      impl_.lock();
    }
    note_acquired(cls_, this, loc);
  }

  bool try_lock(const std::source_location& loc = std::source_location::current())
      FAIRMPI_TRY_ACQUIRE(true) FAIRMPI_NO_TSA {
    // On failure: no acquire, no validator state change (Alg. 2 sweep).
    // Profiler counters are observational, not validator state.
    if (obs::enabled()) [[unlikely]] {
      if (!try_lock_profiled()) return false;
    } else if (!impl_.try_lock()) {
      return false;
    }
    note_acquired(cls_, this, loc);
    return true;
  }

  void unlock() FAIRMPI_RELEASE() FAIRMPI_NO_TSA {
    note_released(this);
    impl_.unlock();
  }

  const LockClass* lock_class() const noexcept { return cls_; }
#else
  constexpr RankedLock(LockRank rank, const char* name) noexcept
      : rank_(rank), name_(name) {}
  RankedLock(const RankedLock&) = delete;
  RankedLock& operator=(const RankedLock&) = delete;

  void lock() FAIRMPI_ACQUIRE() FAIRMPI_NO_TSA {
    if (obs::enabled()) [[unlikely]] {
      lock_profiled();
    } else {
      impl_.lock();
    }
  }
  bool try_lock() FAIRMPI_TRY_ACQUIRE(true) FAIRMPI_NO_TSA {
    if (obs::enabled()) [[unlikely]] return try_lock_profiled();
    return impl_.try_lock();
  }
  void unlock() FAIRMPI_RELEASE() FAIRMPI_NO_TSA { impl_.unlock(); }
#endif

  /// The wrapped primitive, for primitive-specific queries (is_locked()).
  LockT& underlying() noexcept { return impl_; }
  const LockT& underlying() const noexcept { return impl_; }

 private:
  /// Sentinel for "profiler id not interned yet"; distinct from
  /// kNoContentionClass so an over-cap intern result is also cached (and
  /// the lock simply stays unprofiled instead of re-interning per op).
  static constexpr std::uint16_t kObsClsUnset = 0xFFFE;

  std::uint16_t obs_class() const noexcept {
    std::uint16_t c = obs_cls_.load(std::memory_order_relaxed);
    if (c == kObsClsUnset) [[unlikely]] {
      // Racy first intern is benign: interning is idempotent per (rank,
      // name), so concurrent callers cache the same id.
      c = obs::intern_contention_class(static_cast<std::uint16_t>(rank_), name_);
      obs_cls_.store(c, std::memory_order_relaxed);
    }
    return c;
  }

  /// Slow path for lock() with profiling on: probe first so the common
  /// uncontended acquire costs one try_lock, and only a contended acquire
  /// pays for two TSC reads around the blocking wait.
  void lock_profiled() FAIRMPI_NO_TSA {
    const std::uint16_t cls = obs_class();
    if (impl_.try_lock()) {
      obs::note_uncontended_acquire(cls);
      return;
    }
    const std::uint64_t t0 = CycleClock::now();
    impl_.lock();
    obs::note_contended_acquire(cls, CycleClock::now() - t0);
  }

  bool try_lock_profiled() FAIRMPI_NO_TSA {
    const std::uint16_t cls = obs_class();
    if (impl_.try_lock()) {
      obs::note_uncontended_acquire(cls);
      return true;
    }
    obs::note_trylock_fail(cls);
    return false;
  }

  LockT impl_;
  LockRank rank_;
  const char* name_;
  mutable std::atomic<std::uint16_t> obs_cls_{kObsClsUnset};
#if FAIRMPI_LOCKCHECK
  const LockClass* cls_;
#endif
};

}  // namespace fairmpi::debug

namespace fairmpi {
using debug::LockRank;
using debug::RankedLock;
}  // namespace fairmpi
