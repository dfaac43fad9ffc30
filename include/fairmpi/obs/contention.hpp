// Lock-contention profiler (observability layer; DESIGN.md §5d).
//
// Table II explains Fig. 3 by *attributing* time: out-of-sequence counts and
// matching time name the mechanism behind the rate curves. The same question
// recurs for every lock in the engine — "which lock class is the engine
// actually waiting on?" — and aggregate SPCs cannot answer it (they count
// one CRI wait metric, attributed to nothing). This profiler attributes
// acquire-wait cycles and try-lock failures to *lock classes* — the same
// (lock rank, name) identity the lock-rank validator uses — so a multirate
// run can report, e.g., that 80% of blocked time sits on `cri.instance`
// under serial progress and migrates to `match.engine` once CRIs are
// replicated.
//
// Design:
//   * process-global registry of lock classes (RankedLock instances cache
//     their interned id, so steady state never re-interns);
//   * four cells per class (acquires, contended, wait cycles, try-lock
//     fails) in the per-thread counter store (common/sharded_cells.hpp),
//     so a lock operation bumps only the calling thread's block;
//     contention_snapshot() sums across blocks. Counts are lifetime
//     totals: a caller wanting one phase subtracts an earlier snapshot;
//   * wait time is measured in TSC cycles (common/timing.hpp CycleClock)
//     and converted to ns only when a snapshot is rendered.
//
// Disabled-cost policy: everything is gated on one process-global relaxed
// load (enabled()). RankedLock's fast paths test it before touching any
// profiler state, so with FAIRMPI_OBS unset the engine pays one predicted-
// not-taken branch per lock operation — benchmarked at noise level by
// BM_RankedLockObs{Off,On} in bench_ablation_locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fairmpi::obs {

/// Master switch for the observability layer (lock-contention profiling and
/// per-CRI utilization). Off by default; Universe flips it on when
/// Config::obs_enabled (cvar `obs`, env FAIRMPI_OBS=1) is set. Process-
/// global and sticky by design: lock classes are process-global (RankedLock
/// exists below any Universe), so the profile is too.
namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

inline bool enabled() noexcept {
  // lint: allow(relaxed-sync) pure on/off gate; profiler cells are
  // independently synchronized (atomics) and tolerate a stale epoch.
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// Upper bound on distinct lock classes (the engine uses ~12; tests mint a
/// few more). Interning past the cap returns kNoContentionClass and those
/// locks simply go unprofiled — never an abort, observability must not take
/// the engine down.
inline constexpr int kMaxContentionClasses = 64;
inline constexpr std::uint16_t kNoContentionClass = 0xFFFF;

/// Intern a lock class by (lock rank, name). Repeated interning of the same
/// pair returns the same id. Cheap but not free (linear scan under a lock)
/// — callers cache the id (RankedLock does).
std::uint16_t intern_contention_class(std::uint16_t rank, const char* name) noexcept;

// --- hot-path hooks (call only when enabled(); cls may be
//     kNoContentionClass, in which case the call is a no-op) ---

/// A successful acquisition that never waited (a lock() whose first probe
/// succeeded, or a successful try_lock()).
void note_uncontended_acquire(std::uint16_t cls) noexcept;
/// A blocking lock() that had to wait `wait_cycles` TSC cycles.
void note_contended_acquire(std::uint16_t cls, std::uint64_t wait_cycles) noexcept;
/// A failed try_lock() probe (Algorithm 2's skip).
void note_trylock_fail(std::uint16_t cls) noexcept;

// --- reporting (off-path) ---

/// Per-class totals at a point in time. wait_ns is already converted from
/// cycles.
struct ClassContention {
  std::string name;
  std::uint16_t rank = 0;           ///< the class's LockRank, not an MPI rank
  std::uint64_t acquires = 0;       ///< successful acquisitions, total
  std::uint64_t contended = 0;      ///< ... of which had to wait
  std::uint64_t wait_ns = 0;        ///< total blocked time
  std::uint64_t trylock_fails = 0;  ///< failed try_lock probes
};

/// Lifetime totals over all threads for every interned class, in intern
/// order. Classes with no recorded activity are included (all-zero rows),
/// so reports can distinguish "never contended" from "not instrumented".
std::vector<ClassContention> contention_snapshot();

}  // namespace fairmpi::obs
