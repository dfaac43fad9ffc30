// One-sided (RMA) communication (§II-D, §IV-F).
//
// Models MPI-3 passive-target RMA over RDMA-capable hardware: put/get move
// data directly into/out of the target rank's exposed memory with *no
// target-side involvement and no matching* — which is exactly why the paper
// finds RMA scales with threads once each thread has its own CRI.
//
// Completion model: an operation performs its data movement at initiation
// (the simulated NIC is the calling thread) and posts a completion event to
// the initiating CRI's completion queue; `flush*` drains CQs until the
// window's pending-operation count returns to zero. Draining is the progress
// engine's own-instance-first pass (ProgressEngine::own_first_pass, Alg. 2)
// in either progress mode: the caller's own instance first, the others only
// while its own yields nothing, each batch dispatched after the instance
// lock is released. As in Open MPI's btl-level flush this is independent of
// the two-sided progress design, which is why the paper sees little
// difference between serial and concurrent progress for RMA.
//
// Synchronization: flush orders RMA completion; making the *results* visible
// to another thread still requires a happens-before edge (barrier, message,
// or atomic flag), as with real MPI_Win_flush + MPI_Win_sync usage.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"

namespace fairmpi::rma {

class WindowGroup;

/// One rank's view of a window group: its exposed region plus the ability
/// to initiate RMA to every rank's region.
class Window {
 public:
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  /// Remote write: copy `n` bytes from `src` into `target`'s region at
  /// byte displacement `disp`. Completes (for flush purposes) when the
  /// completion is drained from the initiating CRI's CQ.
  ///
  /// ft: an operation targeting a confirmed-dead rank fails fast — no data
  /// movement, no pending-count increment (so flush never waits on it), a
  /// typed kPeerFailed through the initiating rank's error sink instead.
  void put(int target, std::size_t disp, const void* src, std::size_t n);

  /// Remote read into `dst`. Same ft fail-fast contract as put(): `dst` is
  /// left untouched when the target is confirmed dead.
  void get(int target, std::size_t disp, void* dst, std::size_t n);

  /// Remote atomic add on an aligned uint64_t at `disp`.
  void accumulate_add_u64(int target, std::size_t disp, std::uint64_t operand);

  /// Remote atomic fetch-and-add; the old value is returned immediately
  /// (synchronous flavour of MPI_Fetch_and_op). Returns 0 (and reports
  /// kPeerFailed, performing no add) when the target is confirmed dead.
  std::uint64_t fetch_add_u64(int target, std::size_t disp, std::uint64_t operand);

  /// Complete the *calling thread's* outstanding operations through this
  /// window (all targets — fairmpi tracks per-thread, not per-target).
  /// This matches btl-level flush behaviour under dedicated instance
  /// binding and avoids cross-thread starvation: a thread's flush never
  /// waits on another thread's still-in-flight round. For strict
  /// process-wide MPI_Win_flush semantics use flush_process().
  void flush(int target);
  void flush_all();

  /// Complete ALL threads' outstanding operations (strict MPI_Win_flush
  /// scope). Used by unlock_all() and fence(), where epoch semantics
  /// demand it.
  void flush_process();

  /// Passive-target epoch bookkeeping (no queuing semantics needed in this
  /// engine; provided for API compatibility and assertion checking).
  void lock_all() noexcept;
  void unlock_all();

  /// Passive-target per-target lock (MPI_Win_lock semantics): kExclusive
  /// serializes against every other locker of `target`'s window; kShared
  /// admits concurrent shared holders. unlock() flushes first, so remote
  /// completion is guaranteed on return (as MPI requires).
  enum class LockKind { kExclusive, kShared };
  void lock(LockKind kind, int target);
  void unlock(int target);

  /// Active-target fence (MPI_Win_fence): completes all outstanding
  /// operations of every rank and synchronizes all ranks of the window
  /// group. Collective — exactly one thread per rank must call it.
  ///
  /// ft: a participant confirmed dead can never arrive, so a survivor's
  /// spin escapes with a typed kPeerFailed instead of hanging. The barrier
  /// is then broken for good — rebuild the window group after recovery.
  void fence();

  /// fence() with a typed outcome and deadline enforcement (§5h): when
  /// Config::op_deadline_ns is nonzero the arrival spin gives up after
  /// that long and returns kDeadlineExceeded (also reported through the
  /// error sink). A deadline-abandoned fence leaves the barrier broken,
  /// exactly like the ft escape — rebuild the window group.
  common::ErrorCode fence_checked();

  void* base() const noexcept { return base_; }
  std::size_t size() const noexcept { return bytes_; }
  /// Outstanding operations across all threads (diagnostics).
  std::uint64_t pending() const;

 private:
  friend class WindowGroup;
  Window(WindowGroup& group, Rank& rank, void* base, std::size_t bytes);

  /// One thread's outstanding-operation counter, on its own cache line so
  /// concurrent initiators never ping-pong on completion accounting.
  struct PendingSlot {
    Padded<std::atomic<std::uint64_t>> count{};
  };
  /// The calling thread's slot (created on first use, sticky thereafter).
  PendingSlot& thread_slot();
  /// Post one completion to `inst`'s CQ, draining inline if the CQ is full.
  void post_completion(cri::CommResourceInstance& inst);

  /// ft fail-fast gate shared by every initiating op: true when `target`
  /// is confirmed dead, after counting the failed op and reporting a typed
  /// kPeerFailed (imm = the window's global key) through the rank's sink.
  bool fail_if_dead(int target);

  RankedLock<Spinlock>& accumulate_lock(std::size_t disp) noexcept {
    return acc_locks_[(disp / kCacheLine) % acc_locks_.size()];
  }

  /// Build the stripe-lock array: RankedLock is neither copyable nor
  /// movable, so each element is constructed in place via guaranteed
  /// elision from a prvalue.
  template <std::size_t... I>
  static std::array<RankedLock<Spinlock>, sizeof...(I)> make_acc_locks(
      std::index_sequence<I...>) {
    return {{((void)I, RankedLock<Spinlock>{LockRank::kRmaAccumulate, "rma.accumulate"})...}};
  }

  static constexpr std::size_t kAccStripes = 16;

  WindowGroup* group_;
  Rank* rank_;
  void* base_;
  std::size_t bytes_;
  /// Per-thread pending slots; the spinlock guards the vector only (slot
  /// counters are accessed lock-free through stable pointers). Acquired
  /// under the CRI instance lock on the completion path, hence the rank.
  mutable RankedLock<Spinlock> slots_lock_{LockRank::kRmaSlots, "rma.slots"};
  std::vector<std::unique_ptr<PendingSlot>> slots_ FAIRMPI_GUARDED_BY(slots_lock_);
  const std::uint64_t window_key_;
  std::atomic<bool> epoch_open_{false};
  /// Stripe locks serializing accumulates on this (target) window.
  std::array<RankedLock<Spinlock>, kAccStripes> acc_locks_ =
      make_acc_locks(std::make_index_sequence<kAccStripes>{});
  /// Reader/writer state for passive-target lock/unlock *of this window as
  /// a target*: -1 = exclusive holder, 0 = free, >0 = shared holders.
  std::atomic<int> target_lock_{0};
};

/// A collectively-created set of windows, one per rank (MPI_Win_create).
class WindowGroup {
 public:
  struct Region {
    void* base = nullptr;
    std::size_t bytes = 0;
  };

  /// `regions[r]` is the memory rank r exposes. Must have one entry per
  /// rank of the universe.
  WindowGroup(Universe& universe, const std::vector<Region>& regions);

  WindowGroup(const WindowGroup&) = delete;
  WindowGroup& operator=(const WindowGroup&) = delete;

  Window& window(int rank) { return *windows_[static_cast<std::size_t>(rank)]; }
  int num_ranks() const noexcept { return static_cast<int>(windows_.size()); }

 private:
  friend class Window;
  /// One fence round: arrive, spin until everyone has arrived. Sense-
  /// reversing so the barrier is reusable. Returns false when the spin
  /// escaped because `self`'s detector confirmed a participant dead (the
  /// caller reports the typed error; the barrier is broken thereafter).
  common::ErrorCode fence_arrive(Rank& self, std::uint64_t deadline_ns);

  std::vector<std::unique_ptr<Window>> windows_;
  std::atomic<int> fence_arrived_{0};
  std::atomic<int> fence_generation_{0};
};

}  // namespace fairmpi::rma
