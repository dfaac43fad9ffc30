// The progress engine (§II-B, §III-E, Algorithm 2).
//
// Two designs, selectable at runtime:
//
//   * kSerial — the traditional Open MPI scheme: a single thread at a time
//     may progress communications. A thread that finds the engine busy
//     returns immediately (as opal_progress does under THREAD_MULTIPLE);
//     the holder sweeps every CRI. Message extraction is limited to the
//     power of one thread.
//
//   * kConcurrent — Algorithm 2: every thread may progress. A thread
//     try-locks its *own* instance first (per the pool's assignment
//     policy); only when that instance yields no completions does it sweep
//     the others in `own + 1, own + 2, ...` order, which both avoids
//     convoying and guarantees that orphaned instances (e.g. whose
//     dedicated thread exited) are still progressed eventually. The RMA
//     flush runs the same pass in either mode (own_first_pass).
//
// Lock-scope discipline: every instance visit — serial, concurrent or
// flush — is one step (visit): acquire the CRI lock, pop the CQ and RX ring
// into a stack batch, release, then hand the batch to the sink (matching,
// completion owners). No packet is dispatched while an instance lock is
// held, so the lock covers only ring pops — a few hundred ns for a full
// batch — instead of the whole matching pipeline. The one completion
// dispatched under an instance lock is outside the engine: an RMA op that
// finds its CQ full harvests one event inline through
// Rank::handle_completion while it holds the lock (Window::post_completion).
// The batch itself is built once per call before any instance lock is
// taken. Dispatch order within a batch is preserved (completions first,
// packets in arrival order); cross-batch interleaving with other progress
// threads is exactly as arbitrary as the fabric already is, and the
// matching engine's sequence validation owns ordering correctness.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/cri/cri.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi::progress {

enum class ProgressMode {
  kSerial,
  kConcurrent,
};

const char* progress_mode_name(ProgressMode m) noexcept;

/// Where extracted traffic goes: implemented by core::Rank, which dispatches
/// packets to the matching engine and completions to their owners.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// Handle one incoming packet; returns number of user-visible completions.
  virtual std::size_t handle_packet(fabric::Packet&& pkt) = 0;
  /// Handle one completion-queue event; returns completions (usually 1).
  virtual std::size_t handle_completion(const fabric::Completion& c) = 0;
};

class ProgressEngine {
 public:
  /// @param batch  max packets drained from one RX ring per visit, bounding
  ///               lock hold time.
  /// @param tracer optional event ring: non-empty drains are recorded as
  ///               kCriDrain (a = instance id, b = batch size) so exported
  ///               traces get one lane per CRI.
  ProgressEngine(cri::CriPool& pool, PacketSink& sink, ProgressMode mode,
                 spc::CounterSet& counters, int batch = 64,
                 trace::Tracer* tracer = nullptr);

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  ProgressMode mode() const noexcept { return mode_; }

  /// One progress call. Returns the number of completions harvested
  /// (0 does not imply quiescence — the engine may have been busy).
  std::size_t progress();

  /// What own_first_pass does when every instance's try-lock fails.
  enum class WhenAllBusy {
    kReturn,     ///< return 0 (concurrent progress: the caller loops)
    kBlockOnOwn, ///< count kRmaFlushAllBusy, then block (timed, charged to
                 ///< kInstanceLockWaitNs) on the calling thread's own
                 ///< instance and visit it (the RMA flush)
  };

  /// Algorithm 2's pass: try-lock the calling thread's own instance and
  /// visit it; sweep the others only while the pass has yielded nothing.
  /// Each failed try-lock counts kInstanceTrylockFail, and a miss on the
  /// own instance also its utilization's own-trylock miss. Concurrent
  /// progress() is this pass with kReturn; the RMA flush calls it with
  /// kBlockOnOwn in either progress mode. Returns completions harvested;
  /// does not count kProgressCalls.
  std::size_t own_first_pass(WhenAllBusy when_all_busy);

  /// Hard cap on one drain batch (the stack buffer size); `batch` is
  /// clamped to it. A Rank's engine drains full batches.
  static constexpr std::size_t kMaxDrainBatch = 64;

 private:
  /// One instance visit's haul, staged on the caller's stack so dispatch
  /// can happen after the instance lock is dropped. Built once per call,
  /// before any instance lock, and reused by each of the call's visits.
  struct DrainBatch {
    std::array<fabric::Completion, kMaxDrainBatch> comps;
    std::array<fabric::Packet, kMaxDrainBatch> pkts;
    std::size_t n_comps = 0;
    std::size_t n_pkts = 0;
  };

  /// How visit() acquires the instance lock.
  enum class Acquire {
    kTry,    ///< try_lock; a held lock is a miss, not a wait
    kBlock,  ///< blocking acquire (serial progress, under its gate)
    kTimed,  ///< CommResourceInstance::lock_timed (all-busy flush)
  };
  /// visit()'s result when an Acquire::kTry finds the lock held.
  static constexpr std::size_t kBusy = ~std::size_t{0};

  /// The one instance visit: acquire `inst`'s lock as `how` says, pop a
  /// batch into `b`, release, note the drain, dispatch. Returns the
  /// completions dispatched, or kBusy after counting a failed try-lock
  /// (and, unless `sweep`, the instance's own-trylock miss).
  std::size_t visit(cri::CommResourceInstance& inst, DrainBatch& b, Acquire how,
                    bool sweep);
  /// Pop up to a batch of completions + packets. Instance lock held.
  void drain_locked(cri::CommResourceInstance& inst, DrainBatch& b)
      FAIRMPI_REQUIRES(inst.lock());
  /// Observability bookkeeping for one finished drain visit (lock already
  /// released): per-instance counters + the kCriDrain trace event.
  void note_drain(cri::CommResourceInstance& inst, const DrainBatch& b, bool sweep);
  /// Hand a drained batch to the sink; returns completions. No instance
  /// lock held (the sink takes the match lock itself).
  std::size_t dispatch(DrainBatch& b);

  std::size_t progress_serial();

  cri::CriPool& pool_;
  PacketSink& sink_;
  const ProgressMode mode_;
  spc::CounterSet& spc_;
  const int batch_;
  trace::Tracer* tracer_;
  /// Guard for the serial design; try-lock only, FIFO irrelevant since
  /// non-holders bail out. Lowest rank in the hierarchy: instance and
  /// match locks are acquired under it, never the reverse.
  RankedLock<Spinlock> serial_gate_{LockRank::kProgressGate, "progress.serial-gate"};
};

}  // namespace fairmpi::progress
