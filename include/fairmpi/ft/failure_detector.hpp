// Heartbeat-based rank-failure detector (ULFM-inspired; DESIGN.md §5g).
//
// The paper's designs — and PRs 1–7 — assume every rank lives forever: a
// dead peer turns the reliability layer into a retry furnace, blocking
// collectives into hangs, and the watchdog into an oracle that knows
// *something* stalled but not *who*. This detector gives each rank a local,
// typed answer to "is peer p alive?":
//
//   kAlive ──silence ≥ suspect_ns──► kSuspect ──strikes unanswered probe
//     ▲                                 │        rounds──► kDead (terminal)
//     └────────any packet───────────────┘
//
// Liveness evidence is piggybacked on the existing wire traffic — every
// structurally valid inbound packet refreshes its source's epoch — plus
// explicit Opcode::kHeartbeat probes injected toward every live peer on a
// sender-side cadence (one per heartbeat interval per link), so an
// idle-but-alive peer never trips the silence threshold. The cadence is
// deliberately NOT gated on inbound silence: receive-gated probing
// deadlocks symmetric idleness (A's probes keep B's inbound silence low,
// so B never probes back and A confirms a live peer dead). Suspicion and confirmation are driven from the owning
// rank's progress loop (Rank::progress -> poll()); death is confirmed after
// `strikes` unanswered probe rounds beyond the suspicion threshold and is
// permanent, matching the fault injector's permanent link-down kill mode.
//
// Determinism: the injector kills at a packet *index*, and confirmation
// only requires sustained silence, so a killed rank is always eventually
// confirmed dead — the detector's outcome is deterministic even though the
// wall-clock detection latency is not (it is recorded in a histogram for
// dump_observability()).
//
// Lock discipline: note_alive is one relaxed store and takes no lock (it
// runs on the packet dispatch path, after the CRI lock is released).
// poll() try-locks the detector table (rank kFtDetector, 25), *collects*
// probe targets and newly confirmed deaths under it, and returns; the
// caller injects heartbeats and runs failure propagation with no detector
// lock held. is_dead()/suspect hint are lock-free reads for the send paths
// and the watchdog.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi::ft {

/// Detector knobs (cvars ft_heartbeat_ns / ft_suspect_ns / ft_strikes).
struct FtParams {
  /// Probe cadence: every live peer gets an explicit heartbeat once per
  /// interval (sender-side cadence — see the deadlock note above), and
  /// one suspicion strike accrues per unanswered interval.
  std::uint64_t heartbeat_ns = 1'000'000;
  /// Silence past this threshold moves a peer kAlive -> kSuspect.
  std::uint64_t suspect_ns = 5'000'000;
  /// Unanswered probe rounds while suspect before kDead. >= 1.
  int strikes = 3;
};

enum class PeerState : std::uint8_t { kAlive = 0, kSuspect, kDead };

inline const char* peer_state_name(PeerState s) noexcept {
  switch (s) {
    case PeerState::kAlive: return "alive";
    case PeerState::kSuspect: return "suspect";
    case PeerState::kDead: return "dead";
  }
  return "unknown";
}

class FailureDetector {
 public:
  /// Detection-latency histogram: bucket i counts confirmations whose
  /// last-contact-to-confirmation latency was < 2^i milliseconds (last
  /// bucket is the overflow).
  static constexpr int kLatencyBuckets = 8;

  FailureDetector(int num_ranks, int self, const FtParams& params,
                  spc::CounterSet& counters, trace::Tracer& tracer);
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Refresh `peer`'s liveness epoch (any structurally valid inbound
  /// packet). One relaxed store — safe under any engine lock.
  void note_alive(int peer, std::uint64_t now_ns) noexcept {
    cells_[static_cast<std::size_t>(peer)].value.last_heard.store(
        now_ns, std::memory_order_relaxed);
  }

  /// True once `peer` is confirmed dead (terminal). Lock-free; the send
  /// paths use this as their fail-fast gate.
  bool is_dead(int peer) const noexcept {
    return cells_[static_cast<std::size_t>(peer)].value.dead.load(
        std::memory_order_acquire);
  }

  /// One detection sweep, driven by the owning rank's timed-work runner.
  /// Under the table lock this only *classifies*: live peers whose link
  /// has not been probed for a heartbeat interval land in `probes` (the
  /// caller injects Opcode::kHeartbeat toward them), peers whose suspicion just ran out
  /// of strikes land in `newly_dead` (the caller runs failure
  /// propagation). Both vectors are appended to, not cleared. Returns the
  /// next due time: half the probe interval out, so a strike round is never
  /// skipped wholesale by aliasing — or `now_ns` when another thread holds
  /// the sweep, so the runner retries on its next pass.
  std::uint64_t poll(std::uint64_t now_ns, std::vector<int>& probes,
                     std::vector<int>& newly_dead);

  /// Current state of one peer (takes the table lock; obs/test hook).
  PeerState state(int peer) const;

  /// First currently-suspected (or confirmed-dead) peer, -1 when none.
  /// Lock-free; the watchdog reads this to attribute a stall escalation.
  const std::atomic<int>* suspect_hint() const noexcept { return &suspect_hint_; }

  /// Copy of the detection-latency histogram (see kLatencyBuckets).
  std::array<std::uint64_t, kLatencyBuckets> latency_hist() const noexcept {
    std::array<std::uint64_t, kLatencyBuckets> out{};
    for (int i = 0; i < kLatencyBuckets; ++i) {
      out[static_cast<std::size_t>(i)] =
          lat_hist_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    }
    return out;
  }

  const FtParams& params() const noexcept { return params_; }

 private:
  /// Lock-free per-peer hot state: written by note_alive on the packet
  /// path, read by the send paths (dead) and poll. Padded — every
  /// dispatching thread stores into its source's cell.
  struct Cell {
    std::atomic<std::uint64_t> last_heard{0};  ///< 0 = no contact yet
    std::atomic<bool> dead{false};
  };
  /// Cold per-peer classification state, owned by poll() under lock_.
  struct Cold {
    PeerState state = PeerState::kAlive;
    int strikes = 0;
    std::uint64_t last_probe_ns = 0;
    std::uint64_t last_strike_ns = 0;
  };

  const int num_ranks_;
  const int self_;
  const FtParams params_;
  spc::CounterSet& spc_;
  trace::Tracer& tracer_;

  std::vector<Padded<Cell>> cells_;
  mutable RankedLock<Spinlock> lock_{debug::LockRank::kFtDetector, "ft.detector"};
  std::vector<Cold> cold_ FAIRMPI_GUARDED_BY(lock_);
  std::atomic<int> suspect_hint_{-1};
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> lat_hist_{};
};

}  // namespace fairmpi::ft
