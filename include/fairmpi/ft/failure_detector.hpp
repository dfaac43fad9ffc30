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
// structurally valid inbound packet marks its source heard — plus
// explicit Opcode::kHeartbeat probes injected toward every live peer on a
// sender-side cadence (one per heartbeat interval per link), so an
// idle-but-alive peer never trips the silence threshold. The cadence is
// deliberately NOT gated on inbound silence: receive-gated probing
// deadlocks symmetric idleness (A's probes keep B's inbound silence low,
// so B never probes back and A confirms a live peer dead). Suspicion and
// confirmation are driven from the owning rank's timed-work runner
// (Rank::progress -> Rank::run_timed_work -> poll()); death is confirmed after
// `strikes` unanswered probe rounds beyond the suspicion threshold and is
// permanent, matching the fault injector's permanent link-down kill mode.
//
// Determinism: the injector kills at a packet *index*, and confirmation
// only requires sustained silence, so a killed rank is always eventually
// confirmed dead — the detector's outcome is deterministic even though the
// wall-clock detection latency is not (it is recorded in a histogram for
// dump_observability()).
//
// Concurrency: the detector has no lock. note_alive sets its source's
// "heard" flag (no clock read; it runs on the packet dispatch path, with no
// engine lock held). poll() has one caller at a time — the owning rank's
// timed-work runner, under its runner claim — and owns every timing field
// as plain data: each sweep exchanges the flags, stamps the peers it finds
// heard with its own `now`, and classifies. Each peer's state is one
// atomic, so is_dead()/state() and the suspect hint are lock-free reads for
// the send paths, the watchdog, survivors() and dump_observability().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "fairmpi/common/align.hpp"
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

  /// Note that `peer` was heard (any structurally valid inbound packet).
  /// One relaxed store: no clock read and no lock. The next sweep credits
  /// the contact at its own time.
  void note_alive(int peer) noexcept {
    cells_[static_cast<std::size_t>(peer)].value.heard.store(true, std::memory_order_relaxed);
  }

  /// Current state of one peer. Lock-free.
  PeerState state(int peer) const noexcept {
    return cells_[static_cast<std::size_t>(peer)].value.state.load(std::memory_order_acquire);
  }

  /// True once `peer` is confirmed dead (terminal). Lock-free; the send
  /// paths use this as their fail-fast gate.
  bool is_dead(int peer) const noexcept { return state(peer) == PeerState::kDead; }

  /// One detection sweep. Not thread-safe: the owning rank's timed-work
  /// runner is its one caller at a time. Classifies only: live peers whose
  /// link has not been probed for a heartbeat interval land in `probes`
  /// (the caller injects Opcode::kHeartbeat toward them), peers whose
  /// suspicion just ran out of strikes land in `newly_dead` (the caller runs
  /// failure propagation). Both vectors are appended to, not cleared.
  /// Silence is counted from the sweep that last found the peer heard, and
  /// a never-heard peer is baselined at its first sweep instead of
  /// suspected. `now_ns` must be > 0. Returns the next due time: half the
  /// probe interval out, so a strike round is never skipped wholesale by
  /// aliasing.
  std::uint64_t poll(std::uint64_t now_ns, std::vector<int>& probes,
                     std::vector<int>& newly_dead);

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

 private:
  /// Shared per-peer state, padded: every dispatching thread may set its
  /// source's flag, and the send paths read the state.
  struct Cell {
    std::atomic<bool> heard{false};  ///< set by note_alive, cleared by poll
    std::atomic<PeerState> state{PeerState::kAlive};  ///< written by poll only
  };
  /// Per-peer timing, owned by poll() (plain data: one caller at a time).
  struct Timing {
    std::uint64_t last_heard_ns = 0;  ///< 0 = not yet baselined
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
  std::vector<Timing> timing_;
  std::atomic<int> suspect_hint_{-1};
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> lat_hist_{};
};

}  // namespace fairmpi::ft
