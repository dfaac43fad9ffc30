// Runtime configuration of a fairmpi universe.
//
// Every design axis the paper studies is a knob here, so one binary can
// sweep the whole space: number of CRIs, thread->CRI assignment, progress
// design, and message overtaking.
#pragma once

#include "fairmpi/cri/cri.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/overload/overload.hpp"
#include "fairmpi/progress/progress.hpp"

namespace fairmpi {

struct Config {
  /// Ranks ("MPI processes") in the universe. Thread mode uses 2 ranks with
  /// many threads each; process mode uses 2*N single-threaded ranks.
  int num_ranks = 2;

  /// CRIs per rank (network contexts + endpoints + CQs). The paper's hint
  /// mechanism (MCA parameter / MPI_T cvar) maps to this field.
  int num_instances = 1;

  /// Thread -> CRI assignment policy (Algorithm 1).
  cri::Assignment assignment = cri::Assignment::kDedicated;

  /// Progress-engine design (serial vs Algorithm 2).
  progress::ProgressMode progress_mode = progress::ProgressMode::kSerial;

  /// Skip sequence-number validation (mpi_assert_allow_overtaking, §IV-D).
  /// Applies to every communicator created in this universe.
  bool allow_overtaking = false;

  /// Max packets drained from one RX ring per progress visit.
  int progress_batch = 64;

  /// Largest payload sent eagerly (copied at injection); larger messages
  /// use the rendezvous protocol (RTS/ACK/fragments).
  std::size_t eager_limit = 32 * 1024;

  /// Fragment size for rendezvous data transfer.
  std::size_t rndv_frag_bytes = 64 * 1024;

  /// Per-rank trace-ring capacity (0 = tracing compiled out of the data
  /// path except one relaxed load). Enable at runtime with
  /// Rank::tracer().enable(true).
  std::size_t trace_entries = 0;

  /// Enable tracing from construction (cvar `trace`, env FAIRMPI_TRACE=1).
  /// When set with trace_entries == 0, Universe applies a default ring
  /// capacity so "FAIRMPI_TRACE=1" alone records something exportable.
  bool trace_enabled = false;

  /// Observability layer (lock-contention profiling + per-CRI utilization;
  /// cvar `obs`, env FAIRMPI_OBS=1). Process-global and sticky once a
  /// universe with this set has been constructed.
  bool obs_enabled = false;

  /// Capacity of the communicator table (ids are dense, starting at 0 for
  /// the world communicator).
  int max_communicators = 1024;

  /// Fabric sizing (RX ring / CQ depths).
  fabric::FabricParams fabric{};

  // --- fault injection & reliability (DESIGN.md "Fault model") ---

  /// Per-link fault probabilities; all zero by default (pristine fabric).
  /// Universe auto-enables `reliable` whenever any probability is nonzero.
  fabric::FaultParams faults{};

  /// Ack/retransmit reliability protocol + wire checksums. Off by default:
  /// the pristine fabric needs neither, and the hot path stays untouched.
  bool reliable = false;

  /// Initial retransmit timeout; doubles per retry up to rto_max_ns
  /// (the msgrate backoff idiom), then the send fails typed after
  /// max_retries unacked attempts.
  std::uint64_t rto_ns = 500'000;
  std::uint64_t rto_max_ns = 16'000'000;
  int max_retries = 12;

  /// Send window: max tracked-unacked packets before an eager send blocks
  /// (progressing) until acks drain the backlog. Bounds the retransmit
  /// burst a sweep can emit and makes floods self-clocking; without it a
  /// sender can park thousands of unacked packets against an 8-entry ring
  /// and every sweep becomes a storm. 0 = unbounded.
  std::size_t reliability_window = 64;

  /// EAGAIN retry budget for one injection (eager_send / control sends):
  /// spin-then-yield attempts before the op fails with a typed error
  /// instead of livelocking. Generous: legitimate backpressure resolves in
  /// a few thousand retries even on one core.
  std::uint64_t send_retry_limit = 1'000'000;

  /// Progress-engine watchdog: sweep cadence and the number of consecutive
  /// no-drain sweeps (backlogged instance whose consumption is frozen)
  /// before escalation. watchdog_interval_ns == 0 checks on every
  /// progress() call (tests); UINT64_MAX disables the watchdog.
  std::uint64_t watchdog_interval_ns = 10'000'000;
  int watchdog_stall_sweeps = 5;

  /// Age past which a pending rendezvous transfer is reported stalled.
  std::uint64_t rndv_stall_ns = 1'000'000'000;

  // --- failure tolerance (DESIGN.md §5g) ---

  /// Rank-failure tolerance layer (fairmpi::ft): heartbeat failure
  /// detector, typed kPeerFailed propagation, communicator revoke/shrink.
  /// Off by default — with it off no heartbeat ever flows and the hot path
  /// pays one null-pointer branch. Enabling it forces the fault injector
  /// into the delivery path (its kill_rank peer-death mode is the
  /// detector's counterpart) even with all-zero fault probabilities.
  bool ft_enabled = false;

  /// Failure-detector probe cadence: every live peer gets an explicit
  /// heartbeat once per interval (sender-side cadence), and one suspicion
  /// strike accrues per unanswered interval.
  std::uint64_t ft_heartbeat_ns = 1'000'000;

  /// Silence past this threshold moves a peer alive -> suspect.
  std::uint64_t ft_suspect_ns = 5'000'000;

  /// Unanswered probe rounds while suspect before the peer is confirmed
  /// dead (terminal).
  int ft_strikes = 3;

  // --- overload control & degradation (DESIGN.md §5h) ---

  /// Per-peer unexpected-queue depth cap (0 = unbounded, the historical
  /// behaviour). At cap, `unexpected_policy` decides: kShed drops the
  /// message at admission and NACKs the sender (whose tracked op fails
  /// typed kReceiverOverloaded — requires `reliable`; without it the drop
  /// is silent, exactly like fabric loss); kQueue latches the peer paused
  /// and trickles RX drains so the producer backs off on its full ring.
  std::size_t unexpected_cap = 0;
  overload::Policy unexpected_policy = overload::Policy::kShed;

  /// Payload-pool in-use byte cap, checked at eager injection (process
  /// global, like the pool itself; 0 = unbounded). kQueue spins the sender
  /// (progressing) until buffers recycle; kShed fails the op typed
  /// kLocalOverloaded.
  std::uint64_t payload_pool_cap_bytes = 0;
  overload::Policy payload_pool_policy = overload::Policy::kQueue;

  /// In-flight reliability-tracker entry cap, checked before track() (0 =
  /// only the reliability_window gate applies). Policies as for the pool.
  std::size_t tracker_cap = 0;
  overload::Policy tracker_policy = overload::Policy::kQueue;

  /// Degradation-ladder watermarks, percent of the tightest cap:
  /// kHealthy -> kPressured at high; back down only at/below low
  /// (hysteresis so the ladder doesn't flap at a boundary).
  int overload_high_pct = 75;
  int overload_low_pct = 50;

  /// Default deadline applied by the *_checked ops (and through them every
  /// collective) as now + this many ns; 0 = no deadline. Explicit
  /// Request::set_deadline on an individual op overrides.
  std::uint64_t op_deadline_ns = 0;

  // --- collectives (DESIGN.md §5i) ---

  /// Pipeline segment size for large-payload broadcast/reduce trees: a
  /// payload strictly larger than this is cut into segments of this many
  /// bytes so interior tree nodes forward segment k while receiving k+1.
  /// 0 disables segmentation. Ignored (single-shot) with allow_overtaking,
  /// which drops the in-order matching the pipeline relies on.
  std::size_t coll_segment_bytes = 32 * 1024;

  /// Smallest payload routed to the reduce-scatter + allgather (ring)
  /// allreduce; below it the latency-bound reduce+broadcast binomial pair
  /// wins. ~0 (the default here is bytes) — 0 sends everything through the
  /// ring, a large value keeps everything binomial.
  std::size_t coll_rsag_min_bytes = 4096;
};

}  // namespace fairmpi
