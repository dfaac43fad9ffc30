// The public faces of fairmpi: Universe, Rank, Communicator.
//
// A Universe is a simulated MPI job living inside one OS process: N ranks,
// each with its own NIC (CRI pool), progress engine, SPC counters and
// communicator table, connected by the in-process fabric. User threads call
// into a Rank concurrently — the engine is MPI_THREAD_MULTIPLE by
// construction, and which of the paper's designs protects it is chosen by
// the Config.
//
// Quickstart (examples/quickstart.cpp):
//   fairmpi::Config cfg;                  // 2 ranks, 1 CRI, serial progress
//   fairmpi::Universe uni(cfg);
//   auto w0 = uni.rank(0).world(), w1 = uni.rank(1).world();
//   // thread A:                         // thread B:
//   w0.send(1, /*tag=*/7, "hi", 3);      char buf[8]; w1.recv(0, 7, buf, 8);
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/config.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/cri/cri.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/ft/failure_detector.hpp"
#include "fairmpi/p2p/comm_state.hpp"
#include "fairmpi/p2p/reliability.hpp"
#include "fairmpi/p2p/rendezvous.hpp"
#include "fairmpi/p2p/request.hpp"
#include "fairmpi/progress/progress.hpp"
#include "fairmpi/progress/watchdog.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi {

class Universe;
class Rank;
namespace rma {
class Window;  // befriended by Rank for typed RMA failure reporting
}  // namespace rma

using p2p::CommId;
using p2p::kWorldComm;
using p2p::Request;
using p2p::Status;
using p2p::kAnySource;
using p2p::kAnyTag;

/// Lightweight handle pairing a rank with a communicator id. Copyable;
/// all operations forward to the owning Rank.
///
/// Rank translation: communicators built from a group (Universe::shrink /
/// create_communicator(members)) expose *local* ranks — rank()/size(),
/// dst/src arguments and returned Status.source are all group-local; the
/// translation to the universe's global ids happens here, at the boundary.
/// World-spanning communicators (every one before PR 8) translate
/// identically (local == global).
class Communicator {
 public:
  Communicator(Rank& rank, CommId id) noexcept : rank_(&rank), id_(id) {}

  /// This endpoint's rank id within the communicator (group-local).
  int rank() const noexcept;
  /// Number of ranks in the communicator (group size; == universe size for
  /// world-spanning communicators, the paper's only shape).
  int size() const noexcept;
  CommId id() const noexcept { return id_; }

  /// ft: true once Universe::revoke ran on this communicator — every
  /// subsequent operation fails fast with kCommRevoked.
  bool revoked() const noexcept;

  /// Nonblocking ops take an optional absolute deadline (engine now_ns
  /// clock; 0 = none, DESIGN.md §5h): the request settles typed
  /// kDeadlineExceeded once the deadline passes without completion. The
  /// deadline must ride in here — not be attached after the fact — so it
  /// is set before the request becomes visible to the engine.
  ///
  /// Tags at or above p2p::kReservedTagBase belong to the engine
  /// (collective lanes, barrier rounds): posting one here settles the
  /// request typed kReservedTag instead of silently colliding with
  /// collective traffic. Engine internals bypass via the Rank-level ops.
  void isend(int dst, int tag, const void* buf, std::size_t n, Request& req,
             std::uint64_t deadline_ns = 0);
  void irecv(int src, int tag, void* buf, std::size_t capacity, Request& req,
             std::uint64_t deadline_ns = 0);
  void send(int dst, int tag, const void* buf, std::size_t n);
  Status recv(int src, int tag, void* buf, std::size_t capacity);

  /// Typed-outcome variants (ft): same blocking semantics, but a peer
  /// failure or a revocation surfaces as the returned code (kPeerFailed /
  /// kCommRevoked / kRetryExhausted / ...) instead of only via the error
  /// sink. The unchecked wrappers above forward here and discard the code.
  common::ErrorCode send_checked(int dst, int tag, const void* buf, std::size_t n);
  common::ErrorCode recv_checked(int src, int tag, void* buf, std::size_t capacity,
                                 Status* status = nullptr);

  /// Dissemination barrier over all ranks of the communicator. Every rank
  /// must have (at least) one thread inside barrier() for it to complete.
  void barrier();
  /// Barrier with a typed outcome: returns kOk when every round paired, or
  /// the first failure (kPeerFailed when a partner died, kCommRevoked when
  /// the communicator was revoked mid-barrier) — instead of hanging, the
  /// failure mode this PR exists to remove (DESIGN.md §5g).
  common::ErrorCode barrier_checked();

  /// The endpoint Rank behind this handle — substrate access (the coll
  /// subsystem routes its reserved-tag traffic through the Rank-level ops,
  /// which the reserved-tag guard above does not apply to). No new power:
  /// Universe::rank() already hands out every Rank.
  Rank& owner() const noexcept { return *rank_; }

  /// Group-local -> global translation (identity on world-spanning comms).
  /// Public for substrates (coll) that address Rank-level ops, which speak
  /// global ids.
  int global_of(int local) const noexcept;

 private:
  /// The reserved-tag guard body: settles `req` typed kReservedTag and
  /// reports to the error sink when `tag` is inside the engine block.
  /// Returns true when the op was rejected.
  bool reject_reserved_tag(Request& req, int tag, int peer, bool is_send) const;

  Rank* rank_;
  CommId id_;
};

/// One simulated MPI process.
class Rank final : public progress::PacketSink,
                   public p2p::RendezvousHook,
                   public p2p::CancelScope {
 public:
  ~Rank() override;
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int id() const noexcept { return id_; }
  Universe& universe() noexcept { return *uni_; }

  Communicator world() noexcept { return Communicator(*this, kWorldComm); }
  Communicator comm(CommId id) noexcept { return Communicator(*this, id); }

  // --- two-sided ---
  /// deadline_ns: optional absolute per-op deadline (0 = none; §5h). Must
  /// be passed at submission so it is armed before the request is posted.
  void isend(CommId comm, int dst, int tag, const void* buf, std::size_t n, Request& req,
             std::uint64_t deadline_ns = 0);
  void irecv(CommId comm, int src, int tag, void* buf, std::size_t capacity, Request& req,
             std::uint64_t deadline_ns = 0);
  void send(CommId comm, int dst, int tag, const void* buf, std::size_t n);
  Status recv(CommId comm, int src, int tag, void* buf, std::size_t capacity);

  /// Spin (progressing) until the request completes.
  void wait(Request& req);
  /// Progress once; true when the request is complete.
  bool test(Request& req);
  void wait_all(Request* const* reqs, std::size_t n);
  /// Spin until any request completes; returns its index.
  std::size_t wait_any(Request* const* reqs, std::size_t n);

  /// Non-destructive check for a matchable incoming message (MPI_Iprobe):
  /// progresses once, then queries the unexpected queue.
  bool iprobe(CommId comm, int src, int tag, Status* status = nullptr);
  /// Blocking probe: progress until a matching message is available.
  Status probe(CommId comm, int src, int tag);

  /// One explicit progress call (normally implicit in wait/test).
  std::size_t progress();

  // --- internals exposed for substrates, benches and tests ---
  spc::CounterSet& counters() noexcept { return spc_; }
  trace::Tracer& tracer() noexcept { return tracer_; }
  cri::CriPool& pool() noexcept { return pool_; }
  progress::ProgressEngine& engine() noexcept { return engine_; }
  p2p::CommState& comm_state(CommId id);

  /// The ack/retransmit tracker (null unless Config::reliable) — test hook.
  p2p::ReliabilityTracker* reliability() noexcept { return tracker_.get(); }
  /// Rendezvous transfers still registered (sends + receives, tombstones
  /// included) — test hook and quiesce diagnostics.
  std::size_t rendezvous_pending() const;

  /// The overload governor (DESIGN.md §5h): degradation level, paused-peer
  /// count, resolved caps. Always present; with no caps configured it is
  /// disabled and the hot path pays one branch.
  overload::Governor& governor() noexcept { return governor_; }
  const overload::Governor& governor() const noexcept { return governor_; }

  /// The rank-failure detector (null unless Config::ft_enabled).
  ft::FailureDetector* failure_detector() noexcept { return ft_.get(); }
  /// True once the detector confirmed `peer` dead. False with ft off.
  bool peer_failed(int peer) const noexcept {
    return ft_ != nullptr && ft_->is_dead(peer);
  }

  /// Install the typed-error callback (retry exhaustion, send budget, stall
  /// escalation). Not thread-safe against in-flight traffic: install before
  /// communication starts.
  void set_error_sink(common::ErrorSink sink, void* user) noexcept;

  // PacketSink
  std::size_t handle_packet(fabric::Packet&& pkt) override;
  std::size_t handle_completion(const fabric::Completion& c) override;

  // RendezvousHook (called by the matching engine, match lock held)
  void on_rts_matched(p2p::Request* req, const fabric::Packet& rts) override;

  // p2p::CancelScope for requests owned by the rendezvous registries
  // (posted receives route through their MatchEngine instead): tombstones
  // the transfer under the registry lock and settles the request
  // kCancelled, so a cancel can never race a completing fragment drain.
  bool cancel_request(p2p::Request* req) override;

 private:
  friend class Universe;
  friend class Communicator;  ///< report_error for the reserved-tag guard
  friend class rma::Window;  ///< report_error for ft fail-fast RMA ops
  Rank(Universe& uni, int id);
  void install_comm(CommId id, std::vector<int> members = {});

  // --- timed work (DESIGN.md §5 "Timed work") ---
  /// The retransmit sweep when its due time passed, then, under the
  /// runner_ claim, each rank-level sweep that is due.
  void run_timed_work(std::uint64_t now);
  /// Expire posted receives and rendezvous transfers past their deadline;
  /// returns the earliest surviving deadline.
  std::uint64_t expire_deadlines(std::uint64_t now);
  /// The watchdog's rendezvous half: flag (once) and escalate each live
  /// transfer registered before `horizon_ns`.
  void scan_stalled(std::uint64_t horizon_ns);
  /// The one stall escalation: kWatchdogStalls, a kWatchdogStall trace
  /// event carrying (a, b), then the typed error {code, peer, detail}.
  void escalate_stall(common::ErrorCode code, int peer, std::uint32_t a, std::uint32_t b,
                      std::uint64_t detail);

  // --- typed settlement (p2p/settle.hpp) ---
  /// Apply settle_account(code): counter, trace (peer + 1, detail), report.
  void account(common::ErrorCode code, int peer, std::uint64_t detail) noexcept;
  /// Fail `req` typed `code`; accounted only when this call won the settle.
  bool settle(p2p::Request* req, common::ErrorCode code, int peer,
              std::uint64_t detail = 0) noexcept;
  struct RndvVictim {
    p2p::Request* req;
    int peer;
  };
  /// The one walk of both rendezvous registries: claims every live
  /// transfer a pick selects, under rndv_lock_, for settling outside it.
  /// Sends are extracted when `extract_sends`, else tombstoned with the
  /// receives (the rule in p2p/rendezvous.hpp).
  template <class PickSend, class PickRecv>
  std::vector<RndvVictim> claim_rendezvous(bool extract_sends, PickSend pick_send,
                                           PickRecv pick_recv);

  // --- ft layer (see ft/failure_detector.hpp; DESIGN.md §5g) ---
  /// One detection sweep from the runner: let the detector classify, then
  /// inject heartbeats toward idle links and run failure propagation for
  /// newly confirmed deaths. Returns the next due time.
  std::uint64_t ft_poll(std::uint64_t now);
  /// Single-attempt header-only liveness probe (never tracked, never acked).
  void send_heartbeat(int dst);
  /// Failure propagation for one confirmed-dead peer: fail tracked sends,
  /// purge posted receives on every installed communicator, fail in-flight
  /// rendezvous transfers, report one typed error.
  void on_peer_dead(int peer);

  // --- send path (Algorithm 1, SEND) ---
  /// One eager send: admit it (overload caps, reliability window), ticket
  /// the sequence number, then inject through the calling thread's
  /// instance, progressing and retrying while the destination ring is
  /// full. Completes `req` before returning — normally (buffered-send
  /// semantics) or failed typed when a wait gives up (send budget, peer
  /// death, cancel, deadline, kShed cap). Returns the outcome: once `req`
  /// is completed its owner may destroy it, so callers must not read it
  /// back. A Request::cancel() from another thread is observed by the wait
  /// loops; the caller keeps `req` alive until this returns.
  common::ErrorCode eager_send(p2p::CommState& comm, int dst, int tag, const void* buf,
                               std::size_t n, Request& req, std::uint64_t deadline_ns);

  // --- rendezvous protocol (see p2p/rendezvous.hpp) ---
  void rndv_isend(CommId comm, int dst, int tag, const void* buf, std::size_t n,
                  Request& req, std::uint64_t deadline_ns);
  std::size_t handle_rndv_ack(const fabric::Packet& pkt);
  std::size_t handle_rndv_data(const fabric::Packet& pkt);
  /// Execute deferred protocol sends; called from progress() with no
  /// engine lock held.
  void drain_control();
  /// Inject one protocol packet, retrying on backpressure: 64 attempts
  /// when the packet is tracked for retransmit (the sweep owns recovery
  /// after that), until the peer drains when it is not.
  void inject_control(int dst, fabric::Packet&& pkt);

  // --- reliability layer (see p2p/reliability.hpp) ---
  /// One injection attempt through the calling thread's instance
  /// (CommResourceInstance::inject), steered by steer_ctx. Every outbound
  /// packet leaves here. On backpressure it returns false and `pkt` is
  /// intact, so a retry loop can try again; retransmits, acks and
  /// heartbeats make one attempt, since the protocol absorbs their loss.
  bool inject_raw(int dst, fabric::Packet& pkt);
  /// Destination context for an engine-built packet to `dst`: its
  /// communicator's steering hint, so acks and rendezvous traffic land
  /// where the peer's thread on that communicator progresses. Heartbeats
  /// are not communicator traffic and keep the cold-start route.
  int steer_ctx(int dst, const fabric::WireHeader& hdr);
  /// Defer an ack echoing `hdr`'s key through the ack queue.
  void enqueue_packet_ack(const fabric::WireHeader& hdr);
  /// Defer an overload NACK (Opcode::kNack) echoing a shed packet's key
  /// through the same queue (DESIGN.md §5h).
  void enqueue_packet_nack(const fabric::WireHeader& hdr);
  /// Process an inbound NACK: retire the named tracker entry, surface the
  /// failure typed kReceiverOverloaded, and fail the owning rendezvous
  /// send when the NACKed packet was an RTS.
  void handle_nack(const fabric::WireHeader& hdr);

  // --- overload control (DESIGN.md §5h) ---
  /// Re-sample the degradation ladder, throttled to 1-in-64 progress
  /// visits; progress() calls it only with the governor enabled.
  void sample_governor();
  /// Transmit deferred acks (single injection attempt each; a full ring
  /// stops the flush — the peer retransmits and we re-ack). Kept separate
  /// from drain_control so every backpressure wait loop can call it: acks
  /// must keep flowing while a sender blocks, or two flooding ranks
  /// deadlock waiting for each other's acks.
  void flush_acks();
  /// Retransmit expired in-flight packets; fail retry-exhausted ones typed.
  /// Returns the earliest deadline still tracked.
  std::uint64_t reliability_sweep(std::uint64_t now);
  /// Report a typed error through the installed sink (if any).
  void report_error(const common::Error& err) noexcept;

  Universe* uni_;
  const int id_;
  spc::CounterSet spc_;
  trace::Tracer tracer_;
  cri::CriPool pool_;
  progress::ProgressEngine engine_;
  std::vector<std::atomic<p2p::CommState*>> comms_;

  /// Overload control block (§5h): constructed from the Config caps;
  /// atomics-only, so it takes no rank in the lock hierarchy.
  overload::Governor governor_;
  /// This rank's due time: the earliest of the watchdog and detector
  /// cadences and every armed deadline (timing.hpp).
  std::atomic<std::uint64_t> due_ns_{kNever};
  /// Runner claim: one thread at a time runs this rank's sweeps, its
  /// tracker's retransmit sweep included, which keeps the fields below
  /// single-writer and never clones the same claimed entries twice.
  std::atomic<bool> runner_{false};
  std::uint64_t watchdog_due_ = 0;  ///< runner-owned: next watchdog sweep
  std::uint64_t ft_due_ = 0;        ///< runner-owned: next detector sweep
  std::vector<int> ft_probes_;      ///< runner-owned detector scratch
  std::vector<int> ft_newly_dead_;
  /// Runner-owned watchdog scratch; it grows only when a stall is reported.
  std::vector<progress::Watchdog::Stall> stalls_;
  /// Progress-visit counter throttling governor ladder sampling.
  std::atomic<std::uint64_t> overload_visits_{0};

  std::unique_ptr<p2p::ReliabilityTracker> tracker_;  ///< Config::reliable only
  std::unique_ptr<progress::Watchdog> watchdog_;
  std::unique_ptr<ft::FailureDetector> ft_;  ///< Config::ft_enabled only
  common::ErrorSink err_sink_ = nullptr;
  void* err_user_ = nullptr;

  // Rendezvous registries and the deferred-send queue. A plain mutex-style
  // spinlock is fine here: traffic is one entry per large message, not per
  // fragment-byte. Both rank above match: they are acquired from
  // on_rts_matched with the match lock (and a CRI lock) held.
  mutable RankedLock<Spinlock> rndv_lock_{LockRank::kRndvState, "rank.rndv-state"};
  std::uint64_t next_cookie_ FAIRMPI_GUARDED_BY(rndv_lock_) = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<p2p::RndvSendState>> rndv_sends_
      FAIRMPI_GUARDED_BY(rndv_lock_);
  std::unordered_map<std::uint64_t, std::unique_ptr<p2p::RndvRecvState>> rndv_recvs_
      FAIRMPI_GUARDED_BY(rndv_lock_);
  RankedLock<Spinlock> control_lock_{LockRank::kRndvControl, "rank.rndv-control"};
  std::deque<p2p::ControlMsg> control_ FAIRMPI_GUARDED_BY(control_lock_);
  /// Reliability acks ride their own queue (same lock) so flush_acks can
  /// run from wait loops without reentering the full control drain.
  std::deque<p2p::ControlMsg> acks_ FAIRMPI_GUARDED_BY(control_lock_);
};

class Universe {
 public:
  explicit Universe(Config cfg);
  ~Universe();
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  int num_ranks() const noexcept { return static_cast<int>(ranks_.size()); }
  Rank& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  const Config& config() const noexcept { return cfg_; }
  fabric::Fabric& fabric() noexcept { return fabric_; }

  /// Create a new communicator spanning all ranks (a dup of world). Safe to
  /// call from any one thread; the id is usable on every rank once this
  /// returns. Models MPI_Comm_dup for the paper's comm-per-pair runs.
  CommId create_communicator();

  /// Create a communicator over an explicit group: `members` lists global
  /// rank ids in local-rank order (strictly increasing, non-empty). The
  /// building block of shrink(); also usable directly (MPI_Comm_create).
  CommId create_communicator(std::vector<int> members);

  // --- ft: communicator-level recovery (ULFM revoke/shrink; DESIGN.md §5g) ---

  /// Revoke `id` on every rank: all posted receives fail with kCommRevoked
  /// and every subsequent operation on the communicator fails fast. The
  /// escape hatch from collectives wedged by a rank failure — one rank
  /// observes kPeerFailed, revokes, and every other rank's blocked
  /// operation unblocks typed instead of hanging.
  void revoke(CommId id);

  /// Rebuild after failure: revoke `id` (idempotent), drain in-flight
  /// traffic among survivors (quiesce), and return a new communicator
  /// whose group is survivors() — ranks not confirmed dead by any live
  /// rank's detector nor killed in the injector. The returned communicator
  /// renumbers survivors densely (Communicator::rank()/size() are
  /// group-local).
  CommId shrink(CommId id);

  /// Progress every surviving rank until no rank completes further work
  /// and every reliability tracker is empty, or `timeout_ns` elapses.
  /// Returns true when quiescent. Call from exactly one thread with no
  /// other application threads inside blocking fairmpi calls.
  bool quiesce(std::uint64_t timeout_ns);

  /// Global ranks currently believed alive: not killed in the fault
  /// injector and not confirmed dead by any live rank's failure detector.
  std::vector<int> survivors() const;

  /// Sum of all ranks' SPC counters (high-water counters take the max).
  spc::Snapshot aggregate_counters() const;

  // --- observability (defined in src/obs/export.cpp) ---

  /// Merge every rank's trace ring into Chrome trace-event JSON
  /// (chrome://tracing / https://ui.perfetto.dev): one process per rank,
  /// one track per recording thread, one async lane per CRI (kCriDrain
  /// events). Trace-less runs produce a valid file with metadata only.
  void export_chrome_trace(std::ostream& os) const;

  /// JSON snapshot of the observability layer: per-class lock contention
  /// (process-global), per-rank/per-CRI utilization, and the aggregate
  /// SPCs. Rendered by tools/obs_report.py.
  void dump_observability(std::ostream& os) const;

  /// Retransmit sweep over EVERY rank's in-flight table, called from any
  /// rank's progress(). Cooperative by design: a real NIC retransmits
  /// autonomously, so recovery must not depend on the victim rank's
  /// application threads still driving its progress loop (a sender that
  /// fire-and-forgets eager traffic and then blocks elsewhere would
  /// otherwise strand its own dropped packets forever).
  void sweep_reliability(std::uint64_t now_ns) noexcept;

 private:
  friend class Rank;
  /// Retransmit due time: trackers lower it, sweep_reliability claims it.
  std::atomic<std::uint64_t> retransmit_due_{kNever};
  Config cfg_;
  fabric::Fabric fabric_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::atomic<CommId> next_comm_{kWorldComm + 1};
  /// Serializes create_communicator: installs the new CommState on every
  /// rank before the id is published (comms_ slots themselves are atomics).
  RankedLock<Spinlock> comm_create_lock_{LockRank::kCommCreate, "universe.comm-create"};
};

}  // namespace fairmpi
