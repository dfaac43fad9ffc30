#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/p2p/sender.hpp"

namespace fairmpi {

using spc::Counter;

namespace {

overload::Limits limits_from(const Config& cfg) noexcept {
  overload::Limits lim;
  lim.unexpected_cap = cfg.unexpected_cap;
  lim.unexpected_policy = cfg.unexpected_policy;
  lim.pool_cap_bytes = cfg.payload_pool_cap_bytes;
  lim.pool_policy = cfg.payload_pool_policy;
  lim.tracker_cap = cfg.tracker_cap;
  lim.tracker_policy = cfg.tracker_policy;
  lim.high_pct = cfg.overload_high_pct;
  lim.low_pct = cfg.overload_low_pct;
  return lim;
}

}  // namespace

Rank::Rank(Universe& uni, int id)
    : uni_(&uni), id_(id), tracer_(uni.config().trace_entries),
      pool_(uni.fabric(), id, uni.config().assignment),
      engine_(pool_, *this, uni.config().progress_mode, spc_, uni.config().progress_batch,
              &tracer_),
      comms_(static_cast<std::size_t>(uni.config().max_communicators)),
      governor_(limits_from(uni.config())) {
  for (auto& slot : comms_) slot.store(nullptr, std::memory_order_relaxed);
  const Config& cfg = uni.config();
  if (cfg.trace_enabled) tracer_.enable(true);
  if (cfg.reliable) {
    tracker_ = std::make_unique<p2p::ReliabilityTracker>(cfg.rto_ns, cfg.rto_max_ns,
                                                         cfg.max_retries);
  }
  if (cfg.watchdog_interval_ns != ~std::uint64_t{0}) {
    watchdog_ = std::make_unique<progress::Watchdog>(
        pool_, spc_, tracer_, cfg.watchdog_interval_ns, cfg.watchdog_stall_sweeps,
        cfg.rndv_stall_ns);
    watchdog_->set_stall_probe(this);
    watchdog_->set_error_sink(err_sink_, err_user_, id_);
  }
  if (cfg.ft_enabled) {
    ft::FtParams fp;
    fp.heartbeat_ns = cfg.ft_heartbeat_ns;
    fp.suspect_ns = cfg.ft_suspect_ns;
    fp.strikes = cfg.ft_strikes;
    // Sized from the *config*: Universe::num_ranks() counts constructed
    // ranks, which is still growing while this constructor runs — rank r
    // would get a detector with only r cells and note_alive would index
    // past them on the first inbound packet.
    ft_ = std::make_unique<ft::FailureDetector>(cfg.num_ranks, id, fp, spc_, tracer_);
    // Scratch sized once: failure propagation must not allocate on the
    // progress path (a poll that confirms nothing touches neither vector).
    ft_probes_.reserve(static_cast<std::size_t>(cfg.num_ranks));
    ft_newly_dead_.reserve(static_cast<std::size_t>(cfg.num_ranks));
    if (watchdog_ != nullptr) watchdog_->set_suspect_hint(ft_->suspect_hint());
  }
}

void Rank::set_error_sink(common::ErrorSink sink, void* user) noexcept {
  err_sink_ = sink;
  err_user_ = user;
  if (watchdog_ != nullptr) watchdog_->set_error_sink(sink, user, id_);
}

void Rank::report_error(const common::Error& err) noexcept {
  if (err_sink_ != nullptr) err_sink_(err, err_user_);
}

Rank::~Rank() {
  for (auto& slot : comms_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

void Rank::install_comm(CommId id, std::vector<int> members) {
  FAIRMPI_CHECK(id < comms_.size());
  FAIRMPI_CHECK_MSG(comms_[id].load(std::memory_order_relaxed) == nullptr,
                    "communicator id already installed");
  auto* state = new p2p::CommState(id, uni_->num_ranks(),
                                   uni_->config().allow_overtaking, spc_,
                                   uni_->config().reliable, std::move(members));
  state->match().set_rendezvous_hook(this);
  state->match().set_overload(&governor_, &tracer_);
  comms_[id].store(state, std::memory_order_release);
}

p2p::CommState& Rank::comm_state(CommId id) {
  FAIRMPI_CHECK_MSG(id < comms_.size(), "communicator id out of range");
  p2p::CommState* state = comms_[id].load(std::memory_order_acquire);
  FAIRMPI_CHECK_MSG(state != nullptr, "communicator not created");
  return *state;
}

void Rank::isend(CommId comm, int dst, int tag, const void* buf, std::size_t n,
                 Request& req, std::uint64_t deadline_ns) {
  FAIRMPI_CHECK_MSG(dst >= 0 && dst < uni_->num_ranks(), "invalid destination rank");
  p2p::CommState& cs = comm_state(comm);
  if (cs.revoked()) {
    req.init_send();
    if (req.fail(common::ErrorCode::kCommRevoked)) spc_.add(Counter::kFtRevokedOps);
    report_error(common::Error{common::ErrorCode::kCommRevoked, id_, dst, comm});
    return;
  }
  if (peer_failed(dst)) {
    // Confirmed-dead destination: fail fast — uniformly for eager and
    // rendezvous — instead of feeding a permanently-down link.
    req.init_send();
    if (req.fail(common::ErrorCode::kPeerFailed)) spc_.add(Counter::kFtPeerFailedOps);
    report_error(common::Error{common::ErrorCode::kPeerFailed, id_, dst, 0});
    return;
  }
  if (n > uni_->config().eager_limit) {
    FAIRMPI_CHECK_MSG(tag >= 0, "negative tags are reserved (wildcards/internal)");
    tracer_.record(trace::Event::kRndvRts, static_cast<std::uint32_t>(dst),
                   static_cast<std::uint32_t>(n));
    rndv_isend(comm, dst, tag, buf, n, req, deadline_ns);
    return;
  }
  tracer_.record(trace::Event::kSend, static_cast<std::uint32_t>(dst),
                 static_cast<std::uint32_t>(tag));
  p2p::SendPolicy policy{
      tracker_.get(), uni_->config().send_retry_limit,
      uni_->config().reliability_window,
      [](void* user) { return static_cast<Rank*>(user)->progress(); }, this};
  if (ft_ != nullptr) {
    // Mid-wait escape hatch: a send blocked on this peer's window/ring when
    // the detector confirms its death fails typed instead of burning the
    // whole retry budget into a severed link.
    policy.peer_failed = [](void* user, int peer) {
      return static_cast<Rank*>(user)->peer_failed(peer);
    };
    policy.peer_failed_user = this;
  }
  policy.governor = &governor_;
  policy.deadline_ns = deadline_ns;
  // Outcome comes back by value: completing `req` hands it back to the
  // waiting owner, which may destroy it before we could read failed().
  const common::ErrorCode ec = p2p::eager_send(cs, pool_, engine_, spc_,
                                               id_, dst, tag, buf, n, req, policy);
  if (ec != common::ErrorCode::kOk) {
    report_error(common::Error{ec, id_, dst, 0});
  }
}

void Rank::irecv(CommId comm, int src, int tag, void* buf, std::size_t capacity,
                 Request& req, std::uint64_t deadline_ns) {
  FAIRMPI_CHECK_MSG(src == kAnySource || (src >= 0 && src < uni_->num_ranks()),
                    "invalid source rank");
  FAIRMPI_CHECK_MSG(tag == kAnyTag || tag >= 0, "invalid tag filter");
  req.init_recv(buf, capacity, src, tag, deadline_ns);
  tracer_.record(trace::Event::kRecvPost, static_cast<std::uint32_t>(src + 1),
                 static_cast<std::uint32_t>(tag));
  // Arm the rank-level sweep gate before the request becomes visible to the
  // engine: overload_poll must not be able to observe a posted deadline the
  // gate does not yet cover.
  if (deadline_ns != 0) arm_deadline(deadline_ns);
  comm_state(comm).match().post(&req);
}

void Rank::send(CommId comm, int dst, int tag, const void* buf, std::size_t n) {
  Request req;
  isend(comm, dst, tag, buf, n, req);
  wait(req);  // eager sends complete at injection; wait() is a formality
}

Status Rank::recv(CommId comm, int src, int tag, void* buf, std::size_t capacity) {
  Request req;
  irecv(comm, src, tag, buf, capacity, req);
  wait(req);
  return req.status();
}

// The wait loops below use SpinWait, not bare cpu_relax(): completion
// depends on a peer thread running (to inject, progress, or ack), so on an
// oversubscribed host a pure spinner would burn its whole scheduler quantum
// while that peer sits runnable — quantizing throughput at one window per
// quantum (the Multirate.SinglePairDeliversAtPlausibleRate failure mode on
// the 1-core CI box).

void Rank::wait(Request& req) {
  SpinWait waiter;
  while (!req.done()) {
    if (progress() == 0) waiter.pause(); else waiter.reset();
  }
}

bool Rank::test(Request& req) {
  if (req.done()) return true;
  progress();
  return req.done();
}

void Rank::wait_all(Request* const* reqs, std::size_t n) {
  SpinWait waiter;
  for (;;) {
    bool all_done = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!reqs[i]->done()) {
        all_done = false;
        break;
      }
    }
    if (all_done) return;
    if (progress() == 0) waiter.pause(); else waiter.reset();
  }
}

std::size_t Rank::wait_any(Request* const* reqs, std::size_t n) {
  FAIRMPI_CHECK_MSG(n > 0, "wait_any needs at least one request");
  SpinWait waiter;
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) {
      if (reqs[i]->done()) return i;
    }
    if (progress() == 0) waiter.pause(); else waiter.reset();
  }
}

bool Rank::iprobe(CommId comm, int src, int tag, Status* status) {
  progress();
  return comm_state(comm).match().probe(src, tag, status);
}

Status Rank::probe(CommId comm, int src, int tag) {
  Status status;
  SpinWait waiter;
  while (!comm_state(comm).match().probe(src, tag, &status)) {
    if (progress() == 0) waiter.pause(); else waiter.reset();
  }
  return status;
}

std::size_t Rank::progress() {
  // Deferred rendezvous protocol work first (runs with no engine lock
  // held — see p2p/rendezvous.hpp), then the progress engine proper.
  drain_control();
  if (tracker_ != nullptr || watchdog_ != nullptr || ft_ != nullptr) {
    const std::uint64_t now = now_ns();
    // Sweep every rank's tracker, not just ours: retransmission models the
    // NIC's autonomous recovery, so it must run even when the packet's
    // owner has stopped calling progress() (see Universe::sweep_reliability).
    if (tracker_ != nullptr) uni_->sweep_reliability(now);
    if (watchdog_ != nullptr) watchdog_->poll(now);
    if (ft_ != nullptr) ft_poll(now);
  }
  // §5h sweeps are pay-for-what-you-use: a run with no caps and no armed
  // deadlines takes this branch on two relaxed loads and skips the call.
  if (governor_.enabled() ||
      earliest_deadline_.load(std::memory_order_relaxed) != ~std::uint64_t{0}) {
    overload_poll(now_ns());
  }
  // kQueue backpressure (RX trickle): while any peer is latched paused the
  // governor admits only 1-in-kRxTrickle receive rounds, throttling the
  // flood without starving acks/heartbeats entirely (ft liveness).
  const std::size_t completions = governor_.defer_rx() ? 0 : engine_.progress();
  // Acks enqueued while the engine dispatched packets leave immediately —
  // waiting for the next drain_control would add an rto of latency per hop
  // under load.
  if (tracker_ != nullptr) flush_acks();
  if (completions != 0) {
    tracer_.record(trace::Event::kProgress, static_cast<std::uint32_t>(completions));
  }
  return completions;
}

bool Rank::inject_raw(int dst, fabric::Packet&& pkt) {
  const int k = pool_.id_for_thread();
  cri::CommResourceInstance& inst = pool_.instance(k);
  // Same injection path as eager_send: control traffic (acks,
  // retransmits) takes the instance lock like data does.
  return inst.inject(dst, pkt, spc_);
}

void Rank::enqueue_packet_ack(const fabric::WireHeader& hdr) {
  LockGuard guard(control_lock_);
  acks_.push_back(p2p::ControlMsg{p2p::ControlMsg::Kind::kSendPacketAck,
                                  static_cast<int>(hdr.src_rank), hdr.comm_id,
                                  /*local_cookie=*/0, /*remote_cookie=*/hdr.imm,
                                  hdr.seq, static_cast<std::uint16_t>(hdr.opcode)});
}

void Rank::enqueue_packet_nack(const fabric::WireHeader& hdr) {
  LockGuard guard(control_lock_);
  acks_.push_back(p2p::ControlMsg{p2p::ControlMsg::Kind::kSendPacketNack,
                                  static_cast<int>(hdr.src_rank), hdr.comm_id,
                                  /*local_cookie=*/0, /*remote_cookie=*/hdr.imm,
                                  hdr.seq, static_cast<std::uint16_t>(hdr.opcode)});
}

void Rank::flush_acks() {
  for (;;) {
    p2p::ControlMsg msg;
    {
      LockGuard guard(control_lock_);
      if (acks_.empty()) return;
      msg = acks_.front();
      acks_.pop_front();
    }
    // Reliability ack: echo the received packet's identifying key so the
    // sender can retire its tracked clone. Unreliable by design — if this
    // ack is lost the peer retransmits and we re-ack. A NACK (overload
    // shed, §5h) rides the same queue and carries the same key; only the
    // opcode differs, so the sender can fail the op typed instead of
    // retiring it.
    const bool is_nack = msg.kind == p2p::ControlMsg::Kind::kSendPacketNack;
    fabric::Packet ack;
    ack.hdr.opcode = is_nack ? fabric::Opcode::kNack : fabric::Opcode::kAck;
    ack.hdr.src_rank = static_cast<std::uint16_t>(id_);
    ack.hdr.comm_id = msg.comm;
    ack.hdr.tag = static_cast<std::int32_t>(msg.ack_opcode);
    ack.hdr.seq = msg.seq;
    ack.hdr.imm = msg.remote_cookie;
    if (!inject_raw(msg.peer, std::move(ack))) {
      // Peer's ring is full: requeue and stop — pushing harder only spins.
      LockGuard guard(control_lock_);
      acks_.push_front(msg);
      return;
    }
    if (!is_nack) {
      spc_.add(Counter::kAcksSent);
      tracer_.record(trace::Event::kAckSent, static_cast<std::uint32_t>(msg.peer),
                     msg.seq);
    }
  }
}

void Rank::reliability_sweep(std::uint64_t now) {
  if (sweeping_.exchange(true, std::memory_order_acquire)) return;
  // lint: allow(hotpath-alloc) only reached when packets expired (lossy run)
  std::vector<p2p::ReliabilityTracker::Resend> resends;
  std::vector<p2p::ReliabilityTracker::Failure> failures;
  tracker_->sweep(now, resends, failures);
  for (auto& r : resends) {
    const p2p::PacketKey key = p2p::key_of(r.dst, r.pkt.hdr);
    // Single attempt: if the ring is full the tracker still holds the
    // entry, so a later sweep simply tries again — no nested retry loop.
    // Only a clone that actually reached the wire is charged against the
    // retry budget (confirm applies the backoff); a ring-full failure is
    // the sender's own congestion, not evidence of loss.
    if (inject_raw(r.dst, std::move(r.pkt))) {
      spc_.add(Counter::kRetransmits);
      tracer_.record(trace::Event::kRetransmit, static_cast<std::uint32_t>(r.dst),
                     key.seq);
      tracker_->confirm_retransmit(key, now);
    }
  }
  for (const auto& f : failures) {
    // Typed propagation: entries purged because the peer was confirmed dead
    // carry kPeerFailed (counted separately) — they are not retry failures.
    spc_.add(f.code == common::ErrorCode::kPeerFailed ? Counter::kFtPeerFailedOps
                                                      : Counter::kReliabilityErrors);
    report_error(common::Error{f.code, id_, static_cast<int>(f.key.peer), f.key.seq});
  }
  sweeping_.store(false, std::memory_order_release);
}

// --- ft layer (DESIGN.md §5g) ---

void Rank::ft_poll(std::uint64_t now) {
  // One sweeper at a time: the scratch vectors below are single-writer by
  // this guard, so the steady-state poll allocates nothing.
  if (ft_polling_.exchange(true, std::memory_order_acquire)) return;
  ft_probes_.clear();
  ft_newly_dead_.clear();
  if (ft_->poll(now, ft_probes_, ft_newly_dead_)) {
    // Classification done under the detector lock; everything below runs
    // with NO detector lock held (heartbeat injection takes CRI locks,
    // propagation takes match/reliability/rndv locks — all ranked away
    // from kFtDetector in both directions; see lockcheck.hpp).
    for (const int dst : ft_probes_) send_heartbeat(dst);
    for (const int peer : ft_newly_dead_) on_peer_dead(peer);
  }
  ft_polling_.store(false, std::memory_order_release);
}

void Rank::send_heartbeat(int dst) {
  fabric::Packet hb;
  hb.hdr.opcode = fabric::Opcode::kHeartbeat;
  hb.hdr.src_rank = static_cast<std::uint16_t>(id_);
  hb.hdr.comm_id = kWorldComm;
  // Single attempt, never tracked: a heartbeat lost to backpressure or the
  // fault model is simply re-sent on the next idle round.
  if (inject_raw(dst, std::move(hb))) {
    spc_.add(Counter::kFtHeartbeatsSent);
  }
}

void Rank::on_peer_dead(int peer) {
  // 1. Tracked sends toward the peer fail typed (not retry-burned); the
  //    tracker also latches the peer so entries tracked by racing senders
  //    are caught by the next sweep.
  if (tracker_ != nullptr) {
    // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
    std::vector<p2p::ReliabilityTracker::Failure> failures;
    tracker_->fail_peer(peer, failures);
    for (const auto& f : failures) {
      spc_.add(Counter::kFtPeerFailedOps);
      report_error(common::Error{common::ErrorCode::kPeerFailed, id_, peer, f.key.seq});
    }
  }
  // 2. Posted receives filtered on the peer fail on every installed
  //    communicator (and future ones fail at post; match_engine.cpp).
  for (auto& slot : comms_) {
    p2p::CommState* cs = slot.load(std::memory_order_acquire);
    if (cs != nullptr) {
      (void)cs->match().fail_source(peer);
    }
  }
  // 3. In-flight rendezvous transfers to/from the peer fail.
  fail_rendezvous_peer(peer);
  // 4. One summary error so a sink-only consumer hears about the death
  //    even with zero outstanding operations.
  report_error(common::Error{common::ErrorCode::kPeerFailed, id_, peer, 0});
}

void Rank::fail_rendezvous_peer(int peer) {
  // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
  std::vector<p2p::Request*> victims;
  // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
  std::vector<std::unique_ptr<p2p::RndvSendState>> dead_sends;
  {
    LockGuard guard(rndv_lock_);
    for (auto it = rndv_sends_.begin(); it != rndv_sends_.end();) {
      if (it->second->dst == peer) {
        // Claim by extraction, exactly like the kSendData drain — whoever
        // extracts owns the state, so no deliverer can race us here.
        victims.push_back(it->second->request);
        dead_sends.push_back(std::move(it->second));
        it = rndv_sends_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [cookie, st] : rndv_recvs_) {
      if (st->status.source == peer && !st->failed) {
        // Receives are tombstoned, NOT erased: a progress thread may hold
        // the state pointer from before the death was confirmed (see
        // rendezvous.hpp). handle_rndv_data checks `failed` under this
        // lock, so no new fragment touches the buffer from here on.
        st->failed = true;
        victims.push_back(st->request);
      }
    }
  }
  for (p2p::Request* req : victims) {
    if (req->fail(common::ErrorCode::kPeerFailed)) {
      spc_.add(Counter::kFtPeerFailedOps);
    }
  }
}

// --- overload control & deadlines (DESIGN.md §5h) ---

void Rank::handle_nack(const fabric::WireHeader& hdr) {
  const p2p::PacketKey key = p2p::key_of_ack(hdr);
  p2p::ReliabilityTracker::Failure f;
  if (!tracker_->nack(key, &f)) return;  // duplicate NACK, or an ack raced in
  report_error(common::Error{common::ErrorCode::kReceiverOverloaded, id_,
                             static_cast<int>(key.peer), key.seq});
  if (key.opcode != static_cast<std::uint16_t>(fabric::Opcode::kRndvRts)) return;
  // The receiver shed our RTS at admission: no RndvAck will ever arrive,
  // so the NACK is this transfer's only possible terminal event — claim
  // the send state by extraction (same ownership rule as the kSendData
  // drain) and fail the request typed.
  p2p::Request* victim = nullptr;
  std::unique_ptr<p2p::RndvSendState> dead;
  {
    LockGuard guard(rndv_lock_);
    for (auto it = rndv_sends_.begin(); it != rndv_sends_.end(); ++it) {
      if (it->second->dst == static_cast<int>(key.peer) &&
          it->second->comm == key.comm && it->second->rts_seq == key.seq &&
          !it->second->failed) {
        victim = it->second->request;
        dead = std::move(it->second);
        rndv_sends_.erase(it);
        break;
      }
    }
  }
  if (victim != nullptr) {
    (void)victim->fail(common::ErrorCode::kReceiverOverloaded);
  }
}

void Rank::arm_deadline(std::uint64_t deadline_ns) noexcept {
  std::uint64_t cur = earliest_deadline_.load(std::memory_order_relaxed);
  while (deadline_ns < cur &&
         !earliest_deadline_.compare_exchange_weak(cur, deadline_ns,
                                                   std::memory_order_relaxed)) {
  }
}

void Rank::expire_rendezvous_deadlines(std::uint64_t now, std::uint64_t* next) {
  struct Victim {
    p2p::Request* req;
    int peer;
  };
  // lint: allow(hotpath-alloc) only reached when a deadline is armed
  std::vector<Victim> victims;
  {
    LockGuard guard(rndv_lock_);
    for (auto& [cookie, st] : rndv_sends_) {
      if (st->failed || st->request == nullptr) continue;
      const std::uint64_t dl = st->request->deadline();
      if (dl == 0) continue;
      if (dl <= now) {
        // Tombstone, not extraction: the receiver's ack may still arrive,
        // and the kSendData drain must find the state to discard it
        // instead of streaming from a buffer the owner already reclaimed.
        st->failed = true;
        victims.push_back(Victim{st->request, st->dst});
      } else if (dl < *next) {
        *next = dl;
      }
    }
    for (auto& [cookie, st] : rndv_recvs_) {
      if (st->failed || st->request == nullptr) continue;
      const std::uint64_t dl = st->request->deadline();
      if (dl == 0) continue;
      if (dl <= now) {
        st->failed = true;  // same tombstone rule as the ft purge
        victims.push_back(Victim{st->request, st->status.source});
      } else if (dl < *next) {
        *next = dl;
      }
    }
  }
  for (const Victim& v : victims) {
    if (v.req->fail(common::ErrorCode::kDeadlineExceeded)) {
      spc_.add(Counter::kDeadlineExceededOps);
      tracer_.record(trace::Event::kDeadline,
                     static_cast<std::uint32_t>(v.peer + 1), 0);
      report_error(common::Error{common::ErrorCode::kDeadlineExceeded, id_,
                                 v.peer, 0});
    }
  }
}

void Rank::overload_poll(std::uint64_t now) {
  // Deadline expiry sweep, gated on the rank-level CAS-min gate.
  const std::uint64_t observed = earliest_deadline_.load(std::memory_order_relaxed);
  if (observed != ~std::uint64_t{0} && now >= observed) {
    std::uint64_t next = ~std::uint64_t{0};
    for (auto& slot : comms_) {
      p2p::CommState* cs = slot.load(std::memory_order_acquire);
      if (cs == nullptr) continue;
      cs->match().expire_deadlines(now);
      const std::uint64_t d = cs->match().next_deadline_relaxed();
      if (d < next) next = d;
    }
    expire_rendezvous_deadlines(now, &next);
    // Raise the gate only past the value observed before the sweep: a
    // concurrent arm_deadline that lowered it mid-sweep wins the CAS, the
    // gate stays conservatively low, and the next poll re-sweeps — an arm
    // is never lost, at worst one sweep runs early.
    std::uint64_t expected = observed;
    (void)earliest_deadline_.compare_exchange_strong(expected, next,
                                                     std::memory_order_relaxed);
  }
  // Degradation ladder, sampled 1-in-64 progress visits — resource sums
  // walk every communicator, too heavy for every visit.
  if (!governor_.enabled()) return;
  if ((overload_visits_.fetch_add(1, std::memory_order_relaxed) & 63) != 0) return;
  std::uint64_t unexpected = 0;
  for (auto& slot : comms_) {
    p2p::CommState* cs = slot.load(std::memory_order_acquire);
    if (cs != nullptr) unexpected += cs->match().unexpected_count_relaxed();
  }
  const fabric::PayloadPoolStats pool = fabric::payload_pool_stats();
  const std::uint64_t in_flight =
      tracker_ != nullptr ? tracker_->in_flight() : 0;
  const overload::Governor::Transition t =
      governor_.sample(unexpected, pool.in_use_bytes, in_flight);
  if (t.changed) {
    spc_.add(Counter::kOverloadLevelChanges);
    tracer_.record(trace::Event::kOverloadLevel, static_cast<std::uint32_t>(t.to),
                   static_cast<std::uint32_t>(t.from));
  }
  spc_.update_max(Counter::kOverloadPoolPeak, pool.high_water_bytes);
}

bool Rank::cancel_request(p2p::Request* req) {
  // Rendezvous cancel: tombstone whichever registry holds the request
  // (ack/data may still arrive; the drains discard against `failed`), then
  // settle outside the lock.
  int peer = -1;
  {
    LockGuard guard(rndv_lock_);
    for (auto& [cookie, st] : rndv_sends_) {
      if (st->request == req && !st->failed) {
        st->failed = true;
        peer = st->dst;
        break;
      }
    }
    if (peer < 0) {
      for (auto& [cookie, st] : rndv_recvs_) {
        if (st->request == req && !st->failed) {
          st->failed = true;
          peer = st->status.source;
          break;
        }
      }
    }
  }
  if (peer < 0) return false;  // completed/failed concurrently, or not ours
  if (!req->fail(common::ErrorCode::kCancelled)) return false;
  spc_.add(Counter::kCancelledOps);
  tracer_.record(trace::Event::kCancel, static_cast<std::uint32_t>(peer + 1), 0);
  return true;
}

std::size_t Rank::scan_stalled(std::uint64_t now, std::uint64_t horizon) {
  (void)now;
  struct Stalled {
    int peer;
    std::uint64_t cookie;
  };
  // lint: allow(hotpath-alloc) watchdog escalation path, not the hot path
  std::vector<Stalled> flagged;
  {
    LockGuard guard(rndv_lock_);
    for (auto& [cookie, st] : rndv_sends_) {
      if (!st->stall_flagged && st->born_ns != 0 && st->born_ns < horizon) {
        st->stall_flagged = true;
        flagged.push_back(Stalled{st->dst, cookie});
      }
    }
    for (auto& [cookie, st] : rndv_recvs_) {
      if (!st->stall_flagged && st->born_ns != 0 && st->born_ns < horizon) {
        st->stall_flagged = true;
        flagged.push_back(Stalled{st->status.source, cookie});
      }
    }
  }
  for (const auto& s : flagged) {
    spc_.add(Counter::kWatchdogStalls);
    tracer_.record(trace::Event::kWatchdogStall, static_cast<std::uint32_t>(s.peer),
                   static_cast<std::uint32_t>(s.cookie));
    report_error(common::Error{common::ErrorCode::kStalledRendezvous, id_, s.peer,
                               s.cookie});
  }
  return flagged.size();
}

std::size_t Rank::handle_packet(fabric::Packet&& pkt) {
  // Structural validation before anything dereferences header fields: a
  // corrupted opcode or rank id is counted and dropped, never dispatched.
  if (!fabric::validate_structure(pkt, uni_->num_ranks())) {
    spc_.add(Counter::kHeaderDrops);
    return 0;
  }
  if (tracker_ != nullptr && !fabric::verify_checksum(pkt)) {
    spc_.add(Counter::kCsumDrops);
    tracer_.record(trace::Event::kCsumDrop, pkt.hdr.src_rank, pkt.hdr.seq);
    return 0;
  }
  // Liveness piggybacking: every validated inbound packet — any opcode —
  // refreshes its source's epoch, so a peer with ANY traffic toward us
  // never needs explicit heartbeats.
  if (ft_ != nullptr) {
    ft_->note_alive(static_cast<int>(pkt.hdr.src_rank), now_ns());
  }
  if (pkt.hdr.opcode == fabric::Opcode::kHeartbeat) {
    // Consumed before the ack path on purpose: heartbeats are pure liveness
    // evidence — never acked, never tracked; a lost one is recovered by the
    // next probe round.
    spc_.add(Counter::kFtHeartbeatsReceived);
    return 0;
  }
  if (tracker_ != nullptr) {
    if (pkt.hdr.opcode == fabric::Opcode::kAck) {
      spc_.add(Counter::kAcksReceived);
      tracer_.record(trace::Event::kAckRecv, pkt.hdr.src_rank, pkt.hdr.seq);
      (void)tracker_->ack(p2p::key_of_ack(pkt.hdr));
      return 0;
    }
    if (pkt.hdr.opcode == fabric::Opcode::kNack) {
      // Receiver shed the packet at admission (§5h): fail the tracked op
      // typed kReceiverOverloaded instead of retrying into the overload.
      spc_.add(Counter::kOverloadNacksReceived);
      handle_nack(pkt.hdr);
      return 0;
    }
    // Ack every structurally valid packet — duplicates included, because
    // the duplicate usually means our previous ack was the casualty.
    // Matchable envelopes (kEager/kRndvRts) are the exception: their
    // ack-or-NACK decision belongs to the admission verdict below, so
    // acking here would silently retire a packet the engine then sheds.
    if (pkt.hdr.opcode != fabric::Opcode::kEager &&
        pkt.hdr.opcode != fabric::Opcode::kRndvRts) {
      enqueue_packet_ack(pkt.hdr);
    }
  } else if (pkt.hdr.opcode == fabric::Opcode::kAck ||
             pkt.hdr.opcode == fabric::Opcode::kNack) {
    // Reliability off: there is no tracker to retire the (n)ack against.
    spc_.add(Counter::kHeaderDrops);
    return 0;
  }
  switch (pkt.hdr.opcode) {
    case fabric::Opcode::kEager:
    case fabric::Opcode::kRndvRts: {
      // Both carry a matching envelope; RTS delivery diverts to the
      // rendezvous hook inside the engine. The header outlives the move so
      // the admission verdict can be answered on the wire afterwards.
      const fabric::WireHeader hdr = pkt.hdr;
      fairmpi::match::Admission adm = fairmpi::match::Admission::kAdmitted;
      const std::size_t delivered =
          comm_state(hdr.comm_id).match().incoming(std::move(pkt), &adm);
      if (tracker_ != nullptr) {
        if (adm == fairmpi::match::Admission::kShed ||
            adm == fairmpi::match::Admission::kShedDuplicate) {
          if (adm == fairmpi::match::Admission::kShed) {
            spc_.add(Counter::kOverloadNacksSent);
          }
          enqueue_packet_nack(hdr);
        } else if (adm != fairmpi::match::Admission::kDeferred) {
          enqueue_packet_ack(hdr);
        }
        // kDeferred: answer nothing — the sender's retransmit clock is the
        // backpressure (§5h kQueue).
      }
      return delivered;
    }
    case fabric::Opcode::kRndvAck:
      return handle_rndv_ack(pkt);
    case fabric::Opcode::kRndvData:
      return handle_rndv_data(pkt);
    case fabric::Opcode::kAck:
    case fabric::Opcode::kNack:
    case fabric::Opcode::kHeartbeat:
    case fabric::Opcode::kInvalid:
      break;  // all consumed above; unreachable
  }
  FAIRMPI_CHECK_MSG(false, "invalid opcode on the wire");
  return 0;
}

std::size_t Rank::handle_completion(const fabric::Completion& c) {
  switch (c.kind) {
    case fabric::Completion::Kind::kSendDone: {
      auto* req = static_cast<p2p::Request*>(c.cookie);
      req->complete();
      return 1;
    }
    case fabric::Completion::Kind::kRmaDone: {
      // The cookie is the initiating window's pending-operation counter
      // (see rma/window.cpp). Handled here too because a generic progress
      // call may drain RMA completions before the flush path sees them.
      auto* pending = static_cast<std::atomic<std::uint64_t>*>(c.cookie);
      pending->fetch_sub(1, std::memory_order_release);
      return 1;
    }
    case fabric::Completion::Kind::kNone:
      break;
  }
  FAIRMPI_CHECK_MSG(false, "invalid completion on a CQ");
  return 0;
}

// --- Communicator forwarding (group-local <-> global translation here) ---

int Communicator::global_of(int local) const noexcept {
  const p2p::CommState& cs = rank_->comm_state(id_);
  return cs.has_group() ? cs.to_global(local) : local;
}

int Communicator::rank() const noexcept {
  const p2p::CommState& cs = rank_->comm_state(id_);
  return cs.has_group() ? cs.to_local(rank_->id()) : rank_->id();
}

int Communicator::size() const noexcept {
  const p2p::CommState& cs = rank_->comm_state(id_);
  return cs.has_group() ? cs.group_size() : rank_->universe().num_ranks();
}

bool Communicator::revoked() const noexcept {
  return rank_->comm_state(id_).revoked();
}

// Reserved-tag guard (bugfix, DESIGN.md §5i): tags at or above
// p2p::kReservedTagBase carry collective lanes and barrier rounds. A user
// op posted there through the public Communicator API would silently match
// against (or steal) collective traffic — fail it typed at post time
// instead. Engine internals (coll, barrier) bypass via the Rank-level ops.
bool Communicator::reject_reserved_tag(Request& req, int tag, int peer,
                                       bool is_send) const {
  if (tag == kAnyTag || tag < p2p::kReservedTagBase) return false;
  if (is_send) {
    req.init_send();
  } else {
    req.init_recv(nullptr, 0, peer, tag, 0);
  }
  if (req.fail(common::ErrorCode::kReservedTag)) {
    rank_->counters().add(Counter::kReservedTagRejects);
  }
  rank_->report_error(common::Error{common::ErrorCode::kReservedTag, rank_->id(), peer,
                                    static_cast<std::uint64_t>(tag)});
  return true;
}

void Communicator::isend(int dst, int tag, const void* buf, std::size_t n, Request& req,
                         std::uint64_t deadline_ns) {
  if (reject_reserved_tag(req, tag, dst, /*is_send=*/true)) return;
  rank_->isend(id_, global_of(dst), tag, buf, n, req, deadline_ns);
}

void Communicator::irecv(int src, int tag, void* buf, std::size_t capacity, Request& req,
                         std::uint64_t deadline_ns) {
  if (reject_reserved_tag(req, tag, src, /*is_send=*/false)) return;
  rank_->irecv(id_, src == kAnySource ? src : global_of(src), tag, buf, capacity, req,
               deadline_ns);
}

void Communicator::send(int dst, int tag, const void* buf, std::size_t n) {
  Request req;
  isend(dst, tag, buf, n, req);  // through the reserved-tag guard
  rank_->wait(req);
}

Status Communicator::recv(int src, int tag, void* buf, std::size_t capacity) {
  Status status;
  (void)recv_checked(src, tag, buf, capacity, &status);
  return status;
}

// Checked ops honour Config::op_deadline_ns (§5h): 0 keeps the historical
// wait-forever semantics; nonzero turns every checked op into a bounded
// call that fails typed kDeadlineExceeded instead of hanging.
static std::uint64_t checked_deadline(Rank& rank) {
  const std::uint64_t rel = rank.universe().config().op_deadline_ns;
  return rel == 0 ? 0 : now_ns() + rel;
}

common::ErrorCode Communicator::send_checked(int dst, int tag, const void* buf,
                                             std::size_t n) {
  Request req;
  isend(dst, tag, buf, n, req, checked_deadline(*rank_));
  rank_->wait(req);
  return req.error();
}

common::ErrorCode Communicator::recv_checked(int src, int tag, void* buf,
                                             std::size_t capacity, Status* status) {
  Request req;
  irecv(src, tag, buf, capacity, req, checked_deadline(*rank_));
  rank_->wait(req);
  if (status != nullptr) {
    *status = req.status();
    // Status carries the wire (global) source; hand back the group-local id.
    const p2p::CommState& cs = rank_->comm_state(id_);
    if (cs.has_group() && status->source != kAnySource) {
      status->source = cs.to_local(status->source);
    }
  }
  return req.error();
}

void Communicator::barrier() { (void)barrier_checked(); }

common::ErrorCode Communicator::barrier_checked() {
  // Dissemination barrier: log2(n) rounds of paired send/recv on reserved
  // tags. Reserved tag space starts at kBarrierTagBase; user tags in the
  // examples/benches stay far below it. Rank arithmetic is group-local;
  // translation happens at the isend/irecv boundary below.
  constexpr int kBarrierTagBase = 1 << 30;
  const int n = size();
  const int me = rank();
  if (n == 1) return common::ErrorCode::kOk;
  // One deadline for the whole barrier, computed at entry: the rounds are
  // serial, so per-round deadlines would let a barrier overrun by log2(n)×.
  const std::uint64_t deadline = checked_deadline(*rank_);
  unsigned char token = 0;
  for (int step = 0, dist = 1; dist < n; ++step, dist <<= 1) {
    if (revoked()) return common::ErrorCode::kCommRevoked;
    const int to = (me + dist) % n;
    const int from = ((me - dist) % n + n) % n;
    Request sreq, rreq;
    unsigned char in = 0;
    rank_->isend(id_, global_of(to), kBarrierTagBase + step, &token, 1, sreq, deadline);
    rank_->irecv(id_, global_of(from), kBarrierTagBase + step, &in, 1, rreq, deadline);
    rank_->wait(rreq);
    rank_->wait(sreq);
    // A dead partner (kPeerFailed) or a concurrent revoke fails the round's
    // requests typed — surface the first one instead of hanging (§5g).
    if (rreq.failed()) return rreq.error();
    if (sreq.failed()) return sreq.error();
  }
  return common::ErrorCode::kOk;
}

}  // namespace fairmpi
