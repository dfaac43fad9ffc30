#include <algorithm>
#include <optional>
#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"

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
  return lim;
}

}  // namespace

Rank::Rank(Universe& uni, int id)
    : uni_(&uni), id_(id), tracer_(uni.config().trace_entries),
      pool_(uni.fabric(), id, uni.config().assignment),
      engine_(pool_, *this, uni.config().progress_mode, spc_,
              static_cast<int>(progress::ProgressEngine::kMaxDrainBatch), &tracer_),
      comms_(static_cast<std::size_t>(uni.config().max_communicators)),
      governor_(limits_from(uni.config())) {
  for (auto& slot : comms_) slot.store(nullptr, std::memory_order_relaxed);
  const Config& cfg = uni.config();
  if (cfg.trace_enabled) tracer_.enable(true);
  if (cfg.reliable) {
    // lint: allow(hotpath-alloc) ctor: one tracker per rank
    tracker_ = std::make_unique<p2p::ReliabilityTracker>(
        cfg.rto_ns, cfg.rto_max_ns, cfg.max_retries, &uni.retransmit_due_);
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
    // lint: allow(hotpath-alloc) ctor: one detector per rank
    ft_ = std::make_unique<ft::FailureDetector>(cfg.num_ranks, id, fp, spc_, tracer_);
    // Scratch sized once: failure propagation must not allocate on the
    // progress path (a poll that confirms nothing touches neither vector).
    // lint: allow(hotpath-alloc) ctor: detector scratch sized once
    ft_probes_.reserve(static_cast<std::size_t>(cfg.num_ranks));
    // lint: allow(hotpath-alloc) ctor: detector scratch sized once
    ft_newly_dead_.reserve(static_cast<std::size_t>(cfg.num_ranks));
  }
  if (cfg.watchdog_interval_ns != kNever) {
    // lint: allow(hotpath-alloc) ctor: one watchdog per rank
    watchdog_ = std::make_unique<progress::Watchdog>(
        pool_, cfg.watchdog_stall_sweeps, ft_ != nullptr ? ft_->suspect_hint() : nullptr);
  }
  // Both cadences start due: the first progress call runs the first sweep.
  if (watchdog_ != nullptr || ft_ != nullptr) due_ns_.store(0, std::memory_order_relaxed);
}

void Rank::set_error_sink(common::ErrorSink sink, void* user) noexcept {
  err_sink_ = sink;
  err_user_ = user;
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
  // lint: allow(hotpath-alloc) communicator creation, once per communicator
  auto* state = new p2p::CommState(id, uni_->num_ranks(),
                                   uni_->config().allow_overtaking, spc_,
                                   uni_->config().reliable, std::move(members));
  state->match().set_rendezvous_hook(this);
  state->match().set_overload(&governor_, &tracer_);
  state->match().set_deadline_due(&due_ns_);
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
    settle(&req, common::ErrorCode::kCommRevoked, dst);
    report_error(common::Error{common::ErrorCode::kCommRevoked, id_, dst, comm});
    return;
  }
  if (peer_failed(dst)) {
    // Confirmed-dead destination: fail fast — uniformly for eager and
    // rendezvous — instead of feeding a permanently-down link.
    req.init_send();
    settle(&req, common::ErrorCode::kPeerFailed, dst);
    report_error(common::Error{common::ErrorCode::kPeerFailed, id_, dst, 0});
    return;
  }
  FAIRMPI_CHECK_MSG(tag >= 0, "negative tags are reserved (wildcards/internal)");
  if (n > uni_->config().eager_limit) {
    tracer_.record(trace::Event::kRndvRts, static_cast<std::uint32_t>(dst),
                   static_cast<std::uint32_t>(n));
    rndv_isend(comm, dst, tag, buf, n, req, deadline_ns);
    return;
  }
  tracer_.record(trace::Event::kSend, static_cast<std::uint32_t>(dst),
                 static_cast<std::uint32_t>(tag));
  // Outcome comes back by value: completing `req` hands it back to the
  // waiting owner, which may destroy it before we could read failed().
  const common::ErrorCode ec = eager_send(cs, dst, tag, buf, n, req, deadline_ns);
  if (ec != common::ErrorCode::kOk) {
    report_error(common::Error{ec, id_, dst, 0});
  }
}

common::ErrorCode Rank::eager_send(p2p::CommState& comm, int dst, int tag, const void* buf,
                                   std::size_t n, Request& req, std::uint64_t deadline_ns) {
  req.init_send(deadline_ns);
  const std::uint64_t retry_limit = uni_->config().send_retry_limit;
  std::uint64_t attempts = 0;
  SpinWait waiter;

  // One iteration of either wait loop: charge the retry budget, escape
  // typed on peer death / external cancel / deadline expiry, otherwise
  // progress (the full rank's: acks leave through its ack flush, and a
  // bidirectional flood deadlocks without them) and pause. `tracked`
  // non-null = the packet is in the reliability table and an abandoned
  // send must untrack it (a clone a concurrent sweep already re-injected
  // is at-least-once semantics as usual).
  const auto wait_tick = [&](const p2p::PacketKey* tracked) -> common::ErrorCode {
    spc_.add(Counter::kSendBackpressure);
    common::ErrorCode rc = common::ErrorCode::kOk;
    if (retry_limit != 0 && ++attempts >= retry_limit) {
      rc = common::ErrorCode::kSendBudgetExhausted;
    } else if (peer_failed(dst)) {
      rc = common::ErrorCode::kPeerFailed;
      spc_.add(Counter::kFtPeerFailedOps);
    } else if (req.done()) {
      rc = req.error();  // another thread settled it: Request::cancel()
    } else if (deadline_ns != 0 && now_ns() >= deadline_ns) {
      rc = common::ErrorCode::kDeadlineExceeded;
    } else {
      if (progress() == 0) waiter.pause(); else waiter.reset();
      return rc;
    }
    if (tracked != nullptr) tracker_->untrack(*tracked);
    if (req.fail(rc)) {
      if (rc == common::ErrorCode::kSendBudgetExhausted) spc_.add(Counter::kReliabilityErrors);
      if (rc == common::ErrorCode::kDeadlineExceeded) spc_.add(Counter::kDeadlineExceededOps);
    }
    return rc;
  };

  // Admission (DESIGN.md §5h), one loop before the sequence number is
  // ticketed, so a send refused or abandoned here never leaves a hole in
  // the peer's ordered stream. The gates: the payload-pool and tracker
  // caps (kQueue waits, kShed fails the op typed), and the reliability
  // window, which waits — progressing, so acks keep flowing both ways —
  // while the unacked backlog is full. An uncapped, unreliable rank pays
  // two branches.
  const std::size_t window = uni_->config().reliability_window;
  const auto shut_gate = [&]() -> std::optional<overload::Policy> {
    if (governor_.enabled()) {
      const overload::Limits& lim = governor_.limits();
      if (lim.pool_cap_bytes != 0 &&
          governor_.pool_at_cap(fabric::payload_pool_stats().in_use_bytes)) {
        return lim.pool_policy;
      }
      if (tracker_ != nullptr && governor_.tracker_at_cap(tracker_->in_flight())) {
        return lim.tracker_policy;
      }
    }
    if (tracker_ != nullptr && window != 0 && tracker_->in_flight() >= window) {
      return overload::Policy::kQueue;
    }
    return std::nullopt;
  };
  while (const std::optional<overload::Policy> gate = shut_gate()) {
    if (*gate == overload::Policy::kShed) {
      req.fail(common::ErrorCode::kLocalOverloaded);
      return common::ErrorCode::kLocalOverloaded;
    }
    const common::ErrorCode rc = wait_tick(nullptr);
    if (rc != common::ErrorCode::kOk) return rc;
  }

  // Sequence ticketing happens before resource acquisition, as in OB1. Two
  // threads that ticket back-to-back can inject in the opposite order (or
  // into different contexts) — this is where out-of-sequence messages come
  // from, even with a single instance.
  fabric::Packet pkt;
  pkt.hdr.opcode = fabric::Opcode::kEager;
  pkt.hdr.src_rank = static_cast<std::uint16_t>(id_);
  pkt.hdr.comm_id = comm.id();
  pkt.hdr.tag = tag;
  pkt.hdr.seq = comm.next_seq(dst);
  pkt.set_payload(buf, n);

  // Track before the first injection attempt so an ack racing back through
  // a fast peer always finds the entry (reliability.hpp contract). On a
  // failed attempt the fabric hands the packet back intact, so the tracked
  // clone and the wire packet never diverge.
  if (tracker_ != nullptr) tracker_->track(dst, pkt, now_ns());
  // Destination RX ring full is the fabric's EAGAIN: drop the instance,
  // progress our own resources (the peer may be blocked on *our* ring in a
  // bidirectional flood), then retry. The instance and the steering hint
  // are re-read per attempt, so a reply that lands meanwhile redirects the
  // retry too.
  while (!inject_raw(dst, pkt)) {
    const p2p::PacketKey key = p2p::key_of(dst, pkt.hdr);
    const common::ErrorCode rc = wait_tick(tracker_ != nullptr ? &key : nullptr);
    if (rc != common::ErrorCode::kOk) return rc;
  }

  spc_.add(Counter::kMessagesSent);
  spc_.add(Counter::kBytesSent, n);
  // complete() is the last touch: the waiting owner may destroy `req` the
  // instant done() flips, so the outcome travels via the return value.
  req.complete();
  return common::ErrorCode::kOk;
}

void Rank::irecv(CommId comm, int src, int tag, void* buf, std::size_t capacity,
                 Request& req, std::uint64_t deadline_ns) {
  FAIRMPI_CHECK_MSG(src == kAnySource || (src >= 0 && src < uni_->num_ranks()),
                    "invalid source rank");
  FAIRMPI_CHECK_MSG(tag == kAnyTag || tag >= 0, "invalid tag filter");
  req.init_recv(buf, capacity, src, tag, deadline_ns);
  tracer_.record(trace::Event::kRecvPost, static_cast<std::uint32_t>(src + 1),
                 static_cast<std::uint32_t>(tag));
  comm_state(comm).match().post(&req);  // arms the rank's due time
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
  // Timed work (DESIGN.md §5): two relaxed loads, and one clock read only
  // when something is armed. The universe-wide retransmit due time is read
  // by every rank, so a rank that stopped progressing is still served.
  const std::uint64_t due = std::min(due_ns_.load(std::memory_order_relaxed),
                                     uni_->retransmit_due_.load(std::memory_order_relaxed));
  if (due != kNever) {
    const std::uint64_t now = now_ns();
    if (now >= due) run_timed_work(now);
  }
  if (governor_.enabled()) sample_governor();
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

int Rank::steer_ctx(int dst, const fabric::WireHeader& hdr) {
  return hdr.opcode == fabric::Opcode::kHeartbeat ? fabric::kStaticRoute
                                                   : comm_state(hdr.comm_id).steer(dst);
}

bool Rank::inject_raw(int dst, fabric::Packet& pkt) {
  cri::CommResourceInstance& inst = pool_.instance(pool_.id_for_thread());
  return inst.inject(dst, steer_ctx(dst, pkt.hdr), pkt, spc_);
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
    if (!inject_raw(msg.peer, ack)) {
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

std::uint64_t Rank::reliability_sweep(std::uint64_t now) {
  // lint: allow(hotpath-alloc) only reached when packets expired (lossy run)
  std::vector<p2p::ReliabilityTracker::Resend> resends;
  std::vector<p2p::ReliabilityTracker::Failure> failures;
  const std::uint64_t next = tracker_->sweep(
      now, resends, failures, [this](int dst) { return peer_failed(dst); });
  for (auto& r : resends) {
    const p2p::PacketKey key = p2p::key_of(r.dst, r.pkt.hdr);
    // Single attempt: if the ring is full the tracker still holds the
    // entry, so a later sweep simply tries again — no nested retry loop.
    // Only a clone that actually reached the wire is charged against the
    // retry budget (confirm applies the backoff); a ring-full failure is
    // the sender's own congestion, not evidence of loss.
    if (inject_raw(r.dst, r.pkt)) {
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
  return next;
}

// --- typed settlement (p2p/settle.hpp) ---

void Rank::account(common::ErrorCode code, int peer, std::uint64_t detail) noexcept {
  const p2p::SettleAccount acct = p2p::settle_account(code);
  if (acct.counter != Counter::kCount) spc_.add(acct.counter);
  if (acct.event != trace::Event::kNone) {
    tracer_.record(acct.event, static_cast<std::uint32_t>(peer + 1),
                   static_cast<std::uint32_t>(detail));
  }
  if (acct.report) report_error(common::Error{code, id_, peer, detail});
}

bool Rank::settle(p2p::Request* req, common::ErrorCode code, int peer,
                  std::uint64_t detail) noexcept {
  if (!req->fail(code)) return false;
  account(code, peer, detail);
  return true;
}

template <class PickSend, class PickRecv>
std::vector<Rank::RndvVictim> Rank::claim_rendezvous(bool extract_sends, PickSend pick_send,
                                                     PickRecv pick_recv) {
  // lint: allow(hotpath-alloc) settle paths are cold: death, deadline, cancel, NACK
  std::vector<RndvVictim> victims;
  LockGuard guard(rndv_lock_);
  for (auto it = rndv_sends_.begin(); it != rndv_sends_.end();) {
    p2p::RndvSendState& st = *it->second;
    if ((st.failed && !extract_sends) || !pick_send(st)) {
      ++it;
      continue;
    }
    if (!st.failed) victims.push_back(RndvVictim{st.request, st.dst});
    if (extract_sends) {
      // Whoever extracts owns the state, exactly like the kSendData drain.
      it = rndv_sends_.erase(it);
      continue;
    }
    st.failed = true;
    ++it;
  }
  for (auto& [cookie, st] : rndv_recvs_) {
    // Receives are always tombstoned, never erased here: a deliverer may
    // hold the state pointer from before the claim. handle_rndv_data checks
    // `failed` under this lock and retires the tombstone itself.
    if (st->failed || !pick_recv(*st)) continue;
    st->failed = true;
    victims.push_back(RndvVictim{st->request, st->status.source});
  }
  return victims;
}

std::size_t Rank::rendezvous_pending() const {
  LockGuard guard(rndv_lock_);
  return rndv_sends_.size() + rndv_recvs_.size();
}

// --- timed work (DESIGN.md §5 "Timed work") ---

void Rank::run_timed_work(std::uint64_t now) {
  // Every rank serves the universe-wide retransmit due time: retransmission
  // models the NIC's autonomous recovery, so it must run even when the
  // packet's owner has stopped calling progress().
  if (tracker_ != nullptr) uni_->sweep_reliability(now);
  if (now < due_ns_.load(std::memory_order_relaxed) ||
      runner_.exchange(true, std::memory_order_acquire)) {
    return;
  }
  if (claim_due(due_ns_, now)) {
    std::uint64_t next = kNever;
    if (watchdog_ != nullptr) {
      if (now >= watchdog_due_) {
        stalls_.clear();
        watchdog_->poll(stalls_);
        for (const progress::Watchdog::Stall& st : stalls_) {
          escalate_stall(common::ErrorCode::kStalledInstance, st.peer,
                         static_cast<std::uint32_t>(st.instance),
                         static_cast<std::uint32_t>(st.strikes),
                         static_cast<std::uint64_t>(st.instance));
        }
        const Config& cfg = uni_->config();
        if (now > cfg.rndv_stall_ns) scan_stalled(now - cfg.rndv_stall_ns);
        const std::uint64_t interval = cfg.watchdog_interval_ns;
        watchdog_due_ = interval > kNever - now ? kNever : now + interval;
      }
      next = watchdog_due_;
    }
    if (ft_ != nullptr) {
      if (now >= ft_due_) ft_due_ = ft_poll(now);
      next = std::min(next, ft_due_);
    }
    next = std::min(next, expire_deadlines(now));
    lower_due(due_ns_, next);
  }
  runner_.store(false, std::memory_order_release);
}

std::uint64_t Rank::expire_deadlines(std::uint64_t now) {
  std::uint64_t next = kNever;
  for (auto& slot : comms_) {
    p2p::CommState* cs = slot.load(std::memory_order_acquire);
    if (cs != nullptr) next = std::min(next, cs->match().expire_deadlines(now));
  }
  // Tombstoned, not extracted: the peer's ack or data may still arrive,
  // and the drains must find the state to discard it (rendezvous.hpp).
  const auto expired = [&](const p2p::Request* req) {
    const std::uint64_t dl = req->deadline();
    if (dl > now) next = std::min(next, dl);
    return dl != 0 && dl <= now;
  };
  for (const RndvVictim& v : claim_rendezvous(
           /*extract_sends=*/false,
           [&](const p2p::RndvSendState& st) { return expired(st.request); },
           [&](const p2p::RndvRecvState& st) { return expired(st.request); })) {
    settle(v.req, common::ErrorCode::kDeadlineExceeded, v.peer);
  }
  return next;
}

// --- ft layer (DESIGN.md §5g) ---

std::uint64_t Rank::ft_poll(std::uint64_t now) {
  // Runner-owned scratch: the steady-state poll allocates nothing.
  ft_probes_.clear();
  ft_newly_dead_.clear();
  const std::uint64_t next = ft_->poll(now, ft_probes_, ft_newly_dead_);
  for (const int dst : ft_probes_) send_heartbeat(dst);
  for (const int peer : ft_newly_dead_) on_peer_dead(peer);
  return next;
}

void Rank::send_heartbeat(int dst) {
  fabric::Packet hb;
  hb.hdr.opcode = fabric::Opcode::kHeartbeat;
  hb.hdr.src_rank = static_cast<std::uint16_t>(id_);
  hb.hdr.comm_id = kWorldComm;
  // Single attempt, never tracked: a heartbeat lost to backpressure or the
  // fault model is simply re-sent on the next idle round.
  if (inject_raw(dst, hb)) {
    spc_.add(Counter::kFtHeartbeatsSent);
  }
}

void Rank::on_peer_dead(int peer) {
  // 1. Tracked sends toward the peer fail typed (not retry-burned). An
  //    entry tracked by a racing sender after this purge is failed by the
  //    next sweep, which asks peer_failed() about every destination.
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
  // 3. In-flight rendezvous transfers to/from the peer fail. Sends are
  //    extracted: a dead peer sends no RndvAck.
  for (const RndvVictim& v : claim_rendezvous(
           /*extract_sends=*/true,
           [peer](const p2p::RndvSendState& st) { return st.dst == peer; },
           [peer](const p2p::RndvRecvState& st) { return st.status.source == peer; })) {
    settle(v.req, common::ErrorCode::kPeerFailed, v.peer);
  }
  // 4. One summary error so a sink-only consumer hears about the death
  //    even with zero outstanding operations.
  report_error(common::Error{common::ErrorCode::kPeerFailed, id_, peer, 0});
}

// --- overload control (DESIGN.md §5h) ---

void Rank::handle_nack(const fabric::WireHeader& hdr) {
  const p2p::PacketKey key = p2p::key_of_ack(hdr);
  if (!tracker_->ack(key)) return;  // duplicate NACK, or an ack raced in
  const int peer = static_cast<int>(key.peer);
  account(common::ErrorCode::kReceiverOverloaded, peer, key.seq);
  if (key.opcode != static_cast<std::uint16_t>(fabric::Opcode::kRndvRts)) return;
  // The receiver shed our RTS at admission: no RndvAck will ever arrive,
  // so the NACK is this transfer's only possible terminal event — extract
  // the send state and fail the request typed (accounted just above).
  for (const RndvVictim& v : claim_rendezvous(
           /*extract_sends=*/true,
           [&](const p2p::RndvSendState& st) {
             return st.dst == peer && st.comm == key.comm && st.rts_seq == key.seq;
           },
           [](const p2p::RndvRecvState&) { return false; })) {
    (void)v.req->fail(common::ErrorCode::kReceiverOverloaded);
  }
}

void Rank::sample_governor() {
  // Degradation ladder, sampled 1-in-64 progress visits — resource sums
  // walk every communicator, too heavy for every visit.
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
  const std::vector<RndvVictim> victims = claim_rendezvous(
      /*extract_sends=*/false,
      [req](const p2p::RndvSendState& st) { return st.request == req; },
      [req](const p2p::RndvRecvState& st) { return st.request == req; });
  // Empty when completed/failed concurrently, or not ours.
  return !victims.empty() &&
         settle(victims.front().req, common::ErrorCode::kCancelled, victims.front().peer);
}

void Rank::scan_stalled(std::uint64_t horizon) {
  struct Stalled {
    int peer;
    std::uint64_t cookie;
  };
  // lint: allow(hotpath-alloc) watchdog escalation path, not the hot path
  std::vector<Stalled> flagged;
  {
    // Settled (tombstoned) transfers are not stalls: their owner already
    // heard the outcome.
    LockGuard guard(rndv_lock_);
    for (auto& [cookie, st] : rndv_sends_) {
      if (!st->failed && !st->stall_flagged && st->born_ns != 0 && st->born_ns < horizon) {
        st->stall_flagged = true;
        flagged.push_back(Stalled{st->dst, cookie});
      }
    }
    for (auto& [cookie, st] : rndv_recvs_) {
      if (!st->failed && !st->stall_flagged && st->born_ns != 0 && st->born_ns < horizon) {
        st->stall_flagged = true;
        flagged.push_back(Stalled{st->status.source, cookie});
      }
    }
  }
  for (const auto& s : flagged) {
    escalate_stall(common::ErrorCode::kStalledRendezvous, s.peer,
                   static_cast<std::uint32_t>(s.peer), static_cast<std::uint32_t>(s.cookie),
                   s.cookie);
  }
}

void Rank::escalate_stall(common::ErrorCode code, int peer, std::uint32_t a, std::uint32_t b,
                          std::uint64_t detail) {
  spc_.add(Counter::kWatchdogStalls);
  tracer_.record(trace::Event::kWatchdogStall, a, b);
  report_error(common::Error{code, id_, peer, detail});
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
  // marks its source heard, so a peer with ANY traffic toward us never
  // needs explicit heartbeats.
  if (ft_ != nullptr) ft_->note_alive(static_cast<int>(pkt.hdr.src_rank));
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
      p2p::CommState& cs = comm_state(hdr.comm_id);
      // Stream steering: only envelopes carry the hint. They leave from
      // the sending thread's own instance, whereas acks, retransmits and
      // rendezvous data leave from whichever thread happened to progress.
      cs.note_stream(static_cast<int>(hdr.src_rank), static_cast<int>(hdr.src_ctx));
      fairmpi::match::Admission adm = fairmpi::match::Admission::kAdmitted;
      const std::size_t delivered = cs.match().incoming(std::move(pkt), &adm);
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
