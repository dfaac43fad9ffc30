#include "fairmpi/p2p/sender.hpp"

#include "fairmpi/common/backoff.hpp"
#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi::p2p {

using spc::Counter;

common::ErrorCode eager_send(CommState& comm, cri::CriPool& pool,
                             progress::ProgressEngine& engine,
                             spc::CounterSet& counters, int src_rank, int dst, int tag,
                             const void* buf, std::size_t n, Request& req,
                             const SendPolicy& policy) {
  FAIRMPI_CHECK_MSG(tag >= 0, "negative tags are reserved (wildcards/internal)");
  req.init_send(policy.deadline_ns);

  const auto dst_dead = [&]() {
    return policy.peer_failed != nullptr &&
           policy.peer_failed(policy.peer_failed_user, dst);
  };
  if (dst_dead()) {
    counters.add(Counter::kFtPeerFailedOps);
    req.fail(common::ErrorCode::kPeerFailed);
    return common::ErrorCode::kPeerFailed;
  }

  const auto make_progress = [&]() -> std::size_t {
    return policy.progress != nullptr ? policy.progress(policy.progress_user)
                                      : engine.progress();
  };
  const auto expired = [&]() {
    return policy.deadline_ns != 0 && now_ns() >= policy.deadline_ns;
  };

  std::uint64_t attempts = 0;
  // Adaptive spin-then-backoff (SNIPPETS.md §1 idiom) instead of the old
  // fixed SpinWait: backpressure waits are holder-length-unknown, so the
  // probe cadence should stretch while the backlog persists and snap back
  // on any progress.
  common::Backoff waiter;

  // One iteration of any wait loop: charge the retry budget, escape typed
  // on peer death / external cancel / deadline expiry, otherwise progress
  // and back off. `tracked` non-null = the packet is in the reliability
  // table and an abandoned send must untrack it (it never reached the
  // wire from this loop's point of view; a clone a concurrent sweep
  // already re-injected is at-least-once semantics as usual).
  const auto wait_tick = [&](const PacketKey* tracked) -> common::ErrorCode {
    counters.add(Counter::kSendBackpressure);
    if (policy.retry_limit != 0 && ++attempts >= policy.retry_limit) {
      if (tracked != nullptr) policy.tracker->untrack(*tracked);
      if (req.fail(common::ErrorCode::kSendBudgetExhausted)) {
        counters.add(Counter::kReliabilityErrors);
      }
      return common::ErrorCode::kSendBudgetExhausted;
    }
    if (dst_dead()) {
      if (tracked != nullptr) policy.tracker->untrack(*tracked);
      counters.add(Counter::kFtPeerFailedOps);
      req.fail(common::ErrorCode::kPeerFailed);
      return common::ErrorCode::kPeerFailed;
    }
    if (req.done()) {
      // Another thread settled the request under us — Request::cancel().
      if (tracked != nullptr) policy.tracker->untrack(*tracked);
      return req.error();
    }
    if (expired()) {
      if (tracked != nullptr) policy.tracker->untrack(*tracked);
      if (req.fail(common::ErrorCode::kDeadlineExceeded)) {
        counters.add(Counter::kDeadlineExceededOps);
      }
      return common::ErrorCode::kDeadlineExceeded;
    }
    if (make_progress() == 0) waiter.pause(); else waiter.reset();
    return common::ErrorCode::kOk;
  };

  // Sender-side overload admission (DESIGN.md §5h), consulted before the
  // sequence number is ticketed so a refused send never leaves a hole in
  // the peer's ordered stream. Uncapped configurations pay one branch.
  if (policy.governor != nullptr && policy.governor->enabled()) {
    const overload::Limits& lim = policy.governor->limits();
    if (lim.pool_cap_bytes != 0) {
      while (policy.governor->pool_at_cap(fabric::payload_pool_stats().in_use_bytes)) {
        if (lim.pool_policy == overload::Policy::kShed) {
          req.fail(common::ErrorCode::kLocalOverloaded);
          return common::ErrorCode::kLocalOverloaded;
        }
        const common::ErrorCode rc = wait_tick(nullptr);
        if (rc != common::ErrorCode::kOk) return rc;
      }
      waiter.reset();
    }
    if (lim.tracker_cap != 0 && policy.tracker != nullptr) {
      while (policy.governor->tracker_at_cap(policy.tracker->in_flight())) {
        if (lim.tracker_policy == overload::Policy::kShed) {
          req.fail(common::ErrorCode::kLocalOverloaded);
          return common::ErrorCode::kLocalOverloaded;
        }
        const common::ErrorCode rc = wait_tick(nullptr);
        if (rc != common::ErrorCode::kOk) return rc;
      }
      waiter.reset();
    }
  }

  // Sequence ticketing happens before resource acquisition, as in OB1. Two
  // threads that ticket back-to-back can inject in the opposite order (or
  // into different contexts) — this is where out-of-sequence messages come
  // from, even with a single instance.
  fabric::Packet pkt;
  pkt.hdr.opcode = fabric::Opcode::kEager;
  pkt.hdr.src_rank = static_cast<std::uint16_t>(src_rank);
  pkt.hdr.comm_id = comm.id();
  pkt.hdr.tag = tag;
  pkt.hdr.seq = comm.next_seq(dst);
  pkt.set_payload(buf, n);

  // Send-window gate: block (progressing, so acks keep flowing both ways)
  // while the unacked backlog is at the window. Charged against the same
  // retry budget as ring backpressure — a peer that never acks is the same
  // livelock as a peer that never drains.
  if (policy.tracker != nullptr && policy.window != 0) {
    while (policy.tracker->in_flight() >= policy.window) {
      const common::ErrorCode rc = wait_tick(nullptr);
      if (rc != common::ErrorCode::kOk) return rc;
    }
    waiter.reset();
  }

  // Track before the first injection attempt so an ack racing back through
  // a fast peer always finds the entry (reliability.hpp contract). On a
  // failed attempt the fabric hands the packet back intact, so the tracked
  // clone and the wire packet never diverge.
  if (policy.tracker != nullptr) {
    policy.tracker->track(dst, pkt, now_ns());
  }
  for (;;) {
    const int k = pool.id_for_thread();
    cri::CommResourceInstance& inst = pool.instance(k);

    // inject() takes the instance lock (timed when contended, DESIGN.md
    // §5f); the packet is intact again on backpressure. The steering hint
    // is re-read per attempt: a reply that lands while we wait redirects
    // the retry too.
    const bool injected = inst.inject(dst, comm.steer(dst), pkt, counters);
    if (injected) break;

    // Destination RX ring full: the fabric's EAGAIN. Drop the instance,
    // make progress on our own resources (the peer may be blocked on *our*
    // ring in a bidirectional flood), then retry — spinning while young,
    // yielding once saturated so a descheduled peer can run.
    const PacketKey key = key_of(dst, pkt.hdr);
    const common::ErrorCode rc =
        wait_tick(policy.tracker != nullptr ? &key : nullptr);
    if (rc != common::ErrorCode::kOk) return rc;
  }

  counters.add(Counter::kMessagesSent);
  counters.add(Counter::kBytesSent, n);
  // complete() is the last touch: the waiting owner may destroy `req` the
  // instant done() flips, so the outcome travels via the return value.
  req.complete();
  return common::ErrorCode::kOk;
}

}  // namespace fairmpi::p2p
