// Ack/retransmit tracker (see include/fairmpi/p2p/reliability.hpp).
//
// Hot-path discipline: the only steady-state allocations are the in-flight
// map's nodes, which exist exclusively when fault injection / reliability is
// switched on — the pristine-fabric hot path never reaches this file. The
// retransmit master copies recycle payload buffers through the fabric's
// size-classed pool (clone_packet).
#include "fairmpi/p2p/reliability.hpp"

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"

namespace fairmpi::p2p {

ReliabilityTracker::ReliabilityTracker(std::uint64_t rto_ns, std::uint64_t rto_max_ns,
                                       int max_retries, std::atomic<std::uint64_t>* due)
    : rto_ns_(rto_ns), rto_max_ns_(rto_max_ns), max_retries_(max_retries), due_(due) {
  // max_retries == 0 is the fail-fast mode: the first unacked rto expiry
  // fails the entry typed without ever retransmitting.
  FAIRMPI_CHECK(rto_ns >= 1 && rto_max_ns >= rto_ns && max_retries >= 0);
}

void ReliabilityTracker::track(int dst, const fabric::Packet& pkt,
                               std::uint64_t now_ns) {
  Entry e;
  e.dst = dst;
  e.retries = 0;
  e.rto_ns = rto_ns_;
  e.deadline_ns = now_ns + rto_ns_;
  e.pkt = fabric::clone_packet(pkt);
  const PacketKey key = key_of(dst, pkt.hdr);

  LockGuard guard(lock_);
  const std::uint64_t deadline = e.deadline_ns;
  // lint: allow(hotpath-alloc) map node exists only under fault injection
  if (inflight_.insert_or_assign(key, std::move(e)).second) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  if (due_ != nullptr) lower_due(*due_, deadline);
}

bool ReliabilityTracker::ack(const PacketKey& key) {
  LockGuard guard(lock_);
  if (inflight_.erase(key) == 0) return false;
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void ReliabilityTracker::untrack(const PacketKey& key) {
  LockGuard guard(lock_);
  if (inflight_.erase(key) != 0) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ReliabilityTracker::fail_peer(int peer, std::vector<Failure>& failures) {
  LockGuard guard(lock_);
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.dst != peer) {
      ++it;
      continue;
    }
    // lint: allow(hotpath-alloc) peer death is a cold, once-per-rank event
    failures.push_back(Failure{it->first, it->second.retries,
                               common::ErrorCode::kPeerFailed});
    it = inflight_.erase(it);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ReliabilityTracker::confirm_retransmit(const PacketKey& key,
                                            std::uint64_t now_ns) {
  LockGuard guard(lock_);
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;  // acked while we were injecting
  Entry& e = it->second;
  ++e.retries;
  e.rto_ns = e.rto_ns * 2 < rto_max_ns_ ? e.rto_ns * 2 : rto_max_ns_;
  e.deadline_ns = now_ns + e.rto_ns;
  if (due_ != nullptr) lower_due(*due_, e.deadline_ns);
}

}  // namespace fairmpi::p2p
