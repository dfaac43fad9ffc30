// Ack/retransmit reliability protocol (sender side).
//
// With fault injection enabled the fabric may drop, duplicate, corrupt or
// reorder packets; this tracker gives every reliable packet at-least-once
// delivery (the matching/rendezvous layers' dedup makes it exactly-once):
//
//   sender                              receiver
//   ──────                              ────────
//   track(clone) BEFORE injecting  ──►  validate + verify checksum, then
//   (so a racing ack never beats        ack *every* accepted packet
//   the bookkeeping)                    (Opcode::kAck echoing the key) —
//   ack arrives: entry retired   ◄──    duplicates are re-acked, because
//   timeout: clone re-injected,         the previous ack may be the loss
//     rto doubling per retry
//     (msgrate backoff idiom) up to
//     rto_max; after max_retries the
//     entry fails typed (common::Error)
//
// The key {opcode, peer, comm, seq, imm} uniquely identifies every packet
// kind on the wire: eager/RTS by their matching seq, RndvAck by the sender
// cookie in imm, RndvData by the receiver cookie + fragment index. Acks
// themselves are never tracked — a lost ack is recovered by retransmit +
// duplicate-discard + re-ack.
//
// Lock discipline: the table lock ranks kReliability (47), above the CRI
// and match locks and below the rendezvous registries. No engine lock is
// held when it is taken: the send paths track before their first
// injection (Rank::eager_send, and Rank::inject_control from the deferred
// control drain), and acks and NACKs retire entries from packet dispatch,
// which runs after the instance lock is released. Under it only the
// payload pool (clone_packet) is acquired. sweep() only collects clones
// under the lock; the caller re-injects after releasing it (injection takes
// CRI locks, rank 20, which must never be acquired under this one).
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi::p2p {

/// Identity of one reliable packet in flight.
struct PacketKey {
  std::uint16_t opcode = 0;
  std::uint16_t peer = 0;  ///< destination rank
  std::uint32_t comm = 0;
  std::uint32_t seq = 0;
  std::uint64_t imm = 0;

  bool operator==(const PacketKey&) const noexcept = default;
};

struct PacketKeyHash {
  std::size_t operator()(const PacketKey& k) const noexcept {
    // splitmix64-style finalizer over the packed fields.
    std::uint64_t x = (static_cast<std::uint64_t>(k.opcode) << 48) ^
                      (static_cast<std::uint64_t>(k.peer) << 32) ^ k.comm;
    x ^= (static_cast<std::uint64_t>(k.seq) << 32) ^ k.imm ^ 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Key of an outbound packet (tracked at the sender).
inline PacketKey key_of(int dst, const fabric::WireHeader& h) noexcept {
  return PacketKey{static_cast<std::uint16_t>(h.opcode),
                   static_cast<std::uint16_t>(dst), h.comm_id, h.seq, h.imm};
}

/// Key echoed by an inbound ack: the acked opcode rides in hdr.tag, the
/// peer is the ack's sender (the original destination).
inline PacketKey key_of_ack(const fabric::WireHeader& ack) noexcept {
  return PacketKey{static_cast<std::uint16_t>(ack.tag), ack.src_rank,
                   ack.comm_id, ack.seq, ack.imm};
}

class ReliabilityTracker {
 public:
  /// `due` (may be null when standalone) is the universe-wide retransmit
  /// due time: every arm — track, confirm_retransmit — lowers it under the
  /// table lock, the lock sweep() reads the entries under (timing.hpp).
  ReliabilityTracker(std::uint64_t rto_ns, std::uint64_t rto_max_ns, int max_retries,
                     std::atomic<std::uint64_t>* due = nullptr);
  ReliabilityTracker(const ReliabilityTracker&) = delete;
  ReliabilityTracker& operator=(const ReliabilityTracker&) = delete;

  /// Register a packet about to be injected; clones header + payload.
  /// MUST happen before the injection so an immediate ack finds the entry.
  void track(int dst, const fabric::Packet& pkt, std::uint64_t now_ns);

  /// Retire the entry an ack — or an overload NACK (DESIGN.md §5h) —
  /// names. False when unknown (already acked — the ack of a duplicate, or
  /// a re-NACK of an already-failed shed).
  bool ack(const PacketKey& key);

  /// Remove a tracked entry whose injection ultimately failed (EAGAIN
  /// budget exhausted before the packet ever hit the wire).
  void untrack(const PacketKey& key);

  struct Resend {
    int dst = 0;
    fabric::Packet pkt;
  };
  struct Failure {
    PacketKey key;
    int retries = 0;
    /// Why the entry failed: kRetryExhausted for ordinary timeout, or
    /// kPeerFailed when the destination was confirmed dead (fail_peer).
    common::ErrorCode code = common::ErrorCode::kRetryExhausted;
  };

  /// Collect expired entries: clones to re-inject into `resends` and
  /// retry-exhausted entries — removed from the table — into `failures`.
  /// `is_dead(dst)` answers whether a destination was confirmed dead: its
  /// entries fail kPeerFailed at once, whatever their deadline (a send that
  /// raced fail_peer tracked them after the purge).
  /// Sweeping only *claims* an entry (its deadline moves one rto out); the
  /// retry budget and the exponential backoff are charged by
  /// confirm_retransmit once the clone actually made it onto the wire.
  /// A retransmit that dies on a full ring costs nothing — under
  /// backpressure storms the budget must measure genuine losses, not the
  /// sender's own congestion, or entries exhaust and messages vanish.
  /// Caller injects with no tracker lock held. Returns the earliest
  /// deadline still tracked (kNever when empty).
  template <class IsDead>
  std::uint64_t sweep(std::uint64_t now_ns, std::vector<Resend>& resends,
                      std::vector<Failure>& failures, IsDead is_dead);

  /// Record that a swept clone was injected: charges one retry and doubles
  /// the rto (bounded by rto_max). No-op when the entry was acked between
  /// the sweep and the injection.
  void confirm_retransmit(const PacketKey& key, std::uint64_t now_ns);

  /// Peer-death propagation (ft): move every tracked entry destined to
  /// `peer` — removed from the table — into `failures` with code
  /// kPeerFailed, instead of letting each burn its retry budget into a dead
  /// link. Entries tracked *after* this call (a send racing the
  /// confirmation) are failed by the next sweep, through its `is_dead`.
  void fail_peer(int peer, std::vector<Failure>& failures);

  /// Tracked-but-unacked entry count (relaxed). The send window gate: a
  /// sender blocks (progressing) while this is at Config::reliability_window
  /// so retransmit bursts stay bounded and acks self-clock the flood.
  std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    int dst = 0;
    int retries = 0;
    std::uint64_t deadline_ns = 0;
    std::uint64_t rto_ns = 0;
    fabric::Packet pkt;  ///< retransmit master copy
  };

  const std::uint64_t rto_ns_;
  const std::uint64_t rto_max_ns_;
  const int max_retries_;
  std::atomic<std::uint64_t>* const due_;

  mutable RankedLock<Spinlock> lock_{debug::LockRank::kReliability,
                                     "p2p.reliability"};
  std::unordered_map<PacketKey, Entry, PacketKeyHash> inflight_
      FAIRMPI_GUARDED_BY(lock_);
  std::atomic<std::size_t> in_flight_{0};
};

template <class IsDead>
std::uint64_t ReliabilityTracker::sweep(std::uint64_t now_ns, std::vector<Resend>& resends,
                                        std::vector<Failure>& failures, IsDead is_dead) {
  LockGuard guard(lock_);
  std::uint64_t earliest = kNever;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    Entry& e = it->second;
    const bool dead = is_dead(e.dst);
    if (dead || (e.deadline_ns <= now_ns && e.retries >= max_retries_)) {
      failures.push_back(Failure{it->first, e.retries,
                                 dead ? common::ErrorCode::kPeerFailed
                                      : common::ErrorCode::kRetryExhausted});
      it = inflight_.erase(it);
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (e.deadline_ns <= now_ns) {
      // Claim only: push the deadline one (current) rto out so concurrent
      // sweeps don't double-clone it. Backoff and the retry charge happen in
      // confirm_retransmit, once the clone verifiably left the sender.
      e.deadline_ns = now_ns + e.rto_ns;
      resends.push_back(Resend{e.dst, fabric::clone_packet(e.pkt)});
    }
    if (e.deadline_ns < earliest) earliest = e.deadline_ns;
    ++it;
  }
  return earliest;
}

}  // namespace fairmpi::p2p
