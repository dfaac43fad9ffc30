// Per-communicator engine state.
//
// Holds the two things the paper's two-sided pipeline needs per
// communicator: the matching engine (receiver side) and, per peer, the send
// sequence counter and the steering hint (sender side). As in OB1, the
// sequence number is ticketed with a relaxed atomic *before* the network
// resources are acquired — the race between ticketing and injection across
// threads is the source of out-of-sequence arrivals (DESIGN.md §5). The
// hint names the peer context this communicator's traffic to that peer
// should land in (DESIGN.md "Stream steering").
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "fairmpi/common/align.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/match/match_engine.hpp"
#include "fairmpi/spc/spc.hpp"

namespace fairmpi::p2p {

using CommId = std::uint32_t;

/// Id of the predefined world communicator.
inline constexpr CommId kWorldComm = 0;

/// First tag of the engine-reserved block. User traffic posted through the
/// Communicator API must stay strictly below; collective tag lanes
/// (coll::kCollTagBase == this) and the dissemination barrier (1 << 30)
/// both live above it, and Communicator::isend/irecv refuse user tags in
/// the block with a typed kReservedTag failure (silent collision with
/// collective traffic was the alternative).
inline constexpr int kReservedTagBase = 1 << 29;

/// Concurrent collective tag lanes per communicator (one bitmap word).
inline constexpr int kMaxCollLanes = 64;

class CommState {
 public:
  /// `members`: the communicator's group as *universe* (global) rank ids in
  /// local-rank order; empty = span every rank (a dup of world, the only
  /// shape PRs 1–7 had). The matching engine and the sequence counters stay
  /// sized/indexed by global rank — packets carry global ids on the wire —
  /// and the group is consulted only at the Communicator boundary
  /// (rank/size and dst/src translation). This is what Universe::shrink
  /// builds the survivor communicator from (DESIGN.md §5g).
  CommState(CommId id, int num_ranks, bool allow_overtaking, spc::CounterSet& counters,
            bool reliable = false, std::vector<int> members = {})
      : id_(id), match_(num_ranks, allow_overtaking, counters, reliable),
        peers_(static_cast<std::size_t>(num_ranks)), members_(std::move(members)) {}

  CommState(const CommState&) = delete;
  CommState& operator=(const CommState&) = delete;

  CommId id() const noexcept { return id_; }
  match::MatchEngine& match() noexcept { return match_; }

  /// Ticket the next sequence number toward `dst` (Alg. 1 precursor).
  /// `dst` is a global rank.
  std::uint32_t next_seq(int dst) noexcept {
    return peers_[static_cast<std::size_t>(dst)]->seq.fetch_add(1, std::memory_order_relaxed);
  }

  // --- stream steering (DESIGN.md "Stream steering") ---

  /// Destination context for this communicator's traffic to global rank
  /// `dst`: the source context `dst` last sent us an envelope from here,
  /// or fabric::kStaticRoute until it has sent one.
  int steer(int dst) const noexcept {
    // lint: allow(relaxed-sync) a routing hint only: a stale value picks another peer context, and matching orders by sequence number, not by lane
    return peers_[static_cast<std::size_t>(dst)]->ctx.load(std::memory_order_relaxed);
  }

  /// Record that global rank `src` sent us an envelope on this
  /// communicator from its context `src_ctx`. Writes only on a change, so
  /// a settled stream leaves the senders' cache line alone.
  void note_stream(int src, int src_ctx) noexcept {
    std::atomic<std::int32_t>& ctx = peers_[static_cast<std::size_t>(src)]->ctx;
    // lint: allow(relaxed-sync) a routing hint only: no other data is published with it
    if (ctx.load(std::memory_order_relaxed) != src_ctx) {
      // lint: allow(relaxed-sync) a routing hint only: no other data is published with it
      ctx.store(src_ctx, std::memory_order_relaxed);
    }
  }

  // --- group (empty = all ranks of the universe) ---

  bool has_group() const noexcept { return !members_.empty(); }
  int group_size() const noexcept { return static_cast<int>(members_.size()); }
  /// Global rank of group member `local`.
  int to_global(int local) const noexcept {
    return members_[static_cast<std::size_t>(local)];
  }
  /// Local rank of global rank `global`; -1 when not a member. Linear scan:
  /// groups are small and translation sits outside the packet hot path.
  int to_local(int global) const noexcept {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i] == global) return static_cast<int>(i);
    }
    return -1;
  }

  // --- collective tag lanes (DESIGN.md §5i) ---

  /// Claim the lowest free collective lane; -1 when all kMaxCollLanes are
  /// busy. Lowest-free-bit allocation is what makes lane agreement across
  /// ranks deterministic: when every rank acquires handles in the same
  /// order, each acquisition yields the same lane number everywhere.
  int try_acquire_coll_lane() noexcept {
    std::uint64_t cur = coll_lanes_.load(std::memory_order_relaxed);
    while (~cur != 0) {
      const int lane = std::countr_one(cur);
      if (coll_lanes_.compare_exchange_weak(cur, cur | (std::uint64_t{1} << lane),
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
        return lane;
      }
    }
    return -1;
  }

  /// Release a lane claimed by try_acquire_coll_lane.
  void release_coll_lane(int lane) noexcept {
    coll_lanes_.fetch_and(~(std::uint64_t{1} << lane), std::memory_order_release);
  }

  // --- ft revocation (ULFM MPI_Comm_revoke analog) ---

  /// Once revoked, every subsequent operation on this communicator fails
  /// fast with kCommRevoked. One-way; release pairs with revoked()'s
  /// acquire so op entry checks see the flag before fail_all_posted's
  /// purge could race them (the match lock closes the posting race).
  void revoke() noexcept { revoked_.store(true, std::memory_order_release); }
  bool revoked() const noexcept { return revoked_.load(std::memory_order_acquire); }

 private:
  /// Per-peer sender state. The sequence counter is deliberately hot
  /// (every sending thread increments it) and the hint is read next to it,
  /// so they share one padded line that no other peer's traffic touches.
  struct PeerStream {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::int32_t> ctx{fabric::kStaticRoute};
  };

  const CommId id_;
  match::MatchEngine match_;
  std::vector<Padded<PeerStream>> peers_;
  std::vector<int> members_;  ///< global ranks in local order; immutable
  std::atomic<bool> revoked_{false};
  /// Collective lane bitmap (bit set = lane busy). Lock-free: acquire is a
  /// lowest-clear-bit CAS, release a fetch_and — no rank in the lock order.
  std::atomic<std::uint64_t> coll_lanes_{0};
};

}  // namespace fairmpi::p2p
