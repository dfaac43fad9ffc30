// OB1-style per-communicator matching engine (§II-C, §III-F of the paper).
//
// One MatchEngine per communicator, guarded by one lock — matching is "the
// only strictly serial operation in MPI two-sided communication". Creating
// one communicator per thread pair therefore parallelizes matching, which
// is exactly how the paper simulates concurrent matching (Fig. 3c).
//
// Pipeline for an incoming envelope (under the lock):
//   1. sequence validation — per (src) expected counter; out-of-sequence
//      arrivals are buffered. Skipped entirely in overtaking mode
//      (`mpi_assert_allow_overtaking`, §IV-D).
//   2. queue search — first posted receive whose (source, tag) filter
//      matches, honouring post order across the per-peer and ANY_SOURCE
//      queues; unmatched messages land in the per-peer unexpected queue.
//
// Allocation discipline (DESIGN.md §5): the steady-state matching path
// never calls the general-purpose allocator.
//   * posted queues are intrusive lists threaded through p2p::Request;
//   * unexpected messages live in pooled nodes (common::SlabPool);
//   * the reorder buffer is a fixed power-of-two ring indexed by
//     `seq & (kReorderWindow-1)` — a std::map spill handles the rare
//     arrival more than kReorderWindow-1 messages ahead.
//
// SPCs record out-of-sequence counts, match time and queue depths — the
// counters behind the paper's Table II.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "fairmpi/common/intrusive_list.hpp"
#include "fairmpi/common/slab_pool.hpp"
#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/debug/thread_safety.hpp"
#include "fairmpi/fabric/wire.hpp"
#include "fairmpi/overload/overload.hpp"
#include "fairmpi/p2p/rendezvous.hpp"
#include "fairmpi/p2p/request.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi::match {

/// Receiver-side admission verdict for one incoming eager/RTS packet,
/// reported back to the rank so the ack-vs-NACK decision happens *after*
/// matching (DESIGN.md §5h): acking a shed packet would silently retire the
/// sender's reliability entry and the overload would never surface typed.
enum class Admission : std::uint8_t {
  kAdmitted = 0,   ///< delivered, parked, or queued unexpected — ack it
  kDuplicate,      ///< duplicate of an already-accepted packet — re-ack it
  kShed,           ///< dropped at admission (first time) — NACK it
  kShedDuplicate,  ///< retransmit of a shed packet — NACK again, no recount
  kDeferred,       ///< kQueue at cap on a reliable fabric — answer nothing;
                   ///< the sender's retransmit clock re-presents the packet
};

/// Reorder window per (comm, src) stream: out-of-sequence arrivals up to
/// this many messages ahead park in a ring slot; anything further spills to
/// an ordered map. Power of two so the slot index is `seq & mask`. 64 covers
/// the deepest interleave the multi-context fabric produces in the paper's
/// configurations (<= 20 contexts) with headroom.
inline constexpr std::uint32_t kReorderWindow = 64;
static_assert((kReorderWindow & (kReorderWindow - 1)) == 0);

/// Exactly-once filter for *overtaking* mode on a lossy fabric. Without
/// sequence validation every arrival is matchable, so a duplicated or
/// retransmitted packet would deliver twice; this tracker records which
/// sequence numbers have been seen per (comm, src) stream. Exact, not
/// probabilistic: `floor_` advances over the contiguous fully-seen prefix
/// (everything below it is seen), a circular bitmap covers the next kWindow
/// sequence numbers, and arrivals beyond the window — possible only after
/// deep loss — spill to an ordered set that migrates back into the window
/// as the floor advances. Guarded by the owning engine's match lock.
/// Sequence distances are compared as int32, like the reorder path: streams
/// are assumed never to span more than 2^31 outstanding messages.
class SeenTracker {
 public:
  static constexpr std::uint32_t kWindow = 1024;

  /// Mark `seq` seen; true when this is its first delivery.
  bool mark(std::uint32_t seq) {
    const std::int32_t delta = static_cast<std::int32_t>(seq - floor_);
    if (delta < 0) return false;  // below the floor: seen long ago
    if (static_cast<std::uint32_t>(delta) >= kWindow) {
      // Beyond the window: the stream has a loss hole >= kWindow deep.
      // lint: allow(hotpath-alloc) deep-loss spill, lossy-fabric mode only
      return far_.insert(seq).second;
    }
    if (test(seq)) return false;
    set(seq);
    while (test(floor_)) {
      clear(floor_);
      ++floor_;
      // Far entries the advance just brought into range join the window.
      while (!far_.empty()) {
        const std::uint32_t f = *far_.begin();
        if (static_cast<std::int32_t>(f - floor_) >= static_cast<std::int32_t>(kWindow)) break;
        set(f);
        far_.erase(far_.begin());
      }
    }
    return true;
  }

 private:
  bool test(std::uint32_t s) const noexcept {
    return (bits_[(s % kWindow) / 64] >> (s % 64)) & 1;
  }
  void set(std::uint32_t s) noexcept {
    bits_[(s % kWindow) / 64] |= std::uint64_t{1} << (s % 64);
  }
  void clear(std::uint32_t s) noexcept {
    bits_[(s % kWindow) / 64] &= ~(std::uint64_t{1} << (s % 64));
  }

  std::uint32_t floor_ = 0;  ///< every seq below this has been seen
  std::array<std::uint64_t, kWindow / 64> bits_{};
  std::set<std::uint32_t> far_;  ///< seen seqs >= floor_ + kWindow
};

class MatchEngine : public p2p::CancelScope {
 public:
  /// @param num_ranks   ranks in the communicator's universe (peer table size)
  /// @param allow_overtaking  skip sequence validation (MPI info key
  ///                          mpi_assert_allow_overtaking)
  /// @param counters    the owning rank's SPC set
  /// @param reliable    the fabric may duplicate/retransmit: discard repeated
  ///                    deliveries (counted as kDupDiscards) instead of
  ///                    treating a repeated sequence number as corruption
  MatchEngine(int num_ranks, bool allow_overtaking, spc::CounterSet& counters,
              bool reliable = false);

  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;
  ~MatchEngine() override;

  /// Handle one incoming eager packet (called from the progress engine).
  /// Returns the number of receive requests completed (out-of-sequence
  /// drains can complete several at once). When `admission` is non-null it
  /// receives the overload verdict for *this* packet (ack vs. NACK — see
  /// Admission above); without a governor installed it is always
  /// kAdmitted/kDuplicate, preserving the historical contract.
  std::size_t incoming(fabric::Packet&& pkt, Admission* admission = nullptr);

  /// Post a receive. Returns true when the request matched an unexpected
  /// message and completed immediately.
  bool post(p2p::Request* req);

  /// Non-destructive matching query (MPI_Iprobe semantics): is there an
  /// unexpected message a receive with these filters would match right
  /// now? Fills `status` (source, tag, size) on success. Messages parked
  /// in the reorder buffer are not yet matchable and are not reported.
  bool probe(int src, int tag, p2p::Status* status);

  /// ft propagation: `src` is confirmed dead. Fails every source-specific
  /// posted receive from it with kPeerFailed, drops its parked
  /// reorder-ring/spill packets (they can never become in-order — the
  /// stream is severed), and marks the source dead so *future* posted
  /// receives filtered on it fail immediately once no matchable unexpected
  /// message remains. Already-arrived unexpected messages stay matchable
  /// (they were delivered by the wire before the death). ANY_SOURCE
  /// receives are untouched — another peer may still satisfy them.
  /// Returns the number of receives failed.
  std::size_t fail_source(int src);

  /// Communicator revocation: fail every posted receive — source-specific
  /// and ANY_SOURCE — with kCommRevoked, and latch the engine revoked so a
  /// concurrently posting thread that read the CommState flag early fails
  /// under the match lock instead of enqueueing forever. Subsequent
  /// incoming packets are dropped. Returns the number failed.
  std::size_t fail_all_posted();

  /// Diagnostics. Each takes lock_, so the count is internally consistent,
  /// but may of course be stale by the time the caller reads it; exact only
  /// when externally quiesced. Safe to call concurrently with matching.
  /// unexpected_count is O(1): a counter maintained under lock_ on every
  /// enqueue/dequeue (the admission watermark check must be hot-path safe).
  std::size_t unexpected_count() const noexcept;
  std::size_t reorder_buffered() const noexcept;
  std::size_t posted_count() const noexcept;

  /// Lock-free unexpected total (relaxed mirror of the counter above) for
  /// the governor's progress-path pressure sampling.
  std::size_t unexpected_count_relaxed() const noexcept {
    return unexpected_mirror_.load(std::memory_order_relaxed);
  }

  /// Install overload admission (done once by the owning Rank before any
  /// traffic; null or a governor with no caps keeps the engine bit-exact
  /// with the historical behaviour). The tracer, when given, records
  /// kOverloadShed / kOverloadPause events.
  void set_overload(overload::Governor* gov, trace::Tracer* tracer = nullptr) noexcept {
    gov_ = gov;
    tracer_ = tracer;
  }

  /// Progress-driven deadline sweep: settle every posted receive whose
  /// deadline passed as kDeadlineExceeded and unlink it. Gated by an
  /// atomic min-deadline, so a stream with no deadlines costs one relaxed
  /// load per call. Returns the number of receives expired.
  std::size_t expire_deadlines(std::uint64_t now_ns);

  /// The expire sweep's gate value (~0 = no posted deadline), for the
  /// rank-level sweep scheduler.
  std::uint64_t next_deadline_relaxed() const noexcept {
    return next_deadline_.load(std::memory_order_relaxed);
  }

  /// p2p::CancelScope: cancel a posted receive. Takes the match lock,
  /// scans the posted queue the request would sit on, and only settles
  /// (kCancelled) while the request is verifiably still linked — so a
  /// cancel racing a matcher can never lose a consumed message.
  bool cancel_request(p2p::Request* req) override;

  bool allow_overtaking() const noexcept { return allow_overtaking_; }

  /// Install the rendezvous observer (must happen before any RndvRts
  /// traffic; done once by the owning Rank at construction).
  void set_rendezvous_hook(p2p::RendezvousHook* hook) noexcept { rndv_hook_ = hook; }

  /// The engine's internal lock, exposed ONLY for the observability
  /// self-check (deterministic contention-profiler exercise: a holder
  /// thread pins the lock while another thread runs a real matching
  /// operation). Not part of the matching API — matching callers never
  /// take this directly.
  RankedLock<Spinlock>& internal_lock() const noexcept FAIRMPI_RETURN_CAPABILITY(lock_) {
    return lock_;
  }

 private:
  /// Pooled node parking one unexpected message. Link hooks are owned by
  /// the match lock, like everything else in here.
  struct Unexpected {
    std::uint64_t arrival = 0;
    fabric::Packet pkt;
    Unexpected* prev = nullptr;
    Unexpected* next = nullptr;
  };
  using UnexpectedList =
      common::IntrusiveList<Unexpected, &Unexpected::prev, &Unexpected::next>;
  using PostedList =
      common::IntrusiveList<p2p::Request, &p2p::Request::mq_prev, &p2p::Request::mq_next>;

  /// Fixed-window reorder buffer; lazily allocated on a peer's first
  /// out-of-sequence arrival so in-order streams pay nothing for it.
  /// Invariant: every live entry has seq in (expected, expected + window),
  /// so slot indices never collide and a set `present` bit at
  /// `expected & mask` always belongs to `expected` itself.
  struct ReorderRing {
    std::uint64_t present = 0;  ///< bit i <=> slot i holds a parked packet
    std::array<fabric::Packet, kReorderWindow> slot;
  };
  static_assert(kReorderWindow <= 64, "present bitmap is one word");

  /// Shed-sequence memory depth per peer. A retransmit of a shed packet
  /// must be re-NACKed, not re-acked (an ack silently retires the sender's
  /// tracker entry and the shed never surfaces typed). 64 entries bound the
  /// memory because the sender's reliability_window bounds how many seqs it
  /// can have outstanding against us at once.
  static constexpr std::uint32_t kShedMemory = 64;

  struct PeerState {
    std::uint32_t expected_seq = 0;
    std::unique_ptr<ReorderRing> reorder;             ///< window buffer (lazy)
    std::map<std::uint32_t, fabric::Packet> spill;    ///< beyond-window overflow
    std::unique_ptr<SeenTracker> seen;  ///< dedup, reliable+overtaking only (lazy)
    UnexpectedList unexpected;
    std::size_t unexpected_n = 0;  ///< O(1) depth (admission watermark check)
    PostedList posted;  ///< source-specific posted receives
    bool dead = false;  ///< ft: source confirmed dead (fail_source ran)
    bool paused = false;  ///< overload kQueue: latched over the cap
    std::array<std::uint32_t, kShedMemory> shed_seqs{};  ///< re-NACK ring
    std::uint32_t shed_n = 0;  ///< total sheds (ring write cursor)

    /// Out-of-sequence packets parked for this peer (ring + spill).
    std::size_t parked() const noexcept {
      const std::size_t in_ring =
          reorder != nullptr ? static_cast<std::size_t>(std::popcount(reorder->present)) : 0;
      return in_ring + spill.size();
    }

    bool was_shed(std::uint32_t seq) const noexcept {
      const std::uint32_t live = shed_n < kShedMemory ? shed_n : kShedMemory;
      for (std::uint32_t i = 0; i < live; ++i) {
        if (shed_seqs[i] == seq) return true;
      }
      return false;
    }
  };

  // The private pipeline below threads a spc::CounterSet::Cursor through so
  // the per-thread counter shard is resolved once per public entry point.

  /// Match one in-order packet against the posted queues; deliver or store
  /// as unexpected. Returns 1 on delivery, 0 otherwise. Lock held.
  /// `direct` marks the packet the caller just received off the wire (not
  /// a reorder-ring drain): only direct packets may be shed, because a
  /// drained packet was already acked when it parked — shedding it now
  /// would be silent loss. `admission` (may be null) reports the verdict.
  std::size_t match_one(spc::CounterSet::Cursor& ctr, fabric::Packet&& pkt,
                        bool direct, Admission* admission) FAIRMPI_REQUIRES(lock_);

  /// Unexpected-queue bookkeeping: per-peer depth, engine total, the
  /// lock-free mirror, and the governor's cross-engine total. Lock held.
  void note_unexpected_add(PeerState& ps) FAIRMPI_REQUIRES(lock_);
  void note_unexpected_sub(PeerState& ps) FAIRMPI_REQUIRES(lock_);

  /// Park an out-of-sequence packet (ring slot or spill map). Lock held.
  void park_out_of_sequence(spc::CounterSet::Cursor& ctr, PeerState& ps,
                            fabric::Packet&& pkt) FAIRMPI_REQUIRES(lock_);

  /// Hand a matched packet to its request: eager payloads are copied and
  /// the request completes; rendezvous RTS envelopes are reported to the
  /// hook (the request completes when the data lands). Lock held.
  void deliver(spc::CounterSet::Cursor& ctr, p2p::Request* req,
               const fabric::Packet& pkt) FAIRMPI_REQUIRES(lock_);

  PeerState& peer(int rank) FAIRMPI_REQUIRES(lock_) {
    return peers_[static_cast<std::size_t>(rank)];
  }

  const bool allow_overtaking_;
  const bool reliable_;
  spc::CounterSet& spc_;
  p2p::RendezvousHook* rndv_hook_ = nullptr;
  overload::Governor* gov_ = nullptr;  ///< admission caps (null = uncapped)
  trace::Tracer* tracer_ = nullptr;    ///< overload event recording (optional)

  /// Acquired under the CRI instance lock on the progress path (rank
  /// kMatch > kCriInstance); never held while acquiring engine resources —
  /// rendezvous sends discovered under it are deferred (p2p/rendezvous.hpp).
  /// (The slab pool's internal lock, rank kSlabPool, is the one exception:
  /// it is a leaf above the whole hierarchy.)
  mutable RankedLock<Spinlock> lock_{LockRank::kMatch, "match.engine"};
  std::vector<PeerState> peers_ FAIRMPI_GUARDED_BY(lock_);
  PostedList posted_any_ FAIRMPI_GUARDED_BY(lock_);  ///< ANY_SOURCE posted receives
  common::SlabPool<Unexpected> unexpected_pool_ FAIRMPI_GUARDED_BY(lock_);
  std::uint64_t post_stamp_ FAIRMPI_GUARDED_BY(lock_) = 0;
  std::uint64_t arrival_stamp_ FAIRMPI_GUARDED_BY(lock_) = 0;
  std::uint64_t reorder_total_ FAIRMPI_GUARDED_BY(lock_) = 0;  ///< ring + spill entries
  std::uint64_t unexpected_total_ FAIRMPI_GUARDED_BY(lock_) = 0;  ///< O(1) count
  bool revoked_ FAIRMPI_GUARDED_BY(lock_) = false;  ///< ft: comm revoked (terminal)
  /// Lock-free mirror of unexpected_total_ (governor pressure sampling).
  std::atomic<std::size_t> unexpected_mirror_{0};
  /// Earliest posted-receive deadline (~0 = none): the expire sweep's
  /// one-relaxed-load gate, maintained on post and recomputed on sweep.
  std::atomic<std::uint64_t> next_deadline_{~std::uint64_t{0}};
};

}  // namespace fairmpi::match
