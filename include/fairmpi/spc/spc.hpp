// Software-based Performance Counters (SPCs).
//
// Mirrors the Open MPI SPC infrastructure the paper uses (ref [9]) to expose
// low-overhead internal statistics. Table II of the paper is built from two
// of these counters (out-of-sequence messages and total matching time); we
// expose the full set the engine maintains so benches and tests can assert
// on internal behaviour, not just end-to-end rates.
//
// Sharding: every thread of a rank updates every counter on every message,
// so a single shared atomic per counter serializes the whole engine on the
// counter cache line (the contention arXiv:2002.02509 measures dominating
// multi-VCI scaling). CounterSet is therefore internally sharded: each
// registered thread gets a private shard (common/thread_slot.hpp), written
// with plain relaxed stores — the owning thread is the only writer — and
// snapshot()/get() sum the shards. The public add/get/update_max/snapshot
// API and the Table II semantics are unchanged; totals are exact, only the
// interleaving of a snapshot against in-flight adds is approximate, exactly
// as with the previous shared-atomic design.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/thread_slot.hpp"

namespace fairmpi::spc {

enum class Counter : int {
  kMessagesSent = 0,       ///< completed two-sided sends
  kMessagesReceived,       ///< matched + delivered two-sided receives
  kBytesSent,              ///< payload bytes injected
  kBytesReceived,          ///< payload bytes delivered
  kUnexpectedMessages,     ///< arrived before a matching receive was posted
  kOutOfSequence,          ///< arrived with seq != expected (buffered)
  kMatchTimeNs,            ///< total time spent holding a matching lock
  kMatchAttempts,          ///< entries into the matching critical section
  kPostedQueueDepth,       ///< cumulative posted-recv queue length at search
  kUnexpectedQueueDepth,   ///< cumulative unexpected queue length at search
  kOosBufferPeak,          ///< high-water mark of the reorder buffer (max, not sum)
  kSendBackpressure,       ///< sends that had to retry on a full RX ring
  kProgressCalls,          ///< entries into the progress engine
  kProgressCompletions,    ///< completions harvested by progress
  kInstanceTrylockFail,    ///< failed try_lock on a CRI (Alg. 2 skip)
  kInstanceLockWaitNs,     ///< time spent blocked acquiring CRI locks
  kRmaPuts,                ///< one-sided put operations
  kRmaGets,                ///< one-sided get operations
  kRmaAccumulates,         ///< one-sided accumulate operations
  kRmaFlushes,             ///< passive-target flush operations
  kHeaderDrops,            ///< inbound packets failing structural validation
  kCsumDrops,              ///< inbound packets failing checksum verification
  kDupDiscards,            ///< duplicate deliveries discarded (exactly-once)
  kRetransmits,            ///< packets re-injected after an ack timeout
  kAcksSent,               ///< reliability acks injected
  kAcksReceived,           ///< reliability acks processed
  kReliabilityErrors,      ///< typed errors surfaced (budget/retry exhaustion)
  kWatchdogStalls,         ///< stalled instances/rendezvous flagged
  // Retired with the submission ring: always 0, kept declared until the
  // benchmark drops its cri.submit_* per-layer metrics.
  kSubmitQueued,           ///< retired: always 0
  kSubmitRingFull,         ///< retired: always 0
  kSubmitCasRetries,       ///< retired: always 0
  kRmaFlushAllBusy,        ///< RMA flush sweeps that found every CRI busy
  kFtHeartbeatsSent,       ///< ft liveness probes injected on idle links
  kFtHeartbeatsReceived,   ///< ft liveness probes consumed
  kFtSuspects,             ///< peers that entered the suspect state
  kFtDeaths,               ///< peers confirmed dead
  kFtPeerFailedOps,        ///< operations completed with kPeerFailed
  kFtRevokedOps,           ///< operations refused/failed on a revoked comm
  kOverloadShedMessages,   ///< messages dropped at admission (kShed policy)
  kOverloadNacksSent,      ///< receiver-side NACKs queued for shed packets
  kOverloadNacksReceived,  ///< sender-side NACKs processed (op failed typed)
  kOverloadPausedPeers,    ///< peer RX pauses latched (kQueue backpressure)
  kOverloadLevelChanges,   ///< degradation-ladder transitions (any direction)
  kOverloadPoolPeak,       ///< payload-pool in-use bytes high-water (max)
  kCancelledOps,           ///< requests settled kCancelled
  kDeadlineExceededOps,    ///< requests settled kDeadlineExceeded
  kQuiesceTimeouts,        ///< quiesce calls that gave up with backlog
  kCollOps,                ///< collective operations entered (any algorithm)
  kCollRounds,             ///< tree/ring rounds executed across collectives
  kCollSegments,           ///< pipeline segments sent (segmented algorithms)
  kCollLaneAcquires,       ///< collective tag lanes acquired
  kCollLaneWaits,          ///< lane acquisitions that had to spin for a free lane
  kCollBinomialOps,        ///< collectives run with the binomial-tree algorithm
  kCollRsagOps,            ///< allreduces run as reduce-scatter + allgather
  kCollPipelinedOps,       ///< collectives run with pipelined segmentation
  kReservedTagRejects,     ///< user ops refused for a tag in the reserved block
  kCount
};

constexpr int kNumCounters = static_cast<int>(Counter::kCount);

/// Human-readable counter name ("OutOfSequence", ...).
const char* counter_name(Counter c) noexcept;

/// True for max-style (high-water) counters, which merge/reset differently
/// from sums.
constexpr bool is_high_water(Counter c) noexcept {
  return c == Counter::kOosBufferPeak || c == Counter::kOverloadPoolPeak;
}

/// Point-in-time copy of all counters; supports delta and merge so benches
/// can report per-phase numbers (Table II is the delta over the timed loop).
struct Snapshot {
  std::array<std::uint64_t, kNumCounters> values{};

  std::uint64_t get(Counter c) const noexcept { return values[static_cast<int>(c)]; }

  /// Counter-wise difference (this - earlier); kOosBufferPeak keeps the
  /// later (max-style) value since it is a high-water mark, not a sum.
  Snapshot delta_since(const Snapshot& earlier) const noexcept;

  /// Sum (max for high-water counters) across engines — e.g. both ranks.
  void merge(const Snapshot& other) noexcept;

  std::string to_string() const;
};

/// One set of counters, shared by all threads of a rank. Internally sharded
/// per thread (see file comment); reads sum the shards, so get()/snapshot()
/// are O(threads) — fine, they are off-path.
///
/// reset() is a *rebase*, not a destructive zeroing: it records the current
/// totals as the new baseline, so adds racing a reset are never lost (the
/// old design's store-zero could swallow a concurrent fetch_add's worth of
/// updates between the snapshot and the store). High-water counters are
/// lifetime maxima and are NOT lowered by reset(), matching
/// Snapshot::delta_since, which also keeps the later absolute value for
/// them. Benches that need per-phase numbers should prefer delta_since.
class CounterSet {
 private:
  /// Per-thread counter block. Cells are written only by the owning thread
  /// (plain-speed relaxed stores) and read by anyone via snapshot(). The
  /// whole block is one thread's property, so counters within it may share
  /// cache lines; the alignas keeps separate shards off each other's lines.
  struct alignas(fairmpi::kCacheLine) Shard {
    std::array<std::atomic<std::uint64_t>, kNumCounters> cells{};
  };

 public:
  CounterSet() = default;
  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;
  ~CounterSet();

  /// A resolved handle to the calling thread's shard: hot code that issues
  /// several updates back-to-back (the matching engine does up to five per
  /// envelope) takes one cursor and skips the per-call slot lookup. Must
  /// not outlive the statement block it was taken in — in particular never
  /// across a point where the thread could change (it cannot, within one
  /// function) or the CounterSet could die.
  class Cursor {
   public:
    void add(Counter c, std::uint64_t n = 1) noexcept {
      auto& cell = shard_->cells[static_cast<std::size_t>(c)];
      if (shared_) {
        cell.fetch_add(n, std::memory_order_relaxed);
        return;
      }
      cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }

    void update_max(Counter c, std::uint64_t candidate) noexcept {
      auto& cell = shard_->cells[static_cast<std::size_t>(c)];
      // lint: allow(relaxed-sync) single-writer cell (CAS loop below covers shared)
      std::uint64_t cur = cell.load(std::memory_order_relaxed);
      if (!shared_) {
        if (candidate > cur) cell.store(candidate, std::memory_order_relaxed);
        return;
      }
      while (candidate > cur &&
             !cell.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
      }
    }

   private:
    friend class CounterSet;
    Cursor(Shard* shard, bool shared) noexcept : shard_(shard), shared_(shared) {}
    Shard* shard_;
    bool shared_;  ///< overflow shard: concurrent writers, RMWs required
  };

  Cursor cursor() noexcept {
    const int slot = common::this_thread_slot();
    if (slot == common::kNoThreadSlot) {
      return Cursor(&overflow_shard(), /*shared=*/true);
    }
    return Cursor(&owned_shard(slot), /*shared=*/false);
  }

  void add(Counter c, std::uint64_t n = 1) noexcept {
    const int slot = common::this_thread_slot();
    if (slot == common::kNoThreadSlot) return add_shared(c, n);
    auto& cell = owned_shard(slot).cells[static_cast<std::size_t>(c)];
    // Single-writer cell: a relaxed load+store is a data-race-free
    // increment and avoids the lock prefix a fetch_add would pay.
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// Update a high-water-mark counter to max(current, candidate).
  void update_max(Counter c, std::uint64_t candidate) noexcept {
    const int slot = common::this_thread_slot();
    if (slot == common::kNoThreadSlot) return max_shared(c, candidate);
    auto& cell = owned_shard(slot).cells[static_cast<std::size_t>(c)];
    // lint: allow(relaxed-sync) single-writer cell, branch skips a same-thread rewrite
    if (candidate > cell.load(std::memory_order_relaxed)) {
      cell.store(candidate, std::memory_order_relaxed);
    }
  }

  /// Current value (sum or max over shards, minus the reset baseline).
  std::uint64_t get(Counter c) const noexcept;

  Snapshot snapshot() const noexcept;

  /// Reset-immune lifetime totals: the raw shard sums, ignoring the reset
  /// baseline. Monotone non-decreasing, so delta_since over lifetime
  /// snapshots gives exact per-phase accounting no matter who calls
  /// reset() in between — benches should prefer this over reset().
  Snapshot lifetime_snapshot() const noexcept;

  /// Rebase all sum counters to zero (see class comment).
  void reset() noexcept;

 private:
  /// The calling thread's private shard, allocated on first touch. Shards
  /// outlive their thread: when a slot is recycled to a later thread the
  /// shard (and its accumulated totals) is simply adopted — the slot
  /// registry's lock orders the handover.
  Shard& owned_shard(int slot) noexcept {
    Shard* s = shards_[static_cast<std::size_t>(slot)].load(std::memory_order_acquire);
    if (s != nullptr) return *s;
    return slow_shard(static_cast<std::size_t>(slot));
  }

  /// Allocates the slot's shard; out of line to keep add() small.
  Shard& slow_shard(std::size_t idx) noexcept;
  /// Sum (max for high-water) over shards, ignoring the reset baseline.
  std::uint64_t raw_total(Counter c) const noexcept;
  /// The shard shared by all threads past the slot registry's capacity
  /// (last index); writes to it need real atomic RMWs.
  Shard& overflow_shard() noexcept;
  void add_shared(Counter c, std::uint64_t n) noexcept;
  void max_shared(Counter c, std::uint64_t candidate) noexcept;

  std::array<std::atomic<Shard*>, common::kMaxThreadSlots + 1> shards_{};
  /// Reset baseline, subtracted from sum counters on read. Written only by
  /// reset() (rare, off-path), read by get()/snapshot().
  std::array<std::atomic<std::uint64_t>, kNumCounters> base_{};
};

}  // namespace fairmpi::spc
