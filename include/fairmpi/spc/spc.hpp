// Software-based Performance Counters (SPCs).
//
// Mirrors the Open MPI SPC infrastructure the paper uses (ref [9]) to expose
// low-overhead internal statistics. Table II of the paper is built from two
// of these counters (out-of-sequence messages and total matching time); we
// expose the full set the engine maintains so benches and tests can assert
// on internal behaviour, not just end-to-end rates.
//
// Storage: every thread of a rank updates these counters on every message,
// so CounterSet keeps one cell per counter in the per-thread counter store
// (common/sharded_cells.hpp): an update touches only the calling thread's
// block, and get()/snapshot() sum (max, for high-water counters) across
// blocks. Counters are monotone lifetime totals; per-phase numbers are
// Snapshot::delta_since over two snapshots.
#pragma once

#include <array>
#include <cstdint>

#include "fairmpi/common/sharded_cells.hpp"

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
  kPostedQueueDepth,       ///< cumulative posted-recv entries examined per search
  kUnexpectedQueueDepth,   ///< cumulative unexpected entries examined per search
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

/// True for max-style (high-water) counters, which merge and delta
/// differently from sums.
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
};

/// One set of counters, shared by all threads of a rank. Reads walk every
/// thread's block, so get()/snapshot() are O(threads) — fine, they are
/// off-path.
class CounterSet {
  using Cells = common::ShardedCells<kNumCounters, Counter>;

 public:
  /// The calling thread's block, resolved once: hot code that issues
  /// several updates back-to-back (the matching engine does up to five per
  /// envelope) takes one cursor and skips the per-call slot lookup.
  using Cursor = Cells::Cursor;

  Cursor cursor() noexcept { return cells_.cursor(); }

  void add(Counter c, std::uint64_t n = 1) noexcept { cursor().add(c, n); }

  /// Update a high-water-mark counter to max(current, candidate).
  void update_max(Counter c, std::uint64_t candidate) noexcept {
    cursor().update_max(c, candidate);
  }

  /// Lifetime total (maximum, for high-water counters) over all threads.
  std::uint64_t get(Counter c) const noexcept {
    return is_high_water(c) ? cells_.max(c) : cells_.sum(c);
  }

  Snapshot snapshot() const noexcept;

 private:
  Cells cells_;
};

}  // namespace fairmpi::spc
