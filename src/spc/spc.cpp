#include "fairmpi/spc/spc.hpp"

#include <sstream>

namespace fairmpi::spc {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kMessagesSent: return "MessagesSent";
    case Counter::kMessagesReceived: return "MessagesReceived";
    case Counter::kBytesSent: return "BytesSent";
    case Counter::kBytesReceived: return "BytesReceived";
    case Counter::kUnexpectedMessages: return "UnexpectedMessages";
    case Counter::kOutOfSequence: return "OutOfSequence";
    case Counter::kMatchTimeNs: return "MatchTimeNs";
    case Counter::kMatchAttempts: return "MatchAttempts";
    case Counter::kPostedQueueDepth: return "PostedQueueDepth";
    case Counter::kUnexpectedQueueDepth: return "UnexpectedQueueDepth";
    case Counter::kOosBufferPeak: return "OosBufferPeak";
    case Counter::kSendBackpressure: return "SendBackpressure";
    case Counter::kProgressCalls: return "ProgressCalls";
    case Counter::kProgressCompletions: return "ProgressCompletions";
    case Counter::kInstanceTrylockFail: return "InstanceTrylockFail";
    case Counter::kInstanceLockWaitNs: return "InstanceLockWaitNs";
    case Counter::kRmaPuts: return "RmaPuts";
    case Counter::kRmaGets: return "RmaGets";
    case Counter::kRmaAccumulates: return "RmaAccumulates";
    case Counter::kRmaFlushes: return "RmaFlushes";
    case Counter::kHeaderDrops: return "HeaderDrops";
    case Counter::kCsumDrops: return "CsumDrops";
    case Counter::kDupDiscards: return "DupDiscards";
    case Counter::kRetransmits: return "Retransmits";
    case Counter::kAcksSent: return "AcksSent";
    case Counter::kAcksReceived: return "AcksReceived";
    case Counter::kReliabilityErrors: return "ReliabilityErrors";
    case Counter::kWatchdogStalls: return "WatchdogStalls";
    case Counter::kSubmitQueued: return "SubmitQueued";
    case Counter::kSubmitRingFull: return "SubmitRingFull";
    case Counter::kSubmitCasRetries: return "SubmitCasRetries";
    case Counter::kRmaFlushAllBusy: return "RmaFlushAllBusy";
    case Counter::kFtHeartbeatsSent: return "FtHeartbeatsSent";
    case Counter::kFtHeartbeatsReceived: return "FtHeartbeatsReceived";
    case Counter::kFtSuspects: return "FtSuspects";
    case Counter::kFtDeaths: return "FtDeaths";
    case Counter::kFtPeerFailedOps: return "FtPeerFailedOps";
    case Counter::kFtRevokedOps: return "FtRevokedOps";
    case Counter::kOverloadShedMessages: return "OverloadShedMessages";
    case Counter::kOverloadNacksSent: return "OverloadNacksSent";
    case Counter::kOverloadNacksReceived: return "OverloadNacksReceived";
    case Counter::kOverloadPausedPeers: return "OverloadPausedPeers";
    case Counter::kOverloadLevelChanges: return "OverloadLevelChanges";
    case Counter::kOverloadPoolPeak: return "OverloadPoolPeak";
    case Counter::kCancelledOps: return "CancelledOps";
    case Counter::kDeadlineExceededOps: return "DeadlineExceededOps";
    case Counter::kQuiesceTimeouts: return "QuiesceTimeouts";
    case Counter::kCollOps: return "CollOps";
    case Counter::kCollRounds: return "CollRounds";
    case Counter::kCollSegments: return "CollSegments";
    case Counter::kCollLaneAcquires: return "CollLaneAcquires";
    case Counter::kCollLaneWaits: return "CollLaneWaits";
    case Counter::kCollBinomialOps: return "CollBinomialOps";
    case Counter::kCollRsagOps: return "CollRsagOps";
    case Counter::kCollPipelinedOps: return "CollPipelinedOps";
    case Counter::kReservedTagRejects: return "ReservedTagRejects";
    case Counter::kCount: break;
  }
  return "Unknown";
}

Snapshot Snapshot::delta_since(const Snapshot& earlier) const noexcept {
  Snapshot out;
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const auto idx = static_cast<std::size_t>(i);
    out.values[idx] = is_high_water(c) ? values[idx] : values[idx] - earlier.values[idx];
  }
  return out;
}

void Snapshot::merge(const Snapshot& other) noexcept {
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const auto idx = static_cast<std::size_t>(i);
    if (is_high_water(c)) {
      values[idx] = values[idx] > other.values[idx] ? values[idx] : other.values[idx];
    } else {
      values[idx] += other.values[idx];
    }
  }
}

std::string Snapshot::to_string() const {
  std::ostringstream os;
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    os << counter_name(c) << " = " << values[static_cast<std::size_t>(i)] << '\n';
  }
  return os.str();
}

CounterSet::~CounterSet() {
  for (auto& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

CounterSet::Shard& CounterSet::slow_shard(std::size_t idx) noexcept {
  auto* fresh = new Shard();
  Shard* expected = nullptr;
  // For a private slot only the owning thread installs, but the overflow
  // slot (and a snapshot() racing first-touch) makes CAS the safe idiom;
  // the loser frees its copy and adopts the winner's shard.
  if (shards_[idx].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *expected;
}

CounterSet::Shard& CounterSet::overflow_shard() noexcept {
  Shard* s = shards_[common::kMaxThreadSlots].load(std::memory_order_acquire);
  if (s != nullptr) return *s;
  return slow_shard(common::kMaxThreadSlots);
}

void CounterSet::add_shared(Counter c, std::uint64_t n) noexcept {
  // Shared cell: many overflow threads write it, so a real RMW is required.
  overflow_shard().cells[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
}

void CounterSet::max_shared(Counter c, std::uint64_t candidate) noexcept {
  auto& cell = overflow_shard().cells[static_cast<std::size_t>(c)];
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (candidate > cur &&
         !cell.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
  }
}

std::uint64_t CounterSet::raw_total(Counter c) const noexcept {
  const auto idx = static_cast<std::size_t>(c);
  std::uint64_t total = 0;
  for (const auto& slot : shards_) {
    const Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    const std::uint64_t v = s->cells[idx].load(std::memory_order_relaxed);
    total = is_high_water(c) ? (v > total ? v : total) : total + v;
  }
  return total;
}

std::uint64_t CounterSet::get(Counter c) const noexcept {
  const std::uint64_t total = raw_total(c);
  if (is_high_water(c)) return total;
  const std::uint64_t base = base_[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  // Sums are monotone, so total >= base except mid-race; clamp for safety.
  return total >= base ? total - base : 0;
}

Snapshot CounterSet::snapshot() const noexcept {
  Snapshot out;
  for (int i = 0; i < kNumCounters; ++i) {
    out.values[static_cast<std::size_t>(i)] = get(static_cast<Counter>(i));
  }
  return out;
}

Snapshot CounterSet::lifetime_snapshot() const noexcept {
  Snapshot out;
  for (int i = 0; i < kNumCounters; ++i) {
    out.values[static_cast<std::size_t>(i)] = raw_total(static_cast<Counter>(i));
  }
  return out;
}

void CounterSet::reset() noexcept {
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (is_high_water(c)) continue;  // lifetime maxima survive reset()
    // Rebase instead of zeroing the cells: an add() racing this reset lands
    // in its shard either before or after the sum above — never lost, only
    // attributed to the old or the new epoch.
    base_[static_cast<std::size_t>(i)].store(raw_total(c), std::memory_order_relaxed);
  }
}

}  // namespace fairmpi::spc
