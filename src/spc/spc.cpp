#include "fairmpi/spc/spc.hpp"

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

Snapshot CounterSet::snapshot() const noexcept {
  Snapshot out;
  for (int i = 0; i < kNumCounters; ++i) {
    out.values[static_cast<std::size_t>(i)] = get(static_cast<Counter>(i));
  }
  return out;
}

}  // namespace fairmpi::spc
