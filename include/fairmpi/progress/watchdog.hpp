// Progress-engine watchdog: detects instances that stop completing.
//
// A CRI whose RX ring holds packets but whose consumption frontier is
// frozen is stalled — its dedicated thread died, a progress holder is
// wedged, or flow control deadlocked. Likewise a rendezvous transfer
// pending far past its expected lifetime (orphaned CRI on the peer, lost
// protocol packet past retry budget). The watchdog detects both from
// existing lock-free instrumentation — NetworkContext::delivered() and
// RxQueue::size_approx() — so the packet hot path carries zero extra
// accounting.
//
// Escalation ladder per stalled object, once per stall episode:
//   1. spc::Counter::kWatchdogStalls
//   2. trace::Event::kWatchdogStall
//   3. the rank's error sink (common::Error, typed)
//
// Lock discipline: the watchdog has no lock of its own. poll() is not
// thread-safe; its one in-library caller, Rank::run_timed_work, runs it
// under the rank's runner claim, which admits one thread at a time. A sweep
// may acquire the rendezvous registries (rank 50) through the StallProbe —
// never any CRI or match lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/cri/cri.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi::progress {

/// Extra stall sources the owning rank contributes (stuck rendezvous);
/// called from poll(), so from a thread holding no engine lock.
class StallProbe {
 public:
  virtual ~StallProbe() = default;
  /// Report objects pending since before `horizon_ns` (escalating each
  /// through counters/trace/sink itself); returns how many were flagged.
  virtual std::size_t scan_stalled(std::uint64_t now_ns,
                                   std::uint64_t horizon_ns) = 0;
};

class Watchdog {
 public:
  /// @param stall_sweeps consecutive frozen-backlog sweeps before escalation
  /// @param rndv_stall_ns age threshold handed to the StallProbe
  Watchdog(cri::CriPool& pool, spc::CounterSet& counters, trace::Tracer& tracer,
           int stall_sweeps, std::uint64_t rndv_stall_ns);

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void set_error_sink(common::ErrorSink sink, void* user, int rank) noexcept {
    sink_ = sink;
    sink_user_ = user;
    rank_ = rank;
  }
  void set_stall_probe(StallProbe* probe) noexcept { probe_ = probe; }

  /// ft attribution: point at the failure detector's suspect hint so a
  /// stall escalation can name the peer the detector currently suspects
  /// (instead of peer = -1, "something is stuck but I don't know who").
  /// Install before traffic starts; the hint itself is a lock-free atomic.
  void set_suspect_hint(const std::atomic<int>* hint) noexcept {
    suspect_hint_ = hint;
  }

  /// One watchdog sweep; returns the number of stalls escalated (0 almost
  /// always). Not gated and not thread-safe: the owning rank's timed-work
  /// runner calls it, one thread at a time, once per
  /// Config::watchdog_interval_ns.
  std::size_t poll(std::uint64_t now_ns);

 private:
  struct InstanceState {
    std::uint64_t last_consumed = 0;
    int strikes = 0;
    bool escalated = false;  ///< one report per stall episode
  };

  cri::CriPool& pool_;
  spc::CounterSet& spc_;
  trace::Tracer& tracer_;
  const int stall_sweeps_;
  const std::uint64_t rndv_stall_ns_;

  common::ErrorSink sink_ = nullptr;
  void* sink_user_ = nullptr;
  int rank_ = -1;
  StallProbe* probe_ = nullptr;
  const std::atomic<int>* suspect_hint_ = nullptr;  ///< ft detector's, or null

  std::vector<InstanceState> instances_;
};

}  // namespace fairmpi::progress
