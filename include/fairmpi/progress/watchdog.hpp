// Progress-engine watchdog: detects instances that stop completing.
//
// A CRI whose RX ring holds packets but whose consumption frontier is
// frozen is stalled — its dedicated thread died, a progress holder is
// wedged, or flow control deadlocked. The watchdog detects it from existing
// lock-free instrumentation — NetworkContext::delivered() and
// RxQueue::size_approx() — so the packet hot path carries zero extra
// accounting.
//
// The watchdog only classifies: poll() reports each instance once per
// stall episode, and the owning rank escalates the report (counter, trace
// event, typed error) together with its own rendezvous stall scan
// (Rank::run_timed_work).
//
// Concurrency: the watchdog has no lock and acquires none. poll() is not
// thread-safe; its one in-library caller, Rank::run_timed_work, runs it
// under the rank's runner claim, which admits one thread at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "fairmpi/cri/cri.hpp"

namespace fairmpi::progress {

class Watchdog {
 public:
  /// One newly stalled instance.
  struct Stall {
    int instance;
    int strikes;  ///< consecutive frozen-backlog sweeps
    int peer;     ///< the ft detector's suspect at report time, or -1
  };

  /// @param stall_sweeps consecutive frozen-backlog sweeps before a report
  /// @param suspect_hint the ft detector's suspect hint (null with ft off):
  ///        a report names the peer it holds, instead of -1
  Watchdog(cri::CriPool& pool, int stall_sweeps, const std::atomic<int>* suspect_hint);

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// One sweep: appends a record for each instance that became stalled
  /// (once per stall episode) to `stalled`, which is not cleared.
  void poll(std::vector<Stall>& stalled);

 private:
  struct InstanceState {
    std::uint64_t last_consumed = 0;
    int strikes = 0;
    bool escalated = false;  ///< one report per stall episode
  };

  cri::CriPool& pool_;
  const int stall_sweeps_;
  const std::atomic<int>* const suspect_hint_;
  std::vector<InstanceState> instances_;
};

}  // namespace fairmpi::progress
