// Stall watchdog implementation (see include/fairmpi/progress/watchdog.hpp).
#include "fairmpi/progress/watchdog.hpp"

#include "fairmpi/common/error.hpp"

namespace fairmpi::progress {

using spc::Counter;

Watchdog::Watchdog(cri::CriPool& pool, spc::CounterSet& counters,
                   trace::Tracer& tracer, int stall_sweeps, std::uint64_t rndv_stall_ns)
    : pool_(pool), spc_(counters), tracer_(tracer), stall_sweeps_(stall_sweeps),
      rndv_stall_ns_(rndv_stall_ns), instances_(static_cast<std::size_t>(pool.size())) {
  FAIRMPI_CHECK(stall_sweeps >= 1);
}

std::size_t Watchdog::poll(std::uint64_t now_ns) {
  std::size_t flagged = 0;
  for (int i = 0; i < pool_.size(); ++i) {
    fabric::NetworkContext& ctx = pool_.instance(i).context();
    // Consumption frontier from existing lock-free instrumentation: packets
    // ever delivered minus those still queued. Both reads are racy against
    // producers, which only makes the frontier look *smaller* — a stall is
    // declared only after it stays frozen with a backlog for N full sweeps.
    const std::uint64_t delivered = ctx.delivered();
    const std::uint64_t backlog =
        static_cast<std::uint64_t>(ctx.rx().size_approx());
    const std::uint64_t consumed = delivered - backlog;

    InstanceState& st = instances_[static_cast<std::size_t>(i)];
    // Signed progress delta. A spurious *decrease* is possible (a push
    // landing between the two reads inflates backlog), and the old
    // `consumed != last` test treated that phantom as progress — resetting
    // the strike counter of a genuinely frozen instance every time inbound
    // traffic raced the sweep, so a flooded-and-stuck CRI was never
    // escalated. Only a genuine advance (delta > 0, even *partial* — the
    // backlog need not drain fully) ends the episode.
    const auto delta = static_cast<std::int64_t>(consumed - st.last_consumed);
    if (backlog == 0 || delta > 0) {
      st.last_consumed = consumed;
      st.strikes = 0;
      st.escalated = false;  // episode over: draining resumed
      continue;
    }
    if (delta < 0) continue;  // racy read: inconclusive — no strike, no reset
    if (++st.strikes < stall_sweeps_ || st.escalated) continue;

    st.escalated = true;
    ++flagged;
    spc_.add(Counter::kWatchdogStalls);
    tracer_.record(trace::Event::kWatchdogStall, static_cast<std::uint32_t>(i),
                   static_cast<std::uint32_t>(st.strikes));
    if (sink_ != nullptr) {
      // Attribute the stall to the peer the failure detector currently
      // suspects (if ft is on and suspects someone); -1 = unattributed.
      const int peer =
          suspect_hint_ != nullptr ? suspect_hint_->load(std::memory_order_relaxed) : -1;
      sink_(common::Error{common::ErrorCode::kStalledInstance, rank_, peer,
                          static_cast<std::uint64_t>(i)},
            sink_user_);
    }
  }

  if (probe_ != nullptr && now_ns > rndv_stall_ns_) {
    flagged += probe_->scan_stalled(now_ns, now_ns - rndv_stall_ns_);
  }
  return flagged;
}

}  // namespace fairmpi::progress
