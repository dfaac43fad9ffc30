// Stall watchdog implementation (see include/fairmpi/progress/watchdog.hpp).
#include "fairmpi/progress/watchdog.hpp"

#include "fairmpi/common/error.hpp"

namespace fairmpi::progress {

Watchdog::Watchdog(cri::CriPool& pool, int stall_sweeps,
                   const std::atomic<int>* suspect_hint)
    : pool_(pool), stall_sweeps_(stall_sweeps), suspect_hint_(suspect_hint),
      instances_(static_cast<std::size_t>(pool.size())) {
  FAIRMPI_CHECK(stall_sweeps >= 1);
}

void Watchdog::poll(std::vector<Stall>& stalled) {
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
    const int peer =
        suspect_hint_ != nullptr ? suspect_hint_->load(std::memory_order_relaxed) : -1;
    stalled.push_back(Stall{i, st.strikes, peer});
  }
}

}  // namespace fairmpi::progress
