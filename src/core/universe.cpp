#include "fairmpi/core/universe.hpp"

#include <algorithm>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/cvar.hpp"

namespace fairmpi {

namespace {
std::vector<int> contexts_per_rank(const Config& cfg) {
  FAIRMPI_CHECK_MSG(cfg.num_ranks >= 1, "universe needs at least one rank");
  FAIRMPI_CHECK_MSG(cfg.num_instances >= 1, "at least one CRI per rank");
  return std::vector<int>(static_cast<std::size_t>(cfg.num_ranks), cfg.num_instances);
}

/// Chaos-testing hook: the override-scope control variables (fault model,
/// reliability, watchdog, ft, trace/obs, overload caps; see cvar.hpp) are
/// honoured from the environment for universes built from a programmatic
/// Config (tests, benches), so a CI job can replay an entire suite over a
/// lossy fabric without touching each call site. Design knobs from the
/// environment stay the job of config_from_env, so a test's explicitly
/// constructed design is never silently overridden.
Config apply_chaos_env(Config cfg) {
  cfg = overrides_from_env(std::move(cfg));
  // A lossy fabric without the reliability protocol cannot keep MPI
  // semantics; switching faults on implies switching reliability on.
  if (cfg.faults.any()) cfg.reliable = true;
  // "FAIRMPI_TRACE=1" alone should record something exportable.
  if (cfg.trace_enabled && cfg.trace_entries == 0) cfg.trace_entries = 1 << 16;
  return cfg;
}
}  // namespace

Universe::Universe(Config cfg)
    : cfg_(apply_chaos_env(std::move(cfg))),
      fabric_(contexts_per_rank(cfg_), cfg_.fabric) {
  FAIRMPI_CHECK(cfg_.max_communicators >= 1);
  // Sticky process-global switch: lock classes (and their contention cells)
  // exist below any one universe, so the profile does too. Never unset —
  // a later obs-less universe must not blind a concurrent profiled one.
  if (cfg_.obs_enabled) obs::set_enabled(true);
  // Same sticky-switch discipline for the payload-pool byte accounting
  // (§5h): the uncapped fast path skips the per-packet RMWs entirely.
  if (cfg_.payload_pool_cap_bytes != 0 || cfg_.obs_enabled) {
    fabric::enable_payload_pool_accounting();
  }
  // Reliability plumbing must exist before any rank can inject. ft forces
  // the injector even on a pristine fabric: the detector's kill mode
  // (FaultInjector::kill_rank) is its ground truth for rank death.
  fabric_.configure_reliability(cfg_.faults, cfg_.reliable, cfg_.ft_enabled);
  ranks_.reserve(static_cast<std::size_t>(cfg_.num_ranks));
  for (int r = 0; r < cfg_.num_ranks; ++r) {
    // make_unique can't reach the private constructor.
    ranks_.emplace_back(new Rank(*this, r));
  }
  // World communicator exists everywhere from the start.
  for (auto& rank : ranks_) rank->install_comm(kWorldComm);
}

Universe::~Universe() = default;

CommId Universe::create_communicator() {
  LockGuard guard(comm_create_lock_);
  const CommId id = next_comm_.fetch_add(1, std::memory_order_relaxed);
  FAIRMPI_CHECK_MSG(id < static_cast<CommId>(cfg_.max_communicators),
                    "communicator table exhausted (raise Config::max_communicators)");
  for (auto& rank : ranks_) rank->install_comm(id);
  return id;
}

CommId Universe::create_communicator(std::vector<int> members) {
  FAIRMPI_CHECK_MSG(!members.empty(), "communicator group must be non-empty");
  for (std::size_t i = 0; i < members.size(); ++i) {
    FAIRMPI_CHECK_MSG(members[i] >= 0 && members[i] < num_ranks(),
                      "group member out of range");
    FAIRMPI_CHECK_MSG(i == 0 || members[i] > members[i - 1],
                      "group members must be strictly increasing");
  }
  LockGuard guard(comm_create_lock_);
  const CommId id = next_comm_.fetch_add(1, std::memory_order_relaxed);
  FAIRMPI_CHECK_MSG(id < static_cast<CommId>(cfg_.max_communicators),
                    "communicator table exhausted (raise Config::max_communicators)");
  // Installed on every rank — members and non-members alike — so any rank
  // can still resolve the id (non-members simply never operate on it).
  for (auto& rank : ranks_) rank->install_comm(id, members);
  return id;
}

// --- ft: communicator-level recovery (DESIGN.md §5g) ---

void Universe::revoke(CommId id) {
  for (auto& rank : ranks_) {
    p2p::CommState& cs = rank->comm_state(id);
    if (cs.revoked()) continue;  // idempotent per rank
    cs.revoke();
    const std::size_t failed = cs.match().fail_all_posted();
    rank->tracer().record(trace::Event::kCommRevoke, id,
                          static_cast<std::uint32_t>(failed));
  }
}

std::vector<int> Universe::survivors() const {
  fabric::FaultInjector* injector =
      const_cast<fabric::Fabric&>(fabric_).injector();
  std::vector<int> alive;
  alive.reserve(ranks_.size());
  for (const auto& rank : ranks_) {
    const int r = rank->id();
    bool dead = injector != nullptr && injector->rank_dead(r);
    for (const auto& other : ranks_) {
      if (dead) break;
      ft::FailureDetector* det = other->ft_.get();
      if (other->id() != r && det != nullptr && det->is_dead(r)) dead = true;
    }
    if (!dead) alive.push_back(r);
  }
  return alive;
}

bool Universe::quiesce(std::uint64_t timeout_ns) {
  const std::vector<int> alive = survivors();
  const std::uint64_t deadline = now_ns() + timeout_ns;
  // Quiescent = two consecutive all-idle sweeps (one can be a fluke of
  // approximate ring counts) with every surviving tracker empty. Tracked
  // entries toward dead peers drain via the sweep's failed_peers purge.
  int idle_sweeps = 0;
  while (idle_sweeps < 2) {
    std::size_t work = 0;
    bool tracked = false;
    for (const int r : alive) {
      Rank& rk = *ranks_[static_cast<std::size_t>(r)];
      work += rk.progress();
      if (rk.tracker_ != nullptr && rk.tracker_->in_flight() != 0) tracked = true;
    }
    idle_sweeps = work == 0 && !tracked ? idle_sweeps + 1 : 0;
    if (now_ns() > deadline) {
      // Say WHY the drain failed (§5h satellite): every rank still holding
      // backlog reports a typed kQuiesceTimeout through its error sink,
      // with the three resource counts packed into `detail` (16 bits each,
      // saturating: [tracked in-flight | unexpected queued | rndv pending])
      // so a sink can tell a stuck retransmit from a flooded queue.
      const auto sat16 = [](std::size_t v) -> std::uint64_t {
        return v > 0xffff ? 0xffff : static_cast<std::uint64_t>(v);
      };
      for (const int r : alive) {
        Rank& rk = *ranks_[static_cast<std::size_t>(r)];
        const std::size_t in_flight =
            rk.tracker_ != nullptr ? rk.tracker_->in_flight() : 0;
        std::size_t unexpected = 0;
        for (auto& slot : rk.comms_) {
          p2p::CommState* cs = slot.load(std::memory_order_acquire);
          if (cs != nullptr) unexpected += cs->match().unexpected_count();
        }
        const std::size_t rndv = rk.rendezvous_pending();
        if (in_flight == 0 && unexpected == 0 && rndv == 0) continue;
        rk.spc_.add(spc::Counter::kQuiesceTimeouts);
        rk.report_error(common::Error{
            common::ErrorCode::kQuiesceTimeout, r, -1,
            (sat16(in_flight) << 32) | (sat16(unexpected) << 16) | sat16(rndv)});
      }
      return false;
    }
  }
  return true;
}

CommId Universe::shrink(CommId id) {
  revoke(id);
  // Bounded drain so no survivor is still blocked inside an operation on
  // the revoked communicator when the replacement starts talking. 50 ms is
  // generous next to the detector's defaults (~8 ms to confirm a death).
  (void)quiesce(50'000'000);
  return create_communicator(survivors());
}

void Universe::sweep_reliability(std::uint64_t now_ns) noexcept {
  if (!claim_due(retransmit_due_, now_ns)) return;
  fabric::FaultInjector* injector = fabric_.injector();
  std::uint64_t next = kNever;
  for (auto& rank : ranks_) {
    // A killed rank's NIC does not retransmit: its outbound packets are
    // eaten by the injector anyway, so sweeping its tracker would only
    // burn the survivors' progress cycles on a corpse's retry furnace.
    if (injector != nullptr && injector->rank_dead(rank->id())) continue;
    // Swept under its owner's runner claim, so two threads never clone the
    // same claimed entries twice; a busy tracker is retried next call.
    if (rank->runner_.exchange(true, std::memory_order_acquire)) {
      next = now_ns;
      continue;
    }
    next = std::min(next, rank->reliability_sweep(now_ns));
    rank->runner_.store(false, std::memory_order_release);
  }
  lower_due(retransmit_due_, next);
}

spc::Snapshot Universe::aggregate_counters() const {
  spc::Snapshot total;
  for (const auto& rank : ranks_) {
    total.merge(rank->counters().snapshot());
  }
  return total;
}

}  // namespace fairmpi
