// Overload governor (see include/fairmpi/overload/overload.hpp).
//
// Hot-path discipline: nothing here allocates; the ladder is three atomics
// and every admission check is a relaxed load + compare.
#include "fairmpi/overload/overload.hpp"

namespace fairmpi::overload {

const char* policy_name(Policy p) noexcept {
  switch (p) {
    case Policy::kQueue: return "queue";
    case Policy::kShed: return "shed";
  }
  return "unknown";
}

const char* level_name(Level l) noexcept {
  switch (l) {
    case Level::kHealthy: return "healthy";
    case Level::kPressured: return "pressured";
    case Level::kOverloaded: return "overloaded";
  }
  return "unknown";
}

int Governor::pressure_pct(std::uint64_t unexpected_total, std::uint64_t pool_in_use,
                           std::uint64_t tracker_in_flight) const noexcept {
  // Worst-of over the capped resources. The unexpected signal compares the
  // *total* backlog against the per-peer cap — conservative (total >= any
  // one peer's depth), which is the right bias for the incast case the cap
  // exists for: one slow consumer, many producers.
  std::uint64_t pct = 0;
  const auto consider = [&pct](std::uint64_t use, std::uint64_t cap) {
    if (cap == 0) return;
    const std::uint64_t p = use >= cap ? 100 : use * 100 / cap;
    if (p > pct) pct = p;
  };
  consider(unexpected_total, lim_.unexpected_cap);
  consider(pool_in_use, lim_.pool_cap_bytes);
  consider(tracker_in_flight, lim_.tracker_cap);
  // lint: allow(relaxed-sync) advisory pressure estimate; the latch is lock-owned
  if (paused_peers_.load(std::memory_order_relaxed) != 0) {
    pct = 100;  // a latched peer is at cap by definition
  }
  return static_cast<int>(pct);
}

Governor::Transition Governor::sample(std::uint64_t unexpected_total,
                                      std::uint64_t pool_in_use,
                                      std::uint64_t tracker_in_flight) noexcept {
  Transition t;
  if (!enabled_) return t;
  const int pct = pressure_pct(unexpected_total, pool_in_use, tracker_in_flight);

  std::uint8_t cur = level_.load(std::memory_order_relaxed);
  const auto cur_level = static_cast<Level>(cur);
  Level next = cur_level;
  if (pct >= 100) {
    next = Level::kOverloaded;
  } else if (pct >= kHighPct) {
    // At least pressured; this is also the single step down an overloaded
    // rank takes once it is out of the 100% band.
    next = Level::kPressured;
  } else if (pct <= kLowPct) {
    next = Level::kHealthy;
  } else if (cur_level == Level::kOverloaded) {
    // Between low and high: hysteresis band. Overloaded steps down to
    // pressured (the cap condition cleared); pressured/healthy hold.
    next = Level::kPressured;
  }

  t.from = cur_level;
  t.to = next;
  if (next == cur_level) return t;
  // One winner per transition: a lost CAS means a racing sampler already
  // moved the ladder; report no change and let the next sample converge.
  if (level_.compare_exchange_strong(cur, static_cast<std::uint8_t>(next),
                                     std::memory_order_relaxed)) {
    t.changed = true;
  } else {
    t.from = t.to = static_cast<Level>(cur);
  }
  return t;
}

}  // namespace fairmpi::overload
