// Overload control & graceful degradation (DESIGN.md §5h).
//
// The engine survives a lossy fabric (reliability layer) and dead ranks
// (ft layer); this layer makes it survive *its own users*: an incast flood
// against a slow consumer must not grow the unexpected queues or the
// payload pool without bound, and a pending operation must be cancellable
// or deadline-bounded instead of waiting forever (ROADMAP item 4, the
// million-client service scenario).
//
// Three capped resources, each with a policy:
//
//   resource                 cap cvar            policies
//   ---------------------    -----------------   ------------------------
//   per-peer unexpected      unexpected_cap      kShed (NACK) / kQueue
//   payload-pool bytes       payload_pool_cap    kQueue (wait) / kShed
//   reliability in-flight    tracker_cap         kQueue (wait) / kShed
//
//   * kShed — refuse at admission. Receiver-side sheds answer the sender
//     with Opcode::kNack (echoing the packet key like an ack), so the
//     sender's reliability tracker fails the op typed kReceiverOverloaded
//     instead of retransmitting into a full queue. Sender-side sheds
//     (pool/tracker caps at injection) fail typed kLocalOverloaded.
//   * kQueue — backpressure the producer through the existing
//     EAGAIN/backoff machinery: the receiver trickles its RX drains
//     (1 admitted visit in kRxTrickle) until the hot peer falls back under
//     its low watermark, so the sender's ring fills and its injection loop
//     backs off; sender-side caps spin (progressing) until pressure drains.
//
// The Governor is the per-rank control block: the degradation ladder
// kHealthy -> kPressured -> kOverloaded (watermark crossings, with
// hysteresis on the way down), the paused-peer latch count, and the RX
// trickle gate. It is deliberately atomics-only — no lock, no rank in the
// §5e hierarchy — because every consultation sits on a hot path where the
// uncapped configuration must cost exactly one relaxed load.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fairmpi::overload {

/// What to do when a capped resource is at its limit.
enum class Policy : std::uint8_t {
  kQueue = 0,  ///< backpressure the producer (EAGAIN/backoff path)
  kShed,       ///< refuse at admission (NACK / typed local error)
};

const char* policy_name(Policy p) noexcept;

/// Degradation ladder, exported per rank through dump_observability().
enum class Level : std::uint8_t {
  kHealthy = 0,
  kPressured,   ///< some capped resource crossed the high watermark
  kOverloaded,  ///< a resource is at cap (shedding or pausing producers)
};

const char* level_name(Level l) noexcept;

/// Degradation-ladder watermarks, percent of the tightest cap: kHealthy ->
/// kPressured at kHighPct; back down only at/below kLowPct (hysteresis, so
/// the ladder doesn't flap at a boundary). kLowPct is also where a paused
/// peer is re-admitted.
inline constexpr int kHighPct = 75;
inline constexpr int kLowPct = 50;

/// Resolved caps + policies (from Config; all caps 0 = layer disabled).
struct Limits {
  std::size_t unexpected_cap = 0;          ///< per-peer unexpected depth
  Policy unexpected_policy = Policy::kShed;
  std::uint64_t pool_cap_bytes = 0;        ///< process-global payload pool
  Policy pool_policy = Policy::kQueue;
  std::size_t tracker_cap = 0;             ///< in-flight reliability entries
  Policy tracker_policy = Policy::kQueue;
};

class Governor {
 public:
  /// Progress visits admitted while paused: 1 in kRxTrickle. A full RX
  /// pause would also starve inbound acks and heartbeats (ft false
  /// positives); the trickle keeps the control plane alive while still
  /// filling the producer's ring. The admitted fraction bounds unexpected
  /// overshoot past the cap by (ring depth / kRxTrickle) per sweep.
  static constexpr std::uint64_t kRxTrickle = 8;

  explicit Governor(const Limits& lim) noexcept
      : lim_(lim),
        enabled_(lim.unexpected_cap != 0 || lim.pool_cap_bytes != 0 ||
                 lim.tracker_cap != 0) {}

  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  const Limits& limits() const noexcept { return lim_; }

  /// Any cap configured? The uncapped fast path folds to this one branch.
  bool enabled() const noexcept { return enabled_; }

  Level level() const noexcept {
    return static_cast<Level>(level_.load(std::memory_order_relaxed));
  }

  // --- kQueue backpressure: peers latched over their unexpected cap ---

  /// A peer crossed its unexpected cap under kQueue (match lock held by
  /// the caller; the latch itself is just a count).
  void pause_peer() noexcept {
    paused_peers_.fetch_add(1, std::memory_order_relaxed);
  }
  /// The peer drained back under the low watermark.
  void resume_peer() noexcept {
    paused_peers_.fetch_sub(1, std::memory_order_relaxed);
  }
  std::size_t paused_peers() const noexcept {
    return paused_peers_.load(std::memory_order_relaxed);
  }

  /// RX trickle gate, consulted once per progress visit: true = skip the
  /// RX/CQ drains this visit. One relaxed load when nothing is paused.
  bool defer_rx() noexcept {
    // lint: allow(relaxed-sync) advisory throttle; the match lock owns the latch
    if (paused_peers_.load(std::memory_order_relaxed) == 0) return false;
    return (rx_visits_.fetch_add(1, std::memory_order_relaxed) % kRxTrickle) != 0;
  }

  // --- sender-side admission (one relaxed load + compare each) ---

  bool pool_at_cap(std::uint64_t in_use_bytes) const noexcept {
    return lim_.pool_cap_bytes != 0 && in_use_bytes >= lim_.pool_cap_bytes;
  }
  bool tracker_at_cap(std::size_t in_flight) const noexcept {
    return lim_.tracker_cap != 0 && in_flight >= lim_.tracker_cap;
  }

  // --- degradation ladder ---

  struct Transition {
    Level from = Level::kHealthy;
    Level to = Level::kHealthy;
    bool changed = false;
  };

  /// Re-evaluate the ladder from current resource usage (progress-driven;
  /// any thread may call, a CAS keeps transitions exactly-once). Up
  /// transitions are immediate; down transitions need pressure <= kLowPct
  /// (hysteresis), so the ladder doesn't flap at a watermark.
  Transition sample(std::uint64_t unexpected_total, std::uint64_t pool_in_use,
                    std::uint64_t tracker_in_flight) noexcept;

  /// Worst resource pressure as a percentage of its cap (100 = at cap).
  int pressure_pct(std::uint64_t unexpected_total, std::uint64_t pool_in_use,
                   std::uint64_t tracker_in_flight) const noexcept;

 private:
  const Limits lim_;
  const bool enabled_;
  std::atomic<std::uint8_t> level_{static_cast<std::uint8_t>(Level::kHealthy)};
  std::atomic<std::size_t> paused_peers_{0};
  std::atomic<std::uint64_t> rx_visits_{0};
};

}  // namespace fairmpi::overload
