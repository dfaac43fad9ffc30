// Per-CRI utilization counters (observability layer; DESIGN.md §5d).
//
// Algorithm 1 (instance assignment) and Algorithm 2 (own-instance-first
// progress with a try-lock sweep) make claims about *which instance* work
// lands on: dedicated assignment should keep every thread on its own CRI,
// the sweep should only touch siblings when the own instance is dry, and
// orphaned instances must still drain. The aggregate SPCs cannot confirm
// any of that — they sum over instances. These counters resolve the
// per-instance axis: injections and extractions per CRI show the load
// balance, own-instance try-lock misses count Alg. 2 skips at their
// source, orphan sweeps count cross-instance rescues, and the drain-batch
// histogram shows whether progress harvests singles or bursts.
//
// Writers run under (or adjacent to) the instance lock on already-owned
// cache lines, and every update is gated on obs::enabled(), so the
// disabled cost is one predicted branch per drain/injection.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "fairmpi/common/align.hpp"
#include "fairmpi/obs/contention.hpp"

namespace fairmpi::obs {

/// Drain-batch histogram buckets: batch sizes 1, 2, 3-4, 5-8, 9-16, 17-32,
/// 33+ (the progress engine caps a batch at 64). Empty visits are counted
/// in drain_visits but not bucketed.
inline constexpr int kDrainHistBuckets = 7;

/// Retired with the submission ring; sizes submit_flush_hist below.
inline constexpr int kSubmitHistBuckets = kDrainHistBuckets;

/// Plain-value snapshot row for one instance (see InstanceCounters).
struct InstanceUtilization {
  std::uint64_t injections = 0;
  std::uint64_t packets_drained = 0;
  std::uint64_t completions_drained = 0;
  std::uint64_t own_trylock_misses = 0;
  std::uint64_t orphan_sweeps = 0;
  std::uint64_t drain_visits = 0;
  std::array<std::uint64_t, kDrainHistBuckets> drain_hist{};
  // Retired with the submission ring: nothing writes these, so they
  // always read 0. Kept until the benchmark drops its cri.submit_*
  // per-layer metrics.
  std::uint64_t submit_claimed = 0;      ///< retired: always 0
  std::uint64_t submit_doorbells = 0;    ///< retired: always 0
  std::uint64_t submit_cas_retries = 0;  ///< retired: always 0
  std::array<std::uint64_t, kSubmitHistBuckets> submit_flush_hist{};  ///< retired: all 0
};

/// The live counters, one per CommResourceInstance. Multiple threads touch
/// an instance over its lifetime (and sweeps read concurrently), so cells
/// are relaxed atomics; fetch_add is fine — the updates sit on lines the
/// lock holder already owns.
class alignas(kCacheLine) InstanceCounters {
 public:
  /// One packet handed to this instance's endpoints (instance lock held).
  void note_injection() noexcept {
    if (!enabled()) return;
    injections_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One drain visit that popped `n_pkts` packets and `n_comps`
  /// completions. `sweep` marks a non-owner visit (Alg. 2's rescue path).
  void note_drain(std::size_t n_pkts, std::size_t n_comps, bool sweep) noexcept {
    if (!enabled()) return;
    drain_visits_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t total = n_pkts + n_comps;
    if (total == 0) return;
    packets_drained_.fetch_add(n_pkts, std::memory_order_relaxed);
    completions_drained_.fetch_add(n_comps, std::memory_order_relaxed);
    drain_hist_[bucket(total)].fetch_add(1, std::memory_order_relaxed);
    if (sweep) orphan_sweeps_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A thread's try_lock on its OWN instance failed (Alg. 2 line 1 miss).
  void note_own_trylock_miss() noexcept {
    if (!enabled()) return;
    own_trylock_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  InstanceUtilization snapshot() const noexcept {
    InstanceUtilization u;
    u.injections = injections_.load(std::memory_order_relaxed);
    u.packets_drained = packets_drained_.load(std::memory_order_relaxed);
    u.completions_drained = completions_drained_.load(std::memory_order_relaxed);
    u.own_trylock_misses = own_trylock_misses_.load(std::memory_order_relaxed);
    u.orphan_sweeps = orphan_sweeps_.load(std::memory_order_relaxed);
    u.drain_visits = drain_visits_.load(std::memory_order_relaxed);
    for (int i = 0; i < kDrainHistBuckets; ++i) {
      u.drain_hist[static_cast<std::size_t>(i)] =
          drain_hist_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    }
    return u;
  }

  static int bucket(std::size_t total) noexcept {
    if (total <= 2) return static_cast<int>(total) - 1;  // 1, 2
    int b = 2;
    for (std::size_t bound = 4; bound < total && b < kDrainHistBuckets - 1; bound <<= 1) {
      ++b;
    }
    return b;
  }

 private:
  std::atomic<std::uint64_t> injections_{0};
  std::atomic<std::uint64_t> packets_drained_{0};
  std::atomic<std::uint64_t> completions_drained_{0};
  std::atomic<std::uint64_t> own_trylock_misses_{0};
  std::atomic<std::uint64_t> orphan_sweeps_{0};
  std::atomic<std::uint64_t> drain_visits_{0};
  std::array<std::atomic<std::uint64_t>, kDrainHistBuckets> drain_hist_{};
};

}  // namespace fairmpi::obs
