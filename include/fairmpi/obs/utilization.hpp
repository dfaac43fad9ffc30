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
// Each instance keeps its cells in its own per-thread counter store
// (common/sharded_cells.hpp), so a drain or injection touches only the
// calling thread's block. Every update is gated on obs::enabled(), so the
// disabled cost is one relaxed load and a predicted branch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/sharded_cells.hpp"
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

/// The live counters, one per CommResourceInstance. Many threads touch an
/// instance over its lifetime (and sweeps read concurrently); each writes
/// only its own block of the store.
class alignas(kCacheLine) InstanceCounters {
 public:
  /// One packet handed to this instance's endpoints (instance lock held).
  void note_injection() noexcept {
    if (!enabled()) return;
    cells_.cursor().add(kInjections);
  }

  /// One drain visit that popped `n_pkts` packets and `n_comps`
  /// completions. `sweep` marks a non-owner visit (Alg. 2's rescue path).
  void note_drain(std::size_t n_pkts, std::size_t n_comps, bool sweep) noexcept {
    if (!enabled()) return;
    auto c = cells_.cursor();
    c.add(kDrainVisits);
    const std::size_t total = n_pkts + n_comps;
    if (total == 0) return;
    c.add(kPacketsDrained, n_pkts);
    c.add(kCompletionsDrained, n_comps);
    c.add(kDrainHist + static_cast<std::size_t>(bucket(total)));
    if (sweep) c.add(kOrphanSweeps);
  }

  /// A thread's try_lock on its OWN instance failed (Alg. 2 line 1 miss).
  void note_own_trylock_miss() noexcept {
    if (!enabled()) return;
    cells_.cursor().add(kOwnTrylockMisses);
  }

  InstanceUtilization snapshot() const noexcept {
    InstanceUtilization u;
    u.injections = cells_.sum(kInjections);
    u.packets_drained = cells_.sum(kPacketsDrained);
    u.completions_drained = cells_.sum(kCompletionsDrained);
    u.own_trylock_misses = cells_.sum(kOwnTrylockMisses);
    u.orphan_sweeps = cells_.sum(kOrphanSweeps);
    u.drain_visits = cells_.sum(kDrainVisits);
    for (std::size_t i = 0; i < u.drain_hist.size(); ++i) {
      u.drain_hist[i] = cells_.sum(kDrainHist + i);
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
  enum Cell : std::size_t {
    kInjections,
    kPacketsDrained,
    kCompletionsDrained,
    kOwnTrylockMisses,
    kOrphanSweeps,
    kDrainVisits,
    kDrainHist,  ///< first of kDrainHistBuckets cells
    kNumCells = kDrainHist + kDrainHistBuckets,
  };

  common::ShardedCells<kNumCells> cells_;
};

}  // namespace fairmpi::obs
