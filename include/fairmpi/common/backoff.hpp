// Adaptive spin-then-backoff policy for contended try_lock retry loops.
//
// SpinWait (spinlock.hpp) is the right shape for "the event is imminent and
// produced by a running thread": spin a fixed budget, then yield. Contended
// *lock retry* loops have a different profile — the holder's critical
// section length is unknown, and hammering try_lock at full rate keeps the
// lock's cache line bouncing, which slows the holder down (the classic
// spin-backoff result; SNIPPETS.md §1's MUTEX_SPIN_BACKOFF measures exactly
// this: pthread_spin_trylock, then spin(1000*factor), factor doubling to a
// cap). Backoff reproduces that idiom: the pause between probes grows
// exponentially, so a retrying thread probes often when the wait is short
// and leaves the line alone when it is long; once the budget saturates the
// wait is assumed scheduler-scale and each round yields (critical on the
// 1-core CI host, where the holder cannot run while we spin).
#pragma once

#include <cstdint>
#include <thread>

#include "fairmpi/common/spinlock.hpp"

namespace fairmpi::common {

class Backoff {
 public:
  /// `max_spin` caps the per-round pause (in cpu_relax iterations).
  constexpr explicit Backoff(std::uint32_t max_spin = kDefaultMaxSpin) noexcept
      : max_spin_(max_spin) {}

  /// One fruitless probe: pause for the current budget, then double it.
  /// Saturated rounds yield instead of spinning — at that point the holder
  /// is likely descheduled and burning the quantum only delays it.
  void pause() noexcept {
    if (!spin_profitable()) cur_ = max_spin_;  // 1 CPU: spinning blocks the holder
    if (cur_ >= max_spin_) {
      std::this_thread::yield();
      return;
    }
    for (std::uint32_t i = 0; i < cur_; ++i) fairmpi::detail::cpu_relax();
    cur_ <<= 1;
  }

  /// Whether spinning can ever pay off on this host: with one hardware
  /// thread the lock holder cannot run while we spin, so every spin round
  /// only delays the event being waited for (measured ~15% multirate
  /// regression on the 1-core CI host before this check). Cached once.
  static bool spin_profitable() noexcept {
    static const bool profitable = std::thread::hardware_concurrency() > 1;
    return profitable;
  }

  /// Progress was made: restart the probe cadence.
  void reset() noexcept { cur_ = kInitialSpin; }

  /// The exponential budget has hit its cap (pauses are now yields).
  bool saturated() const noexcept { return cur_ >= max_spin_; }

  static constexpr std::uint32_t kInitialSpin = 16;
  static constexpr std::uint32_t kDefaultMaxSpin = 2048;

 private:
  std::uint32_t cur_ = kInitialSpin;
  std::uint32_t max_spin_;
};

}  // namespace fairmpi::common
