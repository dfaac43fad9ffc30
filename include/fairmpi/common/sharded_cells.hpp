// Per-thread counter cells (the one sharded counter store).
//
// Every thread of a rank bumps the engine's counters on every message, so a
// single shared atomic per counter serializes the engine on the counter's
// cache line (the contention arXiv:2002.02509 measures dominating
// multi-endpoint scaling). ShardedCells<N> keeps N u64 cells per thread
// instead: one cache-line-aligned block per thread slot
// (common/thread_slot.hpp), allocated on the thread's first touch, plus one
// shared overflow block for threads past the slot registry's capacity.
//
// The owning thread is its block's only writer, so an increment is a
// relaxed load+store — data-race free, no lock prefix. Overflow threads
// share their block and pay real RMWs: correct, just contended. Readers sum
// (or max) one cell across every block; a read racing in-flight updates
// sees each of them either before or after, never torn or lost.
//
// Cells are monotone lifetime totals: there is no reset. Per-phase numbers
// come from subtracting an earlier read (spc::Snapshot::delta_since).
//
// Blocks outlive their thread: when a slot is recycled to a later thread
// the block (and its totals) is adopted — the slot registry's lock orders
// the handover.
//
// Users: spc::CounterSet (one cell per SPC), the lock-contention profiler
// (four cells per lock class) and obs::InstanceCounters (one store per CRI).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/thread_slot.hpp"

namespace fairmpi::common {

/// N cells per thread, addressed by Index: std::size_t, or an enum whose
/// values are cell numbers (spc::Counter).
template <std::size_t N, typename Index = std::size_t>
class ShardedCells {
  struct alignas(kCacheLine) Block {
    std::array<std::atomic<std::uint64_t>, N> cells{};
    std::atomic<std::uint64_t>& at(Index i) noexcept {
      return cells[static_cast<std::size_t>(i)];
    }
    std::uint64_t get(Index i) const noexcept {
      return cells[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    }
  };

 public:
  ShardedCells() = default;
  ShardedCells(const ShardedCells&) = delete;
  ShardedCells& operator=(const ShardedCells&) = delete;
  ~ShardedCells() {
    for (auto& b : blocks_) delete b.load(std::memory_order_acquire);
  }

  /// The calling thread's block, resolved once: code that issues several
  /// updates back-to-back takes one cursor and skips the per-call slot
  /// lookup. Use it within the statement block it was taken in.
  class Cursor {
   public:
    void add(Index i, std::uint64_t n = 1) noexcept {
      auto& cell = block_->at(i);
      if (shared_) {
        cell.fetch_add(n, std::memory_order_relaxed);
        return;
      }
      cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }

    /// cell = max(cell, candidate).
    void update_max(Index i, std::uint64_t candidate) noexcept {
      auto& cell = block_->at(i);
      // lint: allow(relaxed-sync) single-writer cell (CAS loop below covers shared)
      std::uint64_t cur = cell.load(std::memory_order_relaxed);
      if (!shared_) {
        if (candidate > cur) cell.store(candidate, std::memory_order_relaxed);
        return;
      }
      while (candidate > cur &&
             !cell.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
      }
    }

   private:
    friend class ShardedCells;
    Cursor(Block* block, bool shared) noexcept : block_(block), shared_(shared) {}
    Block* block_;
    bool shared_;  ///< overflow block: concurrent writers, RMWs required
  };

  /// Hot path: one TLS slot read and one acquire load.
  Cursor cursor() noexcept {
    const int slot = this_thread_slot();
    const bool shared = slot == kNoThreadSlot;
    const std::size_t idx = shared ? kOverflow : static_cast<std::size_t>(slot);
    Block* b = blocks_[idx].load(std::memory_order_acquire);
    if (b == nullptr) [[unlikely]] b = first_touch(idx);
    return Cursor(b, shared);
  }

  /// Cell i summed over every block.
  std::uint64_t sum(Index i) const noexcept {
    std::uint64_t total = 0;
    for (const auto& slot : blocks_) {
      const Block* b = slot.load(std::memory_order_acquire);
      if (b != nullptr) total += b->get(i);
    }
    return total;
  }

  /// Cell i's maximum over every block.
  std::uint64_t max(Index i) const noexcept {
    std::uint64_t top = 0;
    for (const auto& slot : blocks_) {
      const Block* b = slot.load(std::memory_order_acquire);
      if (b == nullptr) continue;
      const std::uint64_t v = b->get(i);
      if (v > top) top = v;
    }
    return top;
  }

 private:
  static constexpr std::size_t kOverflow = kMaxThreadSlots;

  /// Allocates slot idx's block. A private slot is installed only by its
  /// owner, but the overflow slot has many first-touchers, so CAS: the
  /// loser frees its copy and adopts the winner's block.
  [[gnu::noinline]] Block* first_touch(std::size_t idx) noexcept {
    // lint: allow(hotpath-alloc) once per thread per store, on its first update
    auto* fresh = new Block();
    Block* expected = nullptr;
    if (blocks_[idx].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return fresh;
    }
    delete fresh;
    return expected;
  }

  /// One block per thread slot, then the shared overflow block.
  std::array<std::atomic<Block*>, kMaxThreadSlots + 1> blocks_{};
};

}  // namespace fairmpi::common
