// Bounded lock-free ring buffer (Vyukov-style bounded queue), multi-producer
// single-consumer.
//
// This is the command queue of offload::OffloadDriver: application threads
// are the producers, the driver's one communication thread is the consumer.
// The pop side exploits that single-consumer ownership: head_ is advanced
// with a plain store instead of a CAS, and try_pop_n() amortizes the head
// update over a whole batch. The push side stays fully MPMC-safe.
//
// A full ring is backpressure: try_push() returns false and the producer
// must wait and retry.
//
// The engine's own queues are not MPSC: an RX lane and a CQ each have one
// producer at a time, serialized by a CRI lock, so they are SpscRings
// (spsc_ring.hpp, fabric/fabric.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "fairmpi/common/align.hpp"
#include "fairmpi/common/error.hpp"

namespace fairmpi {

template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to a power of two; minimum 2.
  explicit MpscRing(std::size_t capacity)
      : capacity_(next_pow2(capacity < 2 ? 2 : capacity)),
        mask_(capacity_ - 1),
        cells_(std::make_unique<Cell[]>(capacity_)) {  // lint: allow(hotpath-alloc) ctor
    for (std::size_t i = 0; i < capacity_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Attempt to enqueue. Returns false when the ring is full (backpressure).
  /// Safe to call from any number of threads concurrently.
  bool try_push(T&& item) noexcept {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int64_t dif = static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          cell.value = std::move(item);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failed: pos was refreshed, retry with the new value.
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  bool try_push(const T& item) noexcept {
    T copy = item;
    return try_push(std::move(copy));
  }

  /// Attempt to dequeue into `out`. Returns false when empty.
  /// Single consumer at a time: callers must hold the owning CRI's lock (or
  /// otherwise own the ring exclusively). head_ is written with a plain
  /// store — no CAS — which is what makes the drain path allocation- and
  /// rmw-free.
  bool try_pop(T& out) noexcept {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (seq != pos + 1) return false;  // empty (or producer mid-publish)
    out = std::move(cell.value);
    cell.seq.store(pos + capacity_, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Dequeue up to `max_n` items into `out[0..)`, returning the count.
  /// Same single-consumer contract as try_pop. One head_ store per batch.
  std::size_t try_pop_n(T* out, std::size_t max_n) noexcept {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    while (n < max_n) {
      Cell& cell = cells_[(pos + n) & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq != pos + n + 1) break;  // drained up to the publish frontier
      out[n] = std::move(cell.value);
      cell.seq.store(pos + n + capacity_, std::memory_order_release);
      ++n;
    }
    if (n != 0) head_.store(pos + n, std::memory_order_relaxed);
    return n;
  }

  /// Count of successful pushes so far (the producers' claim cursor). Exact
  /// for every push that has *returned*; a claim mid-publish is counted one
  /// early, which is the same slack size_approx() already has. Lets the
  /// fabric derive delivered-packet totals from the ring instead of
  /// maintaining a separate per-delivery fetch_add on the hot path.
  std::uint64_t pushed_approx() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }

  /// Approximate occupancy; exact only when quiescent.
  std::size_t size_approx() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  bool empty_approx() const noexcept { return size_approx() == 0; }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  // producers
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  // consumer
};

}  // namespace fairmpi
