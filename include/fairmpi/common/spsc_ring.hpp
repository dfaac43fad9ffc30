// Bounded single-producer single-consumer ring (Lamport queue with cached
// peer indices).
//
// This is the per-source lane of a network context's RX queue
// (fabric/fabric.hpp): exactly one producer — the thread currently holding
// the *source* CRI instance's lock — and one consumer — the thread holding
// the *destination* instance's lock during a drain. It is also a context's
// completion queue, whose producer and consumer both hold that context's
// instance lock. Neither side performs an atomic read-modify-write: the
// whole point of the lane decomposition is that injection costs two plain
// loads and two stores, where the shared MPSC ring paid a ~10ns locked CAS
// per packet (DESIGN.md §5f).
//
// Memory ordering (producer):
//   [S1] tail_.load(relaxed)        — own cursor, nobody else writes it
//   [S2] head_.load(acquire)        — only on apparent-full refresh; pairs
//                                     with the consumer's [C2] release so
//                                     slot reuse happens-after the consumer
//                                     moved the value out
//   [S3] slot move-construct (plain) — slot is provably unowned: it was
//                                     consumed (head_ covers it) and no
//                                     other producer exists
//   [S4] tail_.store(t+1, release)  — publishes [S3] to the consumer
// Memory ordering (consumer): symmetric — head_ relaxed own-read, tail_
// acquire refresh pairing with [S4], slot move-out and destroy, head_
// release store.
//
// The cached indices (head_cache_, tail_cache_) are deliberately plain:
// each is written and read only by its own side. Sides may migrate across
// threads over time (whoever holds the respective CRI lock), and the lock
// handoff provides the happens-before edge for the plain fields.
//
// Slot storage is allocated by the first try_push, not the constructor: a
// context keeps one lane per source stream that *could* reach it, and most
// never carry a packet. The producer writes slots_ (plain) before its first
// [S4] release store; the consumer dereferences slots_ only after an
// acquire of tail_ showed a published item, so that acquire orders the
// pointer too. An empty ring's consumer never reads slots_ at all. The
// storage is raw: an item is constructed in its slot by the push and
// destroyed by the pop, so allocating it touches no page. Value-
// initializing 4096 packets instead cost the first packet of every stream
// ~0.2 ms (~2 ms under TSan) on a 4-CPU 2.1 GHz Xeon.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "fairmpi/common/align.hpp"

namespace fairmpi {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two; minimum 2.
  explicit SpscRing(std::size_t capacity)
      : capacity_(next_pow2(capacity < 2 ? 2 : capacity)), mask_(capacity_ - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Destroys the items still queued. Both sides must be quiescent.
  ~SpscRing() {
    if (slots_ == nullptr) return;
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    for (std::uint64_t h = head_.load(std::memory_order_acquire); h != tail; ++h) {
      std::destroy_at(&slots_[h & mask_]);
    }
    std::allocator<T>().deallocate(slots_, capacity_);
  }

  /// Enqueue; false when full. PRODUCER SIDE ONLY — callers must guarantee
  /// external serialization (one producer at a time per ring).
  FAIRMPI_ALWAYS_INLINE bool try_push(T&& item) noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);  // [S1]
    if (t - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);  // [S2]
      if (t - head_cache_ >= capacity_) return false;       // genuinely full
    }
    if (slots_ == nullptr) [[unlikely]] {
      // lint: allow(hotpath-alloc) once per ring: raw storage on first push, published by [S4]
      slots_ = std::allocator<T>().allocate(capacity_);
    }
    std::construct_at(&slots_[t & mask_], std::move(item));  // [S3]
    tail_.store(t + 1, std::memory_order_release);   // [S4]
#if defined(__GNUC__)
    // A deep ring is streamed, not revisited: the next push's slot is cold
    // unless we ask for it now, while the ~200 cycles until that push are
    // free to overlap the fill.
    __builtin_prefetch(&slots_[(t + 1) & mask_], 1 /*write*/, 0);
#endif
    return true;
  }

  /// Dequeue into `out`; false when empty. CONSUMER SIDE ONLY.
  FAIRMPI_ALWAYS_INLINE bool try_pop(T& out) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);  // [C1]
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);  // pairs with [S4]
      if (h == tail_cache_) return false;                   // genuinely empty
    }
    T& slot = slots_[h & mask_];
    out = std::move(slot);
    std::destroy_at(&slot);
    head_.store(h + 1, std::memory_order_release);   // [C2]
    return true;
  }

  /// Dequeue up to `max_n` items, returning the count; one head_ store per
  /// batch. CONSUMER SIDE ONLY.
  std::size_t try_pop_n(T* out, std::size_t max_n) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    std::uint64_t avail = tail_cache_ - h;
    if (avail == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - h;
      if (avail == 0) return 0;
    }
    const std::size_t n = avail < max_n ? static_cast<std::size_t>(avail) : max_n;
    for (std::size_t i = 0; i < n; ++i) {
      T& slot = slots_[(h + i) & mask_];
      out[i] = std::move(slot);
      std::destroy_at(&slot);
    }
    head_.store(h + n, std::memory_order_release);
    return n;
  }

  /// Count of pushes published so far (exact for returned pushes). The
  /// producer's own cursor; other threads read a possibly-stale value.
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
  const std::size_t capacity_;
  const std::size_t mask_;
  T* slots_ = nullptr;  ///< raw storage; producer-written once, on the first push
  // Producer-owned line: claim cursor + cached view of the consumer.
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Consumer-owned line: drain cursor + cached view of the producer.
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
};

}  // namespace fairmpi
