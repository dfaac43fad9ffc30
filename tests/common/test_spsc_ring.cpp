#include "fairmpi/common/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace fairmpi {
namespace {

TEST(SpscRing, FifoAndBackpressure) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(int{i}));
  EXPECT_FALSE(ring.try_push(99));
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(99));  // slot freed
  // try_pop_n batches over the consumer's cached view of tail_, so the
  // rest may take more than one call; order is what matters.
  std::vector<int> rest;
  int batch[8] = {};
  for (std::size_t n; (n = ring.try_pop_n(batch, 8)) != 0;) rest.insert(rest.end(), batch, batch + n);
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 3, 99}));

  // Items still queued when the ring dies are destroyed with it (ASan
  // reports the leak otherwise).
  SpscRing<std::unique_ptr<int>> owning(4);
  ASSERT_TRUE(owning.try_push(std::make_unique<int>(7)));
}

// Slot storage comes with the first push (the producer allocates it and
// publishes it with its first tail_ release). A ring nobody pushed to must
// look empty through every consumer entry point without touching storage,
// and a consumer already spinning when the first push lands must see the
// item intact: TSan checks that the storage pointer and the slot are
// ordered before the consumer reads them.
TEST(SpscRing, FirstPushPublishesStorage) {
  {
    SpscRing<std::string> never(16);
    std::string out;
    std::string batch[4];
    EXPECT_FALSE(never.try_pop(out));
    EXPECT_EQ(never.try_pop_n(batch, 4), 0u);
    EXPECT_EQ(never.size_approx(), 0u);
    EXPECT_EQ(never.pushed_approx(), 0u);
    EXPECT_EQ(never.capacity(), 16u);
  }

  constexpr int kRings = 64;
  constexpr int kItems = 8;
  for (int r = 0; r < kRings; ++r) {
    SpscRing<std::string> ring(kItems);
    std::atomic<bool> consumer_ready{false};
    std::vector<std::string> got;
    std::thread consumer([&] {
      consumer_ready.store(true, std::memory_order_release);
      std::string batch[kItems];
      // Alternate the two pop entry points so both race the first push.
      for (int spin = 0; got.size() < static_cast<std::size_t>(kItems); ++spin) {
        if (spin % 2 == 0) {
          std::string one;
          if (ring.try_pop(one)) got.push_back(std::move(one));
        } else {
          const std::size_t n = ring.try_pop_n(batch, kItems);
          for (std::size_t i = 0; i < n; ++i) got.push_back(std::move(batch[i]));
        }
        if (spin % 64 == 63) std::this_thread::yield();  // 1-CPU hosts: let the producer run
      }
    });
    while (!consumer_ready.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < kItems; ++i) {
      // Long enough to live on the heap, so a torn publish shows as a
      // corrupt string (ASan) or a race on its buffer (TSan).
      EXPECT_TRUE(ring.try_push("ring " + std::to_string(r) + " item " + std::to_string(i) +
                                " padded past the small-string buffer"));
    }
    consumer.join();
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
    for (int i = 0; i < kItems; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)],
                "ring " + std::to_string(r) + " item " + std::to_string(i) +
                    " padded past the small-string buffer");
    }
  }
}

}  // namespace
}  // namespace fairmpi
