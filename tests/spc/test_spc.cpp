#include "fairmpi/spc/spc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/thread_slot.hpp"
#include "fairmpi/debug/lockcheck.hpp"
#include "fairmpi/obs/contention.hpp"
#include "fairmpi/obs/utilization.hpp"

namespace fairmpi::spc {
namespace {

TEST(Spc, StartsAtZero) {
  CounterSet set;
  for (int i = 0; i < kNumCounters; ++i) {
    EXPECT_EQ(set.get(static_cast<Counter>(i)), 0u);
  }
}

TEST(Spc, AddAccumulates) {
  CounterSet set;
  set.add(Counter::kMessagesSent);
  set.add(Counter::kMessagesSent, 9);
  EXPECT_EQ(set.get(Counter::kMessagesSent), 10u);
  EXPECT_EQ(set.get(Counter::kMessagesReceived), 0u);
}

TEST(Spc, UpdateMaxKeepsHighWater) {
  CounterSet set;
  set.update_max(Counter::kOosBufferPeak, 5);
  set.update_max(Counter::kOosBufferPeak, 3);
  EXPECT_EQ(set.get(Counter::kOosBufferPeak), 5u);
  set.update_max(Counter::kOosBufferPeak, 12);
  EXPECT_EQ(set.get(Counter::kOosBufferPeak), 12u);
}

TEST(Spc, ConcurrentAddsDoNotLoseUpdates) {
  CounterSet set;
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) set.add(Counter::kMatchAttempts);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(set.get(Counter::kMatchAttempts),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Spc, SnapshotDelta) {
  CounterSet set;
  set.add(Counter::kMessagesSent, 100);
  set.update_max(Counter::kOosBufferPeak, 7);
  const Snapshot before = set.snapshot();
  set.add(Counter::kMessagesSent, 23);
  set.update_max(Counter::kOosBufferPeak, 9);
  const Snapshot delta = set.snapshot().delta_since(before);
  EXPECT_EQ(delta.get(Counter::kMessagesSent), 23u);
  // High-water counters keep the later absolute value.
  EXPECT_EQ(delta.get(Counter::kOosBufferPeak), 9u);
}

TEST(Spc, MergeSumsAndMaxes) {
  Snapshot a, b;
  a.values[static_cast<int>(Counter::kMessagesSent)] = 10;
  b.values[static_cast<int>(Counter::kMessagesSent)] = 5;
  a.values[static_cast<int>(Counter::kOosBufferPeak)] = 3;
  b.values[static_cast<int>(Counter::kOosBufferPeak)] = 8;
  a.merge(b);
  EXPECT_EQ(a.get(Counter::kMessagesSent), 15u);
  EXPECT_EQ(a.get(Counter::kOosBufferPeak), 8u);
}

// Threads past the slot registry share the store's overflow block and
// update it with RMWs. kMaxThreadSlots + 2 threads are alive at once, so at
// least one of them has no slot; every store they write (the SPCs, a lock
// class's contention cells, a CRI's utilization cells) must still count
// exactly.
TEST(Spc, OverflowThreadsCountExactly) {
  constexpr int kThreads = common::kMaxThreadSlots + 2;
  constexpr const char* kClass = "spc.test.overflow";
  CounterSet set;
  obs::InstanceCounters cri;
  RankedLock<Spinlock> lock(LockRank::kTestBase, kClass);
  const auto acquires = [&] {
    for (const auto& c : obs::contention_snapshot()) {
      if (c.name == kClass) return c.acquires;
    }
    return std::uint64_t{0};
  };

  obs::set_enabled(true);
  const std::uint64_t acquires_before = acquires();
  std::atomic<int> unslotted{0};
  std::barrier all_alive(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (common::this_thread_slot() == common::kNoThreadSlot) unslotted.fetch_add(1);
      // Past this point every thread keeps the slot (or none) it took above.
      all_alive.arrive_and_wait();
      set.add(Counter::kRmaPuts, static_cast<std::uint64_t>(t) + 1);
      set.update_max(Counter::kOosBufferPeak, static_cast<std::uint64_t>(t));
      {
        LockGuard guard(lock);
      }
      cri.note_injection();
    });
  }
  for (auto& th : threads) th.join();
  obs::set_enabled(false);

  constexpr std::uint64_t n = kThreads;
  EXPECT_GE(unslotted.load(), 1);
  EXPECT_EQ(set.get(Counter::kRmaPuts), n * (n + 1) / 2);
  EXPECT_EQ(set.get(Counter::kOosBufferPeak), n - 1);
  EXPECT_EQ(acquires() - acquires_before, n);
  EXPECT_EQ(cri.snapshot().injections, n);
}

TEST(Spc, AllCountersHaveDistinctNames) {
  std::vector<std::string> names;
  for (int i = 0; i < kNumCounters; ++i) {
    names.emplace_back(counter_name(static_cast<Counter>(i)));
    EXPECT_NE(names.back(), "Unknown");
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace fairmpi::spc
