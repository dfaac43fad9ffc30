#include "fairmpi/cri/cri.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

namespace fairmpi::cri {
namespace {

TEST(CriPool, OneInstancePerContext) {
  fabric::Fabric fabric({4, 4});
  CriPool pool(fabric, 0, Assignment::kRoundRobin);
  EXPECT_EQ(pool.size(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.instance(i).id(), i);
    EXPECT_EQ(pool.instance(i).context().index(), i);
  }
}

TEST(CriPool, RoundRobinIsCircular) {
  fabric::Fabric fabric({3});
  CriPool pool(fabric, 0, Assignment::kRoundRobin);
  // Alg. 1: first-come-first-served circular hand-out.
  EXPECT_EQ(pool.next_round_robin(), 0);
  EXPECT_EQ(pool.next_round_robin(), 1);
  EXPECT_EQ(pool.next_round_robin(), 2);
  EXPECT_EQ(pool.next_round_robin(), 0);
}

TEST(CriPool, RoundRobinSharedAcrossThreads) {
  fabric::Fabric fabric({4});
  CriPool pool(fabric, 0, Assignment::kRoundRobin);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<int> counts(4, 0);
  std::atomic<int> total[4] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        total[pool.next_round_robin()].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Perfect balance: the counter is global, so each instance gets exactly
  // (threads*per_thread)/4 assignments.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(total[i].load(), kThreads * kPerThread / 4);
}

TEST(CriPool, DedicatedIsStickyPerThread) {
  fabric::Fabric fabric({4});
  CriPool pool(fabric, 0, Assignment::kDedicated);
  const int first = pool.dedicated_id();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(pool.dedicated_id(), first);
}

TEST(CriPool, DedicatedDistinctWhileInstancesAvailable) {
  fabric::Fabric fabric({4});
  CriPool pool(fabric, 0, Assignment::kDedicated);
  constexpr int kThreads = 4;
  std::vector<int> ids(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int id = pool.dedicated_id();
      // Sticky within the thread.
      for (int i = 0; i < 10; ++i) ASSERT_EQ(pool.dedicated_id(), id);
      ids[static_cast<std::size_t>(t)] = id;
    });
  }
  for (auto& t : threads) t.join();
  // 4 threads, 4 instances, first-touch round-robin: all distinct.
  std::set<int> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
}

TEST(CriPool, DedicatedWrapsWhenOversubscribed) {
  fabric::Fabric fabric({2});
  CriPool pool(fabric, 0, Assignment::kDedicated);
  constexpr int kThreads = 6;
  std::vector<int> ids(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { ids[static_cast<std::size_t>(t)] = pool.dedicated_id(); });
  }
  for (auto& t : threads) t.join();
  int in_range = 0;
  for (const int id : ids) in_range += (id == 0 || id == 1);
  EXPECT_EQ(in_range, kThreads);
}

TEST(CriPool, TwoPoolsGetIndependentDedicatedBindings) {
  fabric::Fabric fabric({3, 3});
  CriPool pool_a(fabric, 0, Assignment::kDedicated);
  CriPool pool_b(fabric, 1, Assignment::kDedicated);
  // Same thread can be bound to different instance ids in different pools;
  // bindings must not interfere.
  const int a = pool_a.dedicated_id();
  const int b = pool_b.dedicated_id();
  EXPECT_EQ(pool_a.dedicated_id(), a);
  EXPECT_EQ(pool_b.dedicated_id(), b);
}

TEST(CriPool, IdForThreadFollowsPolicy) {
  fabric::Fabric fabric({3});
  CriPool rr(fabric, 0, Assignment::kRoundRobin);
  EXPECT_NE(rr.id_for_thread(), rr.id_for_thread());  // 0 then 1
  CriPool ded(fabric, 0, Assignment::kDedicated);
  EXPECT_EQ(ded.id_for_thread(), ded.id_for_thread());
}

TEST(CriPool, EndpointsReachEveryPeer) {
  fabric::Fabric fabric({2, 3, 1});
  CriPool pool(fabric, 1, Assignment::kRoundRobin);
  CommResourceInstance& inst = pool.instance(2);
  LockGuard guard(inst.lock());
  for (int peer = 0; peer < 3; ++peer) {
    const int n = fabric.nic(peer).num_contexts();
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(inst.endpoint(peer, c).dst_rank(), peer);
      EXPECT_EQ(inst.endpoint(peer, c).dst_ctx(), c);
    }
    // No hint, or one outside the peer's contexts: the cold-start route.
    EXPECT_EQ(inst.endpoint(peer, fabric::kStaticRoute).dst_ctx(), fabric.route(peer, 2));
    EXPECT_EQ(inst.endpoint(peer, n).dst_ctx(), fabric.route(peer, 2));
  }
}

TEST(CriInstance, ContendedInjectBlocksUntilUnlockAndTimesTheWait) {
  // The only contended injection path: a holder pins the instance lock
  // while another thread injects. inject() must not return before the
  // unlock, must put exactly one packet on the peer's RX lane, and must
  // charge the wait to kInstanceLockWaitNs. The injector can lose the race
  // to the lock and find it free (a descheduled thread on a busy host), so
  // each attempt holds longer, until a wait is recorded.
  fabric::Fabric fabric({1, 1});
  CriPool pool(fabric, 0, Assignment::kDedicated);
  CommResourceInstance& inst = pool.instance(0);
  fabric::RxQueue& peer_rx = fabric.nic(1).context(0).rx();
  spc::CounterSet counters;
  for (int attempt = 1; attempt <= 50; ++attempt) {
    std::atomic<bool> held{false};
    std::atomic<bool> entering{false};
    std::atomic<bool> returned{false};
    std::thread holder([&] {
      LockGuard pin(inst.lock());
      held.store(true, std::memory_order_release);
      while (!entering.load(std::memory_order_acquire)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * attempt));
      EXPECT_FALSE(returned.load(std::memory_order_acquire)) << "inject() beat the unlock";
    });
    while (!held.load(std::memory_order_acquire)) {
    }
    fabric::Packet pkt;
    pkt.hdr.opcode = fabric::Opcode::kEager;
    entering.store(true, std::memory_order_release);
    EXPECT_TRUE(inst.inject(1, fabric::kStaticRoute, pkt, counters));
    returned.store(true, std::memory_order_release);
    holder.join();

    fabric::Packet out;
    EXPECT_EQ(peer_rx.try_pop_n(&out, 1), 1u);
    EXPECT_EQ(peer_rx.try_pop_n(&out, 1), 0u) << "exactly one packet per inject()";
    if (counters.get(spc::Counter::kInstanceLockWaitNs) > 0) return;
  }
  ADD_FAILURE() << "no contended inject() recorded a lock wait";
}

TEST(CriPool, AssignmentNames) {
  EXPECT_STREQ(assignment_name(Assignment::kRoundRobin), "round-robin");
  EXPECT_STREQ(assignment_name(Assignment::kDedicated), "dedicated");
}

}  // namespace
}  // namespace fairmpi::cri
