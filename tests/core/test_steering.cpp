// Stream steering (DESIGN.md "Stream steering"): a (communicator, peer)
// stream lands in the context its peer thread progresses, whatever order
// the two ranks' threads bound their dedicated CRIs in.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "fairmpi/core/universe.hpp"
#include "fairmpi/obs/utilization.hpp"

#include "../chaos_env.hpp"

namespace fairmpi {
namespace {

/// obs on for the scope (the per-instance drain counters need it), off
/// again afterwards so later tests in the process see the default.
struct ObsScope {
  ObsScope() { obs::set_enabled(true); }
  ~ObsScope() { obs::set_enabled(false); }
};

std::uint64_t drained(Universe& uni, int rank, int instance) {
  return uni.rank(rank).pool().instance(instance).stats().snapshot().packets_drained;
}

// Two pairs across 2 ranks x 2 dedicated CRIs, concurrent progress, one
// communicator per pair. Receivers bind in the reverse order of their
// senders and are paired so that every pair crosses CRI indices (sender
// on instance a, receiver on instance b != a): under the static route,
// each pair's data would land in the other receiver's instance. After one
// warm-up round trip per pair, every data packet must be drained from its
// own receiver's instance and every window ack from its own sender's.
// The pairs carry different message counts so a swap cannot cancel out.
TEST(Steering, CrossedPairsDrainOnTheirReceiversInstance) {
  ScopedChaosEnvClear env;  // the drain counts assume one packet per message
  ObsScope obs_scope;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.num_instances = 2;
  cfg.assignment = cri::Assignment::kDedicated;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  Universe uni(cfg);
  const std::array<CommId, 2> comms = {uni.create_communicator(), uni.create_communicator()};

  constexpr int kWindow = 16;
  constexpr std::array<int, 2> kWindows = {20, 31};
  constexpr int kDataTag = 1;
  constexpr int kAckTag = 2;

  // Threads 0, 1 live on rank 0 and bind in that order; threads 3, 2 live
  // on rank 1 and bind after them, in reverse.
  constexpr std::array<int, 4> kRankOf = {0, 0, 1, 1};
  constexpr std::array<int, 4> kBindOrder = {0, 1, 3, 2};
  std::array<int, 4> cri_of = {-1, -1, -1, -1};
  std::array<int, 4> cri_after = {-1, -1, -1, -1};
  std::array<int, 4> pair_of = {-1, -1, -1, -1};
  std::atomic<int> bound{0};
  std::atomic<int> phase{0};   // 0 binding, 1 warm-up, 2 measured
  std::atomic<int> warm{0};    // threads done with the warm-up round trip
  std::atomic<int> failures{0};

  const auto wait_for = [](const std::atomic<int>& v, int want) {
    while (v.load(std::memory_order_acquire) < want) std::this_thread::yield();
  };

  // One window: the sender sends kWindow messages, the receiver takes them
  // and answers with a zero-byte ack on the same communicator.
  const auto send_window = [&](Rank& r, CommId comm, int p, std::uint64_t first) {
    std::array<std::uint64_t, kWindow> words{};
    std::array<Request, kWindow> reqs;
    std::array<Request*, kWindow> ptrs{};
    for (int i = 0; i < kWindow; ++i) {
      words[static_cast<std::size_t>(i)] =
          (static_cast<std::uint64_t>(p) << 32) | (first + static_cast<std::uint64_t>(i));
      ptrs[static_cast<std::size_t>(i)] = &reqs[static_cast<std::size_t>(i)];
      r.isend(comm, 1, kDataTag, &words[static_cast<std::size_t>(i)], sizeof(std::uint64_t),
              reqs[static_cast<std::size_t>(i)]);
    }
    r.wait_all(ptrs.data(), ptrs.size());
    Request ack;
    r.irecv(comm, 1, kAckTag, nullptr, 0, ack);
    r.wait(ack);
    for (const Request& q : reqs) {
      if (q.failed()) failures.fetch_add(1, std::memory_order_relaxed);
    }
    if (ack.failed()) failures.fetch_add(1, std::memory_order_relaxed);
  };
  const auto recv_window = [&](Rank& r, CommId comm, int p, std::uint64_t first) {
    std::array<std::uint64_t, kWindow> words{};
    std::array<Request, kWindow> reqs;
    std::array<Request*, kWindow> ptrs{};
    for (int i = 0; i < kWindow; ++i) {
      ptrs[static_cast<std::size_t>(i)] = &reqs[static_cast<std::size_t>(i)];
      r.irecv(comm, 0, kDataTag, &words[static_cast<std::size_t>(i)], sizeof(std::uint64_t),
              reqs[static_cast<std::size_t>(i)]);
    }
    r.wait_all(ptrs.data(), ptrs.size());
    for (int i = 0; i < kWindow; ++i) {
      const std::uint64_t want =
          (static_cast<std::uint64_t>(p) << 32) | (first + static_cast<std::uint64_t>(i));
      if (reqs[static_cast<std::size_t>(i)].failed() ||
          words[static_cast<std::size_t>(i)] != want) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Request ack;
    r.isend(comm, 0, kAckTag, nullptr, 0, ack);
    r.wait(ack);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rank& r = uni.rank(kRankOf[static_cast<std::size_t>(t)]);
      int turn = 0;
      while (kBindOrder[static_cast<std::size_t>(turn)] != t) ++turn;
      wait_for(bound, turn);
      cri_of[static_cast<std::size_t>(t)] = r.pool().id_for_thread();
      bound.fetch_add(1, std::memory_order_acq_rel);

      wait_for(phase, 1);
      const int p = pair_of[static_cast<std::size_t>(t)];
      const CommId comm = comms[static_cast<std::size_t>(p)];
      const bool sender = kRankOf[static_cast<std::size_t>(t)] == 0;
      // Warm-up round trip: each side learns where the other one lives.
      if (sender) send_window(r, comm, p, 0); else recv_window(r, comm, p, 0);
      warm.fetch_add(1, std::memory_order_acq_rel);

      wait_for(phase, 2);
      for (int w = 1; w <= kWindows[static_cast<std::size_t>(p)]; ++w) {
        const std::uint64_t first = static_cast<std::uint64_t>(w) * kWindow;
        if (sender) send_window(r, comm, p, first); else recv_window(r, comm, p, first);
      }
      cri_after[static_cast<std::size_t>(t)] = r.pool().id_for_thread();
    });
  }

  // Pair each sender with the rank-1 thread on the OTHER instance, so both
  // pairs cross whatever instances the claim scan handed out.
  wait_for(bound, 4);
  EXPECT_NE(cri_of[0], cri_of[1]);  // dedicated: one instance per thread
  EXPECT_NE(cri_of[2], cri_of[3]);
  pair_of[0] = 0;
  pair_of[1] = 1;
  pair_of[2] = cri_of[2] != cri_of[0] ? 0 : 1;
  pair_of[3] = 1 - pair_of[2];
  std::array<int, 2> sender_cri{};
  std::array<int, 2> receiver_cri{};
  for (int t = 0; t < 4; ++t) {
    const int p = pair_of[static_cast<std::size_t>(t)];
    (kRankOf[static_cast<std::size_t>(t)] == 0 ? sender_cri : receiver_cri)
        [static_cast<std::size_t>(p)] = cri_of[static_cast<std::size_t>(t)];
  }
  phase.store(1, std::memory_order_release);

  // Snapshot once every warm-up packet has been drained and handled.
  wait_for(warm, 4);
  std::array<std::array<std::uint64_t, 2>, 2> before{};
  for (int rank = 0; rank < 2; ++rank) {
    for (int i = 0; i < 2; ++i) {
      before[static_cast<std::size_t>(rank)][static_cast<std::size_t>(i)] =
          drained(uni, rank, i);
    }
  }
  phase.store(2, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  // Steering fixes the crossing without changing the binding.
  EXPECT_EQ(cri_after, cri_of);
  for (int p = 0; p < 2; ++p) {
    const auto sp = static_cast<std::size_t>(p);
    ASSERT_NE(sender_cri[sp], receiver_cri[sp]) << "pair " << p << " is not crossed";
    const auto rx = static_cast<std::size_t>(receiver_cri[sp]);
    const auto tx = static_cast<std::size_t>(sender_cri[sp]);
    EXPECT_EQ(drained(uni, 1, receiver_cri[sp]) - before[1][rx],
              static_cast<std::uint64_t>(kWindows[sp]) * kWindow)
        << "pair " << p << "'s data did not land on its receiver's instance";
    EXPECT_EQ(drained(uni, 0, sender_cri[sp]) - before[0][tx],
              static_cast<std::uint64_t>(kWindows[sp]))
        << "pair " << p << "'s acks did not land on its sender's instance";
  }
}

}  // namespace
}  // namespace fairmpi
