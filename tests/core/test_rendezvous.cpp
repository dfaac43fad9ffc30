// Rendezvous-protocol integration tests: payloads above Config::eager_limit
// travel via RTS/ACK/fragments while preserving the matching semantics
// (FIFO per stream, wildcards, truncation, unexpected arrival).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/core/universe.hpp"

namespace fairmpi {
namespace {

using spc::Counter;

Config small_eager_cfg() {
  Config cfg;
  cfg.eager_limit = 1024;     // force rendezvous early
  cfg.rndv_frag_bytes = 4096; // several fragments for medium payloads
  return cfg;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return v;
}

TEST(Rendezvous, LargeMessageRoundTrip) {
  Universe uni(small_eager_cfg());
  const auto data = pattern(100'000);
  std::vector<std::uint8_t> got(data.size());
  std::thread receiver([&] {
    const Status st = uni.rank(1).recv(kWorldComm, 0, 5, got.data(), got.size());
    EXPECT_EQ(st.size, data.size());
    EXPECT_FALSE(st.truncated);
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 5);
  });
  uni.rank(0).send(kWorldComm, 1, 5, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(got, data);
  // Counted once per message, not per fragment.
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kMessagesSent), 1u);
  EXPECT_EQ(uni.rank(1).counters().get(Counter::kMessagesReceived), 1u);
}

TEST(Rendezvous, RtsInjectionWaitIsTimedLikeData) {
  // The RTS leaves through inject_control, which must take the instance
  // lock the way eager data does: a holder pins rank 0's only instance
  // while rank 0 starts a rendezvous isend, and the wait must land in
  // kInstanceLockWaitNs. The sender can lose the race to the lock and find
  // it free (a descheduled thread on a busy host), so each attempt holds
  // longer, until a wait is recorded.
  Universe uni(small_eager_cfg());
  cri::CommResourceInstance& inst = uni.rank(0).pool().instance(0);
  const auto data = pattern(2048);
  for (int attempt = 1; attempt <= 20; ++attempt) {
    std::atomic<bool> held{false};
    std::atomic<bool> entering{false};
    std::thread holder([&] {
      LockGuard pin(inst.lock());
      held.store(true, std::memory_order_release);
      while (!entering.load(std::memory_order_acquire)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * attempt));
    });
    while (!held.load(std::memory_order_acquire)) {
    }
    std::vector<std::uint8_t> got(data.size());
    Request sreq, rreq;
    uni.rank(1).irecv(kWorldComm, 0, attempt, got.data(), got.size(), rreq);
    entering.store(true, std::memory_order_release);
    uni.rank(0).isend(kWorldComm, 1, attempt, data.data(), data.size(), sreq);
    holder.join();
    const std::uint64_t until = now_ns() + 5'000'000'000ULL;
    while (!sreq.done() || !rreq.done()) {
      ASSERT_LT(now_ns(), until) << "transfer did not complete";
      uni.rank(0).progress();
      uni.rank(1).progress();
    }
    EXPECT_EQ(got, data);
    if (uni.rank(0).counters().get(Counter::kInstanceLockWaitNs) > 0) return;
  }
  ADD_FAILURE() << "no contended RTS injection recorded a lock wait";
}

TEST(Rendezvous, ExactEagerLimitStaysEager) {
  Config cfg = small_eager_cfg();
  Universe uni(cfg);
  const auto data = pattern(cfg.eager_limit);  // == limit: still eager
  std::vector<std::uint8_t> got(data.size());
  Request rreq;
  uni.rank(1).irecv(kWorldComm, 0, 1, got.data(), got.size(), rreq);
  Request sreq;
  uni.rank(0).isend(kWorldComm, 1, 1, data.data(), data.size(), sreq);
  EXPECT_TRUE(sreq.done());  // eager completes at injection
  uni.rank(1).wait(rreq);
  EXPECT_EQ(got, data);
}

TEST(Rendezvous, UnexpectedRtsThenPost) {
  Universe uni(small_eager_cfg());
  const auto data = pattern(50'000);
  Request sreq;
  uni.rank(0).isend(kWorldComm, 1, 3, data.data(), data.size(), sreq);
  // Let the RTS arrive unexpected.
  for (int i = 0; i < 50; ++i) uni.rank(1).progress();
  EXPECT_EQ(uni.rank(1).comm_state(kWorldComm).match().unexpected_count(), 1u);

  std::vector<std::uint8_t> got(data.size());
  Request rreq;
  uni.rank(1).irecv(kWorldComm, 0, 3, got.data(), got.size(), rreq);
  // Single-threaded test: drive both ranks — the ack needs sender-side
  // progress before the data can flow.
  while (!rreq.done() || !sreq.done()) {
    uni.rank(0).progress();
    uni.rank(1).progress();
  }
  EXPECT_EQ(got, data);
}

TEST(Rendezvous, TruncationClampsButDrainsWire) {
  Universe uni(small_eager_cfg());
  const auto data = pattern(20'000);
  std::vector<std::uint8_t> small(7'000);
  std::thread receiver([&] {
    const Status st = uni.rank(1).recv(kWorldComm, 0, 2, small.data(), small.size());
    EXPECT_TRUE(st.truncated);
    EXPECT_EQ(st.size, data.size());  // sent size reported
  });
  uni.rank(0).send(kWorldComm, 1, 2, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(std::memcmp(small.data(), data.data(), small.size()), 0);
}

TEST(Rendezvous, FifoOrderAcrossEagerAndRendezvous) {
  // An eager message sent after a rendezvous RTS on the same stream must
  // match second: the RTS carries the earlier sequence number.
  Universe uni(small_eager_cfg());
  const auto big = pattern(30'000, 1);
  const auto tiny = pattern(16, 2);

  Request s1, s2;
  uni.rank(0).isend(kWorldComm, 1, 9, big.data(), big.size(), s1);
  uni.rank(0).isend(kWorldComm, 1, 9, tiny.data(), tiny.size(), s2);

  std::vector<std::uint8_t> first(big.size()), second(big.size());
  Request r1, r2;
  uni.rank(1).irecv(kWorldComm, 0, 9, first.data(), first.size(), r1);
  uni.rank(1).irecv(kWorldComm, 0, 9, second.data(), second.size(), r2);
  std::thread receiver([&] {
    uni.rank(1).wait(r1);
    uni.rank(1).wait(r2);
  });
  uni.rank(0).wait(s1);
  uni.rank(0).wait(s2);
  receiver.join();

  EXPECT_EQ(r1.status().size, big.size());
  EXPECT_EQ(std::memcmp(first.data(), big.data(), big.size()), 0);
  EXPECT_EQ(r2.status().size, tiny.size());
  EXPECT_EQ(std::memcmp(second.data(), tiny.data(), tiny.size()), 0);
}

TEST(Rendezvous, AnyTagMatchesRts) {
  Universe uni(small_eager_cfg());
  const auto data = pattern(40'000);
  std::vector<std::uint8_t> got(data.size());
  std::thread receiver([&] {
    const Status st =
        uni.rank(1).recv(kWorldComm, 0, kAnyTag, got.data(), got.size());
    EXPECT_EQ(st.tag, 31);
  });
  uni.rank(0).send(kWorldComm, 1, 31, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(got, data);
}

TEST(Rendezvous, ManyConcurrentLargeTransfers) {
  Config cfg = small_eager_cfg();
  cfg.num_instances = 4;
  cfg.assignment = cri::Assignment::kDedicated;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  Universe uni(cfg);

  constexpr int kThreads = 4;
  constexpr int kMsgs = 20;
  constexpr std::size_t kSize = 24'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {  // senders, tag = t
      const auto data = pattern(kSize, static_cast<std::uint8_t>(t));
      for (int i = 0; i < kMsgs; ++i) {
        uni.rank(0).send(kWorldComm, 1, t, data.data(), data.size());
      }
    });
    threads.emplace_back([&, t] {  // receivers, tag = t
      const auto expect = pattern(kSize, static_cast<std::uint8_t>(t));
      std::vector<std::uint8_t> got(kSize);
      for (int i = 0; i < kMsgs; ++i) {
        const Status st = uni.rank(1).recv(kWorldComm, 0, t, got.data(), got.size());
        ASSERT_EQ(st.size, kSize);
        ASSERT_EQ(got, expect) << "thread " << t << " msg " << i;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(uni.rank(1).counters().get(Counter::kMessagesReceived),
            static_cast<std::uint64_t>(kThreads) * kMsgs);
}

TEST(Rendezvous, MixedSizesInterleaved) {
  Universe uni(small_eager_cfg());
  // Alternate eager and rendezvous sizes on one stream; everything must
  // arrive in order with correct contents.
  constexpr int kMsgs = 30;
  std::thread receiver([&] {
    for (int i = 0; i < kMsgs; ++i) {
      const std::size_t size = (i % 2 == 0) ? 64 : 9'000;
      std::vector<std::uint8_t> got(size);
      const Status st = uni.rank(1).recv(kWorldComm, 0, 4, got.data(), got.size());
      ASSERT_EQ(st.size, size);
      ASSERT_EQ(got, pattern(size, static_cast<std::uint8_t>(i)));
    }
  });
  for (int i = 0; i < kMsgs; ++i) {
    const std::size_t size = (i % 2 == 0) ? 64 : 9'000;
    const auto data = pattern(size, static_cast<std::uint8_t>(i));
    uni.rank(0).send(kWorldComm, 1, 4, data.data(), data.size());
  }
  receiver.join();
}

TEST(Rendezvous, SelfSendLargeMessage) {
  Config cfg = small_eager_cfg();
  cfg.num_ranks = 1;
  Universe uni(cfg);
  const auto data = pattern(15'000);
  std::vector<std::uint8_t> got(data.size());
  Request rreq, sreq;
  uni.rank(0).irecv(kWorldComm, 0, 1, got.data(), got.size(), rreq);
  uni.rank(0).isend(kWorldComm, 0, 1, data.data(), data.size(), sreq);
  uni.rank(0).wait(sreq);
  uni.rank(0).wait(rreq);
  EXPECT_EQ(got, data);
}

TEST(Rendezvous, SingleFragmentWhenFragLarger) {
  Config cfg;
  cfg.eager_limit = 512;
  cfg.rndv_frag_bytes = 1 << 20;  // one fragment covers everything
  Universe uni(cfg);
  const auto data = pattern(10'000);
  std::vector<std::uint8_t> got(data.size());
  std::thread receiver(
      [&] { uni.rank(1).recv(kWorldComm, 0, 1, got.data(), got.size()); });
  uni.rank(0).send(kWorldComm, 1, 1, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(got, data);
}

}  // namespace
}  // namespace fairmpi
