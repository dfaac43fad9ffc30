// End-to-end chaos tests: exactly-once delivery over a seeded lossy fabric
// (eager and rendezvous, with drops, duplicates, reordering and corruption),
// the stall watchdog's escalation ladder, and typed send-budget errors.
//
// Every test clears the FAIRMPI_* chaos environment first: the fault model
// here is programmatic and seeded so the runs stay deterministic even when
// the suite itself is executed under the CI chaos profile.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"

#include "../chaos_env.hpp"

namespace fairmpi {
namespace {

using common::Error;
using common::ErrorCode;
using spc::Counter;

Config lossy_config() {
  Config cfg;
  cfg.num_ranks = 2;
  cfg.faults.drop = 0.02;
  cfg.faults.dup = 0.01;
  cfg.faults.reorder = 0.05;
  cfg.faults.seed = 0x5eed;
  cfg.rto_ns = 200'000;  // 0.2 ms: recover fast, keep the test short
  return cfg;
}

/// Error-sink capture target for the watchdog / budget tests.
struct ErrorCapture {
  std::vector<Error> errors;
  static void sink(const Error& err, void* user) {
    static_cast<ErrorCapture*>(user)->errors.push_back(err);
  }
  bool saw(ErrorCode code) const {
    for (const Error& e : errors) {
      if (e.code == code) return true;
    }
    return false;
  }
};

TEST(Chaos, ExactlyOnceEagerFifo) {
  ScopedChaosEnvClear env;
  Universe uni(lossy_config());
  ASSERT_TRUE(uni.config().reliable);  // faults.any() switches it on
  constexpr int kMessages = 400;

  std::thread sender([&] {
    auto w0 = uni.rank(0).world();
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      w0.send(1, /*tag=*/7, &i, sizeof i);
    }
  });
  // FIFO: despite drops, duplicates and reordering on the wire, the
  // application-visible stream is in order and every message arrives once.
  auto w1 = uni.rank(1).world();
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    std::uint32_t got = ~0u;
    const Status st = w1.recv(0, 7, &got, sizeof got);
    ASSERT_EQ(st.size, sizeof got);
    ASSERT_EQ(got, i) << "stream broke order at message " << i;
  }
  sender.join();

  EXPECT_EQ(uni.rank(1).counters().get(Counter::kMessagesReceived),
            static_cast<std::uint64_t>(kMessages));

  // The run must actually have been lossy, and the protocol visibly active.
  const auto& stats = uni.fabric().injector()->stats();
  EXPECT_GT(stats.dropped.load(), 0u);
  const spc::Snapshot total = uni.aggregate_counters();
  EXPECT_GT(total.get(Counter::kRetransmits), 0u);
  EXPECT_GT(total.get(Counter::kAcksSent), 0u);
  EXPECT_GT(total.get(Counter::kAcksReceived), 0u);
  EXPECT_GT(total.get(Counter::kDupDiscards), 0u);
  EXPECT_EQ(total.get(Counter::kReliabilityErrors), 0u);
}

TEST(Chaos, ExactlyOnceConcurrentSenders) {
  ScopedChaosEnvClear env;
  Config cfg = lossy_config();
  cfg.num_instances = 2;
  cfg.assignment = cri::Assignment::kRoundRobin;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  Universe uni(cfg);
  constexpr int kThreads = 3;
  constexpr std::uint32_t kPerThread = 150;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&uni, t] {
      auto w0 = uni.rank(0).world();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        w0.send(1, /*tag=*/t, &i, sizeof i);
      }
    });
    workers.emplace_back([&uni, t] {
      // Per-tag FIFO must survive the lossy fabric in threaded mode too.
      auto w1 = uni.rank(1).world();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        std::uint32_t got = ~0u;
        w1.recv(0, t, &got, sizeof got);
        ASSERT_EQ(got, i) << "tag " << t;
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(uni.rank(1).counters().get(Counter::kMessagesReceived),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(uni.aggregate_counters().get(Counter::kReliabilityErrors), 0u);
}

TEST(Chaos, ExactlyOnceCriContendedOversubscribed) {
  // Contended-injection stress under a lossy fabric: one instance,
  // dedicated assignment and more sender threads than instances, so
  // senders, acks and retransmits keep meeting a held instance lock and
  // take the timed blocking acquire while the reliability layer
  // retransmits around drops. Exactly-once delivery and per-tag FIFO must
  // hold whichever path each packet took.
  ScopedChaosEnvClear env;
  Config cfg = lossy_config();
  cfg.num_instances = 1;
  cfg.assignment = cri::Assignment::kDedicated;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  Universe uni(cfg);
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 150;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&uni, t] {
      auto w0 = uni.rank(0).world();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        w0.send(1, /*tag=*/t, &i, sizeof i);
      }
    });
    workers.emplace_back([&uni, t] {
      auto w1 = uni.rank(1).world();
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        std::uint32_t got = ~0u;
        w1.recv(0, t, &got, sizeof got);
        ASSERT_EQ(got, i) << "tag " << t;
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(uni.rank(1).counters().get(Counter::kMessagesReceived),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(uni.aggregate_counters().get(Counter::kReliabilityErrors), 0u);
}

TEST(Chaos, RendezvousIntegrityUnderCorruption) {
  ScopedChaosEnvClear env;
  Config cfg = lossy_config();
  cfg.faults.corrupt = 0.02;
  cfg.rndv_frag_bytes = 4096;  // many fragments => many fault opportunities
  Universe uni(cfg);
  constexpr int kMessages = 3;
  const std::size_t kBytes = 200 * 1024;  // well past eager_limit

  std::vector<std::byte> out(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    out[i] = static_cast<std::byte>(i * 131 + 17);
  }

  std::thread sender([&] {
    auto w0 = uni.rank(0).world();
    for (int m = 0; m < kMessages; ++m) {
      w0.send(1, /*tag=*/m, out.data(), out.size());
    }
  });
  auto w1 = uni.rank(1).world();
  for (int m = 0; m < kMessages; ++m) {
    std::vector<std::byte> in(kBytes);
    const Status st = w1.recv(0, m, in.data(), in.size());
    ASSERT_EQ(st.size, kBytes);
    ASSERT_FALSE(st.truncated);
    // Bit-exact despite corrupted fragments on the wire: the checksum
    // rejects them and the retransmit path re-sends clean copies.
    ASSERT_EQ(std::memcmp(in.data(), out.data(), kBytes), 0) << "message " << m;
  }
  sender.join();

  const spc::Snapshot total = uni.aggregate_counters();
  EXPECT_GT(total.get(Counter::kCsumDrops), 0u);
  EXPECT_GT(total.get(Counter::kRetransmits), 0u);
  EXPECT_EQ(total.get(Counter::kReliabilityErrors), 0u);
  EXPECT_GT(uni.fabric().injector()->stats().corrupted.load(), 0u);
}

TEST(Chaos, WatchdogEscalatesStalledInstance) {
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.progress_mode = progress::ProgressMode::kConcurrent;
  cfg.watchdog_interval_ns = 0;  // sweep on every progress call
  cfg.watchdog_stall_sweeps = 2;
  Universe uni(cfg);
  Rank& rank = uni.rank(1);
  ASSERT_EQ(rank.pool().size(), 1);

  ErrorCapture capture;
  rank.set_error_sink(ErrorCapture::sink, &capture);

  // Park a packet in rank 1's RX ring while a helper thread holds its only
  // instance lock: concurrent progress try-locks, fails and returns, so the
  // consumption frontier stays frozen with a non-empty backlog — the stall
  // signature the watchdog exists to catch — while progress() keeps running
  // the timed work.
  const std::uint32_t payload = 42;
  uni.rank(0).world().send(1, /*tag=*/0, &payload, sizeof payload);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    LockGuard guard(rank.pool().instance(0).lock());
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();

  for (int i = 0; i < 10; ++i) EXPECT_EQ(rank.progress(), 0u);
  release.store(true, std::memory_order_release);
  holder.join();

  // One report per stall episode, escalated counter -> trace -> typed error.
  EXPECT_EQ(rank.counters().get(Counter::kWatchdogStalls), 1u);
  ASSERT_EQ(capture.errors.size(), 1u);
  EXPECT_EQ(capture.errors[0].code, ErrorCode::kStalledInstance);
  EXPECT_EQ(capture.errors[0].rank, 1);
  EXPECT_EQ(capture.errors[0].peer, -1);    // ft off: unattributed
  EXPECT_EQ(capture.errors[0].detail, 0u);  // instance id

  // The lock released, progress drains the parked packet.
  std::uint32_t got = 0;
  EXPECT_EQ(rank.world().recv(0, /*tag=*/0, &got, sizeof got).source, 0);
  EXPECT_EQ(got, payload);
}

TEST(Chaos, WatchdogFlagsStalledRendezvous) {
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.watchdog_interval_ns = 0;
  cfg.rndv_stall_ns = 1;  // everything pending is immediately "old"
  Universe uni(cfg);

  ErrorCapture capture;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &capture);

  // A rendezvous send whose RTS the peer never matches (rank 1 never posts
  // a receive or progresses): the transfer is orphaned at the sender.
  std::vector<std::byte> big(64 * 1024);
  Request req;
  uni.rank(0).isend(kWorldComm, 1, /*tag=*/0, big.data(), big.size(), req);
  ASSERT_FALSE(req.done());

  const std::uint64_t bound = now_ns() + 5'000'000'000ULL;
  while (!capture.saw(ErrorCode::kStalledRendezvous) && now_ns() < bound) {
    uni.rank(0).progress();
  }
  ASSERT_TRUE(capture.saw(ErrorCode::kStalledRendezvous));
  // Flagged once, named by its peer.
  for (int i = 0; i < 10; ++i) uni.rank(0).progress();
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kWatchdogStalls), 1u);
  ASSERT_EQ(capture.errors.size(), 1u);
  EXPECT_EQ(capture.errors[0].rank, 0);
  EXPECT_EQ(capture.errors[0].peer, 1);
}

TEST(Chaos, SettledRendezvousIsNotAStall) {
  // A cancelled rendezvous transfer is settled, not stalled: the watchdog
  // must not escalate its tombstone, and a receive tombstone must retire
  // once the peer's late fragments have drained into it.
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.watchdog_interval_ns = 0;
  cfg.rndv_stall_ns = 20'000'000;
  Universe uni(cfg);
  ErrorCapture errors0, errors1;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &errors0);
  uni.rank(1).set_error_sink(ErrorCapture::sink, &errors1);

  std::vector<std::byte> out(64 * 1024), in(64 * 1024);
  // Matched receive, cancelled after the match: one progress call on the
  // receiver matches the RTS and registers the transfer.
  Request rreq, sreq;
  uni.rank(1).irecv(kWorldComm, 0, /*tag=*/1, in.data(), in.size(), rreq);
  uni.rank(0).isend(kWorldComm, 1, /*tag=*/1, out.data(), out.size(), sreq);
  uni.rank(1).progress();
  ASSERT_EQ(uni.rank(1).rendezvous_pending(), 1u);
  ASSERT_TRUE(rreq.cancel());
  // Unmatched send, cancelled: rank 1 never posts for tag 2.
  Request orphan;
  uni.rank(0).isend(kWorldComm, 1, /*tag=*/2, out.data(), out.size(), orphan);
  ASSERT_TRUE(orphan.cancel());

  const std::uint64_t bound = now_ns() + 5'000'000'000ULL;
  while (!sreq.done() && now_ns() < bound) {
    uni.rank(0).progress();
    uni.rank(1).progress();
  }
  ASSERT_TRUE(sreq.done());
  const std::uint64_t until = now_ns() + 3 * cfg.rndv_stall_ns;
  while (now_ns() < until) {
    uni.rank(0).progress();
    uni.rank(1).progress();
  }
  EXPECT_EQ(uni.rank(0).counters().get(Counter::kWatchdogStalls), 0u);
  EXPECT_EQ(uni.rank(1).counters().get(Counter::kWatchdogStalls), 0u);
  EXPECT_FALSE(errors0.saw(ErrorCode::kStalledRendezvous));
  EXPECT_FALSE(errors1.saw(ErrorCode::kStalledRendezvous));
  EXPECT_EQ(uni.rank(1).rendezvous_pending(), 0u);
}

TEST(Chaos, RetransmitWhileOwnerIdle) {
  // Retransmission models the NIC's autonomous recovery: a sender that
  // injects once and never progresses again still has its dropped packet
  // re-sent — by the receiver's progress calls, which serve every rank's
  // tracker through the universe-wide retransmit due time.
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.reliable = true;
  cfg.faults.drop = 0.5;
  cfg.faults.seed = 2;  // link 0->1: the first packet drops, the next passes
  cfg.rto_ns = 200'000;
  Universe uni(cfg);

  const std::uint32_t payload = 0xfeedu;
  std::uint32_t got = 0;
  Request rreq, sreq;
  uni.rank(1).irecv(kWorldComm, 0, /*tag=*/3, &got, sizeof got, rreq);
  uni.rank(0).isend(kWorldComm, 1, /*tag=*/3, &payload, sizeof payload, sreq);
  EXPECT_TRUE(sreq.done());  // eager: complete at injection; rank 0 goes idle
  const std::uint64_t bound = now_ns() + 5'000'000'000ULL;
  while (!rreq.done() && now_ns() < bound) uni.rank(1).progress();
  ASSERT_TRUE(rreq.done());
  EXPECT_FALSE(rreq.failed());
  EXPECT_EQ(got, payload);
  EXPECT_GE(uni.rank(0).counters().get(Counter::kRetransmits), 1u);
  EXPECT_GE(uni.fabric().injector()->stats().dropped.load(), 1u);
}

TEST(Chaos, SendBudgetExhaustionIsTypedNotLivelock) {
  ScopedChaosEnvClear env;
  Config cfg;
  cfg.num_ranks = 2;
  cfg.fabric.rx_ring_entries = 8;
  cfg.send_retry_limit = 500;  // bounded spin instead of forever
  Universe uni(cfg);

  ErrorCapture capture;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &capture);

  // Fill the peer's only RX ring; it never drains (rank 1 never progresses).
  const std::uint32_t payload = 7;
  std::vector<std::unique_ptr<Request>> reqs;
  bool failed = false;
  for (int i = 0; i < 16 && !failed; ++i) {
    reqs.push_back(std::make_unique<Request>());
    uni.rank(0).isend(kWorldComm, 1, /*tag=*/0, &payload, sizeof payload,
                      *reqs.back());
    ASSERT_TRUE(reqs.back()->done());  // typed failure still completes
    failed = reqs.back()->failed();
  }

  ASSERT_TRUE(failed) << "ring never filled";
  EXPECT_EQ(reqs.back()->error(), ErrorCode::kSendBudgetExhausted);
  EXPECT_GT(uni.rank(0).counters().get(Counter::kReliabilityErrors), 0u);
  EXPECT_GT(uni.rank(0).counters().get(Counter::kSendBackpressure), 0u);
  EXPECT_TRUE(capture.saw(ErrorCode::kSendBudgetExhausted));
}

}  // namespace
}  // namespace fairmpi
