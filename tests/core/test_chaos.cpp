// End-to-end chaos tests: exactly-once delivery over a seeded lossy fabric
// (eager and rendezvous, with drops, duplicates, reordering and corruption),
// the stall watchdog's escalation ladder, and typed send-budget errors.
//
// Every test clears the FAIRMPI_* chaos environment first: the fault model
// here is programmatic and seeded so the runs stay deterministic even when
// the suite itself is executed under the CI chaos profile.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"

namespace fairmpi {
namespace {

using common::Error;
using common::ErrorCode;
using spc::Counter;

/// Unsets the chaos/reliability environment for the lifetime of a test and
/// restores it afterwards, so this file's programmatic fault configs are
/// authoritative no matter what profile ctest runs under.
class ScopedChaosEnvClear {
 public:
  ScopedChaosEnvClear() {
    for (const char* name : kVars) {
      const char* value = std::getenv(name);
      saved_.emplace_back(name, value == nullptr ? std::string()
                                                 : std::string(value));
      if (value != nullptr) ::unsetenv(name);
    }
  }
  ~ScopedChaosEnvClear() {
    for (const auto& [name, value] : saved_) {
      if (!value.empty()) ::setenv(name, value.c_str(), 1);
    }
  }

 private:
  static constexpr const char* kVars[] = {
      "FAIRMPI_FAULT_DROP",      "FAIRMPI_FAULT_DUP",
      "FAIRMPI_FAULT_DELAY",     "FAIRMPI_FAULT_REORDER",
      "FAIRMPI_FAULT_CORRUPT",   "FAIRMPI_FAULT_SEED",
      "FAIRMPI_RELIABLE",        "FAIRMPI_RTO_NS",
      "FAIRMPI_RTO_MAX_NS",      "FAIRMPI_MAX_RETRIES",
      "FAIRMPI_RELIABILITY_WINDOW", "FAIRMPI_SEND_RETRY_LIMIT",
      "FAIRMPI_WATCHDOG_INTERVAL_NS", "FAIRMPI_WATCHDOG_STALL_SWEEPS",
      "FAIRMPI_RNDV_STALL_NS",   "FAIRMPI_FT",
      "FAIRMPI_FT_HEARTBEAT_NS", "FAIRMPI_FT_SUSPECT_NS",
      "FAIRMPI_FT_STRIKES",
  };
  std::vector<std::pair<const char*, std::string>> saved_;
};

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
  cfg.watchdog_interval_ns = 0;  // sweep on every poll
  cfg.watchdog_stall_sweeps = 2;
  Universe uni(cfg);

  ErrorCapture capture;
  uni.rank(1).set_error_sink(ErrorCapture::sink, &capture);

  // Park a packet in rank 1's RX ring and never progress rank 1: its
  // consumption frontier is frozen with a non-empty backlog — the stall
  // signature the watchdog exists to catch.
  const std::uint32_t payload = 42;
  uni.rank(0).world().send(1, /*tag=*/0, &payload, sizeof payload);

  progress::Watchdog* dog = uni.rank(1).watchdog();
  ASSERT_NE(dog, nullptr);
  for (int i = 0; i < 10; ++i) dog->poll(now_ns());

  EXPECT_GT(dog->stalls_flagged(), 0u);
  EXPECT_GT(uni.rank(1).counters().get(Counter::kWatchdogStalls), 0u);
  EXPECT_TRUE(capture.saw(ErrorCode::kStalledInstance));
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

  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  progress::Watchdog* dog = uni.rank(0).watchdog();
  ASSERT_NE(dog, nullptr);
  dog->poll(now_ns());

  EXPECT_GT(uni.rank(0).counters().get(Counter::kWatchdogStalls), 0u);
  EXPECT_TRUE(capture.saw(ErrorCode::kStalledRendezvous));
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
