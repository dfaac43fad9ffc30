// Watchdog stall-episode semantics, driven through the real lock-free
// instrumentation (NetworkContext::delivered() / RxQueue::size_approx())
// by pushing and popping packets on a CRI's RX queue directly:
//   - a frozen backlog escalates once per episode after stall_sweeps;
//   - *partial* progress (one packet drained, backlog remains) ends the
//     episode and re-arms the strike counter — the partial-progress
//     regression: `consumed != last` treated racy decreases as progress,
//     while requiring a full drain would never re-arm a slow consumer;
//   - an escalation names the peer the ft detector currently suspects.
#include "fairmpi/progress/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "fairmpi/cri/cri.hpp"
#include "fairmpi/fabric/fabric.hpp"
#include "fairmpi/spc/spc.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi::progress {
namespace {

fabric::Packet make_pkt(std::uint32_t seq) {
  fabric::Packet pkt;
  pkt.hdr.opcode = fabric::Opcode::kEager;
  pkt.hdr.seq = seq;
  return pkt;
}

class WatchdogTest : public ::testing::Test {
 protected:
  WatchdogTest()
      : fabric_(std::vector<int>{1}),
        pool_(fabric_, 0, cri::Assignment::kRoundRobin),
        dog_(pool_, spc_, tracer_, /*stall_sweeps=*/2,
             /*rndv_stall_ns=*/~std::uint64_t{0}) {}

  fabric::RxQueue& rx() { return pool_.instance(0).context().rx(); }
  std::uint64_t stalls() const { return spc_.get(spc::Counter::kWatchdogStalls); }

  void push(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(rx().try_push(make_pkt(static_cast<std::uint32_t>(i))));
    }
  }

  fabric::Fabric fabric_;
  cri::CriPool pool_;
  spc::CounterSet spc_;
  trace::Tracer tracer_;
  Watchdog dog_;
};

TEST_F(WatchdogTest, FrozenBacklogEscalatesOncePerEpisode) {
  push(4);
  std::uint64_t now = 1;
  EXPECT_EQ(dog_.poll(now++), 0u);  // strike 1: frontier baselined, frozen
  EXPECT_EQ(dog_.poll(now++), 1u);  // strike 2: escalate
  EXPECT_EQ(stalls(), 1u);
  // Still frozen: the episode already escalated — no repeat reports.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dog_.poll(now++), 0u);
  EXPECT_EQ(stalls(), 1u);
}

TEST_F(WatchdogTest, PartialProgressResetsTheEpisode) {
  push(4);
  std::uint64_t now = 1;
  dog_.poll(now++);
  dog_.poll(now++);
  ASSERT_EQ(stalls(), 1u);

  // Drain ONE packet of four: delta > 0 with a backlog remaining must end
  // the episode (partial progress is progress).
  fabric::Packet out;
  ASSERT_TRUE(rx().try_pop(out));
  EXPECT_EQ(dog_.poll(now++), 0u);  // reset observed, episode re-armed

  // Freeze again: a full strike run is required before the next report.
  EXPECT_EQ(dog_.poll(now++), 0u);
  EXPECT_EQ(dog_.poll(now++), 1u);
  EXPECT_EQ(stalls(), 2u);
}

TEST_F(WatchdogTest, EmptyBacklogNeverEscalates) {
  std::uint64_t now = 1;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dog_.poll(now++), 0u);
  EXPECT_EQ(stalls(), 0u);
}

struct Captured {
  std::vector<common::Error> errors;
};

void capture_sink(const common::Error& err, void* user) {
  static_cast<Captured*>(user)->errors.push_back(err);
}

TEST_F(WatchdogTest, EscalationAttributesTheSuspectedPeer) {
  Captured cap;
  dog_.set_error_sink(&capture_sink, &cap, /*rank=*/0);
  std::atomic<int> hint{-1};
  dog_.set_suspect_hint(&hint);

  push(2);
  std::uint64_t now = 1;
  dog_.poll(now++);
  hint.store(1, std::memory_order_relaxed);  // detector now suspects rank 1
  dog_.poll(now++);
  ASSERT_EQ(cap.errors.size(), 1u);
  EXPECT_EQ(cap.errors[0].code, common::ErrorCode::kStalledInstance);
  EXPECT_EQ(cap.errors[0].rank, 0);
  EXPECT_EQ(cap.errors[0].peer, 1);  // attributed, not -1
  EXPECT_EQ(cap.errors[0].detail, 0u);  // instance id

  // Without a hint installed the report stays unattributed.
  fabric::Packet out;
  ASSERT_TRUE(rx().try_pop(out));
  dog_.poll(now++);  // episode reset
  dog_.set_suspect_hint(nullptr);
  dog_.poll(now++);
  dog_.poll(now++);
  ASSERT_EQ(cap.errors.size(), 2u);
  EXPECT_EQ(cap.errors[1].peer, -1);
}

}  // namespace
}  // namespace fairmpi::progress
