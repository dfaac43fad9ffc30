// Watchdog stall-episode semantics, driven through the real lock-free
// instrumentation (NetworkContext::delivered() / RxQueue::size_approx())
// by pushing and popping packets on a CRI's RX queue directly, and read
// from the records poll() returns:
//   - a frozen backlog is reported once per episode after stall_sweeps;
//   - *partial* progress (one packet drained, backlog remains) ends the
//     episode and re-arms the strike counter — the partial-progress
//     regression: `consumed != last` treated racy decreases as progress,
//     while requiring a full drain would never re-arm a slow consumer;
//   - a report names the peer the ft detector currently suspects.
#include "fairmpi/progress/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "fairmpi/cri/cri.hpp"
#include "fairmpi/fabric/fabric.hpp"

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
        dog_(pool_, /*stall_sweeps=*/2, &hint_) {}

  fabric::RxQueue& rx() { return pool_.instance(0).context().rx(); }

  void push(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(rx().try_push(make_pkt(static_cast<std::uint32_t>(i))));
    }
  }
  void pop_one() {
    fabric::Packet out;
    ASSERT_EQ(rx().try_pop_n(&out, 1), 1u);
  }
  /// One sweep's reports.
  std::vector<Watchdog::Stall> sweep(Watchdog& dog) {
    std::vector<Watchdog::Stall> stalled;
    dog.poll(stalled);
    return stalled;
  }
  std::vector<Watchdog::Stall> sweep() { return sweep(dog_); }

  fabric::Fabric fabric_;
  cri::CriPool pool_;
  std::atomic<int> hint_{-1};
  Watchdog dog_;
};

TEST_F(WatchdogTest, FrozenBacklogEscalatesOncePerEpisode) {
  push(4);
  EXPECT_TRUE(sweep().empty());  // strike 1: frontier baselined, frozen
  const auto stalled = sweep();  // strike 2: report
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].instance, 0);
  EXPECT_EQ(stalled[0].strikes, 2);
  EXPECT_EQ(stalled[0].peer, -1);  // the detector suspects no one
  // Still frozen: the episode already reported — no repeats.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(sweep().empty());
}

TEST_F(WatchdogTest, PartialProgressResetsTheEpisode) {
  push(4);
  sweep();
  ASSERT_EQ(sweep().size(), 1u);

  // Drain ONE packet of four: delta > 0 with a backlog remaining must end
  // the episode (partial progress is progress).
  pop_one();
  EXPECT_TRUE(sweep().empty());  // reset observed, episode re-armed

  // Freeze again: a full strike run is required before the next report.
  EXPECT_TRUE(sweep().empty());
  EXPECT_EQ(sweep().size(), 1u);
}

TEST_F(WatchdogTest, EmptyBacklogNeverEscalates) {
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(sweep().empty());
}

TEST_F(WatchdogTest, EscalationAttributesTheSuspectedPeer) {
  push(2);
  sweep();
  hint_.store(1, std::memory_order_relaxed);  // detector now suspects rank 1
  auto stalled = sweep();
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].instance, 0);
  EXPECT_EQ(stalled[0].peer, 1);  // attributed, not -1

  // Without a detector (ft off) the report stays unattributed.
  Watchdog no_ft(pool_, /*stall_sweeps=*/2, /*suspect_hint=*/nullptr);
  EXPECT_TRUE(sweep(no_ft).empty());
  stalled = sweep(no_ft);
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].peer, -1);
}

}  // namespace
}  // namespace fairmpi::progress
