#include "fairmpi/match/match_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "fairmpi/common/rng.hpp"

namespace fairmpi::match {
namespace {

using p2p::kAnySource;
using p2p::kAnyTag;
using p2p::Request;
using spc::Counter;

fabric::Packet make_eager(int src, std::uint32_t seq, int tag,
                          const std::string& payload = {}, std::uint32_t comm = 0) {
  fabric::Packet pkt;
  pkt.hdr.opcode = fabric::Opcode::kEager;
  pkt.hdr.src_rank = static_cast<std::uint16_t>(src);
  pkt.hdr.comm_id = comm;
  pkt.hdr.tag = tag;
  pkt.hdr.seq = seq;
  pkt.set_payload(payload.data(), payload.size());
  return pkt;
}

class MatchTest : public ::testing::Test {
 protected:
  spc::CounterSet spc_;
};

TEST_F(MatchTest, PostedThenIncomingDelivers) {
  MatchEngine eng(2, false, spc_);
  char buf[16] = {};
  Request req;
  req.init_recv(buf, sizeof buf, /*src=*/1, /*tag=*/7);
  EXPECT_FALSE(eng.post(&req));
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 7, "hi")), 1u);
  ASSERT_TRUE(req.done());
  EXPECT_EQ(req.status().source, 1);
  EXPECT_EQ(req.status().tag, 7);
  EXPECT_EQ(req.status().size, 2u);
  EXPECT_FALSE(req.status().truncated);
  EXPECT_EQ(std::memcmp(buf, "hi", 2), 0);
}

TEST_F(MatchTest, IncomingThenPostedMatchesUnexpected) {
  MatchEngine eng(2, false, spc_);
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 7, "yo")), 0u);
  EXPECT_EQ(eng.unexpected_count(), 1u);
  EXPECT_EQ(spc_.get(Counter::kUnexpectedMessages), 1u);
  char buf[16] = {};
  Request req;
  req.init_recv(buf, sizeof buf, 1, 7);
  EXPECT_TRUE(eng.post(&req));
  EXPECT_TRUE(req.done());
  EXPECT_EQ(eng.unexpected_count(), 0u);
  EXPECT_EQ(std::memcmp(buf, "yo", 2), 0);
}

TEST_F(MatchTest, TagFilterKeepsNonMatchingUnexpected) {
  MatchEngine eng(2, false, spc_);
  eng.incoming(make_eager(1, 0, 1));
  char buf[4];
  Request req;
  req.init_recv(buf, sizeof buf, 1, /*tag=*/2);
  EXPECT_FALSE(eng.post(&req));
  // Next in-sequence message with tag 2 matches the posted request even
  // though an older tag-1 message is still queued.
  EXPECT_EQ(eng.incoming(make_eager(1, 1, 2)), 1u);
  EXPECT_TRUE(req.done());
  EXPECT_EQ(eng.unexpected_count(), 1u);
}

TEST_F(MatchTest, OutOfSequenceIsBufferedUntilGapFills) {
  MatchEngine eng(2, false, spc_);
  char b1[4], b2[4], b3[4];
  Request r1, r2, r3;
  r1.init_recv(b1, 4, 1, 5);
  r2.init_recv(b2, 4, 1, 5);
  r3.init_recv(b3, 4, 1, 5);
  eng.post(&r1);
  eng.post(&r2);
  eng.post(&r3);

  // Arrive 2, 1, 0 — nothing can match until seq 0 shows up.
  EXPECT_EQ(eng.incoming(make_eager(1, 2, 5, "c")), 0u);
  EXPECT_EQ(eng.incoming(make_eager(1, 1, 5, "b")), 0u);
  EXPECT_EQ(eng.reorder_buffered(), 2u);
  EXPECT_EQ(spc_.get(Counter::kOutOfSequence), 2u);
  EXPECT_FALSE(r1.done());

  // Seq 0 arrives: all three drain in one call, in seq order.
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 5, "a")), 3u);
  EXPECT_EQ(eng.reorder_buffered(), 0u);
  EXPECT_EQ(b1[0], 'a');
  EXPECT_EQ(b2[0], 'b');
  EXPECT_EQ(b3[0], 'c');
  EXPECT_EQ(spc_.get(Counter::kOosBufferPeak), 2u);
}

TEST_F(MatchTest, FifoMatchOrderWithinSeqStream) {
  MatchEngine eng(2, false, spc_);
  // Two receives posted with same filters: earlier post matches earlier seq.
  char b1[4] = {}, b2[4] = {};
  Request r1, r2;
  r1.init_recv(b1, 4, 1, 9);
  r2.init_recv(b2, 4, 1, 9);
  eng.post(&r1);
  eng.post(&r2);
  eng.incoming(make_eager(1, 0, 9, "1"));
  eng.incoming(make_eager(1, 1, 9, "2"));
  EXPECT_EQ(b1[0], '1');
  EXPECT_EQ(b2[0], '2');
}

TEST_F(MatchTest, AnyTagMatchesFirstAvailable) {
  MatchEngine eng(2, false, spc_);
  char buf[4] = {};
  Request req;
  req.init_recv(buf, 4, 1, kAnyTag);
  eng.post(&req);
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 1234)), 1u);
  EXPECT_EQ(req.status().tag, 1234);
}

TEST_F(MatchTest, AnySourceMatchesAcrossPeers) {
  MatchEngine eng(4, false, spc_);
  char buf[4] = {};
  Request req;
  req.init_recv(buf, 4, kAnySource, 3);
  eng.post(&req);
  EXPECT_EQ(eng.incoming(make_eager(2, 0, 3, "x")), 1u);
  EXPECT_EQ(req.status().source, 2);
}

TEST_F(MatchTest, AnySourcePicksEarliestArrivalAmongUnexpected) {
  MatchEngine eng(4, false, spc_);
  eng.incoming(make_eager(3, 0, 8, "late-peer-first"));
  eng.incoming(make_eager(1, 0, 8, "second"));
  char buf[32] = {};
  Request req;
  req.init_recv(buf, sizeof buf, kAnySource, 8);
  EXPECT_TRUE(eng.post(&req));
  EXPECT_EQ(req.status().source, 3);  // earliest arrival wins
}

TEST_F(MatchTest, PostOrderRespectedBetweenSpecificAndWildcardQueues) {
  MatchEngine eng(2, false, spc_);
  char b1[4] = {}, b2[4] = {};
  Request wildcard, specific;
  wildcard.init_recv(b1, 4, kAnySource, 5);
  specific.init_recv(b2, 4, 1, 5);
  eng.post(&wildcard);  // posted first
  eng.post(&specific);
  eng.incoming(make_eager(1, 0, 5, "A"));
  EXPECT_TRUE(wildcard.done());
  EXPECT_FALSE(specific.done());

  // And the reverse order.
  MatchEngine eng2(2, false, spc_);
  Request wildcard2, specific2;
  wildcard2.init_recv(b1, 4, kAnySource, 5);
  specific2.init_recv(b2, 4, 1, 5);
  eng2.post(&specific2);  // posted first
  eng2.post(&wildcard2);
  eng2.incoming(make_eager(1, 0, 5, "B"));
  EXPECT_TRUE(specific2.done());
  EXPECT_FALSE(wildcard2.done());
}

TEST_F(MatchTest, TruncationFlaggedAndClamped) {
  MatchEngine eng(2, false, spc_);
  char small[3] = {};
  Request req;
  req.init_recv(small, sizeof small, 1, 1);
  eng.post(&req);
  eng.incoming(make_eager(1, 0, 1, "abcdefgh"));
  ASSERT_TRUE(req.done());
  EXPECT_TRUE(req.status().truncated);
  EXPECT_EQ(req.status().size, 8u);  // sent size reported
  EXPECT_EQ(std::memcmp(small, "abc", 3), 0);
}

TEST_F(MatchTest, LargePayloadThroughHeapPath) {
  MatchEngine eng(2, false, spc_);
  const std::string big(8192, 'm');
  std::vector<char> buf(8192);
  Request req;
  req.init_recv(buf.data(), buf.size(), 1, 1);
  eng.post(&req);
  eng.incoming(make_eager(1, 0, 1, big));
  ASSERT_TRUE(req.done());
  EXPECT_EQ(std::memcmp(buf.data(), big.data(), big.size()), 0);
}

TEST_F(MatchTest, OvertakingSkipsSequenceValidation) {
  MatchEngine eng(2, true, spc_);
  char b1[4] = {}, b2[4] = {};
  Request r1, r2;
  r1.init_recv(b1, 4, 1, 5);
  r2.init_recv(b2, 4, 1, 5);
  eng.post(&r1);
  eng.post(&r2);
  // Reverse seq order: with overtaking both match immediately, in arrival
  // order, and nothing is buffered.
  EXPECT_EQ(eng.incoming(make_eager(1, 1, 5, "X")), 1u);
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 5, "Y")), 1u);
  EXPECT_EQ(b1[0], 'X');
  EXPECT_EQ(b2[0], 'Y');
  EXPECT_EQ(spc_.get(Counter::kOutOfSequence), 0u);
  EXPECT_EQ(eng.reorder_buffered(), 0u);
}

TEST_F(MatchTest, SeparateSeqStreamsPerPeer) {
  MatchEngine eng(3, false, spc_);
  // Peer 1 and peer 2 each start at seq 0; interleaving is fine.
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 1, "a")), 0u);
  EXPECT_EQ(eng.incoming(make_eager(2, 0, 1, "b")), 0u);
  EXPECT_EQ(spc_.get(Counter::kOutOfSequence), 0u);
  EXPECT_EQ(eng.unexpected_count(), 2u);
}

TEST_F(MatchTest, MatchTimeAccumulates) {
  MatchEngine eng(2, false, spc_);
  for (std::uint32_t i = 0; i < 100; ++i) eng.incoming(make_eager(1, i, 1));
  EXPECT_GT(spc_.get(Counter::kMatchTimeNs), 0u);
  EXPECT_EQ(spc_.get(Counter::kMatchAttempts), 100u);
}

// Deterministic worst case for the reorder structures: deliver seq 1..N-1
// first with seq 0 withheld, so everything parks. Deltas 1..63 land in the
// fixed ring, deltas >= 64 take the spill-map fallback; a second epoch at
// base 300 repeats the pattern with expected_seq no longer a multiple of
// the window, so ring indices (seq & 63) wrap around the array. The final
// in-order packet must drain ring and spill in one incoming() call.
TEST_F(MatchTest, ReorderRingWraparoundAndSpillFallback) {
  constexpr std::uint32_t kPerEpoch = 300;  // > kReorderWindow => spill used
  constexpr int kEpochs = 2;
  MatchEngine eng(2, false, spc_);

  std::vector<Request> reqs(kPerEpoch * kEpochs);
  std::vector<std::uint32_t> bufs(kPerEpoch * kEpochs, 0xffffffffu);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].init_recv(&bufs[i], sizeof(std::uint32_t), 1, 5);
    eng.post(&reqs[i]);
  }

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const std::uint32_t base = static_cast<std::uint32_t>(epoch) * kPerEpoch;
    for (std::uint32_t d = 1; d < kPerEpoch; ++d) {
      const std::uint32_t seq = base + d;
      std::uint32_t payload = seq;
      EXPECT_EQ(eng.incoming(make_eager(
                    1, seq, 5, std::string(reinterpret_cast<char*>(&payload), 4))),
                0u);
    }
    EXPECT_EQ(eng.reorder_buffered(), kPerEpoch - 1);
    std::uint32_t payload = base;
    EXPECT_EQ(eng.incoming(make_eager(
                  1, base, 5, std::string(reinterpret_cast<char*>(&payload), 4))),
              kPerEpoch);
    EXPECT_EQ(eng.reorder_buffered(), 0u);
  }

  EXPECT_EQ(spc_.get(Counter::kOutOfSequence),
            static_cast<std::uint64_t>(kEpochs) * (kPerEpoch - 1));
  EXPECT_EQ(spc_.get(Counter::kOosBufferPeak), kPerEpoch - 1);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(reqs[i].done());
    EXPECT_EQ(bufs[i], static_cast<std::uint32_t>(i));
  }
}

// Property test: random arrival permutation + random wildcard mix still
// delivers every message exactly once, and (without overtaking) the i-th
// posted identical-filter receive gets the i-th sequence number.
class MatchPermutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchPermutation, RandomArrivalOrderAlwaysDeliversAll) {
  spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  Xoshiro256 rng(GetParam());
  constexpr int kMessages = 200;

  std::vector<Request> reqs(kMessages);
  std::vector<std::uint32_t> bufs(kMessages, 0);
  for (int i = 0; i < kMessages; ++i) {
    const bool wildcard_tag = rng.bounded(4) == 0;
    reqs[i].init_recv(&bufs[i], sizeof(std::uint32_t), 1,
                      wildcard_tag ? kAnyTag : 42);
    eng.post(&reqs[i]);
  }

  std::vector<std::uint32_t> seqs(kMessages);
  std::iota(seqs.begin(), seqs.end(), 0);
  for (std::size_t i = seqs.size(); i > 1; --i) {
    std::swap(seqs[i - 1], seqs[rng.bounded(i)]);
  }
  std::size_t delivered = 0;
  for (const std::uint32_t seq : seqs) {
    std::uint32_t payload = seq;
    delivered += eng.incoming(
        make_eager(1, seq, 42, std::string(reinterpret_cast<char*>(&payload), 4)));
  }
  EXPECT_EQ(delivered, static_cast<std::size_t>(kMessages));
  EXPECT_EQ(eng.reorder_buffered(), 0u);
  EXPECT_EQ(eng.unexpected_count(), 0u);
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(reqs[i].done());
    // Non-overtaking: matching order == seq order == post order.
    EXPECT_EQ(bufs[i], static_cast<std::uint32_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchPermutation,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Tag bins: one tag-B envelope reads only its own bin, however many tag-A
// receives another stream has posted on the same source.
TEST(MatchBins, ExactTagSkipsOtherStreams) {
  spc::CounterSet spc;
  MatchEngine eng(2, false, spc);
  std::uint32_t buf = 0;
  std::vector<Request> stream_a(128);
  for (Request& r : stream_a) {
    r.init_recv(&buf, sizeof buf, 1, /*tag=*/1);
    EXPECT_FALSE(eng.post(&r));
  }
  Request b;
  b.init_recv(&buf, sizeof buf, 1, /*tag=*/2);
  EXPECT_FALSE(eng.post(&b));
  const std::uint64_t before = spc.get(Counter::kPostedQueueDepth);
  EXPECT_EQ(eng.incoming(make_eager(1, 0, 2)), 1u);
  EXPECT_TRUE(b.done());
  EXPECT_EQ(spc.get(Counter::kPostedQueueDepth) - before, 1u);
  EXPECT_EQ(eng.posted_count(), stream_a.size());
}

// Reference model: OB1's plain linear lists. One posted list in post
// order, one unexpected list in arrival order, per-source sequence
// reordering. Every receive must end exactly as the model says: completed
// by the same message, or failed with the same code, or still posted.
class LinearOracle {
 public:
  struct Msg {
    int src;
    int tag;
    std::uint32_t id;
  };
  static constexpr std::uint32_t kPending = ~0u;

  LinearOracle(int ranks, std::size_t receives)
      : got(receives, kPending),
        err(receives, common::ErrorCode::kOk),
        expected_(static_cast<std::size_t>(ranks), 0),
        parked_(static_cast<std::size_t>(ranks)),
        dead_(static_cast<std::size_t>(ranks), false) {}

  // Outcome per receive: the message id it got, kPending, or an error.
  std::vector<std::uint32_t> got;
  std::vector<common::ErrorCode> err;

  void post(std::size_t r, int src, int tag) {
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (accepts(src, tag, *it)) {
        got[r] = it->id;
        unexpected_.erase(it);
        return;
      }
    }
    if (src != kAnySource && dead_[static_cast<std::size_t>(src)]) {
      err[r] = common::ErrorCode::kPeerFailed;
      return;
    }
    posted_.push_back({r, src, tag});
  }

  void arrive(std::uint32_t seq, const Msg& m) {
    const auto s = static_cast<std::size_t>(m.src);
    if (seq != expected_[s]) {
      parked_[s].emplace(seq, m);
      return;
    }
    match(m);
    ++expected_[s];
    for (auto it = parked_[s].find(expected_[s]); it != parked_[s].end();
         it = parked_[s].find(expected_[s])) {
      match(it->second);
      parked_[s].erase(it);
      ++expected_[s];
    }
  }

  bool cancel(std::size_t r) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (it->r == r) {
        posted_.erase(it);
        err[r] = common::ErrorCode::kCancelled;
        return true;
      }
    }
    return false;
  }

  void fail_source(int src) {
    const auto s = static_cast<std::size_t>(src);
    dead_[s] = true;
    parked_[s].clear();
    std::erase_if(posted_, [&](const Posted& p) {
      if (p.src != src) return false;
      err[p.r] = common::ErrorCode::kPeerFailed;
      return true;
    });
  }

  std::size_t posted_count() const { return posted_.size(); }
  std::size_t unexpected_count() const { return unexpected_.size(); }

 private:
  struct Posted {
    std::size_t r;
    int src;
    int tag;
  };
  static bool accepts(int src, int tag, const Msg& m) {
    return (src == kAnySource || src == m.src) && (tag == kAnyTag || tag == m.tag);
  }
  void match(const Msg& m) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (accepts(it->src, it->tag, m)) {
        got[it->r] = m.id;
        posted_.erase(it);
        return;
      }
    }
    unexpected_.push_back(m);
  }

  std::vector<std::uint32_t> expected_;
  std::vector<std::map<std::uint32_t, Msg>> parked_;
  std::vector<bool> dead_;
  std::vector<Posted> posted_;
  std::vector<Msg> unexpected_;
};

TEST(MatchBins, AgreesWithLinearOracle) {
  constexpr int kRanks = 3;
  constexpr std::size_t kOps = 3000;
  // 3, 19 and 35 share bin 3; 5 has its own.
  constexpr std::array<int, 4> kTags = {3, 19, 35, 5};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    spc::CounterSet spc;
    MatchEngine eng(kRanks, false, spc);
    LinearOracle model(kRanks, kOps);
    Xoshiro256 rng(seed);

    std::vector<Request> reqs(kOps);
    std::vector<std::uint32_t> bufs(kOps, LinearOracle::kPending);
    std::size_t n_reqs = 0;
    std::vector<std::size_t> live;  // receives that may still be posted
    // Sent, not yet arrived, per source in seq order.
    std::vector<std::vector<std::pair<std::uint32_t, LinearOracle::Msg>>> wire(kRanks);
    std::vector<std::uint32_t> next_seq(kRanks, 0);
    std::vector<bool> dead(kRanks, false);
    std::uint32_t next_id = 0;

    auto arrive_one = [&](int s) {
      auto& q = wire[static_cast<std::size_t>(s)];
      // Out of sequence: any of the first four in-flight messages.
      const std::size_t pick = rng.bounded(std::min<std::size_t>(q.size(), 4));
      const auto [seq, m] = q[pick];
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
      eng.incoming(make_eager(m.src, seq, m.tag,
                              std::string(reinterpret_cast<const char*>(&m.id), 4)));
      model.arrive(seq, m);
    };

    for (std::size_t op = 0; op < kOps; ++op) {
      const std::uint64_t dice = rng.bounded(100);
      if (dice < 35) {  // post
        const std::size_t r = n_reqs++;
        const int src = rng.bounded(5) == 0 ? kAnySource : static_cast<int>(rng.bounded(kRanks));
        const int tag = rng.bounded(5) == 0 ? kAnyTag : kTags[rng.bounded(kTags.size())];
        reqs[r].init_recv(&bufs[r], sizeof(std::uint32_t), src, tag);
        eng.post(&reqs[r]);
        model.post(r, src, tag);
        live.push_back(r);
      } else if (dice < 65) {  // send
        const int s = static_cast<int>(rng.bounded(kRanks));
        if (dead[static_cast<std::size_t>(s)]) continue;
        wire[static_cast<std::size_t>(s)].push_back(
            {next_seq[static_cast<std::size_t>(s)]++,
             {s, kTags[rng.bounded(kTags.size())], next_id++}});
      } else if (dice < 95) {  // arrival
        const int s = static_cast<int>(rng.bounded(kRanks));
        if (!wire[static_cast<std::size_t>(s)].empty()) arrive_one(s);
      } else if (dice < 99) {  // cancel
        if (live.empty()) continue;
        const std::size_t i = rng.bounded(live.size());
        const std::size_t r = live[i];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        EXPECT_EQ(reqs[r].cancel(), model.cancel(r)) << "cancel of receive " << r;
      } else {  // a source dies; its wire goes quiet
        const int s = static_cast<int>(rng.bounded(kRanks));
        if (dead[static_cast<std::size_t>(s)]) continue;
        dead[static_cast<std::size_t>(s)] = true;
        wire[static_cast<std::size_t>(s)].clear();
        eng.fail_source(s);
        model.fail_source(s);
      }
      ASSERT_EQ(eng.posted_count(), model.posted_count()) << "op " << op;
      ASSERT_EQ(eng.unexpected_count(), model.unexpected_count()) << "op " << op;
    }
    for (int s = 0; s < kRanks; ++s) {
      while (!wire[static_cast<std::size_t>(s)].empty()) arrive_one(s);
    }

    for (std::size_t r = 0; r < n_reqs; ++r) {
      if (model.got[r] != LinearOracle::kPending) {
        ASSERT_TRUE(reqs[r].done()) << "receive " << r;
        EXPECT_EQ(reqs[r].error(), common::ErrorCode::kOk) << "receive " << r;
        EXPECT_EQ(bufs[r], model.got[r]) << "receive " << r;
      } else if (model.err[r] != common::ErrorCode::kOk) {
        ASSERT_TRUE(reqs[r].done()) << "receive " << r;
        EXPECT_EQ(reqs[r].error(), model.err[r]) << "receive " << r;
      } else {
        EXPECT_FALSE(reqs[r].done()) << "receive " << r;
        reqs[r].cancel();
      }
    }
    EXPECT_EQ(eng.posted_count(), 0u);
    EXPECT_EQ(eng.unexpected_count(), model.unexpected_count());
  }
}

}  // namespace
}  // namespace fairmpi::match
