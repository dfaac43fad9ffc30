// Boundary-condition tests: payload sizes exactly at the inline/eager/
// rendezvous thresholds, request object reuse, and dissemination barriers
// at non-power-of-two rank counts.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "fairmpi/core/universe.hpp"
#include "fairmpi/fabric/wire.hpp"

namespace fairmpi {
namespace {

/// Round-trip one payload of exactly `size` bytes and verify content.
void round_trip(Universe& uni, std::size_t size, int tag) {
  std::vector<std::uint8_t> data(size);
  for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<std::uint8_t>(i * 7 + tag);
  std::vector<std::uint8_t> got(size ? size : 1);

  Request sreq, rreq;
  uni.rank(1).irecv(kWorldComm, 0, tag, got.data(), size, rreq);
  uni.rank(0).isend(kWorldComm, 1, tag, data.data(), size, sreq);
  while (!rreq.done() || !sreq.done()) {
    uni.rank(0).progress();
    uni.rank(1).progress();
  }
  ASSERT_EQ(rreq.status().size, size);
  ASSERT_FALSE(rreq.status().truncated);
  if (size != 0) {
    ASSERT_EQ(std::memcmp(got.data(), data.data(), size), 0);
  }
}

TEST(Boundaries, PayloadSizesAroundEveryStorageThreshold) {
  Config cfg;
  cfg.eager_limit = 4096;
  cfg.rndv_frag_bytes = 4096;
  Universe uni(cfg);
  int tag = 1;
  for (const std::size_t size : {
           std::size_t{0},                      // pure envelope
           fabric::kInlineBytes - 1,            // inline slot
           fabric::kInlineBytes,                // inline boundary
           fabric::kInlineBytes + 1,            // first heap-payload size
           cfg.eager_limit - 1,                 // largest-but-one eager
           cfg.eager_limit,                     // eager boundary (still eager)
           cfg.eager_limit + 1,                 // first rendezvous size
           cfg.rndv_frag_bytes,                 // exactly one fragment
           cfg.rndv_frag_bytes + 1,             // fragment boundary + 1
           3 * cfg.rndv_frag_bytes,             // exact multiple of fragments
       }) {
    SCOPED_TRACE(size);
    round_trip(uni, size, tag++);
  }
}

TEST(Boundaries, RequestObjectReuseAcrossKindsAndOperations) {
  Universe uni(Config{});
  Request req;  // one request object reused for sends and receives
  for (int i = 0; i < 20; ++i) {
    const int v = i;
    uni.rank(0).isend(kWorldComm, 1, 1, &v, sizeof v, req);
    uni.rank(0).wait(req);
    int got = -1;
    uni.rank(1).irecv(kWorldComm, 0, 1, &got, sizeof got, req);  // reuse as recv
    uni.rank(1).wait(req);
    ASSERT_EQ(got, i);
    ASSERT_EQ(req.kind(), Request::Kind::kRecv);
  }
}

class BarrierRankCounts : public ::testing::TestWithParam<int> {};

TEST_P(BarrierRankCounts, DisseminationBarrierNonPowerOfTwo) {
  const int n = GetParam();
  Config cfg;
  cfg.num_ranks = n;
  Universe uni(cfg);
  std::atomic<int> phase_count{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      for (int phase = 0; phase < 5; ++phase) {
        phase_count.fetch_add(1, std::memory_order_relaxed);
        uni.rank(r).world().barrier();
        // After the barrier, every rank has entered this phase.
        ASSERT_GE(phase_count.load(std::memory_order_relaxed), (phase + 1) * n)
            << "rank " << r << " phase " << phase;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(phase_count.load(), 5 * n);
}

INSTANTIATE_TEST_SUITE_P(Ns, BarrierRankCounts, ::testing::Values(1, 2, 3, 5, 6, 7));

TEST(Boundaries, TruncationAtEveryStorageClass) {
  Config cfg;
  cfg.eager_limit = 1024;
  Universe uni(cfg);
  int tag = 50;
  for (const std::size_t sent_size : {std::size_t{32}, std::size_t{512},
                                      std::size_t{5000}}) {
    SCOPED_TRACE(sent_size);
    std::vector<std::uint8_t> data(sent_size, 0xEE);
    std::uint8_t tiny[8] = {};
    Request sreq, rreq;
    uni.rank(1).irecv(kWorldComm, 0, tag, tiny, sizeof tiny, rreq);
    uni.rank(0).isend(kWorldComm, 1, tag, data.data(), data.size(), sreq);
    while (!rreq.done() || !sreq.done()) {
      uni.rank(0).progress();
      uni.rank(1).progress();
    }
    ASSERT_TRUE(rreq.status().truncated);
    ASSERT_EQ(rreq.status().size, sent_size);
    ASSERT_EQ(tiny[0], 0xEE);  // prefix still delivered
    ++tag;
  }
}

TEST(Boundaries, ZeroCapacityReceiveOfNonEmptyMessage) {
  Universe uni(Config{});
  Request sreq, rreq;
  const int v = 7;
  uni.rank(1).irecv(kWorldComm, 0, 2, nullptr, 0, rreq);
  uni.rank(0).isend(kWorldComm, 1, 2, &v, sizeof v, sreq);
  while (!rreq.done()) uni.rank(1).progress();
  EXPECT_TRUE(rreq.status().truncated);
  EXPECT_EQ(rreq.status().size, sizeof v);
}

}  // namespace
}  // namespace fairmpi
