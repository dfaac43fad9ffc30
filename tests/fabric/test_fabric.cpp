#include "fairmpi/fabric/fabric.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace fairmpi::fabric {
namespace {

Packet make_packet(int src, std::uint32_t seq, const std::string& payload = {}) {
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.hdr.src_rank = static_cast<std::uint16_t>(src);
  pkt.hdr.seq = seq;
  pkt.set_payload(payload.data(), payload.size());
  return pkt;
}

TEST(Wire, HeaderIsCompact) {
  EXPECT_EQ(sizeof(WireHeader), 32u);
}

TEST(Wire, InlinePayloadRoundTrip) {
  Packet pkt = make_packet(0, 0, "hello");
  ASSERT_EQ(pkt.hdr.payload_size, 5u);
  EXPECT_EQ(pkt.heap, nullptr);
  EXPECT_EQ(std::memcmp(pkt.payload(), "hello", 5), 0);
}

TEST(Wire, HeapPayloadRoundTrip) {
  const std::string big(kInlineBytes + 100, 'z');
  Packet pkt = make_packet(0, 0, big);
  EXPECT_NE(pkt.heap, nullptr);
  EXPECT_EQ(std::memcmp(pkt.payload(), big.data(), big.size()), 0);
}

TEST(Wire, ZeroBytePayload) {
  Packet pkt = make_packet(0, 0);
  EXPECT_EQ(pkt.hdr.payload_size, 0u);
  EXPECT_EQ(pkt.payload(), nullptr);
}

TEST(Wire, MoveTransfersHeapOwnership) {
  const std::string big(kInlineBytes * 2, 'q');
  Packet a = make_packet(1, 7, big);
  Packet b = std::move(a);
  EXPECT_EQ(a.heap, nullptr);  // NOLINT(bugprone-use-after-move): asserting move semantics
  ASSERT_NE(b.heap, nullptr);
  EXPECT_EQ(std::memcmp(b.payload(), big.data(), big.size()), 0);
}

TEST(Fabric, RouteModulo) {
  Fabric fabric({4, 2});
  // Cold-start route: sender context i lands in receiver context
  // i mod n_receiver until steering knows better.
  EXPECT_EQ(fabric.route(/*dst=*/1, /*src_ctx=*/0), 0);
  EXPECT_EQ(fabric.route(1, 1), 1);
  EXPECT_EQ(fabric.route(1, 2), 0);
  EXPECT_EQ(fabric.route(1, 3), 1);
  EXPECT_EQ(fabric.route(0, 1), 1);
  EXPECT_EQ(fabric.route(0, 5), 1);
}

TEST(Fabric, DeliverLandsInRoutedContext) {
  Fabric fabric({2, 2});
  ASSERT_TRUE(fabric.try_deliver(1, /*src_rank=*/0, /*src_ctx=*/1, make_packet(0, 42)));
  EXPECT_EQ(fabric.nic(1).context(1).delivered(), 1u);
  EXPECT_EQ(fabric.nic(1).context(0).delivered(), 0u);
  Packet out;
  ASSERT_EQ(fabric.nic(1).context(1).rx().try_pop_n(&out, 1), 1u);
  EXPECT_EQ(out.hdr.seq, 42u);
  EXPECT_EQ(fabric.nic(1).context(0).rx().try_pop_n(&out, 1), 0u);
}

TEST(Fabric, BackpressureWhenRingFull) {
  FabricParams params;
  params.rx_ring_entries = 4;
  Fabric fabric({1, 1}, params);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fabric.try_deliver(1, 0, 0, make_packet(0, static_cast<std::uint32_t>(i))));
  }
  EXPECT_FALSE(fabric.try_deliver(1, 0, 0, make_packet(0, 99)));
  Packet out;
  ASSERT_EQ(fabric.nic(1).context(0).rx().try_pop_n(&out, 1), 1u);
  EXPECT_TRUE(fabric.try_deliver(1, 0, 0, make_packet(0, 99)));
}

TEST(Fabric, EndpointStampsSourceContext) {
  Fabric fabric({3, 3});
  Endpoint ep(fabric, fabric.nic(0).context(2), /*dst=*/1, /*dst_ctx=*/2);
  ASSERT_TRUE(ep.try_send(make_packet(0, 5)));
  Packet out;
  ASSERT_EQ(fabric.nic(1).context(2).rx().try_pop_n(&out, 1), 1u);
  EXPECT_EQ(out.hdr.src_ctx, 2u);
}

TEST(Fabric, SelfDeliveryWorks) {
  Fabric fabric({2});
  ASSERT_TRUE(fabric.try_deliver(0, /*src_rank=*/0, /*src_ctx=*/1, make_packet(0, 3)));
  Packet out;
  ASSERT_EQ(fabric.nic(0).context(1).rx().try_pop_n(&out, 1), 1u);
  EXPECT_EQ(out.hdr.seq, 3u);
}

TEST(Fabric, AsymmetricContextCounts) {
  // 8-context sender talking to a 1-context receiver: everything funnels
  // into ring 0 (the paper's single-instance receiver).
  Fabric fabric({8, 1});
  for (int ctx = 0; ctx < 8; ++ctx) {
    ASSERT_TRUE(fabric.try_deliver(1, 0, ctx, make_packet(0, static_cast<std::uint32_t>(ctx))));
  }
  EXPECT_EQ(fabric.nic(1).context(0).delivered(), 8u);
}

// Steering lets any source context target any destination context, so
// two source streams sharing a lane would give that lane two producers
// under different instance locks. Every (source rank, source context)
// therefore owns its own lane at every destination context: distinct lane
// indices, and a full credit window each — filling one stream's lane
// leaves every other stream's intact.
TEST(Fabric, EveryStreamOwnsItsLane) {
  for (const std::vector<int>& counts : {std::vector<int>{3, 3}, std::vector<int>{4, 2, 1}}) {
    FabricParams params;
    params.rx_ring_entries = 2;
    Fabric fabric(counts, params);
    for (int dst = 0; dst < fabric.num_ranks(); ++dst) {
      for (int j = 0; j < fabric.nic(dst).num_contexts(); ++j) {
        RxQueue& rx = fabric.nic(dst).context(j).rx();
        std::set<std::size_t> lanes;
        int streams = 0;
        for (int src = 0; src < fabric.num_ranks(); ++src) {
          for (int c = 0; c < fabric.nic(src).num_contexts(); ++c, ++streams) {
            const std::size_t lane = rx.lane_for(src, c);
            EXPECT_LT(lane, rx.num_lanes());
            lanes.insert(lane);
            // Through the production handle: fill this stream's window.
            Endpoint ep(fabric, fabric.nic(src).context(c), dst, j);
            for (std::size_t k = 0; k < rx.lane_capacity(); ++k) {
              EXPECT_TRUE(ep.try_send(make_packet(src, static_cast<std::uint32_t>(k))))
                  << "stream (" << src << ", " << c << ") -> (" << dst << ", " << j << ")";
            }
            EXPECT_FALSE(ep.try_send(make_packet(src, 99)));
          }
        }
        EXPECT_EQ(lanes.size(), static_cast<std::size_t>(streams));
        // Every stream's window arrived whole, each from its own source.
        Packet out;
        std::multiset<std::pair<int, int>> seen;
        while (rx.try_pop_n(&out, 1) != 0) seen.emplace(out.hdr.src_rank, out.hdr.src_ctx);
        EXPECT_EQ(seen.size(), static_cast<std::size_t>(streams) * rx.lane_capacity());
        for (int src = 0; src < fabric.num_ranks(); ++src) {
          for (int c = 0; c < fabric.nic(src).num_contexts(); ++c) {
            EXPECT_EQ(seen.count({src, c}), rx.lane_capacity());
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fairmpi::fabric
