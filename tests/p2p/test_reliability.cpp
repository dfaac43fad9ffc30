// Unit tests for the ack/retransmit tracker: key round-trips, the
// claim-then-confirm retry accounting (sweeps claim entries; only confirmed
// retransmits charge the budget and back off), and retry exhaustion.
#include "fairmpi/p2p/reliability.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "fairmpi/common/timing.hpp"

namespace fairmpi::p2p {
namespace {

using fabric::Opcode;
using fabric::Packet;

/// The sweep's dead-destination query when no peer has died.
const auto kNoneDead = [](int) { return false; };

Packet make_packet(std::uint32_t seq, std::uint64_t imm = 0,
                   const std::string& payload = "retransmit me") {
  Packet pkt;
  pkt.hdr.opcode = Opcode::kEager;
  pkt.hdr.src_rank = 0;
  pkt.hdr.comm_id = 1;
  pkt.hdr.tag = 3;
  pkt.hdr.seq = seq;
  pkt.hdr.imm = imm;
  pkt.set_payload(payload.data(), payload.size());
  return pkt;
}

TEST(PacketKey, AckEchoRoundTrip) {
  // Build the ack the way Rank::flush_acks does: acked opcode rides in tag,
  // the ack's sender is the original destination.
  const int dst = 5;
  const Packet orig = make_packet(77, 0xabcdef);
  fabric::WireHeader ack;
  ack.opcode = Opcode::kAck;
  ack.src_rank = static_cast<std::uint16_t>(dst);
  ack.comm_id = orig.hdr.comm_id;
  ack.tag = static_cast<std::int32_t>(orig.hdr.opcode);
  ack.seq = orig.hdr.seq;
  ack.imm = orig.hdr.imm;
  EXPECT_EQ(key_of_ack(ack), key_of(dst, orig.hdr));
}

TEST(PacketKey, DistinguishesPacketKinds) {
  Packet eager = make_packet(7);
  Packet rts = make_packet(7);
  rts.hdr.opcode = Opcode::kRndvRts;
  EXPECT_NE(key_of(1, eager.hdr), key_of(1, rts.hdr));   // opcode
  EXPECT_NE(key_of(1, eager.hdr), key_of(2, eager.hdr)); // destination
  Packet frag = make_packet(7, /*imm=*/9);
  EXPECT_NE(key_of(1, eager.hdr), key_of(1, frag.hdr));  // cookie
}

TEST(ReliabilityTracker, AckRetiresEntry) {
  std::atomic<std::uint64_t> due{kNever};
  ReliabilityTracker t(/*rto_ns=*/100, /*rto_max_ns=*/1000, /*max_retries=*/3, &due);
  const Packet pkt = make_packet(1);
  EXPECT_EQ(t.in_flight(), 0u);
  t.track(1, pkt, /*now_ns=*/0);
  EXPECT_EQ(t.in_flight(), 1u);
  EXPECT_EQ(due.load(), 100u);

  EXPECT_TRUE(t.ack(key_of(1, pkt.hdr)));
  EXPECT_EQ(t.in_flight(), 0u);
  // The ack of a duplicate finds nothing and says so.
  EXPECT_FALSE(t.ack(key_of(1, pkt.hdr)));
}

TEST(ReliabilityTracker, UntrackRemovesFailedInjection) {
  ReliabilityTracker t(100, 1000, 3);
  const Packet pkt = make_packet(2);
  t.track(1, pkt, 0);
  t.untrack(key_of(1, pkt.hdr));
  EXPECT_EQ(t.in_flight(), 0u);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(/*now_ns=*/1000, resends, failures, kNoneDead);
  EXPECT_TRUE(resends.empty());
  EXPECT_TRUE(failures.empty());
}

TEST(ReliabilityTracker, SweepClonesExpiredEntries) {
  ReliabilityTracker t(100, 1000, 3);
  const std::string payload(fabric::kInlineBytes + 10, 'r');  // heap payload
  const Packet pkt = make_packet(3, 0, payload);
  t.track(2, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(/*now_ns=*/50, resends, failures, kNoneDead);  // not yet expired
  EXPECT_TRUE(resends.empty());

  t.sweep(/*now_ns=*/150, resends, failures, kNoneDead);
  ASSERT_EQ(resends.size(), 1u);
  EXPECT_EQ(resends[0].dst, 2);
  EXPECT_EQ(resends[0].pkt.hdr.seq, 3u);
  EXPECT_EQ(std::memcmp(resends[0].pkt.payload(), payload.data(), payload.size()), 0);
  EXPECT_TRUE(failures.empty());
}

TEST(ReliabilityTracker, SweepOnlyClaimsNoDoubleClone) {
  ReliabilityTracker t(100, 1000, 3);
  t.track(1, make_packet(4), 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(150, resends, failures, kNoneDead);
  ASSERT_EQ(resends.size(), 1u);

  // The claim pushed the deadline one rto out (150 + 100): an immediate
  // second sweep must not clone the same entry again.
  resends.clear();
  const std::uint64_t next = t.sweep(151, resends, failures, kNoneDead);
  EXPECT_TRUE(resends.empty());
  EXPECT_EQ(next, 250u);
}

TEST(ReliabilityTracker, ConfirmChargesRetryAndBacksOff) {
  ReliabilityTracker t(100, 1000, 3);
  const Packet pkt = make_packet(5);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(150, resends, failures, kNoneDead);
  ASSERT_EQ(resends.size(), 1u);
  t.confirm_retransmit(key, 150);

  // Backoff doubled the rto: the next deadline is 150 + 200.
  resends.clear();
  t.sweep(300, resends, failures, kNoneDead);
  EXPECT_TRUE(resends.empty());
  t.sweep(350, resends, failures, kNoneDead);
  EXPECT_EQ(resends.size(), 1u);
}

TEST(ReliabilityTracker, ConfirmAfterAckIsNoOp) {
  ReliabilityTracker t(100, 1000, 3);
  const Packet pkt = make_packet(6);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);
  EXPECT_TRUE(t.ack(key));
  t.confirm_retransmit(key, 200);  // raced: must not resurrect the entry
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(ReliabilityTracker, RtoBackoffIsBoundedByMax) {
  ReliabilityTracker t(/*rto_ns=*/100, /*rto_max_ns=*/300, /*max_retries=*/10);
  const Packet pkt = make_packet(7);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  std::uint64_t now = 0;
  for (int i = 0; i < 4; ++i) {
    now += 1000;  // comfortably past any deadline
    resends.clear();
    t.sweep(now, resends, failures, kNoneDead);
    ASSERT_EQ(resends.size(), 1u) << "retry " << i;
    t.confirm_retransmit(key, now);
  }
  // rto is now clamped to 300: a sweep 299 past the confirm sees nothing,
  // one at 300 claims.
  resends.clear();
  t.sweep(now + 299, resends, failures, kNoneDead);
  EXPECT_TRUE(resends.empty());
  t.sweep(now + 300, resends, failures, kNoneDead);
  EXPECT_EQ(resends.size(), 1u);
}

TEST(ReliabilityTracker, ExhaustionAfterMaxConfirmedRetries) {
  ReliabilityTracker t(100, 1000, /*max_retries=*/2);
  const Packet pkt = make_packet(8);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  std::uint64_t now = 0;
  for (int i = 0; i < 2; ++i) {
    now += 10000;
    resends.clear();
    t.sweep(now, resends, failures, kNoneDead);
    ASSERT_EQ(resends.size(), 1u);
    ASSERT_TRUE(failures.empty());
    t.confirm_retransmit(key, now);
  }
  // Retry budget spent: the next expiry fails the entry typed and removes it.
  now += 10000;
  resends.clear();
  t.sweep(now, resends, failures, kNoneDead);
  EXPECT_TRUE(resends.empty());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].key, key);
  EXPECT_EQ(failures[0].retries, 2);
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(ReliabilityTracker, UnconfirmedSweepsNeverExhaust) {
  // Ring-full retransmit attempts (sweep claims that were never confirmed)
  // must not burn the retry budget — the backpressure-storm regression.
  ReliabilityTracker t(100, 1000, /*max_retries=*/2);
  t.track(1, make_packet(9), 0);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  std::uint64_t now = 0;
  for (int i = 0; i < 20; ++i) {
    now += 10000;
    resends.clear();
    t.sweep(now, resends, failures, kNoneDead);
    EXPECT_EQ(resends.size(), 1u) << "claim " << i;
    EXPECT_TRUE(failures.empty()) << "claim " << i;
  }
  EXPECT_EQ(t.in_flight(), 1u);  // still tracked, still recoverable
}

TEST(ReliabilityTracker, MaxRetriesZeroFailsFastWithoutResending) {
  // Fail-fast mode: the first unacked rto expiry fails the entry typed and
  // never retransmits. No resend clone may be emitted.
  ReliabilityTracker t(100, 1000, /*max_retries=*/0);
  const Packet pkt = make_packet(11);
  const PacketKey key = key_of(1, pkt.hdr);
  t.track(1, pkt, 0);
  EXPECT_EQ(t.in_flight(), 1u);

  std::vector<ReliabilityTracker::Resend> resends;
  std::vector<ReliabilityTracker::Failure> failures;
  t.sweep(50, resends, failures, kNoneDead);  // deadline (100) not reached yet
  EXPECT_TRUE(resends.empty());
  EXPECT_TRUE(failures.empty());

  t.sweep(200, resends, failures, kNoneDead);
  EXPECT_TRUE(resends.empty());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].key, key);
  EXPECT_EQ(failures[0].retries, 0);
  EXPECT_EQ(failures[0].code, common::ErrorCode::kRetryExhausted);
  EXPECT_EQ(t.in_flight(), 0u);
}

TEST(ReliabilityTracker, FailPeerPurgesTypedAndLatchesDeath) {
  ReliabilityTracker t(100, 1000, /*max_retries=*/2);
  t.track(1, make_packet(1), 0);
  t.track(1, make_packet(2), 0);
  t.track(2, make_packet(3), 0);
  EXPECT_EQ(t.in_flight(), 3u);

  std::vector<ReliabilityTracker::Failure> failures;
  t.fail_peer(1, failures);
  ASSERT_EQ(failures.size(), 2u);
  for (const auto& f : failures) {
    EXPECT_EQ(f.key.peer, 1);
    EXPECT_EQ(f.code, common::ErrorCode::kPeerFailed);
  }
  EXPECT_EQ(t.in_flight(), 1u);  // the peer-2 entry is untouched

  // A track racing the confirmation (registered after fail_peer) is caught
  // by the next sweep regardless of its deadline — no retry budget burned
  // into a dead link. The caller's record of the death (the detector, in a
  // Rank) answers the sweep.
  t.track(1, make_packet(4), 0);
  std::vector<ReliabilityTracker::Resend> resends;
  failures.clear();
  const auto is_dead = [](int peer) { return peer == 1; };
  t.sweep(1, resends, failures, is_dead);  // nothing has expired at now=1
  EXPECT_TRUE(resends.empty());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].code, common::ErrorCode::kPeerFailed);
  EXPECT_EQ(failures[0].key.peer, 1);
  EXPECT_EQ(t.in_flight(), 1u);
}

}  // namespace
}  // namespace fairmpi::p2p
