// The benchmark's own tests: a corrupted stamp, a skipped sequence number,
// an errored request and a receive that never completes must each count as
// failed, and never as verified. Checked once on the bare checker and once
// through the real engine, with the same settle path the workloads use.
#include <cstdio>
#include <vector>

#include "fairmpi/core/universe.hpp"
#include "spans.hpp"
#include "verify.hpp"

namespace {

int g_failures = 0;

#define EXPECT_EQ(a, b)                                                                  \
  do {                                                                                   \
    const auto va = (a);                                                                 \
    const auto vb = (b);                                                                 \
    if (va != vb) {                                                                      \
      std::fprintf(stderr, "%s:%d: %s == %llu, expected %llu\n", __FILE__, __LINE__, #a, \
                   static_cast<unsigned long long>(va), static_cast<unsigned long long>(vb)); \
      ++g_failures;                                                                      \
    }                                                                                    \
  } while (0)

using perfbench::make_stamp;
using perfbench::StreamCheck;
using perfbench::Tally;

constexpr std::uint64_t kKey = 0x1234'5678'9abc'def0ull;

void settle_ok(StreamCheck& c, Tally& t, std::uint64_t word) {
  c.settle(t, /*done=*/true, /*errored=*/false, sizeof word, false, word);
}

void in_order_stream_verifies() {
  StreamCheck c(kKey, 3);
  Tally t;
  for (std::uint64_t s = 0; s < 100; ++s) settle_ok(c, t, make_stamp(kKey, 3, s));
  EXPECT_EQ(t.attempted, 100u);
  EXPECT_EQ(t.verified, 100u);
  EXPECT_EQ(t.failed(), 0u);
}

void corrupted_stamp_fails() {
  StreamCheck c(kKey, 1);
  Tally t;
  settle_ok(c, t, make_stamp(kKey, 1, 0));
  settle_ok(c, t, make_stamp(kKey, 1, 1) ^ (1ull << 52));  // one flipped stream bit
  settle_ok(c, t, make_stamp(kKey, 1, 2));
  EXPECT_EQ(t.mismatched, 1u);
  EXPECT_EQ(t.verified, 2u);
}

void skipped_sequence_fails() {
  StreamCheck c(kKey, 0);
  Tally t;
  settle_ok(c, t, make_stamp(kKey, 0, 0));
  settle_ok(c, t, make_stamp(kKey, 0, 2));  // 1 never arrived
  settle_ok(c, t, make_stamp(kKey, 0, 3));  // back in step after the gap
  EXPECT_EQ(t.mismatched, 1u);
  EXPECT_EQ(t.verified, 2u);
  // A stamp of another stream (a cross-matched message) fails too.
  settle_ok(c, t, make_stamp(kKey, 1, 4));
  EXPECT_EQ(t.mismatched, 2u);
}

void errored_and_missing_fail() {
  StreamCheck c(kKey, 0);
  Tally t;
  c.settle(t, /*done=*/true, /*errored=*/true, 0, false, 0);
  c.settle(t, /*done=*/false, false, 0, false, 0);
  c.settle(t, true, false, 4, false, make_stamp(kKey, 0, 0));  // short payload
  EXPECT_EQ(t.errored, 1u);
  EXPECT_EQ(t.incomplete, 1u);
  EXPECT_EQ(t.mismatched, 1u);
  EXPECT_EQ(t.verified, 0u);
  EXPECT_EQ(t.failed(), 3u);
}

void put_stamps() {
  std::vector<std::byte> src(512), dst(512);
  Tally t;
  perfbench::stamp_put(src.data(), src.size(), 42);
  dst = src;
  perfbench::check_put(t, dst.data(), dst.size(), 42);
  perfbench::check_put(t, dst.data(), dst.size(), 43);  // stale: last round's data
  perfbench::store_word(dst.data() + dst.size() - 8, 0);  // tail never written
  perfbench::check_put(t, dst.data(), dst.size(), 42);
  std::vector<std::byte> one(8);
  perfbench::stamp_put(one.data(), one.size(), 7);
  perfbench::check_put(t, one.data(), one.size(), 7);
  EXPECT_EQ(t.verified, 2u);
  EXPECT_EQ(t.mismatched, 2u);
}

/// Through the engine: rank 0 sends stamps 0, 1, garbage, 3, 5 on one
/// stream; rank 1 posts six receives and settles them in order. The sixth
/// has no message coming and is cancelled, as the stop watchdog does. A
/// receive on a reserved tag is refused by the engine (a typed error).
void engine_outcomes_are_counted() {
  fairmpi::Config cfg;
  fairmpi::Universe uni(cfg);
  fairmpi::Rank& r0 = uni.rank(0);
  fairmpi::Rank& r1 = uni.rank(1);
  const std::uint64_t words[] = {make_stamp(kKey, 0, 0), make_stamp(kKey, 0, 1),
                                 0xdeadbeefull, make_stamp(kKey, 0, 3),
                                 make_stamp(kKey, 0, 5)};
  for (const std::uint64_t w : words) r0.send(fairmpi::kWorldComm, 1, 9, &w, sizeof w);

  std::vector<fairmpi::Request> reqs(6);
  std::vector<std::uint64_t> buf(6);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    r1.irecv(fairmpi::kWorldComm, 0, 9, &buf[i], sizeof buf[i], reqs[i]);
  }
  for (std::size_t i = 0; i < 5; ++i) r1.wait(reqs[i]);
  (void)r1.progress();
  EXPECT_EQ(reqs[5].done(), false);
  reqs[5].cancel();
  r1.wait(reqs[5]);

  fairmpi::Request refused;
  std::uint64_t sink = 0;
  r1.world().irecv(0, fairmpi::p2p::kReservedTagBase, &sink, sizeof sink, refused);
  r1.wait(refused);

  StreamCheck c(kKey, 0);
  Tally t;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto& q = reqs[i];
    const bool completed = q.done() && q.error() != fairmpi::common::ErrorCode::kCancelled;
    c.settle(t, completed, q.failed(), q.status().size, q.status().truncated, buf[i]);
  }
  c.settle(t, refused.done(), refused.failed(), refused.status().size, false, sink);
  EXPECT_EQ(t.attempted, 7u);
  EXPECT_EQ(t.verified, 3u);    // 0, 1, 3
  EXPECT_EQ(t.mismatched, 2u);  // the garbage word, then 5 in place of 4
  EXPECT_EQ(t.incomplete, 1u);  // the cancelled sixth receive
  EXPECT_EQ(t.errored, 1u);     // the refused receive
}

void histogram_quantiles() {
  perfbench::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  EXPECT_EQ(p50 > 485 && p50 < 515, true);
  EXPECT_EQ(p99 > 960 && p99 < 1020, true);
  EXPECT_EQ(perfbench::Histogram().quantile(0.5) == 0.0, true);
}

}  // namespace

int main() {
  in_order_stream_verifies();
  corrupted_stamp_fails();
  skipped_sequence_fails();
  errored_and_missing_fail();
  put_stamps();
  engine_outcomes_are_counted();
  histogram_quantiles();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
