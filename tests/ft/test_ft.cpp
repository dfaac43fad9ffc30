// End-to-end failure-tolerance tests (DESIGN.md §5g): heartbeat liveness,
// seeded rank kills with typed propagation into p2p/rendezvous/RMA/
// collectives, communicator revoke/shrink recovery, and the observability
// surface (detection-latency histogram, liveness states, failed-op counts).
//
// Every universe here runs with deliberately aggressive detector knobs so a
// death confirms in well under a millisecond of driven progress; every
// blocking drive is wall-clock bounded, so a regression that reintroduces a
// hang fails the test instead of wedging the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fairmpi/common/timing.hpp"
#include "fairmpi/coll/coll.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/rma/window.hpp"

namespace fairmpi {
namespace {

using common::Error;
using common::ErrorCode;
using spc::Counter;

Config ft_config(int ranks) {
  Config cfg;
  cfg.num_ranks = ranks;
  cfg.ft_enabled = true;
  cfg.reliable = true;  // sends are tracked, so death propagation fails them
  cfg.ft_heartbeat_ns = 50'000;  // probe every 0.05 ms
  cfg.ft_suspect_ns = 200'000;   // suspect after 0.2 ms of silence
  cfg.ft_strikes = 2;            // confirm ~0.3 ms after last contact
  return cfg;
}

/// Drive the given ranks' progress loops until `pred` holds; false on a
/// 5 s wall-clock timeout (the no-hang guard every ft test leans on).
template <typename Pred>
bool drive(Universe& uni, const std::vector<int>& ranks, Pred pred) {
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  while (!pred()) {
    for (const int r : ranks) uni.rank(r).progress();
    if (now_ns() > deadline) return false;
  }
  return true;
}

struct ErrorCapture {
  std::vector<Error> errors;
  Spinlock lock;
  static void sink(const Error& err, void* user) {
    auto* self = static_cast<ErrorCapture*>(user);
    LockGuard guard(self->lock);
    self->errors.push_back(err);
  }
  bool saw(ErrorCode code) {
    LockGuard guard(lock);
    for (const Error& e : errors) {
      if (e.code == code) return true;
    }
    return false;
  }
};

TEST(Ft, DisabledByDefault) {
  Config cfg;
  cfg.num_ranks = 2;
  Universe uni(cfg);
  EXPECT_EQ(uni.rank(0).failure_detector(), nullptr);
  EXPECT_FALSE(uni.rank(0).peer_failed(1));

  std::ostringstream os;
  uni.dump_observability(os);
  EXPECT_NE(os.str().find("\"ft\": null"), std::string::npos);
}

TEST(Ft, IdlePeersStayAliveViaHeartbeats) {
  // No application traffic at all: only the detector's own probes keep the
  // links warm. Gentler knobs than the kill tests so a CI scheduling bubble
  // between two polls cannot fake a full strike cascade.
  Config cfg = ft_config(2);
  cfg.ft_heartbeat_ns = 100'000;
  cfg.ft_suspect_ns = 500'000;
  cfg.ft_strikes = 3;
  Universe uni(cfg);

  const std::uint64_t until = now_ns() + 5'000'000;  // 5 ms of idle driving
  ASSERT_TRUE(drive(uni, {0, 1}, [&] { return now_ns() > until; }));

  for (int r = 0; r < 2; ++r) {
    ft::FailureDetector* det = uni.rank(r).failure_detector();
    ASSERT_NE(det, nullptr);
    EXPECT_EQ(uni.rank(r).counters().get(Counter::kFtDeaths), 0u) << "rank " << r;
    EXPECT_EQ(det->state(1 - r), ft::PeerState::kAlive) << "rank " << r;
    EXPECT_FALSE(uni.rank(r).peer_failed(1 - r));
  }
  const spc::Snapshot total = uni.aggregate_counters();
  EXPECT_GT(total.get(Counter::kFtHeartbeatsSent), 0u);
  EXPECT_GT(total.get(Counter::kFtHeartbeatsReceived), 0u);
}

/// A standalone detector seen from rank 0: probes every 1 µs, suspects
/// after 5 µs of silence, confirms after 3 strikes. Time is poll()'s
/// argument, so these tests neither sleep nor read the clock.
struct Detector {
  static constexpr std::uint64_t kHeartbeat = 1'000;
  static constexpr std::uint64_t kSuspect = 5'000;
  static constexpr std::uint64_t kT0 = 1'000'000'000ULL;

  explicit Detector(int ranks = 2) : det(ranks, 0, params(), counters, tracer) {}
  static ft::FtParams params() {
    ft::FtParams fp;
    fp.heartbeat_ns = kHeartbeat;
    fp.suspect_ns = kSuspect;
    fp.strikes = 3;
    return fp;
  }
  /// One sweep at `now`; its probe targets and confirmations replace the
  /// previous sweep's.
  void poll(std::uint64_t now) {
    probes.clear();
    dead.clear();
    det.poll(now, probes, dead);
  }

  spc::CounterSet counters;
  trace::Tracer tracer;
  ft::FailureDetector det;
  std::vector<int> probes, dead;
};

TEST(Ft, DetectorHeardBetweenSweepsIsAlive) {
  Detector d;
  d.poll(Detector::kT0);
  // Heard once between two sweeps far apart: fresh contact at the second.
  d.det.note_alive(1);
  d.poll(Detector::kT0 + 100 * Detector::kSuspect);
  EXPECT_EQ(d.det.state(1), ft::PeerState::kAlive);
  EXPECT_EQ(d.counters.get(Counter::kFtSuspects), 0u);
  // Unheard for the same stretch, it is suspected.
  d.poll(Detector::kT0 + 200 * Detector::kSuspect);
  EXPECT_EQ(d.det.state(1), ft::PeerState::kSuspect);
  EXPECT_EQ(d.counters.get(Counter::kFtSuspects), 1u);
  EXPECT_EQ(d.det.suspect_hint()->load(), 1);
  // Heard again before the strikes ran out: recovered.
  d.det.note_alive(1);
  d.poll(Detector::kT0 + 200 * Detector::kSuspect + Detector::kHeartbeat);
  EXPECT_EQ(d.det.state(1), ft::PeerState::kAlive);
  EXPECT_EQ(d.det.suspect_hint()->load(), -1);
  EXPECT_FALSE(d.det.is_dead(1));
}

TEST(Ft, DetectorSilenceSuspectsThenConfirmsDead) {
  Detector d;
  d.det.note_alive(1);
  std::uint64_t now = Detector::kT0;
  d.poll(now);
  EXPECT_EQ(d.probes, std::vector<int>{1});  // sender-cadenced probe
  // Silent just short of the threshold: still alive.
  now += Detector::kSuspect - 1;
  d.poll(now);
  EXPECT_EQ(d.det.state(1), ft::PeerState::kAlive);
  // Silent for suspect_ns since the sweep that last heard it: suspect.
  now = Detector::kT0 + Detector::kSuspect;
  d.poll(now);
  EXPECT_EQ(d.det.state(1), ft::PeerState::kSuspect);
  EXPECT_EQ(d.probes, std::vector<int>{1});
  // One strike per unanswered heartbeat interval; the third confirms.
  for (int strike = 1; strike < 3; ++strike) {
    d.poll(now + Detector::kHeartbeat - 1);  // not a full interval yet
    EXPECT_TRUE(d.probes.empty());
    now += Detector::kHeartbeat;
    d.poll(now);
    EXPECT_EQ(d.det.state(1), ft::PeerState::kSuspect) << "strike " << strike;
    EXPECT_TRUE(d.dead.empty());
  }
  now += Detector::kHeartbeat;
  d.poll(now);
  EXPECT_EQ(d.dead, std::vector<int>{1});
  EXPECT_TRUE(d.det.is_dead(1));
  EXPECT_EQ(d.counters.get(Counter::kFtDeaths), 1u);
  // Terminal: traffic from the corpse changes nothing, nothing repeats.
  d.det.note_alive(1);
  d.poll(now + Detector::kHeartbeat);
  EXPECT_TRUE(d.det.is_dead(1));
  EXPECT_TRUE(d.dead.empty());
  EXPECT_TRUE(d.probes.empty());
  EXPECT_EQ(d.counters.get(Counter::kFtDeaths), 1u);
}

TEST(Ft, DetectorBaselinesNeverHeardPeer) {
  Detector d;
  // The first sweep sees a peer it never heard: baselined, not suspected
  // (silence since boot would read as kT0 ns), and not yet probed.
  d.poll(Detector::kT0);
  EXPECT_EQ(d.det.state(1), ft::PeerState::kAlive);
  EXPECT_TRUE(d.probes.empty());
  d.poll(Detector::kT0 + Detector::kHeartbeat);
  EXPECT_EQ(d.probes, std::vector<int>{1});
  EXPECT_EQ(d.det.state(1), ft::PeerState::kAlive);
  // Silence counts from the baseline.
  d.poll(Detector::kT0 + Detector::kSuspect);
  EXPECT_EQ(d.det.state(1), ft::PeerState::kSuspect);
}

TEST(Ft, DetectorStateReadableDuringSweeps) {
  // Readers (send paths, survivors(), dump_observability) and note_alive
  // run on other threads than the sweep; none takes a lock. Peer 1 is
  // never heard and must die; peer 2 is noted concurrently throughout.
  Detector d(3);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    bool saw_dead = false;
    while (!stop.load(std::memory_order_acquire)) {
      const ft::PeerState s = d.det.state(1);
      if (saw_dead) {
        EXPECT_EQ(s, ft::PeerState::kDead);  // terminal
      }
      saw_dead = saw_dead || d.det.is_dead(1);
      (void)d.det.state(2);
      (void)d.det.suspect_hint()->load(std::memory_order_relaxed);
    }
  });
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) d.det.note_alive(2);
  });
  std::uint64_t now = Detector::kT0;
  for (int i = 0; i < 20 && !d.det.is_dead(1); ++i) {
    d.poll(now);
    now += Detector::kHeartbeat;
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  writer.join();
  EXPECT_TRUE(d.det.is_dead(1));
}

TEST(Ft, KilledRankOpsFailTypedWithoutHanging) {
  Universe uni(ft_config(3));
  ErrorCapture cap0;
  ErrorCapture cap1;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &cap0);
  uni.rank(1).set_error_sink(ErrorCapture::sink, &cap1);

  // Outstanding operations toward the victim before it dies: a posted
  // eager receive, an eager send, and a rendezvous send mid-protocol.
  std::uint32_t in = 0;
  Request recv_req;
  uni.rank(0).irecv(kWorldComm, /*src=*/2, /*tag=*/1, &in, sizeof in, recv_req);

  // An eager send completes at injection (fire-and-forget; the tracker owns
  // delivery) — its typed failure must surface through rank 1's error sink
  // when death propagation purges the never-acked tracker entry.
  const std::uint32_t out = 7;
  Request eager_req;
  uni.rank(1).isend(kWorldComm, /*dst=*/2, /*tag=*/2, &out, sizeof out, eager_req);
  EXPECT_TRUE(eager_req.done());

  std::vector<std::byte> big(128 * 1024);  // past eager_limit => rendezvous
  Request rndv_req;
  uni.rank(1).isend(kWorldComm, /*dst=*/2, /*tag=*/3, big.data(), big.size(),
                    rndv_req);

  // Rank 2 dies without ever progressing; only the survivors run. Every
  // outstanding operation must settle AND the purged tracker entries must
  // reach the sink — with zero hangs.
  uni.fabric().injector()->kill_rank(2);
  ASSERT_TRUE(drive(uni, {0, 1}, [&] {
    return recv_req.done() && rndv_req.done() && cap1.saw(ErrorCode::kPeerFailed);
  })) << "an operation toward the dead rank hung instead of failing typed";

  EXPECT_EQ(recv_req.error(), ErrorCode::kPeerFailed);
  EXPECT_EQ(rndv_req.error(), ErrorCode::kPeerFailed);
  EXPECT_TRUE(cap0.saw(ErrorCode::kPeerFailed));
  EXPECT_EQ(uni.rank(1).reliability()->in_flight(), 0u);  // corpse entries purged

  // Both survivors confirmed the death; a fresh send now fails fast.
  EXPECT_TRUE(uni.rank(0).peer_failed(2));
  EXPECT_TRUE(uni.rank(1).peer_failed(2));
  Request late;
  uni.rank(0).isend(kWorldComm, 2, /*tag=*/4, &out, sizeof out, late);
  EXPECT_TRUE(late.done());
  EXPECT_EQ(late.error(), ErrorCode::kPeerFailed);

  const spc::Snapshot total = uni.aggregate_counters();
  EXPECT_GE(total.get(Counter::kFtDeaths), 2u);  // one confirmation per survivor
  EXPECT_GT(total.get(Counter::kFtPeerFailedOps), 0u);

  // The observability snapshot carries the liveness verdicts, the failure
  // counts and the detection-latency histogram.
  std::ostringstream os;
  uni.dump_observability(os);
  const std::string snap = os.str();
  EXPECT_NE(snap.find("\"dead\""), std::string::npos);
  EXPECT_NE(snap.find("\"deaths\": 1"), std::string::npos);
  EXPECT_NE(snap.find("detection_latency_ms_hist"), std::string::npos);
  EXPECT_NE(snap.find("FtPeerFailedOps"), std::string::npos);

  std::uint64_t hist_total = 0;
  for (const std::uint64_t b : uni.rank(0).failure_detector()->latency_hist()) {
    hist_total += b;
  }
  EXPECT_EQ(hist_total, 1u);  // exactly one confirmation recorded on rank 0
}

TEST(Ft, BlockingCollectivesUnblockTyped) {
  Universe uni(ft_config(3));
  uni.fabric().injector()->kill_rank(2);

  // Every survivor's barrier must return a typed failure instead of
  // spinning forever on a partner that will never arrive.
  ErrorCode rc1 = ErrorCode::kOk;
  std::thread t1([&] { rc1 = uni.rank(1).world().barrier_checked(); });
  const ErrorCode rc0 = uni.rank(0).world().barrier_checked();
  t1.join();
  EXPECT_NE(rc0, ErrorCode::kOk);
  EXPECT_NE(rc1, ErrorCode::kOk);

  // Same contract through the coll layer (tree algorithms): the survivor
  // whose tree edge touches the corpse gets the typed code.
  std::uint32_t value = 9;
  const ErrorCode bc = coll::broadcast(uni.rank(0).world(), /*root=*/0, &value, 1);
  EXPECT_EQ(bc, ErrorCode::kPeerFailed);
}

TEST(Ft, RevokeFailsPostedAndFastFailsNewOps) {
  Universe uni(ft_config(2));
  const CommId id = uni.create_communicator();

  std::uint32_t in = 0;
  Request posted;
  uni.rank(1).irecv(id, /*src=*/0, /*tag=*/5, &in, sizeof in, posted);
  ASSERT_FALSE(posted.done());

  uni.revoke(id);
  EXPECT_TRUE(posted.done());
  EXPECT_EQ(posted.error(), ErrorCode::kCommRevoked);

  auto c0 = uni.rank(0).comm(id);
  EXPECT_TRUE(c0.revoked());
  const std::uint32_t out = 1;
  EXPECT_EQ(c0.send_checked(1, /*tag=*/5, &out, sizeof out), ErrorCode::kCommRevoked);
  EXPECT_EQ(c0.barrier_checked(), ErrorCode::kCommRevoked);
  uni.revoke(id);  // idempotent

  EXPECT_GT(uni.aggregate_counters().get(Counter::kFtRevokedOps), 0u);
}

TEST(Ft, ShrinkYieldsWorkingCommunicator) {
  // Roomier knobs than the other kill tests: the cross-thread phase below
  // has windows where only one survivor is scheduled (thread spawn on a
  // sanitizer build can take milliseconds), and a live peer must never be
  // suspected to death while its thread is still being scheduled.
  Config cfg = ft_config(3);
  cfg.ft_heartbeat_ns = 1'000'000;  // 1 ms
  cfg.ft_suspect_ns = 25'000'000;   // 25 ms of silence before suspicion
  cfg.ft_strikes = 3;
  Universe uni(cfg);
  uni.fabric().injector()->kill_rank(2);
  ASSERT_TRUE(drive(uni, {0, 1}, [&] {
    return uni.rank(0).peer_failed(2) && uni.rank(1).peer_failed(2);
  }));

  const std::vector<int> alive = uni.survivors();
  ASSERT_EQ(alive, (std::vector<int>{0, 1}));
  const CommId small = uni.shrink(kWorldComm);

  // Dense group-local numbering on the replacement communicator.
  auto c0 = uni.rank(0).comm(small);
  auto c1 = uni.rank(1).comm(small);
  EXPECT_EQ(c0.rank(), 0);
  EXPECT_EQ(c1.rank(), 1);
  EXPECT_EQ(c0.size(), 2);
  EXPECT_EQ(c1.size(), 2);
  EXPECT_FALSE(c0.revoked());
  auto world0 = uni.rank(0).world();
  EXPECT_TRUE(world0.revoked());  // shrink revoked the old communicator

  // The survivors talk (group-local addressing) and synchronize on it.
  ErrorCode recv_rc = ErrorCode::kOk;
  ErrorCode bar1 = ErrorCode::kPeerFailed;
  Status st{};
  std::uint32_t got = 0;
  std::thread t1([&] {
    recv_rc = c1.recv_checked(/*src=*/0, /*tag=*/6, &got, sizeof got, &st);
    bar1 = c1.barrier_checked();
  });
  const std::uint32_t sent = 0xfeedu;
  const ErrorCode send_rc = c0.send_checked(/*dst=*/1, /*tag=*/6, &sent, sizeof sent);
  const ErrorCode bar0 = c0.barrier_checked();
  t1.join();

  EXPECT_EQ(send_rc, ErrorCode::kOk);
  EXPECT_EQ(recv_rc, ErrorCode::kOk);
  EXPECT_EQ(got, sent);
  EXPECT_EQ(st.source, 0);  // group-local source in the returned status
  EXPECT_EQ(bar0, ErrorCode::kOk);
  EXPECT_EQ(bar1, ErrorCode::kOk);
}

TEST(Ft, RmaToDeadTargetFailsTypedAndFenceEscapes) {
  Universe uni(ft_config(2));
  ErrorCapture cap;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &cap);

  uni.fabric().injector()->kill_rank(1);
  ASSERT_TRUE(drive(uni, {0}, [&] { return uni.rank(0).peer_failed(1); }));

  alignas(8) std::byte mem0[64] = {};
  alignas(8) std::byte mem1[64] = {};
  rma::WindowGroup group(uni, {{mem0, sizeof mem0}, {mem1, sizeof mem1}});
  rma::Window& w0 = group.window(0);

  const std::uint64_t payload = 0xabcdu;
  w0.put(1, 0, &payload, sizeof payload);
  EXPECT_EQ(w0.pending(), 0u);  // failed op never becomes a pending one
  std::uint64_t target_word = 0;
  std::memcpy(&target_word, mem1, sizeof target_word);
  EXPECT_EQ(target_word, 0u);  // no data moved into the corpse's region

  std::uint64_t back = ~0ULL;
  w0.get(1, 0, &back, sizeof back);
  EXPECT_EQ(back, ~0ULL);  // destination untouched on failure
  EXPECT_EQ(w0.fetch_add_u64(1, 0, 5), 0u);

  w0.flush_all();  // must return immediately: nothing pending
  EXPECT_TRUE(cap.saw(ErrorCode::kPeerFailed));
  const std::uint64_t before = uni.rank(0).counters().get(Counter::kFtPeerFailedOps);
  EXPECT_GE(before, 3u);

  // Active-target fence with a dead participant: the arrival spin escapes
  // typed instead of waiting for rank 1 forever.
  w0.fence();
  EXPECT_GT(uni.rank(0).counters().get(Counter::kFtPeerFailedOps), before);

  // A live (self) target still works.
  w0.put(0, 0, &payload, sizeof payload);
  w0.flush_all();
  std::uint64_t self_word = 0;
  std::memcpy(&self_word, mem0, sizeof self_word);
  EXPECT_EQ(self_word, payload);
}

TEST(Ft, MaxRetriesZeroFailsFastTyped) {
  // Fail-fast profile: no retransmits at all. On a fabric that eats every
  // packet the first sweep must fail the send typed — kRetryExhausted
  // through both the request and the error sink — instead of retrying.
  Config cfg;
  cfg.num_ranks = 2;
  cfg.faults.drop = 1.0;
  cfg.max_retries = 0;
  cfg.rto_ns = 50'000;
  Universe uni(cfg);
  ASSERT_TRUE(uni.config().reliable);

  ErrorCapture cap;
  uni.rank(0).set_error_sink(ErrorCapture::sink, &cap);

  // The send itself completes at injection (fire-and-forget); the typed
  // exhaustion is the sink's to deliver, on the very first sweep.
  const std::uint32_t out = 3;
  Request req;
  uni.rank(0).isend(kWorldComm, 1, /*tag=*/0, &out, sizeof out, req);
  ASSERT_TRUE(drive(uni, {0}, [&] { return cap.saw(ErrorCode::kRetryExhausted); }));
  EXPECT_EQ(uni.rank(0).reliability()->in_flight(), 0u);
  EXPECT_EQ(uni.aggregate_counters().get(Counter::kRetransmits), 0u);
  EXPECT_GT(uni.rank(0).counters().get(Counter::kReliabilityErrors), 0u);
}

}  // namespace
}  // namespace fairmpi
