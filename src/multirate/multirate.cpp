#include "fairmpi/multirate/multirate.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "fairmpi/common/error.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/obs/contention.hpp"

namespace fairmpi::multirate {

namespace {

/// Absolute deadline for a window of receives posted now (0 = none), the
/// same rule the checked ops apply to Config::op_deadline_ns.
std::uint64_t window_deadline(const Config& engine) {
  return engine.op_deadline_ns == 0 ? 0 : now_ns() + engine.op_deadline_ns;
}

/// Tally a completed window: receives that settled with an error are not
/// deliveries.
void tally(const std::vector<Request>& reqs, std::uint64_t& ok, std::uint64_t& failed) {
  for (const Request& r : reqs) ++(r.failed() ? failed : ok);
}

struct PairEndpoints {
  Rank* sender = nullptr;
  Rank* receiver = nullptr;
  int sender_rank_id = 0;  ///< rank id the receiver matches against
  CommId comm = kWorldComm;
  int tag = 0;
};

/// Pin `lock` from a holder thread while `blocked_op` runs on this thread,
/// until the contention profiler has attributed wait time to `cls_name` (or
/// attempts run out — the obs_report.py gate reports the failure). Retries
/// absorb the one unlucky schedule where this thread is descheduled past
/// the whole hold window.
template <typename LockT, typename Op>
void contend_until_attributed(LockT& lock, const char* cls_name, Op blocked_op) {
  for (int attempt = 1; attempt <= 50; ++attempt) {
    std::atomic<bool> held{false};
    std::atomic<bool> entering{false};
    std::thread holder([&] {
      LockGuard pin(lock);
      held.store(true, std::memory_order_release);
      // Start the hold window only once this thread is about to probe the
      // lock, and escalate it per attempt: on a busy 1-core CI machine a
      // concurrent test process can deschedule us for longer than any
      // fixed window between announcing and actually probing.
      while (!entering.load(std::memory_order_acquire)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * attempt));
    });
    while (!held.load(std::memory_order_acquire)) {
    }
    entering.store(true, std::memory_order_release);
    blocked_op();
    holder.join();
    for (const auto& c : obs::contention_snapshot()) {
      if (c.name == cls_name && c.wait_ns > 0) return;
    }
  }
}

/// See MultirateConfig::obs_selfcheck. Runs after the measured workload
/// (its threads are joined), so the holder and this thread are the only
/// actors on the universe.
void obs_selfcheck(Universe& uni) {
  if (!obs::enabled()) return;
  Rank& r0 = uni.rank(0);

  // cri.instance: a sender blocks on its injection instance (Alg. 1 uses
  // LOCK, not TRYLOCK, on the send path). Drain each probe message so the
  // fabric is quiescent again afterwards.
  cri::CriPool& pool = r0.pool();
  cri::CommResourceInstance& inst = pool.instance(pool.id_for_thread());
  constexpr int kSelfcheckTag = (1 << 20) + 0x5e1f;
  char buf[16] = {};
  contend_until_attributed(inst.lock(), "cri.instance", [&] {
    r0.send(kWorldComm, 1, kSelfcheckTag, buf, sizeof buf);
    uni.rank(1).recv(kWorldComm, 0, kSelfcheckTag, buf, sizeof buf);
  });

  // match.engine: any matching diagnostic takes the engine lock blocking.
  match::MatchEngine& me = r0.comm_state(kWorldComm).match();
  contend_until_attributed(me.internal_lock(), "match.engine",
                           [&] { (void)me.unexpected_count(); });
}

/// Write the configured observability artifacts while `uni` is still alive
/// (the trace rings and CRI counters die with it).
void export_observability(const MultirateConfig& cfg, Universe& uni) {
  if (cfg.obs_selfcheck) obs_selfcheck(uni);
  if (!cfg.trace_out.empty()) {
    std::ofstream os(cfg.trace_out);
    FAIRMPI_CHECK_MSG(os.good(), "cannot open multirate trace_out file");
    uni.export_chrome_trace(os);
  }
  if (!cfg.obs_out.empty()) {
    std::ofstream os(cfg.obs_out);
    FAIRMPI_CHECK_MSG(os.good(), "cannot open multirate obs_out file");
    uni.dump_observability(os);
  }
}

}  // namespace

MultirateResult run_pairwise(const MultirateConfig& cfg) {
  FAIRMPI_CHECK(cfg.pairs >= 1);
  FAIRMPI_CHECK(cfg.window >= 1);

  Config engine = cfg.engine;
  engine.num_ranks = cfg.process_mode ? 2 * cfg.pairs : 2;
  if (cfg.process_mode) engine.num_instances = 1;  // one context per process
  engine.max_communicators =
      std::max(engine.max_communicators, cfg.pairs + 2);
  Universe uni(engine);

  std::vector<PairEndpoints> eps(static_cast<std::size_t>(cfg.pairs));
  for (int p = 0; p < cfg.pairs; ++p) {
    auto& ep = eps[static_cast<std::size_t>(p)];
    if (cfg.process_mode) {
      ep.sender = &uni.rank(2 * p);
      ep.receiver = &uni.rank(2 * p + 1);
      ep.sender_rank_id = 2 * p;
      ep.tag = 0;
    } else {
      ep.sender = &uni.rank(0);
      ep.receiver = &uni.rank(1);
      ep.sender_rank_id = 0;
      ep.tag = p;  // pairs share the communicator, distinguished by tag
    }
    ep.comm = (cfg.comm_per_pair && !cfg.process_mode) ? uni.create_communicator()
                                                       : kWorldComm;
  }

  const std::size_t n = cfg.payload_bytes;
  std::vector<std::uint8_t> payload(n ? n : 1, 0xAB);

  std::atomic<bool> timing{false};
  std::atomic<bool> stop{false};
  std::atomic<int> receivers_done{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> failed{0};
  // +1 for the coordinator thread that runs the clock.
  std::barrier sync(cfg.pairs * 2 + 1);

  // Window-credit flow control: the receiver acknowledges every consumed
  // window with a zero-byte message; the sender keeps at most kCredit
  // windows un-acknowledged. This bounds the unexpected-queue backlog while
  // keeping the pipeline full (the ack is 1/window of the traffic).
  constexpr int kCredit = 2;
  constexpr int kAckTagBase = 1 << 20;

  // Ack requests outlive the sender threads: a sender that bails out early
  // (all receivers done) may leave acks posted in the matching engine, and
  // another thread's progress call must not touch freed requests.
  std::vector<std::vector<std::unique_ptr<Request>>> ack_storage(
      static_cast<std::size_t>(cfg.pairs));

  auto sender_fn = [&](int p) {
    const PairEndpoints& ep = eps[static_cast<std::size_t>(p)];
    const int dst = cfg.process_mode ? 2 * p + 1 : 1;
    const int ack_tag = kAckTagBase + ep.tag;
    sync.arrive_and_wait();  // start together
    Request req;
    auto& acks = ack_storage[static_cast<std::size_t>(p)];
    std::size_t next_wait = 0;
    auto all_receivers_done = [&] {
      return receivers_done.load(std::memory_order_acquire) >= cfg.pairs;
    };
    while (!all_receivers_done()) {
      for (int i = 0; i < cfg.window && !all_receivers_done(); ++i) {
        ep.sender->isend(ep.comm, dst, ep.tag, payload.data(), n, req);
      }
      acks.push_back(std::make_unique<Request>());
      ep.sender->irecv(ep.comm, dst, ack_tag, nullptr, 0, *acks.back());
      if (acks.size() - next_wait >= kCredit) {
        Request& pending = *acks[next_wait];
        // The receiver stops acknowledging once stopped; bail out then.
        SpinWait waiter;
        while (!pending.done() && !all_receivers_done()) {
          if (ep.sender->progress() == 0) waiter.pause(); else waiter.reset();
        }
        ++next_wait;
      }
    }
  };

  auto receiver_fn = [&](int p) {
    const PairEndpoints& ep = eps[static_cast<std::size_t>(p)];
    const int src = ep.sender_rank_id;
    const int tag = cfg.any_tag ? kAnyTag : ep.tag;
    const int ack_tag = kAckTagBase + ep.tag;
    std::vector<Request> reqs(static_cast<std::size_t>(cfg.window));
    std::vector<Request*> ptrs;
    ptrs.reserve(reqs.size());
    for (auto& r : reqs) ptrs.push_back(&r);
    std::vector<std::uint8_t> buf((n ? n : 1) * static_cast<std::size_t>(cfg.window));

    sync.arrive_and_wait();
    std::uint64_t my_count = 0;
    std::uint64_t my_failed = 0;
    Request ack;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t deadline = window_deadline(engine);
      for (int i = 0; i < cfg.window; ++i) {
        ep.receiver->irecv(ep.comm, src, tag,
                           buf.data() + static_cast<std::size_t>(i) * (n ? n : 1), n,
                           reqs[static_cast<std::size_t>(i)], deadline);
      }
      ep.receiver->wait_all(ptrs.data(), ptrs.size());
      ep.receiver->isend(ep.comm, src, ack_tag, nullptr, 0, ack);
      if (timing.load(std::memory_order_acquire)) tally(reqs, my_count, my_failed);
    }
    delivered.fetch_add(my_count, std::memory_order_relaxed);
    failed.fetch_add(my_failed, std::memory_order_relaxed);
    receivers_done.fetch_add(1, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.pairs) * 2);
  for (int p = 0; p < cfg.pairs; ++p) threads.emplace_back(receiver_fn, p);
  for (int p = 0; p < cfg.pairs; ++p) threads.emplace_back(sender_fn, p);

  sync.arrive_and_wait();  // release everyone
  // Warmup: let windows cycle before timing.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  spc::Snapshot spc_before;
  for (int p = 0; p < cfg.pairs; ++p) {
    if (!cfg.process_mode && p > 0) break;  // thread mode: one receiver rank
    spc_before.merge(eps[static_cast<std::size_t>(p)].receiver->counters().snapshot());
  }

  const Stopwatch clock;
  timing.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(cfg.duration_s * 1e6)));
  timing.store(false, std::memory_order_release);
  const double elapsed = clock.elapsed_s();
  stop.store(true, std::memory_order_release);

  for (auto& t : threads) t.join();

  spc::Snapshot spc_after;
  for (int p = 0; p < cfg.pairs; ++p) {
    if (!cfg.process_mode && p > 0) break;
    spc_after.merge(eps[static_cast<std::size_t>(p)].receiver->counters().snapshot());
  }

  export_observability(cfg, uni);

  MultirateResult res;
  res.delivered = delivered.load();
  res.failed = failed.load();
  res.duration_s = elapsed;
  res.msg_rate = static_cast<double>(res.delivered) / elapsed;
  res.receiver_spc = spc_after.delta_since(spc_before);
  return res;
}

MultirateResult run_incast(const MultirateConfig& cfg) {
  FAIRMPI_CHECK(cfg.pairs >= 1);
  FAIRMPI_CHECK(cfg.window >= 1);

  Config engine = cfg.engine;
  engine.num_ranks = 2;
  Universe uni(engine);
  Rank& sender_rank = uni.rank(0);
  Rank& receiver_rank = uni.rank(1);
  constexpr int kTag = 3;

  const std::size_t n = cfg.payload_bytes;
  std::vector<std::uint8_t> payload(n ? n : 1, 0xCD);

  std::atomic<bool> timing{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> receiver_done{false};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> failed{0};
  // Aggregate flow control: senders stay at most kMaxInFlight messages
  // ahead of the receiver's consumption, bounding the unexpected-queue
  // backlog (the eager-buffer-limit analog; N free-running senders would
  // otherwise outrun the single receiver without bound).
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> consumed{0};
  const std::uint64_t kMaxInFlight = static_cast<std::uint64_t>(cfg.window) * 8 + 1024;
  std::barrier sync(cfg.pairs + 2);  // senders + receiver + coordinator

  auto sender_fn = [&] {
    sync.arrive_and_wait();
    Request req;
    SpinWait waiter;
    while (!receiver_done.load(std::memory_order_acquire)) {
      if (injected.load(std::memory_order_relaxed) -
              consumed.load(std::memory_order_acquire) >=
          kMaxInFlight) {
        // Throttled: the receiver needs CPU to drain; let it run.
        waiter.pause();
        continue;
      }
      waiter.reset();
      sender_rank.isend(kWorldComm, 1, kTag, payload.data(), n, req);
      injected.fetch_add(1, std::memory_order_relaxed);
    }
  };

  auto receiver_fn = [&] {
    std::vector<Request> reqs(static_cast<std::size_t>(cfg.window));
    std::vector<Request*> ptrs;
    for (auto& r : reqs) ptrs.push_back(&r);
    std::vector<std::uint8_t> buf((n ? n : 1) * static_cast<std::size_t>(cfg.window));
    sync.arrive_and_wait();
    std::uint64_t my_count = 0;
    std::uint64_t my_failed = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t deadline = window_deadline(engine);
      for (int i = 0; i < cfg.window; ++i) {
        receiver_rank.irecv(kWorldComm, 0, kTag,
                            buf.data() + static_cast<std::size_t>(i) * (n ? n : 1), n,
                            reqs[static_cast<std::size_t>(i)], deadline);
      }
      receiver_rank.wait_all(ptrs.data(), ptrs.size());
      // A failed receive consumed no message: it stays in flight.
      std::uint64_t ok = 0;
      std::uint64_t bad = 0;
      tally(reqs, ok, bad);
      consumed.fetch_add(ok, std::memory_order_release);
      if (timing.load(std::memory_order_acquire)) {
        my_count += ok;
        my_failed += bad;
      }
    }
    delivered.store(my_count, std::memory_order_relaxed);
    failed.store(my_failed, std::memory_order_relaxed);
    receiver_done.store(true, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  threads.emplace_back(receiver_fn);
  for (int s = 0; s < cfg.pairs; ++s) threads.emplace_back(sender_fn);

  sync.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const spc::Snapshot before = receiver_rank.counters().snapshot();
  const Stopwatch clock;
  timing.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(cfg.duration_s * 1e6)));
  timing.store(false, std::memory_order_release);
  const double elapsed = clock.elapsed_s();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  export_observability(cfg, uni);

  MultirateResult res;
  res.delivered = delivered.load();
  res.failed = failed.load();
  res.duration_s = elapsed;
  res.msg_rate = static_cast<double>(res.delivered) / elapsed;
  res.receiver_spc = receiver_rank.counters().snapshot().delta_since(before);
  return res;
}

}  // namespace fairmpi::multirate
