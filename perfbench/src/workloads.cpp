#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "fairmpi/common/spinlock.hpp"
#include "fairmpi/common/timing.hpp"
#include "fairmpi/common/topology.hpp"
#include "fairmpi/core/universe.hpp"
#include "fairmpi/obs/contention.hpp"
#include "fairmpi/rma/window.hpp"

namespace perfbench {

using fairmpi::CommId;
using fairmpi::Rank;
using fairmpi::Request;
using fairmpi::SpinWait;
using fairmpi::Universe;
using fairmpi::common::ErrorCode;

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;

  Workload shared;
  shared.name = "pairwise_shared";
  shared.engine.num_instances = 1;
  shared.engine.progress_mode = fairmpi::progress::ProgressMode::kSerial;
  ws.push_back(shared);

  Workload split;
  split.name = "pairwise_split";
  split.comm_per_pair = true;
  split.reverse_receivers = true;
  split.engine.num_instances = 2;
  split.engine.progress_mode = fairmpi::progress::ProgressMode::kConcurrent;
  ws.push_back(split);

  Workload rma;
  rma.name = "rma_put_flush";
  rma.kind = Kind::kRma;
  rma.threads = 3;
  rma.engine.num_instances = 3;
  ws.push_back(rma);

  // pairwise_shared traffic with every robustness feature on. Caps and
  // deadline sit far above what a correct run reaches (the credit scheme
  // bounds the unexpected queue near 2 windows), so admission and expiry
  // run on every progress call without ever firing. ft keeps its default
  // timeouts.
  Workload reliable = shared;
  reliable.name = "pairwise_reliable";
  reliable.op_deadline_ns = 2'000'000'000;
  reliable.engine.reliable = true;
  reliable.engine.ft_enabled = true;
  reliable.engine.unexpected_cap = 4096;
  reliable.engine.unexpected_policy = fairmpi::overload::Policy::kQueue;
  reliable.engine.payload_pool_cap_bytes = 64ull << 20;
  reliable.engine.payload_pool_policy = fairmpi::overload::Policy::kQueue;
  reliable.engine.tracker_cap = 4096;
  reliable.engine.tracker_policy = fairmpi::overload::Policy::kQueue;
  reliable.engine.op_deadline_ns = reliable.op_deadline_ns;
  ws.push_back(reliable);

  for (auto& w : ws) w.engine.assignment = fairmpi::cri::Assignment::kDedicated;
  return ws;
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> ws = make_workloads();
  return ws;
}

// ---------------------------------------------------------------- helpers

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

int pin_to(int cpu) {
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0 ? cpu : -1;
}

/// Alg. 1's dedicated claim scan replayed over the first-touch order: the
/// i-th thread to touch a pool takes the first free instance of its own
/// locality domain, else the first free one; past the pool size the
/// binding is round-robin. `cpus` lists the claimants' CPUs in touch order.
std::vector<int> expected_claims(fairmpi::cri::CriPool& pool, const std::vector<int>& cpus) {
  const auto& topo = fairmpi::common::cpu_topology();
  std::vector<bool> taken(static_cast<std::size_t>(pool.size()), false);
  std::vector<int> out;
  for (const int cpu : cpus) {
    const int dom = topo.domain_of(cpu);
    int got = -1;
    for (int pass = 0; pass < 2 && got < 0; ++pass) {
      for (int i = 0; i < pool.size() && got < 0; ++i) {
        const bool own = pool.instance_domain(i) == dom;
        if ((pass == 0) == own && !taken[static_cast<std::size_t>(i)]) got = i;
      }
    }
    if (got >= 0) {
      taken[static_cast<std::size_t>(got)] = true;
    } else if (pool.size() == 1) {
      got = 0;  // round-robin over one instance
    }
    out.push_back(got);
  }
  return out;
}

/// Typed errors the engine reported, by code.
using ErrorCounts = std::array<std::atomic<std::uint64_t>, 32>;

void count_error(const fairmpi::common::Error& err, void* user) {
  auto& counts = *static_cast<ErrorCounts*>(user);
  const std::size_t code = static_cast<std::size_t>(err.code) % counts.size();
  counts[code].fetch_add(1, std::memory_order_relaxed);
}

struct LayerSnap {
  fairmpi::spc::Snapshot spc;
  fairmpi::obs::InstanceUtilization cri;
  std::map<std::string, std::uint64_t> wait;
};

void add_util(fairmpi::obs::InstanceUtilization& a, const fairmpi::obs::InstanceUtilization& b,
              bool subtract) {
  const auto f = [subtract](std::uint64_t& x, std::uint64_t y) { x = subtract ? x - y : x + y; };
  f(a.injections, b.injections);
  f(a.packets_drained, b.packets_drained);
  f(a.completions_drained, b.completions_drained);
  f(a.own_trylock_misses, b.own_trylock_misses);
  f(a.orphan_sweeps, b.orphan_sweeps);
  f(a.drain_visits, b.drain_visits);
  for (std::size_t i = 0; i < a.drain_hist.size(); ++i) f(a.drain_hist[i], b.drain_hist[i]);
  f(a.submit_claimed, b.submit_claimed);
  f(a.submit_doorbells, b.submit_doorbells);
  f(a.submit_cas_retries, b.submit_cas_retries);
  for (std::size_t i = 0; i < a.submit_flush_hist.size(); ++i) {
    f(a.submit_flush_hist[i], b.submit_flush_hist[i]);
  }
}

LayerSnap take_snap(Universe& uni) {
  LayerSnap s;
  s.spc = uni.aggregate_counters();
  for (int r = 0; r < uni.num_ranks(); ++r) {
    auto& pool = uni.rank(r).pool();
    for (int i = 0; i < pool.size(); ++i) {
      add_util(s.cri, pool.instance(i).stats().snapshot(), false);
    }
  }
  for (const auto& c : fairmpi::obs::contention_snapshot()) s.wait[c.name] += c.wait_ns;
  return s;
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9)));
}

/// Batch durations a thread may record: enough for ~250k batches/s,
/// preallocated so recording never reallocates mid-run.
std::size_t batch_capacity(double seconds) {
  return static_cast<std::size_t>(seconds * 250'000.0) + 1024;
}

inline void keep_batch(std::vector<std::uint32_t>& v, std::uint64_t cycles) {
  if (v.size() < v.capacity()) {
    v.push_back(static_cast<std::uint32_t>(cycles_to_ns(static_cast<double>(cycles))));
  }
}

// ------------------------------------------------------------- the session

/// Everything the worker threads share.
struct Shared {
  explicit Shared(int workers) : start(workers + 1) {}
  std::atomic<int> turn{0};
  std::atomic<std::uint64_t> last_touch_ns{0};
  std::atomic<bool> timing{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> abort{false};  ///< stop watchdog fired: leave every wait
  std::atomic<int> exited{0};
  std::barrier<> start;
};

/// Per-thread outputs, written only by the owning thread.
struct Slot {
  ThreadInfo info;
  Tally timed;
  Tally outside;
  std::vector<std::uint32_t> batch_ns;
  /// Receiver window. Owned here, not by the thread, so the stop watchdog
  /// can cancel what is pending while the thread waits on it.
  std::vector<Request> window;
};

/// Window handshake of one pair. The sender alone decides where the run
/// ends: it announces each window before sending it, and on stop publishes
/// the window count instead. A receiver posts window k only once the
/// sender announced it, so every posted receive has a message coming and
/// no message is sent to a receiver that has left.
struct alignas(64) PairGate {
  std::atomic<std::uint32_t> started{0};
  std::atomic<std::uint32_t> total{~0u};
};

struct PairCtx {
  Universe* uni;
  std::vector<CommId> comms;
  std::vector<PairGate>* gates;
  std::uint64_t key;
  std::uint64_t op_deadline_ns;
  Shared* sh;
};

constexpr int kAckTagBase = 1 << 20;

std::uint64_t deadline_from_now(std::uint64_t span) {
  return span == 0 ? 0 : fairmpi::now_ns() + span;
}

/// Wait (progressing) for a window ack; false when the watchdog aborted.
template <class S>
bool await_ack(Rank& r, Request& ack, S& sp, const Shared& sh) {
  sp.begin(Op::kCreditWait);
  SpinWait waiter;
  while (!ack.done() && !sh.abort.load(std::memory_order_relaxed)) {
    sp.begin(Op::kProgress);
    const std::size_t n = r.progress();
    sp.end();
    sp.note_progress(n);
    if (n == 0) waiter.pause(); else waiter.reset();
  }
  sp.end();
  return ack.done();
}

template <class S>
void sender_loop(PairCtx& c, int p, S& sp, Slot& slot) {
  Rank& r = c.uni->rank(0);
  const CommId comm = c.comms[static_cast<std::size_t>(p)];
  PairGate& gate = (*c.gates)[static_cast<std::size_t>(p)];
  const int ack_tag = kAckTagBase + p;
  // Ack k is waited for after window k+1 went out, so three slots cycle.
  std::array<Request, kCreditWindows + 1> acks;
  std::array<bool, kCreditWindows + 1> posted{};
  Request req;
  std::uint64_t seq = 0;
  std::uint64_t word = 0;
  const auto settle_ack = [&](std::size_t i, Tally& t) {
    if (!await_ack(r, acks[i], sp, *c.sh)) return;
    posted[i] = false;
    if (acks[i].failed()) {
      ++t.attempted;
      ++t.errored;
    }
  };
  std::uint32_t k = 0;
  for (;; ++k) {
    if (c.sh->stop.load(std::memory_order_acquire) || c.sh->abort.load(std::memory_order_acquire)) {
      gate.total.store(k, std::memory_order_release);
      break;
    }
    gate.started.store(k + 1, std::memory_order_release);
    const bool timed = c.sh->timing.load(std::memory_order_acquire);
    Tally& t = timed ? slot.timed : slot.outside;
    sp.arm(timed);
    const std::uint64_t deadline = deadline_from_now(c.op_deadline_ns);
    sp.begin_batch(Op::kSendWindow, k);
    for (int i = 0; i < kWindow; ++i) {
      word = make_stamp(c.key, static_cast<std::uint32_t>(p), seq++);
      sp.begin(Op::kIsend);
      r.isend(comm, 1, p, &word, sizeof word, req, deadline);
      sp.end();
      // Eager sends settle inside isend; a failed or unsettled one is a
      // message the receiver will not get.
      if (!req.done() || req.failed()) {
        ++t.attempted;
        ++(req.done() ? t.errored : t.incomplete);
      }
    }
    const std::size_t cur = k % acks.size();
    sp.begin(Op::kIrecv);
    r.irecv(comm, 1, ack_tag, nullptr, 0, acks[cur], deadline);
    sp.end();
    posted[cur] = true;
    if (k >= 1) settle_ack((k - 1) % acks.size(), t);
    sp.end();  // batch
  }
  sp.arm(false);
  if (k >= 1) settle_ack((k - 1) % acks.size(), slot.outside);
  // Only after an abort can acks still be posted: withdraw them.
  for (std::size_t i = 0; i < acks.size(); ++i) {
    if (!posted[i]) continue;
    if (!acks[i].done()) acks[i].cancel();
    r.wait(acks[i]);
    ++slot.outside.attempted;
    ++slot.outside.incomplete;
  }
}

template <class S>
void receiver_loop(PairCtx& c, int p, S& sp, Slot& slot) {
  Rank& r = c.uni->rank(1);
  const CommId comm = c.comms[static_cast<std::size_t>(p)];
  PairGate& gate = (*c.gates)[static_cast<std::size_t>(p)];
  const int ack_tag = kAckTagBase + p;
  std::vector<Request>& reqs = slot.window;
  std::vector<Request*> ptrs;
  for (auto& q : reqs) ptrs.push_back(&q);
  std::vector<std::uint64_t> buf(kWindow);
  StreamCheck check(c.key, static_cast<std::uint32_t>(p));
  Request ack;
  for (std::uint32_t k = 0;; ++k) {
    // Window k exists once announced; a published total <= k ends the run.
    // Progress while waiting, as wait_all would: acks owed to the sender
    // must keep flowing.
    bool announced = false;
    for (SpinWait waiter; !c.sh->abort.load(std::memory_order_relaxed);) {
      if (gate.started.load(std::memory_order_acquire) > k) {
        announced = true;
        break;
      }
      if (gate.total.load(std::memory_order_acquire) <= k) break;
      if (r.progress() == 0) waiter.pause(); else waiter.reset();
    }
    if (!announced) break;
    const bool timed = c.sh->timing.load(std::memory_order_acquire);
    Tally& t = timed ? slot.timed : slot.outside;
    sp.arm(timed);
    const std::uint64_t deadline = deadline_from_now(c.op_deadline_ns);
    const std::uint64_t t0 = fairmpi::CycleClock::now();
    sp.begin_batch(Op::kRecvWindow, k);
    for (int i = 0; i < kWindow; ++i) {
      sp.begin(Op::kIrecv);
      r.irecv(comm, 0, p, &buf[static_cast<std::size_t>(i)], sizeof(std::uint64_t),
              reqs[static_cast<std::size_t>(i)], deadline);
      sp.end();
    }
    sp.begin(Op::kWaitAll);
    r.wait_all(ptrs.data(), ptrs.size());
    sp.end();
    sp.end();  // batch
    if (timed) keep_batch(slot.batch_ns, fairmpi::CycleClock::now() - t0);
    for (int i = 0; i < kWindow; ++i) {
      const Request& q = reqs[static_cast<std::size_t>(i)];
      // Only the stop watchdog cancels: a cancelled receive never completed.
      const bool completed = q.done() && q.error() != ErrorCode::kCancelled;
      check.settle(t, completed, q.failed(), q.status().size, q.status().truncated,
                   buf[static_cast<std::size_t>(i)]);
    }
    sp.begin(Op::kIsend);
    r.isend(comm, 0, ack_tag, nullptr, 0, ack, deadline);
    sp.end();
    if (!ack.done() || ack.failed()) {
      ++t.attempted;
      ++(ack.done() ? t.errored : t.incomplete);
    }
  }
  sp.arm(false);
}

struct RmaCtx {
  fairmpi::rma::WindowGroup* group;
  std::byte* target;
  std::uint64_t key;
  std::uint64_t seed;
  Shared* sh;
};

template <class S>
void initiator_loop(RmaCtx& c, int t_idx, S& sp, Slot& slot) {
  fairmpi::rma::Window& win = c.group->window(0);
  // Put sizes are fixed per (seed, thread) and reused every round.
  static constexpr std::size_t kSizes[] = {8, 64, 512, 4096};
  std::array<std::size_t, kPutsPerRound> size{};
  std::uint64_t x = mix64(c.seed ^ (0x5157ull << 32) ^ static_cast<std::uint64_t>(t_idx));
  for (auto& n : size) {
    x = mix64(x);
    n = kSizes[x & 3];
  }
  const std::size_t region_disp = static_cast<std::size_t>(t_idx) * kPutsPerRound * kPutSlot;
  const std::byte* region = c.target + region_disp;
  alignas(64) std::array<std::byte, kPutSlot> src{};
  for (std::uint32_t round = 0; !c.sh->stop.load(std::memory_order_acquire); ++round) {
    const bool timed = c.sh->timing.load(std::memory_order_acquire);
    sp.arm(timed);
    const std::uint64_t base = static_cast<std::uint64_t>(round) * kPutsPerRound;
    const std::uint64_t t0 = fairmpi::CycleClock::now();
    sp.begin_batch(Op::kRmaRound, round);
    for (int i = 0; i < kPutsPerRound; ++i) {
      const std::size_t n = size[static_cast<std::size_t>(i)];
      stamp_put(src.data(), n, make_stamp(c.key, static_cast<std::uint32_t>(t_idx), base + i));
      sp.begin(Op::kPut);
      win.put(1, region_disp + static_cast<std::size_t>(i) * kPutSlot, src.data(), n);
      sp.end();
    }
    sp.begin(Op::kFlush);
    win.flush(1);
    sp.end();
    sp.end();  // batch
    if (timed) keep_batch(slot.batch_ns, fairmpi::CycleClock::now() - t0);
    Tally& t = timed ? slot.timed : slot.outside;
    for (int i = 0; i < kPutsPerRound; ++i) {
      check_put(t, region + static_cast<std::size_t>(i) * kPutSlot,
                size[static_cast<std::size_t>(i)],
                make_stamp(c.key, static_cast<std::uint32_t>(t_idx), base + i));
    }
  }
  sp.arm(false);
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const auto& w : all_workloads()) out.push_back(w.name);
  return out;
}

SessionResult run_session(const Workload& w, const SessionOptions& opt) {
  SessionResult res;
  const bool measure = opt.seconds > 0;
  const int n = w.threads;
  const int pairs = n / 2;
  const std::uint64_t key = mix64(opt.seed ^ 0x7065726662656e63ull);

  // Thread roles and the first-touch order. Pairwise: senders (rank 0)
  // touch in pair order, then receivers (rank 1) in pair order, or in
  // reverse for reverse_receivers. RMA: initiators in index order.
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  std::vector<int> touch_order;
  if (w.kind == Kind::kPairwise) {
    for (int p = 0; p < pairs; ++p) {
      slots[static_cast<std::size_t>(p)].info = {"sender", 0, p};
      slots[static_cast<std::size_t>(pairs + p)].info = {"receiver", 1, p};
      slots[static_cast<std::size_t>(pairs + p)].window = std::vector<Request>(kWindow);
      touch_order.push_back(p);
    }
    for (int i = 0; i < pairs; ++i) {
      touch_order.push_back(pairs + (w.reverse_receivers ? pairs - 1 - i : i));
    }
  } else {
    for (int t = 0; t < n; ++t) {
      slots[static_cast<std::size_t>(t)].info = {"initiator", 0, t};
      touch_order.push_back(t);
    }
  }
  const std::vector<int> cpus = allowed_cpus();
  std::vector<int> turn_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    turn_of[static_cast<std::size_t>(touch_order[static_cast<std::size_t>(i)])] = i;
    slots[static_cast<std::size_t>(i)].info.cpu =
        cpus.empty() ? -1 : cpus[static_cast<std::size_t>(i) % cpus.size()];
  }

  // Memory the run needs is allocated before the setup clock starts.
  if (measure) {
    for (auto& s : slots) s.batch_ns.reserve(batch_capacity(opt.seconds));
    if (opt.traced) {
      for (int i = 0; i < n; ++i) {
        res.spans.push_back(std::make_unique<SpanLog>(i, opt.span_capacity));
      }
    }
  }
  std::vector<std::byte> target(w.kind == Kind::kRma
                                    ? static_cast<std::size_t>(n) * kPutsPerRound * kPutSlot
                                    : 0);
  std::vector<std::byte> origin(sizeof(std::uint64_t));
  ErrorCounts errors{};
  Shared sh(n);

  fairmpi::Config cfg = w.engine;
  cfg.obs_enabled = opt.traced;

  // ---- setup: Universe construction .. every thread's first engine call
  const std::uint64_t setup_t0 = fairmpi::now_ns();
  auto uni = std::make_unique<Universe>(cfg);
  for (int r = 0; r < uni->num_ranks(); ++r) uni->rank(r).set_error_sink(&count_error, &errors);
  std::vector<PairGate> gates(static_cast<std::size_t>(pairs));
  PairCtx pc{uni.get(), {}, &gates, key, w.op_deadline_ns, &sh};
  std::unique_ptr<fairmpi::rma::WindowGroup> group;
  if (w.kind == Kind::kPairwise) {
    for (int p = 0; p < pairs; ++p) {
      pc.comms.push_back(w.comm_per_pair ? uni->create_communicator() : fairmpi::kWorldComm);
    }
  } else {
    group = std::make_unique<fairmpi::rma::WindowGroup>(
        *uni, std::vector<fairmpi::rma::WindowGroup::Region>{
                  {origin.data(), origin.size()}, {target.data(), target.size()}});
  }
  RmaCtx rc{group.get(), target.data(), key, opt.seed, &sh};

  const auto worker = [&](int i) {
    Slot& slot = slots[static_cast<std::size_t>(i)];
    slot.info.cpu = pin_to(slot.info.cpu);
    Rank& rank = uni->rank(slot.info.rank);
    {
      SpinWait waiter;
      while (sh.turn.load(std::memory_order_acquire) != turn_of[static_cast<std::size_t>(i)]) {
        waiter.pause();
      }
    }
    // First engine call, then the binding it produced (id_for_thread is
    // sticky: it returns the claimed CRI, or claims one in this same turn
    // when the first call did not, as serial progress does not).
    if (w.kind == Kind::kRma) {
      group->window(0).flush(1);
    } else {
      (void)rank.progress();
    }
    slot.info.cri = rank.pool().id_for_thread();
    sh.last_touch_ns.store(fairmpi::now_ns(), std::memory_order_relaxed);
    sh.turn.fetch_add(1, std::memory_order_release);
    sh.start.arrive_and_wait();
    if (!sh.stop.load(std::memory_order_acquire)) {
      const auto body = [&](auto& sp) {
        if (w.kind == Kind::kRma) {
          initiator_loop(rc, slot.info.index, sp, slot);
        } else if (slot.info.role == "sender") {
          sender_loop(pc, slot.info.index, sp, slot);
        } else {
          receiver_loop(pc, slot.info.index, sp, slot);
        }
      };
      if (opt.traced) {
        body(*res.spans[static_cast<std::size_t>(i)]);
      } else {
        NoSpans none;
        body(none);
      }
    }
    sh.exited.fetch_add(1, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) threads.emplace_back(worker, i);
  {
    SpinWait waiter;
    while (sh.turn.load(std::memory_order_acquire) < n) waiter.pause();
  }
  res.setup_s = static_cast<double>(sh.last_touch_ns.load() - setup_t0) * 1e-9;

  // The CRI map the first-touch order must have produced.
  for (int rank = 0; rank < uni->num_ranks(); ++rank) {
    std::vector<int> order_cpus;
    std::vector<int> order_slots;
    for (const int i : touch_order) {
      if (slots[static_cast<std::size_t>(i)].info.rank != rank) continue;
      order_cpus.push_back(slots[static_cast<std::size_t>(i)].info.cpu);
      order_slots.push_back(i);
    }
    const std::vector<int> exp = expected_claims(uni->rank(rank).pool(), order_cpus);
    for (std::size_t j = 0; j < order_slots.size(); ++j) {
      slots[static_cast<std::size_t>(order_slots[j])].info.expected_cri = exp[j];
    }
  }
  for (const auto& s : slots) {
    if (s.info.cri != s.info.expected_cri) res.map_ok = false;
  }
  if (w.kind == Kind::kPairwise) {
    for (int p = 0; p < pairs; ++p) {
      if (slots[static_cast<std::size_t>(p)].info.cri ==
          slots[static_cast<std::size_t>(pairs + p)].info.cri) {
        ++res.aligned_pairs;
      }
    }
  }

  if (!measure) sh.stop.store(true, std::memory_order_release);
  sh.start.arrive_and_wait();
  if (measure) {
    sleep_s(0.2);  // warm-up: windows cycle, caches settle
    const LayerSnap before = take_snap(*uni);
    const std::uint64_t t_start = fairmpi::now_ns();
    sh.timing.store(true, std::memory_order_release);
    sleep_s(opt.seconds);
    sh.timing.store(false, std::memory_order_release);
    const std::uint64_t t_end = fairmpi::now_ns();
    const LayerSnap after = take_snap(*uni);
    sh.stop.store(true, std::memory_order_release);
    res.elapsed_s = static_cast<double>(t_end - t_start) * 1e-9;
    res.spc = after.spc.delta_since(before.spc);
    res.cri_stats = after.cri;
    add_util(res.cri_stats, before.cri, true);
    for (const auto& [name, ns] : after.wait) {
      const auto it = before.wait.find(name);
      res.lock_wait_ns[name] = ns - (it == before.wait.end() ? 0 : it->second);
    }
  }

  // Stop watchdog: a receive that never completes would hold its receiver
  // (and through the credit scheme its sender) forever. Give the run a
  // grace period, then cancel what is still pending and count it as never
  // completed; a thread still stuck after that ends the process.
  const auto wait_exit = [&](double grace_s) {
    const std::uint64_t until = fairmpi::now_ns() + static_cast<std::uint64_t>(grace_s * 1e9);
    while (sh.exited.load(std::memory_order_acquire) < n && fairmpi::now_ns() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return sh.exited.load(std::memory_order_acquire) == n;
  };
  if (!wait_exit(5.0)) {
    res.hung = true;
    sh.abort.store(true, std::memory_order_release);
    for (auto& s : slots) {
      for (auto& q : s.window) {
        if (!q.done()) q.cancel();
      }
    }
    if (!wait_exit(5.0)) {
      std::fprintf(stderr, "perfbench: %s: worker threads did not stop; giving up\n",
                   w.name.c_str());
      std::fflush(stderr);
      std::_Exit(3);
    }
  }
  for (auto& t : threads) t.join();
  group.reset();
  uni.reset();

  for (std::size_t code = 0; code < errors.size(); ++code) {
    if (const std::uint64_t count = errors[code].load()) {
      res.engine_errors[fairmpi::common::error_code_name(static_cast<ErrorCode>(code))] = count;
    }
  }
  for (auto& s : slots) {
    res.tally.merge(s.timed);
    res.outside.merge(s.outside);
    res.batch_ns.insert(res.batch_ns.end(), s.batch_ns.begin(), s.batch_ns.end());
    res.threads.push_back(s.info);
  }
  return res;
}

}  // namespace perfbench
