// Failure-detector sweep (see include/fairmpi/ft/failure_detector.hpp).
#include "fairmpi/ft/failure_detector.hpp"

#include "fairmpi/common/error.hpp"

namespace fairmpi::ft {

using spc::Counter;

namespace {

// Time elapsed since `then`, saturated at 0. Each progress call reads its
// `now` before it competes for the runner claim, so a sweep can run with an
// earlier time than the sweep before it: unsigned subtraction would wrap to
// ~2^64 and read a live peer as silent.
std::uint64_t since(std::uint64_t now, std::uint64_t then) noexcept {
  return now > then ? now - then : 0;
}

}  // namespace

FailureDetector::FailureDetector(int num_ranks, int self, const FtParams& params,
                                 spc::CounterSet& counters, trace::Tracer& tracer)
    : num_ranks_(num_ranks), self_(self), params_(params), spc_(counters),
      tracer_(tracer), cells_(static_cast<std::size_t>(num_ranks)),
      timing_(static_cast<std::size_t>(num_ranks)) {
  FAIRMPI_CHECK(params.strikes >= 1);
  FAIRMPI_CHECK(params.heartbeat_ns >= 1 && params.suspect_ns >= params.heartbeat_ns);
}

std::uint64_t FailureDetector::poll(std::uint64_t now_ns, std::vector<int>& probes,
                                    std::vector<int>& newly_dead) {
  for (int p = 0; p < num_ranks_; ++p) {
    if (p == self_) continue;
    Cell& cell = cells_[static_cast<std::size_t>(p)].value;
    const PeerState state = cell.state.load(std::memory_order_relaxed);  // ours
    if (state == PeerState::kDead) continue;
    Timing& t = timing_[static_cast<std::size_t>(p)];

    if (cell.heard.exchange(false, std::memory_order_relaxed)) {
      t.last_heard_ns = now_ns;
    } else if (t.last_heard_ns == 0) {
      // Never heard: baseline the silence clock at the first sweep instead
      // of suspecting a peer we never exchanged a packet with.
      t.last_heard_ns = now_ns;
      continue;
    }
    const std::uint64_t silence = since(now_ns, t.last_heard_ns);

    if (silence < params_.suspect_ns) {
      if (state == PeerState::kSuspect) {
        // Recovered: traffic resumed before the strikes ran out.
        cell.state.store(PeerState::kAlive, std::memory_order_release);
        t.strikes = 0;
        int hint = p;
        suspect_hint_.compare_exchange_strong(hint, -1, std::memory_order_relaxed,
                                              std::memory_order_relaxed);
        tracer_.record(trace::Event::kPeerSuspect, static_cast<std::uint32_t>(p), 0);
      }
      // Advertise our own liveness on a sender-side cadence, NOT gated on
      // inbound silence. Receive-gated probing deadlocks symmetric
      // idleness: A's probes keep B's inbound silence low, so B never
      // probes back and A confirms a perfectly live peer dead.
      if (since(now_ns, t.last_probe_ns) >= params_.heartbeat_ns) {
        t.last_probe_ns = now_ns;
        probes.push_back(p);
      }
      continue;
    }

    if (state == PeerState::kAlive) {
      cell.state.store(PeerState::kSuspect, std::memory_order_release);
      t.strikes = 0;
      t.last_strike_ns = now_ns;
      t.last_probe_ns = now_ns;
      spc_.add(Counter::kFtSuspects);
      tracer_.record(trace::Event::kPeerSuspect, static_cast<std::uint32_t>(p), 1);
      suspect_hint_.store(p, std::memory_order_relaxed);
      probes.push_back(p);
      continue;
    }

    // kSuspect: one strike per unanswered probe interval.
    if (since(now_ns, t.last_strike_ns) < params_.heartbeat_ns) continue;
    t.last_strike_ns = now_ns;
    if (++t.strikes < params_.strikes) {
      t.last_probe_ns = now_ns;
      probes.push_back(p);
      continue;
    }

    // Confirmed dead (terminal). Detection latency = last contact to now.
    cell.state.store(PeerState::kDead, std::memory_order_release);
    spc_.add(Counter::kFtDeaths);
    const std::uint64_t ms = silence / 1'000'000;
    int bucket = 0;
    while (bucket < kLatencyBuckets - 1 && ms >= (std::uint64_t{1} << bucket)) ++bucket;
    lat_hist_[static_cast<std::size_t>(bucket)].fetch_add(1, std::memory_order_relaxed);
    tracer_.record(trace::Event::kPeerDead, static_cast<std::uint32_t>(p),
                   static_cast<std::uint32_t>(ms));
    suspect_hint_.store(p, std::memory_order_relaxed);
    newly_dead.push_back(p);
  }
  return now_ns + params_.heartbeat_ns / 2;
}

}  // namespace fairmpi::ft
