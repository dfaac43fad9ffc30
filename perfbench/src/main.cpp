// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 sets the workload up several times (setup_s is the median of
// those set-ups), then measures it in five sessions of S/5 seconds each and
// reports the other end-to-end metrics as medians over the sessions.
// --trace 1 measures S/2 seconds untraced and S/2 seconds traced (spans
// around every public call, obs counters on) and reports the per-layer
// metrics; the spans go to FILE as Chrome trace JSON.
//
// Output: one line per metric ("name value unit"), a "perfbench-record"
// line with the full result and host fingerprint, and last the summary
// object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fingerprint.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Op;
using perfbench::SessionResult;
using fairmpi::spc::Counter;

/// A --trace 0 run: set-up-only sessions, then measured sessions that
/// split the run's seconds between them. setup_s is the median of the
/// set-ups after the warm-up ones: the first few set-ups of a process pay
/// for the allocator growing its heap, and a set-up right after a measured
/// session finds the heap in yet another state, so neither is counted.
constexpr int kSetupWarmups = 10;
constexpr int kSetupTrials = 21;
constexpr int kMeasuredSessions = 5;
/// Spans kept per thread in the traced session (~32 B each).
constexpr std::size_t kSpanCapacity = 1 << 14;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] | --list\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list") {
      for (const auto& n : perfbench::workload_names()) std::printf("%s\n", n.c_str());
      std::exit(0);
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (perfbench::find_workload(a.workload) == nullptr) usage("unknown --workload");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double quantile(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

perfbench::Histogram merged(const SessionResult& s, Op op) {
  perfbench::Histogram h;
  for (const auto& log : s.spans) h.merge(log->hist(op));
  return h;
}

double hist_ns(const SessionResult& s, Op op, double q) {
  return perfbench::cycles_to_ns(merged(s, op).quantile(q));
}

/// Each end-to-end figure is the median over the run's measured sessions
/// (setup_s: over the counted set-ups), so one disturbed session does not
/// move it.
std::vector<Metric> end_to_end(const std::vector<SessionResult>& runs,
                               const std::vector<double>& setup_s) {
  std::vector<double> rate, p50, p99;
  for (const auto& r : runs) {
    rate.push_back(r.rate_mops());
    p50.push_back(quantile(r.batch_ns, 0.50) * 1e-3);
    p99.push_back(quantile(r.batch_ns, 0.99) * 1e-3);
  }
  return {
      {"rate_mops", median(rate), "Mop/s"},
      {"batch_p50_us", median(p50), "us"},
      {"batch_p99_us", median(p99), "us"},
      {"setup_s", median(setup_s), "s"},
  };
}

std::vector<Metric> per_layer(const SessionResult& plain, const SessionResult& t,
                              double failed_ratio) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto g = [&](Counter k) { return d(t.spc.get(k)); };
  const double sent = g(Counter::kMessagesSent);
  const double recvd = g(Counter::kMessagesReceived);
  const double puts = g(Counter::kRmaPuts);
  const double ops = sent + puts;
  const double calls = g(Counter::kProgressCalls);
  const auto& u = t.cri_stats;
  double nonempty = 0;
  for (const auto b : u.drain_hist) nonempty += d(b);
  const auto wait = [&](const char* cls) {
    const auto it = t.lock_wait_ns.find(cls);
    return it == t.lock_wait_ns.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::uint64_t pcalls = 0, pempty = 0, bcyc = 0, bself = 0;
  perfbench::Histogram self;
  for (const auto& log : t.spans) {
    pcalls += log->progress_calls();
    pempty += log->progress_empty();
    bcyc += log->batch_cycles();
    bself += log->batch_self_cycles();
    self.merge(log->batch_self());
  }
  return {
      {"core.isend_ns.p50", hist_ns(t, Op::kIsend, 0.50), "ns"},
      {"core.isend_ns.p99", hist_ns(t, Op::kIsend, 0.99), "ns"},
      {"core.isend_calls", d(merged(t, Op::kIsend).count()), "count"},
      {"core.irecv_ns.p50", hist_ns(t, Op::kIrecv, 0.50), "ns"},
      {"core.irecv_ns.p99", hist_ns(t, Op::kIrecv, 0.99), "ns"},
      {"core.wait_all_ns.p50", hist_ns(t, Op::kWaitAll, 0.50), "ns"},
      {"core.wait_all_ns.p99", hist_ns(t, Op::kWaitAll, 0.99), "ns"},
      {"core.progress_ns.p50", hist_ns(t, Op::kProgress, 0.50), "ns"},
      {"core.progress_calls", d(pcalls), "count"},
      {"core.progress_empty_ratio", ratio(d(pempty), d(pcalls)), "ratio"},
      {"core.credit_wait_ns.p50", hist_ns(t, Op::kCreditWait, 0.50), "ns"},
      {"cri.lock_wait_ns_per_op", ratio(g(Counter::kInstanceLockWaitNs), ops), "ns/op"},
      {"cri.submit_queued_ratio", ratio(g(Counter::kSubmitQueued), ops), "ratio"},
      {"cri.submit_cas_retries_per_op", ratio(g(Counter::kSubmitCasRetries), ops), "1/op"},
      {"cri.submit_ring_full", g(Counter::kSubmitRingFull), "count"},
      {"cri.trylock_fail_per_progress", ratio(g(Counter::kInstanceTrylockFail), calls), "1/call"},
      {"cri.orphan_sweep_ratio", ratio(d(u.orphan_sweeps), d(u.drain_visits)), "ratio"},
      {"cri.drain_batch_mean", ratio(d(u.packets_drained + u.completions_drained), nonempty),
       "count"},
      {"cri.aligned_pairs", static_cast<double>(t.aligned_pairs), "count"},
      {"fabric.backpressure_per_msg", ratio(g(Counter::kSendBackpressure), sent), "1/msg"},
      {"progress.completions_per_call", ratio(g(Counter::kProgressCompletions), calls), "1/call"},
      {"match.time_ns_per_msg", ratio(g(Counter::kMatchTimeNs), recvd), "ns/msg"},
      {"match.attempts_per_msg", ratio(g(Counter::kMatchAttempts), recvd), "1/msg"},
      {"match.oos_ratio", ratio(g(Counter::kOutOfSequence), recvd), "ratio"},
      {"match.oos_peak", g(Counter::kOosBufferPeak), "count"},
      {"match.unexpected_ratio", ratio(g(Counter::kUnexpectedMessages), recvd), "ratio"},
      {"match.posted_depth_mean", ratio(g(Counter::kPostedQueueDepth), recvd), "count"},
      {"obs.lock_wait_ns.match.engine", ratio(wait("match.engine"), recvd), "ns/msg"},
      {"obs.lock_wait_ns.cri.instance", ratio(wait("cri.instance"), ops), "ns/op"},
      {"p2p.acks_per_msg", ratio(g(Counter::kAcksSent), sent), "1/msg"},
      {"p2p.retransmits_per_msg", ratio(g(Counter::kRetransmits), sent), "1/msg"},
      {"p2p.dup_discards", g(Counter::kDupDiscards), "count"},
      {"ft.heartbeats_per_s", ratio(g(Counter::kFtHeartbeatsSent), t.elapsed_s), "1/s"},
      {"ft.suspects", g(Counter::kFtSuspects), "count"},
      {"ft.deaths", g(Counter::kFtDeaths), "count"},
      {"overload.paused_peers", g(Counter::kOverloadPausedPeers), "count"},
      {"overload.level_changes", g(Counter::kOverloadLevelChanges), "count"},
      {"overload.pool_peak_bytes", g(Counter::kOverloadPoolPeak), "bytes"},
      {"rma.put_ns.p50", hist_ns(t, Op::kPut, 0.50), "ns"},
      {"rma.put_ns.p99", hist_ns(t, Op::kPut, 0.99), "ns"},
      {"rma.flush_ns.p50", hist_ns(t, Op::kFlush, 0.50), "ns"},
      {"rma.flush_ns.p99", hist_ns(t, Op::kFlush, 0.99), "ns"},
      {"rma.lock_wait_ns_per_put", ratio(g(Counter::kInstanceLockWaitNs), puts), "ns/put"},
      {"rma.flush_all_busy_ratio", ratio(g(Counter::kRmaFlushAllBusy), g(Counter::kRmaFlushes)),
       "ratio"},
      {"trace.overhead_ratio", ratio(plain.rate_mops(), t.rate_mops()), "ratio"},
      {"trace.unattributed_ratio", ratio(d(bself), d(bcyc)), "ratio"},
      {"trace.batch_self_ns.p50", perfbench::cycles_to_ns(self.quantile(0.5)), "ns"},
      {"failed_ratio", failed_ratio, "ratio"},
  };
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string tally_json(const perfbench::Tally& t) {
  std::ostringstream os;
  os << "{\"attempted\":" << t.attempted << ",\"verified\":" << t.verified
     << ",\"errored\":" << t.errored << ",\"mismatched\":" << t.mismatched
     << ",\"incomplete\":" << t.incomplete << "}";
  return os.str();
}

std::string session_json(const char* label, const SessionResult& s) {
  std::ostringstream os;
  os << "{\"label\":\"" << label << "\",\"setup_s\":" << num(s.setup_s)
     << ",\"elapsed_s\":" << num(s.elapsed_s) << ",\"rate_mops\":" << num(s.rate_mops())
     << ",\"batches\":" << s.batch_ns.size() << ",\"timed\":" << tally_json(s.tally)
     << ",\"outside\":" << tally_json(s.outside) << ",\"engine_errors\":{";
  for (auto it = s.engine_errors.begin(); it != s.engine_errors.end(); ++it) {
    os << (it == s.engine_errors.begin() ? "" : ",") << "\"" << it->first << "\":" << it->second;
  }
  os << "}"
     << ",\"hung\":" << (s.hung ? "true" : "false") << ",\"map_ok\":"
     << (s.map_ok ? "true" : "false") << ",\"aligned_pairs\":" << s.aligned_pairs
     << ",\"threads\":[";
  for (std::size_t i = 0; i < s.threads.size(); ++i) {
    const auto& th = s.threads[i];
    os << (i ? "," : "") << "{\"role\":\"" << th.role << "\",\"rank\":" << th.rank
       << ",\"index\":" << th.index << ",\"cpu\":" << th.cpu << ",\"cri\":" << th.cri
       << ",\"expected_cri\":" << th.expected_cri << "}";
  }
  os << "],\"spc\":{";
  for (int k = 0; k < fairmpi::spc::kNumCounters; ++k) {
    os << (k ? "," : "") << "\"" << fairmpi::spc::counter_name(static_cast<Counter>(k))
       << "\":" << s.spc.values[static_cast<std::size_t>(k)];
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const perfbench::Workload& w = *perfbench::find_workload(args.workload);
  // Calibrate the TSC ratio now, not inside the first timed batch.
  (void)perfbench::cycles_to_ns(1.0);

  std::vector<SessionResult> sessions;  // every session of the run, for the checks
  std::vector<const char*> labels;
  std::vector<double> setup_samples;
  bool setup_maps_ok = true;
  if (args.trace == 0) {
    for (int i = 0; i < kSetupWarmups + kSetupTrials; ++i) {
      const SessionResult s = perfbench::run_session(w, {args.seed, 0, false, 0});
      if (i >= kSetupWarmups) setup_samples.push_back(s.setup_s);
      setup_maps_ok = setup_maps_ok && s.map_ok;
    }
    for (int i = 0; i < kMeasuredSessions; ++i) {
      sessions.push_back(
          perfbench::run_session(w, {args.seed, args.seconds / kMeasuredSessions, false, 0}));
      labels.push_back("measured");
    }
  } else {
    sessions.push_back(perfbench::run_session(w, {args.seed, args.seconds / 2, false, 0}));
    labels.push_back("untraced");
    sessions.push_back(
        perfbench::run_session(w, {args.seed, args.seconds / 2, true, kSpanCapacity}));
    labels.push_back("traced");
    if (!args.spans.empty()) {
      std::ofstream os(args.spans);
      std::vector<const perfbench::SpanLog*> logs;
      for (const auto& log : sessions[1].spans) logs.push_back(log.get());
      perfbench::write_chrome_trace(os, logs, w.name);
      if (!os.good()) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
        return 1;
      }
    }
  }

  // Checks: every operation verified, the CRI map as the first-touch order
  // defines it, and some work actually measured.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = setup_maps_ok;
  std::size_t batches = 0;
  for (const auto& s : sessions) {
    attempted += s.tally.attempted + s.outside.failed();
    failed += s.tally.failed() + s.outside.failed();
    correct = correct && s.map_ok && !s.hung && s.tally.attempted > 0;
    batches += s.batch_ns.size();
  }
  correct = correct && failed == 0;
  const double failed_ratio = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  const std::vector<Metric> metrics = args.trace == 0
                                          ? end_to_end(sessions, setup_samples)
                                          : per_layer(sessions[0], sessions[1], failed_ratio);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  for (const auto& m : metrics) {
    std::printf("  %-32s %14s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
  if (args.trace == 0) {
    std::printf("  %-32s %14s %s\n", "failed_ratio", num(failed_ratio).c_str(), "ratio");
  }
  std::printf("  batches=%zu attempted=%llu failed=%llu correct=%s\n", batches,
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              correct ? "true" : "false");

  std::ostringstream rec;
  rec << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
      << ",\"seconds\":" << num(args.seconds) << ",\"trace\":" << args.trace
      << ",\"fingerprint\":" << perfbench::fingerprint_json() << ",\"setup_samples_s\":[";
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    rec << (i ? "," : "") << num(setup_samples[i]);
  }
  rec << "],\"sessions\":[";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    rec << (i ? "," : "") << session_json(labels[i], sessions[i]);
  }
  rec << "]}";
  std::printf("perfbench-record %s\n", rec.str().c_str());

  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":" << num(metrics[i].value)
        << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
