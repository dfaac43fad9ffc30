// Observability export: Chrome trace-event JSON + the dump_observability
// snapshot (Universe member functions live here so core/ never includes the
// obs headers beyond what cri.hpp already pulls in).
//
// Trace format: the Trace Event Format's JSON-object flavor
// ({"traceEvents":[...]}), readable by chrome://tracing and Perfetto's
// legacy importer (https://ui.perfetto.dev). Mapping:
//
//   rank          -> process (pid), named via "M"/process_name metadata
//   thread slot   -> thread (tid) within the rank's process, named likewise
//   trace::Entry  -> "i" (instant) event, scope "t", args {a, b}
//   kCriDrain     -> additionally an "n" (async instant) event on an async
//                    lane per (rank, instance) — cat "cri", id "<instance>" —
//                    so each CRI renders as its own track of drain activity
//
// Timestamps: trace::Entry records steady-clock ns, shared by all ranks of
// the in-process universe; the exporter rebases to the earliest entry and
// converts to the format's microseconds with 3 decimals, so ns resolution
// survives the JSON round-trip.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fairmpi/core/universe.hpp"
#include "fairmpi/obs/contention.hpp"
#include "fairmpi/trace/trace.hpp"

namespace fairmpi {

namespace {

/// Minimal JSON string escape: the names we emit are static identifiers,
/// but lock-class names come from callers (tests mint their own), so be
/// correct rather than trusting them.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Microsecond timestamp with nanosecond resolution kept as decimals.
void emit_ts(std::ostream& os, std::uint64_t ns_since_t0) {
  os << ns_since_t0 / 1000 << '.';
  const auto frac = static_cast<int>(ns_since_t0 % 1000);
  os << static_cast<char>('0' + frac / 100) << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
}

void emit_spc(std::ostream& os, const spc::Snapshot& snap, const char* indent) {
  os << "{";
  for (int c = 0; c < spc::kNumCounters; ++c) {
    if (c != 0) os << ",";
    os << "\n" << indent << "  \"" << spc::counter_name(static_cast<spc::Counter>(c))
       << "\": " << snap.values[static_cast<std::size_t>(c)];
  }
  os << "\n" << indent << "}";
}

}  // namespace

void Universe::export_chrome_trace(std::ostream& os) const {
  struct RankTrace {
    int rank;
    std::vector<trace::Entry> entries;
  };
  std::vector<RankTrace> traces;
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto& rank : ranks_) {
    RankTrace rt{rank->id(), rank->tracer().snapshot()};
    if (!rt.entries.empty()) t0 = std::min(t0, rt.entries.front().timestamp_ns);
    traces.push_back(std::move(rt));
  }
  if (t0 == ~std::uint64_t{0}) t0 = 0;

  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    if (!first) os << ",";
    first = false;
    return os << "\n ";
  };

  for (const RankTrace& rt : traces) {
    sep() << "{\"ph\":\"M\",\"pid\":" << rt.rank
          << ",\"name\":\"process_name\",\"args\":{\"name\":\"rank " << rt.rank
          << "\"}}";
    // Name each thread track that actually recorded something.
    std::vector<std::uint16_t> tids;
    for (const trace::Entry& e : rt.entries) {
      if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) tids.push_back(e.tid);
    }
    std::sort(tids.begin(), tids.end());
    for (const std::uint16_t tid : tids) {
      sep() << "{\"ph\":\"M\",\"pid\":" << rt.rank << ",\"tid\":" << tid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << (tid == trace::kNoTraceTid ? std::string("unregistered")
                                          : "thread-slot " + std::to_string(tid))
            << "\"}}";
    }
    for (const trace::Entry& e : rt.entries) {
      const std::uint64_t rel = e.timestamp_ns - t0;
      sep() << "{\"ph\":\"i\",\"pid\":" << rt.rank << ",\"tid\":" << e.tid
            << ",\"ts\":";
      emit_ts(os, rel);
      os << ",\"s\":\"t\",\"cat\":\"fairmpi\",\"name\":\"" << trace::event_name(e.event)
         << "\",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b << "}}";
      if (e.event == trace::Event::kCriDrain) {
        // One async lane per (rank, instance): cat+id identify the lane.
        sep() << "{\"ph\":\"n\",\"pid\":" << rt.rank << ",\"tid\":" << e.tid
              << ",\"ts\":";
        emit_ts(os, rel);
        os << ",\"cat\":\"cri\",\"id\":\"cri-" << rt.rank << '.' << e.a
           << "\",\"name\":\"cri " << e.a << " drain\",\"args\":{\"instance\":" << e.a
           << ",\"batch\":" << e.b << "}}";
      }
    }
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

void Universe::dump_observability(std::ostream& os) const {
  os << "{\n";
  os << "  \"obs_enabled\": " << (obs::enabled() ? "true" : "false") << ",\n";
  os << "  \"config\": {\n"
     << "    \"num_ranks\": " << num_ranks() << ",\n"
     << "    \"num_instances\": " << cfg_.num_instances << ",\n"
     << "    \"assignment\": \"" << cri::assignment_name(cfg_.assignment) << "\",\n"
     << "    \"progress\": \"" << progress::progress_mode_name(cfg_.progress_mode)
     << "\",\n"
     << "    \"reliable\": " << (cfg_.reliable ? "true" : "false") << ",\n"
     << "    \"ft\": " << (cfg_.ft_enabled ? "true" : "false") << "\n  },\n";

  // Per-class lock contention. Process-global: a process hosting several
  // universes reports one merged table (lock classes are shared anyway).
  os << "  \"contention\": [";
  const std::vector<obs::ClassContention> classes = obs::contention_snapshot();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const obs::ClassContention& c = classes[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << json_escape(c.name)
       << "\", \"rank\": " << c.rank << ", \"acquires\": " << c.acquires
       << ", \"contended\": " << c.contended << ", \"wait_ns\": " << c.wait_ns
       << ", \"trylock_fails\": " << c.trylock_fails << "}";
  }
  os << "\n  ],\n";

  os << "  \"ranks\": [";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    Rank& rank = *ranks_[r];
    const spc::Snapshot counters = rank.counters().snapshot();
    os << (r == 0 ? "" : ",") << "\n    {\"rank\": " << rank.id()
       << ", \"instances\": [";
    cri::CriPool& pool = rank.pool();
    for (int i = 0; i < pool.size(); ++i) {
      const obs::InstanceUtilization u = pool.instance(i).stats().snapshot();
      os << (i == 0 ? "" : ",") << "\n      {\"id\": " << i
         << ", \"injections\": " << u.injections
         << ", \"packets_drained\": " << u.packets_drained
         << ", \"completions_drained\": " << u.completions_drained
         << ", \"own_trylock_misses\": " << u.own_trylock_misses
         << ", \"orphan_sweeps\": " << u.orphan_sweeps
         << ", \"drain_visits\": " << u.drain_visits << ", \"drain_hist\": [";
      for (int b = 0; b < obs::kDrainHistBuckets; ++b) {
        os << (b == 0 ? "" : ", ") << u.drain_hist[static_cast<std::size_t>(b)];
      }
      os << "]}";
    }
    os << "\n    ], \"ft\": ";
    // Liveness view (null with ft off): this rank's verdict on every peer,
    // its lifetime suspect/death counts, and the detection-latency histogram
    // (bucket i: confirmed < 2^i ms after last contact; last bucket
    // overflows).
    ft::FailureDetector* det = rank.failure_detector();
    if (det == nullptr) {
      os << "null";
    } else {
      os << "{\"peers\": [";
      for (int p = 0; p < num_ranks(); ++p) {
        os << (p == 0 ? "" : ", ") << '"'
           << (p == rank.id() ? "self" : ft::peer_state_name(det->state(p))) << '"';
      }
      os << "], \"suspects\": " << counters.get(spc::Counter::kFtSuspects)
         << ", \"deaths\": " << counters.get(spc::Counter::kFtDeaths)
         << ", \"detection_latency_ms_hist\": [";
      const auto hist = det->latency_hist();
      for (int b = 0; b < ft::FailureDetector::kLatencyBuckets; ++b) {
        os << (b == 0 ? "" : ", ") << hist[static_cast<std::size_t>(b)];
      }
      os << "]}";
    }
    os << ", \"overload\": ";
    // Overload-control view (§5h; null when no cap is configured): the
    // degradation level, latched-paused peer count, and the active limits
    // so a report is self-describing.
    const overload::Governor& gov = rank.governor();
    if (!gov.enabled()) {
      os << "null";
    } else {
      const overload::Limits& lim = gov.limits();
      os << "{\"level\": \"" << overload::level_name(gov.level())
         << "\", \"paused_peers\": " << gov.paused_peers()
         << ", \"unexpected_cap\": " << lim.unexpected_cap
         << ", \"unexpected_policy\": \"" << overload::policy_name(lim.unexpected_policy)
         << "\", \"pool_cap_bytes\": " << lim.pool_cap_bytes
         << ", \"pool_policy\": \"" << overload::policy_name(lim.pool_policy)
         << "\", \"tracker_cap\": " << lim.tracker_cap
         << ", \"tracker_policy\": \"" << overload::policy_name(lim.tracker_policy)
         << "\", \"high_pct\": " << overload::kHighPct << ", \"low_pct\": " << overload::kLowPct
         << "}";
    }
    os << ", \"spc\": ";
    emit_spc(os, counters, "    ");
    os << "}";
  }
  os << "\n  ],\n";

  // Process-global payload-pool accounting (§5h): shared by every rank in
  // the process, so it reports once, not per rank.
  const fabric::PayloadPoolStats pool_stats = fabric::payload_pool_stats();
  os << "  \"payload_pool\": {\"in_use_bytes\": " << pool_stats.in_use_bytes
     << ", \"high_water_bytes\": " << pool_stats.high_water_bytes << "},\n";

  os << "  \"spc_total\": ";
  emit_spc(os, aggregate_counters(), "  ");
  os << "\n}\n";
}

}  // namespace fairmpi
