#include "fairmpi/core/cvar.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "fairmpi/common/error.hpp"

namespace fairmpi {

namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse_prob(std::string_view text, double& out) {
  // from_chars<double> is available on the toolchain, but strtod keeps the
  // parse locale-independent enough for "0.01"-style probabilities.
  char buf[64];
  if (text.empty() || text.size() >= sizeof buf) return false;
  std::memcpy(buf, text.data(), text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + text.size()) return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;
  out = v;
  return true;
}

bool parse_policy(std::string_view text, overload::Policy& out) {
  if (text == "queue") {
    out = overload::Policy::kQueue;
    return true;
  }
  if (text == "shed") {
    out = overload::Policy::kShed;
    return true;
  }
  return false;
}

bool parse_bool(std::string_view text, bool& out) {
  if (text == "0" || text == "false" || text == "off") {
    out = false;
    return true;
  }
  if (text == "1" || text == "true" || text == "on") {
    out = true;
    return true;
  }
  return false;
}

}  // namespace

bool apply_cvar(Config& cfg, std::string_view name, std::string_view value) {
  std::uint64_t u = 0;
  if (name == "num_instances") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.num_instances = static_cast<int>(u);
    return true;
  }
  if (name == "assignment") {
    if (value == "rr" || value == "round-robin") {
      cfg.assignment = cri::Assignment::kRoundRobin;
      return true;
    }
    if (value == "dedicated") {
      cfg.assignment = cri::Assignment::kDedicated;
      return true;
    }
    return false;
  }
  if (name == "progress") {
    if (value == "serial") {
      cfg.progress_mode = progress::ProgressMode::kSerial;
      return true;
    }
    if (value == "concurrent") {
      cfg.progress_mode = progress::ProgressMode::kConcurrent;
      return true;
    }
    return false;
  }
  if (name == "allow_overtaking") {
    return parse_bool(value, cfg.allow_overtaking);
  }
  if (name == "progress_batch") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.progress_batch = static_cast<int>(u);
    return true;
  }
  if (name == "eager_limit") {
    if (!parse_u64(value, u)) return false;
    cfg.eager_limit = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "rndv_frag_bytes") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.rndv_frag_bytes = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "rx_ring_entries") {
    if (!parse_u64(value, u) || u < 2) return false;
    cfg.fabric.rx_ring_entries = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "cq_entries") {
    if (!parse_u64(value, u) || u < 2) return false;
    cfg.fabric.cq_entries = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "max_communicators") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.max_communicators = static_cast<int>(u);
    return true;
  }
  if (name == "fault_drop") return parse_prob(value, cfg.faults.drop);
  if (name == "fault_dup") return parse_prob(value, cfg.faults.dup);
  if (name == "fault_delay") return parse_prob(value, cfg.faults.delay);
  if (name == "fault_reorder") return parse_prob(value, cfg.faults.reorder);
  if (name == "fault_corrupt") return parse_prob(value, cfg.faults.corrupt);
  if (name == "fault_seed") {
    if (!parse_u64(value, u)) return false;
    cfg.faults.seed = u;
    return true;
  }
  if (name == "reliable") {
    return parse_bool(value, cfg.reliable);
  }
  if (name == "rto_ns") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.rto_ns = u;
    return true;
  }
  if (name == "rto_max_ns") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.rto_max_ns = u;
    return true;
  }
  if (name == "max_retries") {
    // 0 is the fail-fast mode: the first unacked rto expiry fails the send
    // typed instead of retransmitting.
    if (!parse_u64(value, u)) return false;
    cfg.max_retries = static_cast<int>(u);
    return true;
  }
  if (name == "reliability_window") {
    if (!parse_u64(value, u)) return false;
    cfg.reliability_window = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "send_retry_limit") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.send_retry_limit = u;
    return true;
  }
  if (name == "watchdog_interval_ns") {
    if (!parse_u64(value, u)) return false;
    cfg.watchdog_interval_ns = u;
    return true;
  }
  if (name == "watchdog_stall_sweeps") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.watchdog_stall_sweeps = static_cast<int>(u);
    return true;
  }
  if (name == "rndv_stall_ns") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.rndv_stall_ns = u;
    return true;
  }
  if (name == "trace") {
    return parse_bool(value, cfg.trace_enabled);
  }
  if (name == "trace_entries") {
    if (!parse_u64(value, u)) return false;
    cfg.trace_entries = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "obs") {
    return parse_bool(value, cfg.obs_enabled);
  }
  if (name == "ft") {
    return parse_bool(value, cfg.ft_enabled);
  }
  if (name == "ft_heartbeat_ns") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.ft_heartbeat_ns = u;
    return true;
  }
  if (name == "ft_suspect_ns") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.ft_suspect_ns = u;
    return true;
  }
  if (name == "ft_strikes") {
    if (!parse_u64(value, u) || u < 1) return false;
    cfg.ft_strikes = static_cast<int>(u);
    return true;
  }
  if (name == "unexpected_cap") {
    if (!parse_u64(value, u)) return false;
    cfg.unexpected_cap = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "unexpected_policy") return parse_policy(value, cfg.unexpected_policy);
  if (name == "payload_pool_cap") {
    if (!parse_u64(value, u)) return false;
    cfg.payload_pool_cap_bytes = u;
    return true;
  }
  if (name == "payload_pool_policy") {
    return parse_policy(value, cfg.payload_pool_policy);
  }
  if (name == "tracker_cap") {
    if (!parse_u64(value, u)) return false;
    cfg.tracker_cap = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "tracker_policy") return parse_policy(value, cfg.tracker_policy);
  if (name == "overload_high_pct") {
    if (!parse_u64(value, u) || u < 1 || u > 100) return false;
    cfg.overload_high_pct = static_cast<int>(u);
    return true;
  }
  if (name == "overload_low_pct") {
    if (!parse_u64(value, u) || u > 100) return false;
    cfg.overload_low_pct = static_cast<int>(u);
    return true;
  }
  if (name == "op_deadline_ns") {
    if (!parse_u64(value, u)) return false;
    cfg.op_deadline_ns = u;
    return true;
  }
  if (name == "coll_segment_bytes") {
    if (!parse_u64(value, u)) return false;
    cfg.coll_segment_bytes = static_cast<std::size_t>(u);
    return true;
  }
  if (name == "coll_rsag_min_bytes") {
    if (!parse_u64(value, u)) return false;
    cfg.coll_rsag_min_bytes = static_cast<std::size_t>(u);
    return true;
  }
  return false;
}

Config config_from_env(Config base) {
  static constexpr const char* kNames[] = {
      "num_instances", "assignment",      "progress",        "allow_overtaking",
      "progress_batch", "eager_limit",    "rndv_frag_bytes", "rx_ring_entries",
      "cq_entries",     "max_communicators",
      "fault_drop",    "fault_dup",       "fault_delay",     "fault_reorder",
      "fault_corrupt", "fault_seed",      "reliable",        "rto_ns",
      "rto_max_ns",    "max_retries",     "reliability_window",
      "send_retry_limit",
      "watchdog_interval_ns", "watchdog_stall_sweeps", "rndv_stall_ns",
      "trace",         "trace_entries",   "obs",
      "ft",            "ft_heartbeat_ns", "ft_suspect_ns",   "ft_strikes",
      "unexpected_cap", "unexpected_policy",
      "payload_pool_cap", "payload_pool_policy",
      "tracker_cap",   "tracker_policy",
      "overload_high_pct", "overload_low_pct", "op_deadline_ns",
      "coll_segment_bytes", "coll_rsag_min_bytes",
  };
  for (const char* name : kNames) {
    std::string env_name = "FAIRMPI_";
    for (const char* p = name; *p != '\0'; ++p) {
      env_name.push_back(*p == '-' ? '_'
                                   : static_cast<char>(std::toupper(
                                         static_cast<unsigned char>(*p))));
    }
    const char* value = std::getenv(env_name.c_str());
    if (value == nullptr) continue;
    FAIRMPI_CHECK_MSG(apply_cvar(base, name, value), "malformed FAIRMPI_* variable");
  }
  return base;
}

std::string list_cvars(const Config& cfg) {
  std::ostringstream os;
  os << "num_instances     = " << cfg.num_instances << '\n'
     << "assignment        = " << cri::assignment_name(cfg.assignment) << '\n'
     << "progress          = " << progress::progress_mode_name(cfg.progress_mode) << '\n'
     << "allow_overtaking  = " << (cfg.allow_overtaking ? "true" : "false") << '\n'
     << "progress_batch    = " << cfg.progress_batch << '\n'
     << "eager_limit       = " << cfg.eager_limit << '\n'
     << "rndv_frag_bytes   = " << cfg.rndv_frag_bytes << '\n'
     << "rx_ring_entries   = " << cfg.fabric.rx_ring_entries << '\n'
     << "cq_entries        = " << cfg.fabric.cq_entries << '\n'
     << "max_communicators = " << cfg.max_communicators << '\n'
     << "fault_drop        = " << cfg.faults.drop << '\n'
     << "fault_dup         = " << cfg.faults.dup << '\n'
     << "fault_delay       = " << cfg.faults.delay << '\n'
     << "fault_reorder     = " << cfg.faults.reorder << '\n'
     << "fault_corrupt     = " << cfg.faults.corrupt << '\n'
     << "fault_seed        = " << cfg.faults.seed << '\n'
     << "reliable          = " << (cfg.reliable ? "true" : "false") << '\n'
     << "rto_ns            = " << cfg.rto_ns << '\n'
     << "rto_max_ns        = " << cfg.rto_max_ns << '\n'
     << "max_retries       = " << cfg.max_retries << '\n'
     << "reliability_window = " << cfg.reliability_window << '\n'
     << "send_retry_limit  = " << cfg.send_retry_limit << '\n'
     << "watchdog_interval_ns  = " << cfg.watchdog_interval_ns << '\n'
     << "watchdog_stall_sweeps = " << cfg.watchdog_stall_sweeps << '\n'
     << "rndv_stall_ns     = " << cfg.rndv_stall_ns << '\n'
     << "trace             = " << (cfg.trace_enabled ? "true" : "false") << '\n'
     << "trace_entries     = " << cfg.trace_entries << '\n'
     << "obs               = " << (cfg.obs_enabled ? "true" : "false") << '\n'
     << "ft                = " << (cfg.ft_enabled ? "true" : "false") << '\n'
     << "ft_heartbeat_ns   = " << cfg.ft_heartbeat_ns << '\n'
     << "ft_suspect_ns     = " << cfg.ft_suspect_ns << '\n'
     << "ft_strikes        = " << cfg.ft_strikes << '\n'
     << "unexpected_cap    = " << cfg.unexpected_cap << '\n'
     << "unexpected_policy = " << overload::policy_name(cfg.unexpected_policy) << '\n'
     << "payload_pool_cap  = " << cfg.payload_pool_cap_bytes << '\n'
     << "payload_pool_policy = " << overload::policy_name(cfg.payload_pool_policy)
     << '\n'
     << "tracker_cap       = " << cfg.tracker_cap << '\n'
     << "tracker_policy    = " << overload::policy_name(cfg.tracker_policy) << '\n'
     << "overload_high_pct = " << cfg.overload_high_pct << '\n'
     << "overload_low_pct  = " << cfg.overload_low_pct << '\n'
     << "op_deadline_ns    = " << cfg.op_deadline_ns << '\n'
     << "coll_segment_bytes = " << cfg.coll_segment_bytes << '\n'
     << "coll_rsag_min_bytes = " << cfg.coll_rsag_min_bytes << '\n';
  return os.str();
}

}  // namespace fairmpi
