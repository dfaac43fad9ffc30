#include "fairmpi/core/cvar.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <type_traits>
#include <variant>

#include "fairmpi/common/error.hpp"

namespace fairmpi {

namespace {

template <typename T>
using Ref = T& (*)(Config&);

/// The Config field a row binds; the field's type decides how the value
/// parses and prints. std::uint64_t and std::size_t are one type on LP64
/// Linux but not on every target, so both unsigned 64-bit types are listed.
using Field = std::variant<Ref<unsigned long>, Ref<unsigned long long>, Ref<int>, Ref<bool>,
                           Ref<double>, Ref<overload::Policy>, Ref<cri::Assignment>,
                           Ref<progress::ProgressMode>>;

struct Row {
  std::string_view name;
  CvarScope scope;
  Field field;
  /// Integer rows only: the accepted range, further capped by the field's
  /// type (an int field never takes a value above INT_MAX).
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

constexpr CvarScope kDesign = CvarScope::kDesign;
constexpr CvarScope kOverride = CvarScope::kOverride;

// The one list of control variables, in list_cvars order.
// clang-format off
constexpr Row kRows[] = {
    // A context id must fit the wire header's 16-bit src_ctx.
    {"num_instances", kDesign, +[](Config& c) -> auto& { return c.num_instances; }, 1, 65536},
    {"assignment", kDesign, +[](Config& c) -> auto& { return c.assignment; }},
    {"progress", kDesign, +[](Config& c) -> auto& { return c.progress_mode; }},
    {"allow_overtaking", kDesign, +[](Config& c) -> auto& { return c.allow_overtaking; }},
    {"eager_limit", kDesign, +[](Config& c) -> auto& { return c.eager_limit; }},
    {"rndv_frag_bytes", kDesign, +[](Config& c) -> auto& { return c.rndv_frag_bytes; }, 1},
    {"rx_ring_entries", kDesign, +[](Config& c) -> auto& { return c.fabric.rx_ring_entries; }, 2},
    {"cq_entries", kDesign, +[](Config& c) -> auto& { return c.fabric.cq_entries; }, 2},
    {"max_communicators", kDesign, +[](Config& c) -> auto& { return c.max_communicators; }, 1},
    {"fault_drop", kOverride, +[](Config& c) -> auto& { return c.faults.drop; }},
    {"fault_dup", kOverride, +[](Config& c) -> auto& { return c.faults.dup; }},
    {"fault_delay", kOverride, +[](Config& c) -> auto& { return c.faults.delay; }},
    {"fault_reorder", kOverride, +[](Config& c) -> auto& { return c.faults.reorder; }},
    {"fault_corrupt", kOverride, +[](Config& c) -> auto& { return c.faults.corrupt; }},
    {"fault_seed", kOverride, +[](Config& c) -> auto& { return c.faults.seed; }},
    {"reliable", kOverride, +[](Config& c) -> auto& { return c.reliable; }},
    {"rto_ns", kOverride, +[](Config& c) -> auto& { return c.rto_ns; }, 1},
    {"rto_max_ns", kOverride, +[](Config& c) -> auto& { return c.rto_max_ns; }, 1},
    // 0 is the fail-fast mode: the first unacked rto expiry fails the send
    // typed instead of retransmitting.
    {"max_retries", kOverride, +[](Config& c) -> auto& { return c.max_retries; }},
    {"reliability_window", kOverride, +[](Config& c) -> auto& { return c.reliability_window; }},
    {"send_retry_limit", kOverride, +[](Config& c) -> auto& { return c.send_retry_limit; }, 1},
    {"watchdog_interval_ns", kOverride, +[](Config& c) -> auto& { return c.watchdog_interval_ns; }},
    {"watchdog_stall_sweeps", kOverride, +[](Config& c) -> auto& { return c.watchdog_stall_sweeps; }, 1},
    {"rndv_stall_ns", kOverride, +[](Config& c) -> auto& { return c.rndv_stall_ns; }, 1},
    {"trace", kOverride, +[](Config& c) -> auto& { return c.trace_enabled; }},
    {"trace_entries", kOverride, +[](Config& c) -> auto& { return c.trace_entries; }},
    {"obs", kOverride, +[](Config& c) -> auto& { return c.obs_enabled; }},
    {"ft", kOverride, +[](Config& c) -> auto& { return c.ft_enabled; }},
    {"ft_heartbeat_ns", kOverride, +[](Config& c) -> auto& { return c.ft_heartbeat_ns; }, 1},
    {"ft_suspect_ns", kOverride, +[](Config& c) -> auto& { return c.ft_suspect_ns; }, 1},
    {"ft_strikes", kOverride, +[](Config& c) -> auto& { return c.ft_strikes; }, 1},
    {"unexpected_cap", kOverride, +[](Config& c) -> auto& { return c.unexpected_cap; }},
    {"unexpected_policy", kOverride, +[](Config& c) -> auto& { return c.unexpected_policy; }},
    {"payload_pool_cap", kOverride, +[](Config& c) -> auto& { return c.payload_pool_cap_bytes; }},
    {"payload_pool_policy", kOverride, +[](Config& c) -> auto& { return c.payload_pool_policy; }},
    {"tracker_cap", kOverride, +[](Config& c) -> auto& { return c.tracker_cap; }},
    {"tracker_policy", kOverride, +[](Config& c) -> auto& { return c.tracker_policy; }},
    {"op_deadline_ns", kOverride, +[](Config& c) -> auto& { return c.op_deadline_ns; }},
    {"coll_segment_bytes", kDesign, +[](Config& c) -> auto& { return c.coll_segment_bytes; }},
    {"coll_rsag_min_bytes", kDesign, +[](Config& c) -> auto& { return c.coll_rsag_min_bytes; }},
};
// clang-format on

constexpr std::size_t kMaxNameLen = 32;
static_assert(std::ranges::all_of(kRows,
                                  [](const Row& r) { return r.name.size() <= kMaxNameLen; }));

// An enum row accepts the names its values print as.
const char* value_name(overload::Policy v) { return overload::policy_name(v); }
const char* value_name(cri::Assignment v) { return cri::assignment_name(v); }
const char* value_name(progress::ProgressMode v) { return progress::progress_mode_name(v); }
constexpr std::array<overload::Policy, 2> values_of(overload::Policy) {
  return {overload::Policy::kQueue, overload::Policy::kShed};
}
constexpr std::array<cri::Assignment, 2> values_of(cri::Assignment) {
  return {cri::Assignment::kRoundRobin, cri::Assignment::kDedicated};
}
constexpr std::array<progress::ProgressMode, 2> values_of(progress::ProgressMode) {
  return {progress::ProgressMode::kSerial, progress::ProgressMode::kConcurrent};
}

/// Parse `text` into `out`; `out` is written only on success.
template <typename T>
bool parse(std::string_view text, const Row& row, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    const bool no = text == "0" || text == "false" || text == "off";
    if (!no && text != "1" && text != "true" && text != "on") return false;
    out = !no;
    return true;
  } else if constexpr (std::is_same_v<T, double>) {
    // strtod, not from_chars<double>: "0.01"-style probabilities parse the
    // same on every toolchain.
    char buf[64];
    if (text.empty() || text.size() >= sizeof buf) return false;
    std::memcpy(buf, text.data(), text.size());
    buf[text.size()] = '\0';
    char* end = nullptr;
    const double v = std::strtod(buf, &end);
    if (end != buf + text.size() || !(v >= 0.0 && v <= 1.0)) return false;
    out = v;
    return true;
  } else if constexpr (std::is_enum_v<T>) {
    if constexpr (std::is_same_v<T, cri::Assignment>) {
      if (text == "rr") text = value_name(cri::Assignment::kRoundRobin);
    }
    for (const T v : values_of(T{})) {
      if (text != value_name(v)) continue;
      out = v;
      return true;
    }
    return false;
  } else {
    std::uint64_t u = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), u);
    if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
    const auto type_max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if (u < row.min || u > row.max || u > type_max) return false;
    out = static_cast<T>(u);
    return true;
  }
}

template <typename T>
void print(std::ostream& os, T v) {
  if constexpr (std::is_same_v<T, bool>) {
    os << (v ? "true" : "false");
  } else if constexpr (std::is_enum_v<T>) {
    os << value_name(v);
  } else {
    os << v;
  }
}

template <typename T>
constexpr CvarType type_of(Ref<T>) {
  if constexpr (std::is_same_v<T, bool>) return CvarType::kBool;
  if constexpr (std::is_same_v<T, double>) return CvarType::kProbability;
  if constexpr (std::is_enum_v<T>) return CvarType::kEnum;
  if constexpr (std::is_signed_v<T>) return CvarType::kInt;
  return CvarType::kUnsigned;
}

bool apply_row(const Row& row, Config& cfg, std::string_view value) {
  return std::visit([&](auto ref) { return parse(value, row, ref(cfg)); }, row.field);
}

Config from_env(Config cfg, bool overrides_only) {
  for (const Row& row : kRows) {
    if (overrides_only && row.scope != CvarScope::kOverride) continue;
    char env_name[sizeof "FAIRMPI_" + kMaxNameLen] = "FAIRMPI_";
    char* p = env_name + sizeof "FAIRMPI_" - 1;
    for (const char ch : row.name) {
      *p++ = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    }
    *p = '\0';
    const char* value = std::getenv(env_name);
    if (value == nullptr) continue;
    FAIRMPI_CHECK_MSG(apply_row(row, cfg, value), "malformed FAIRMPI_* variable");
  }
  return cfg;
}

}  // namespace

bool apply_cvar(Config& cfg, std::string_view name, std::string_view value) {
  for (const Row& row : kRows) {
    if (row.name == name) return apply_row(row, cfg, value);
  }
  return false;
}

Config config_from_env(Config base) { return from_env(std::move(base), false); }

Config overrides_from_env(Config base) { return from_env(std::move(base), true); }

std::string list_cvars(const Config& cfg) {
  Config copy = cfg;  // the bindings take a mutable Config; printing only reads
  std::ostringstream os;
  os << std::left;
  for (const Row& row : kRows) {
    os << std::setw(17) << row.name << " = ";
    std::visit([&](auto ref) { print(os, ref(copy)); }, row.field);
    os << '\n';
  }
  return os.str();
}

std::vector<CvarInfo> cvar_info() {
  std::vector<CvarInfo> out;
  out.reserve(std::size(kRows));
  for (const Row& row : kRows) {
    const CvarType type = std::visit([](auto ref) { return type_of(ref); }, row.field);
    out.push_back({row.name, row.scope, type});
  }
  return out;
}

}  // namespace fairmpi
