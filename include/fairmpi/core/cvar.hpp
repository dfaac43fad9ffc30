// Control variables: the paper's hint mechanism (§III-B).
//
// "An implementation can provide the user with a way to give a hint via
// environment variable(s), MPI info key(s), or other means (MCA parameters
// for Open MPI or the new MPI control variables MPI_T cvar) to let the
// implementation know how many threads the application intends to use."
//
// fairmpi exposes every Config knob as a named control variable, settable
// programmatically (apply_cvar) or through FAIRMPI_<UPPERCASE_NAME>
// environment variables — so a deployment can switch between the paper's
// designs without recompiling:
//
//   FAIRMPI_NUM_INSTANCES=20 FAIRMPI_ASSIGNMENT=dedicated ...
//   FAIRMPI_PROGRESS=concurrent ./my_app
//
// Every knob is one row of the table in src/core/cvar.cpp: its name, its
// scope, and a typed binding to its Config field with the accepted range.
// `list_cvars` prints every row with its current value; `cvar_info`
// describes every row (name, scope, type) like MPI_T_cvar_get_info. Values
// no caller tunes are constants, not rows: the drain batch
// (ProgressEngine::kMaxDrainBatch) and the overload watermarks
// (overload::kHighPct / kLowPct).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fairmpi/core/config.hpp"

namespace fairmpi {

/// Which environment passes honour a control variable.
enum class CvarScope : std::uint8_t {
  /// Read only by config_from_env: a design a program builds explicitly
  /// (instances, assignment, progress, ring sizes, ...) is never overridden.
  kDesign,
  /// Also read by every Universe over its programmatic Config (fault model,
  /// reliability, watchdog, ft, trace/obs, overload caps), so a CI job can
  /// replay a whole suite under one profile without touching call sites.
  kOverride,
};

/// The value type a control variable parses (integers: decimal; bool:
/// 0|1|true|false|on|off; probability: a real in [0, 1]; enum: one of the
/// value names list_cvars prints).
enum class CvarType : std::uint8_t { kUnsigned, kInt, kBool, kProbability, kEnum };

struct CvarInfo {
  std::string_view name;
  CvarScope scope;
  CvarType type;
};

/// Apply one control variable (case-sensitive name) to a Config. Returns
/// false, leaving cfg untouched, on an unknown name or a value that does not
/// parse or lies outside the knob's range (an int knob never exceeds
/// INT_MAX).
bool apply_cvar(Config& cfg, std::string_view name, std::string_view value);

/// Build a Config from the FAIRMPI_* environment variables of every control
/// variable, starting from `base`. Unset variables keep the base value;
/// malformed values abort (a misspelled deployment knob should be loud).
Config config_from_env(Config base = {});

/// config_from_env restricted to the kOverride rows: the pass every
/// Universe applies to the Config it is given.
Config overrides_from_env(Config base);

/// Every control variable with its current value, one `name = value` line
/// each in table order — the MPI_T-style introspection surface. Each value
/// parses back through apply_cvar.
std::string list_cvars(const Config& cfg);

/// Every control variable, in list_cvars order.
std::vector<CvarInfo> cvar_info();

}  // namespace fairmpi
