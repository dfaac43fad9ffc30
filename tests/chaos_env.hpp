// Test helper shared by the suites whose assertions assume the fault and
// timeout profile the test itself configures.
//
// Every Universe applies the FAIRMPI_* override knobs from the environment
// over its programmatic Config, and the CI chaos legs replay the whole
// suite under a lossy fabric profile. A test that pins its own fault model,
// retransmit clock or caps declares a ScopedChaosEnvClear first, so its
// config is authoritative whatever profile ctest runs under.
#pragma once

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace fairmpi {

/// Unsets the chaos/reliability environment for the lifetime of a test and
/// restores it afterwards.
class ScopedChaosEnvClear {
 public:
  ScopedChaosEnvClear() {
    for (const char* name : kVars) {
      const char* value = std::getenv(name);
      saved_.emplace_back(name, value == nullptr ? std::string() : std::string(value));
      if (value != nullptr) ::unsetenv(name);
    }
  }
  ~ScopedChaosEnvClear() {
    for (const auto& [name, value] : saved_) {
      if (!value.empty()) ::setenv(name, value.c_str(), 1);
    }
  }

  ScopedChaosEnvClear(const ScopedChaosEnvClear&) = delete;
  ScopedChaosEnvClear& operator=(const ScopedChaosEnvClear&) = delete;

 private:
  static constexpr const char* kVars[] = {
      "FAIRMPI_FAULT_DROP",           "FAIRMPI_FAULT_DUP",
      "FAIRMPI_FAULT_DELAY",          "FAIRMPI_FAULT_REORDER",
      "FAIRMPI_FAULT_CORRUPT",        "FAIRMPI_FAULT_SEED",
      "FAIRMPI_RELIABLE",             "FAIRMPI_RTO_NS",
      "FAIRMPI_RTO_MAX_NS",           "FAIRMPI_MAX_RETRIES",
      "FAIRMPI_RELIABILITY_WINDOW",   "FAIRMPI_SEND_RETRY_LIMIT",
      "FAIRMPI_WATCHDOG_INTERVAL_NS", "FAIRMPI_WATCHDOG_STALL_SWEEPS",
      "FAIRMPI_RNDV_STALL_NS",        "FAIRMPI_FT",
      "FAIRMPI_FT_HEARTBEAT_NS",      "FAIRMPI_FT_SUSPECT_NS",
      "FAIRMPI_FT_STRIKES",
  };
  std::vector<std::pair<const char*, std::string>> saved_;
};

}  // namespace fairmpi
