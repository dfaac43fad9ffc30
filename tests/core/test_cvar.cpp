// Control-variable (cvar / environment hint) tests.
#include "fairmpi/core/cvar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fairmpi {
namespace {

TEST(Cvar, NumInstances) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "num_instances", "16"));
  EXPECT_EQ(cfg.num_instances, 16);
  EXPECT_FALSE(apply_cvar(cfg, "num_instances", "0"));
  EXPECT_FALSE(apply_cvar(cfg, "num_instances", "many"));
  EXPECT_EQ(cfg.num_instances, 16);  // untouched on failure
}

TEST(Cvar, AssignmentNames) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "assignment", "rr"));
  EXPECT_EQ(cfg.assignment, cri::Assignment::kRoundRobin);
  EXPECT_TRUE(apply_cvar(cfg, "assignment", "dedicated"));
  EXPECT_EQ(cfg.assignment, cri::Assignment::kDedicated);
  EXPECT_TRUE(apply_cvar(cfg, "assignment", "round-robin"));
  EXPECT_EQ(cfg.assignment, cri::Assignment::kRoundRobin);
  EXPECT_FALSE(apply_cvar(cfg, "assignment", "magic"));
}

TEST(Cvar, ProgressMode) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "progress", "concurrent"));
  EXPECT_EQ(cfg.progress_mode, progress::ProgressMode::kConcurrent);
  EXPECT_TRUE(apply_cvar(cfg, "progress", "serial"));
  EXPECT_EQ(cfg.progress_mode, progress::ProgressMode::kSerial);
  EXPECT_FALSE(apply_cvar(cfg, "progress", "psychic"));
}

TEST(Cvar, Booleans) {
  Config cfg;
  for (const char* yes : {"1", "true", "on"}) {
    cfg.allow_overtaking = false;
    EXPECT_TRUE(apply_cvar(cfg, "allow_overtaking", yes));
    EXPECT_TRUE(cfg.allow_overtaking);
  }
  for (const char* no : {"0", "false", "off"}) {
    cfg.allow_overtaking = true;
    EXPECT_TRUE(apply_cvar(cfg, "allow_overtaking", no));
    EXPECT_FALSE(cfg.allow_overtaking);
  }
  EXPECT_FALSE(apply_cvar(cfg, "allow_overtaking", "maybe"));
}

TEST(Cvar, SizesAndLimits) {
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "eager_limit", "4096"));
  EXPECT_EQ(cfg.eager_limit, 4096u);
  EXPECT_TRUE(apply_cvar(cfg, "rndv_frag_bytes", "8192"));
  EXPECT_EQ(cfg.rndv_frag_bytes, 8192u);
  EXPECT_TRUE(apply_cvar(cfg, "rx_ring_entries", "128"));
  EXPECT_EQ(cfg.fabric.rx_ring_entries, 128u);
  EXPECT_TRUE(apply_cvar(cfg, "cq_entries", "64"));
  EXPECT_EQ(cfg.fabric.cq_entries, 64u);
  EXPECT_TRUE(apply_cvar(cfg, "max_communicators", "7"));
  EXPECT_EQ(cfg.max_communicators, 7);
}

TEST(Cvar, UnknownNameRejected) {
  Config cfg;
  EXPECT_FALSE(apply_cvar(cfg, "warp_speed", "9"));
}

TEST(Cvar, ConfigFromEnv) {
  ::setenv("FAIRMPI_NUM_INSTANCES", "12", 1);
  ::setenv("FAIRMPI_ASSIGNMENT", "dedicated", 1);
  ::setenv("FAIRMPI_PROGRESS", "concurrent", 1);
  ::setenv("FAIRMPI_ALLOW_OVERTAKING", "1", 1);
  const Config cfg = config_from_env();
  EXPECT_EQ(cfg.num_instances, 12);
  EXPECT_EQ(cfg.assignment, cri::Assignment::kDedicated);
  EXPECT_EQ(cfg.progress_mode, progress::ProgressMode::kConcurrent);
  EXPECT_TRUE(cfg.allow_overtaking);
  ::unsetenv("FAIRMPI_NUM_INSTANCES");
  ::unsetenv("FAIRMPI_ASSIGNMENT");
  ::unsetenv("FAIRMPI_PROGRESS");
  ::unsetenv("FAIRMPI_ALLOW_OVERTAKING");
}

TEST(Cvar, ConfigFromEnvKeepsBaseWhenUnset) {
  Config base;
  base.num_instances = 5;
  const Config cfg = config_from_env(base);
  EXPECT_EQ(cfg.num_instances, 5);
}

TEST(Cvar, MalformedEnvAborts) {
  ::setenv("FAIRMPI_NUM_INSTANCES", "banana", 1);
  EXPECT_DEATH(config_from_env(), "malformed");
  ::unsetenv("FAIRMPI_NUM_INSTANCES");
}

/// list_cvars as (name, value) pairs, in order.
std::vector<std::pair<std::string, std::string>> listed(const Config& cfg) {
  std::vector<std::pair<std::string, std::string>> rows;
  std::istringstream in(list_cvars(cfg));
  std::string name, eq, value;
  while (in >> name >> eq >> value) {
    EXPECT_EQ(eq, "=") << name;
    rows.emplace_back(name, value);
  }
  return rows;
}

TEST(Cvar, ListContainsEveryKnob) {
  // Every row is listed, in table order, and its printed value parses back
  // through apply_cvar to the same value: from the defaults, and from a
  // Config where every numeric and bool knob is moved off its default.
  const std::vector<CvarInfo> info = cvar_info();
  Config moved;
  for (const CvarInfo& row : info) {
    const char* value = row.type == CvarType::kProbability ? "0.25"
                        : row.type == CvarType::kBool     ? "true"
                        : row.type == CvarType::kEnum     ? nullptr
                                                          : "7";
    if (value != nullptr) {
      ASSERT_TRUE(apply_cvar(moved, row.name, value)) << row.name;
    }
  }
  for (const Config& cfg : {Config{}, moved}) {
    const auto rows = listed(cfg);
    ASSERT_EQ(rows.size(), info.size());
    Config parsed;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].first, info[i].name);
      EXPECT_TRUE(apply_cvar(parsed, rows[i].first, rows[i].second)) << rows[i].first;
    }
    EXPECT_EQ(list_cvars(parsed), list_cvars(cfg));
  }
  EXPECT_EQ(listed(moved)[0], (std::pair<std::string, std::string>{"num_instances", "7"}));
}

TEST(Cvar, IntKnobsRejectOutOfRange) {
  // An int knob used to narrow its u64 parse silently: 2^32 selected
  // max_retries = 0, the fail-fast mode. Above INT_MAX is now a bad value.
  int int_rows = 0;
  for (const CvarInfo& row : cvar_info()) {
    if (row.type != CvarType::kInt) continue;
    ++int_rows;
    Config cfg;
    const std::string before = list_cvars(cfg);
    for (const char* value : {"2147483648", "4294967296", "4294967297", "4294967299",
                              "18446744073709551615"}) {
      EXPECT_FALSE(apply_cvar(cfg, row.name, value)) << row.name << "=" << value;
    }
    EXPECT_EQ(list_cvars(cfg), before) << row.name;
  }
  EXPECT_GE(int_rows, 5);
  Config cfg;
  EXPECT_TRUE(apply_cvar(cfg, "max_retries", "2147483647"));
  EXPECT_EQ(cfg.max_retries, 2147483647);
  // A row's own maximum: a context id must fit the 16-bit src_ctx.
  EXPECT_TRUE(apply_cvar(cfg, "num_instances", "65536"));
  EXPECT_FALSE(apply_cvar(cfg, "num_instances", "65537"));
  EXPECT_EQ(cfg.num_instances, 65536);
  EXPECT_TRUE(apply_cvar(cfg, "fault_seed", "4294967296"));
  EXPECT_EQ(cfg.faults.seed, 4294967296u);
}

TEST(Cvar, OverridesFromEnvReadsOnlyOverrideKnobs) {
  ::setenv("FAIRMPI_NUM_INSTANCES", "12", 1);  // design scope
  ::setenv("FAIRMPI_FAULT_SEED", "99", 1);     // override scope
  const Config cfg = overrides_from_env(Config{});
  EXPECT_EQ(cfg.num_instances, Config{}.num_instances);
  EXPECT_EQ(cfg.faults.seed, 99u);
  EXPECT_EQ(config_from_env().num_instances, 12);
  ::unsetenv("FAIRMPI_NUM_INSTANCES");
  ::unsetenv("FAIRMPI_FAULT_SEED");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// First capture group of every match of `pattern` in `text`.
std::set<std::string> captures(const std::string& text, const std::regex& pattern) {
  std::set<std::string> out;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

TEST(Cvar, CiEnvKeysAreOverrideKnobs) {
  // An unknown FAIRMPI_* variable is ignored, and Universe reads only the
  // override rows: a misspelled or design-scope key in a CI leg's env would
  // silently run that leg on the default design and a pristine fabric.
  const std::string root = FAIRMPI_SOURCE_DIR;
  const std::regex assignment(R"((?:^|[^-\w])FAIRMPI_([A-Z0-9_]+)=)");
  // ci.yml: `env:` keys and inline `FAIRMPI_X=...` (not `-DFAIRMPI_X=`
  // CMake options).
  const std::string ci = read_file(root + "/.github/workflows/ci.yml");
  std::set<std::string> keys = captures(ci, assignment);
  const std::set<std::string> yaml_keys = captures(ci, std::regex(R"(\sFAIRMPI_([A-Z0-9_]+):\s)"));
  // tests/CMakeLists.txt: ENVIRONMENT test properties.
  std::set<std::string> ctest_keys;
  for (const std::string& env : captures(read_file(root + "/tests/CMakeLists.txt"),
                                         std::regex(R"re(ENVIRONMENT\s+"([^"]*)")re"))) {
    const std::set<std::string> k = captures(env, assignment);
    ctest_keys.insert(k.begin(), k.end());
  }
  EXPECT_FALSE(yaml_keys.empty());
  EXPECT_FALSE(ctest_keys.empty());
  keys.insert(yaml_keys.begin(), yaml_keys.end());
  keys.insert(ctest_keys.begin(), ctest_keys.end());
  const std::vector<CvarInfo> info = cvar_info();
  for (std::string key : keys) {
    for (char& c : key) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    const auto row = std::find_if(info.begin(), info.end(),
                                  [&](const CvarInfo& r) { return r.name == key; });
    ASSERT_NE(row, info.end()) << "FAIRMPI_ variable names no control variable: " << key;
    EXPECT_EQ(row->scope, CvarScope::kOverride) << "Universe ignores design knob " << key;
  }
}

}  // namespace
}  // namespace fairmpi
