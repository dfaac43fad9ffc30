// The benchmark's workloads: closed loops on the real engine, driven only
// through the public Rank / rma::Window API (see README.md for why each
// one is here).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fairmpi/core/config.hpp"
#include "fairmpi/obs/utilization.hpp"
#include "fairmpi/spc/spc.hpp"
#include "spans.hpp"
#include "verify.hpp"

namespace perfbench {

enum class Kind { kPairwise, kRma };

struct Workload {
  std::string name;
  Kind kind = Kind::kPairwise;
  int threads = 4;                 ///< worker threads, pinned one per CPU
  bool comm_per_pair = false;      ///< pairwise: one communicator per pair
  bool reverse_receivers = false;  ///< receivers touch the engine in reverse pair order
  std::uint64_t op_deadline_ns = 0;  ///< pairwise: deadline passed with every op
  fairmpi::Config engine;
};

/// The four named workloads; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Pairwise: messages per receiver window and windows of send credit.
inline constexpr int kWindow = 128;
inline constexpr int kCreditWindows = 2;
/// RMA: puts per round and the largest put (the slot stride).
inline constexpr int kPutsPerRound = 256;
inline constexpr std::size_t kPutSlot = 4096;

/// One worker thread as it came out of setup.
struct ThreadInfo {
  std::string role;  ///< "sender", "receiver" or "initiator"
  int rank = 0;      ///< engine rank the thread drives
  int index = 0;     ///< pair or initiator index
  int cpu = -1;      ///< CPU pinned to (-1: pinning failed)
  int cri = -1;      ///< CRI the thread is bound to
  int expected_cri = -1;  ///< CRI its place in the first-touch order gives it
};

struct SessionOptions {
  std::uint64_t seed = 1;
  double seconds = 1.0;    ///< timed part; 0 = set up, then tear down at once
  bool traced = false;     ///< spans + obs counters
  std::size_t span_capacity = 0;  ///< spans kept per thread when traced
};

struct SessionResult {
  double setup_s = 0;    ///< Universe construction .. every thread's first call
  double elapsed_s = 0;  ///< length of the timed part
  Tally tally;           ///< operations of the timed part
  Tally outside;         ///< operations before/after it (failures still count)
  std::vector<std::uint32_t> batch_ns;  ///< timed batches, all threads
  std::vector<ThreadInfo> threads;
  bool map_ok = true;
  int aligned_pairs = 0;
  std::map<std::string, std::uint64_t> engine_errors;  ///< error-sink reports by code
  bool hung = false;  ///< the run had to cancel receives that never completed

  // Layer counters over the timed part (traced sessions fill the obs ones).
  fairmpi::spc::Snapshot spc;
  fairmpi::obs::InstanceUtilization cri_stats;  ///< summed over every CRI
  std::map<std::string, std::uint64_t> lock_wait_ns;  ///< by lock class
  std::vector<std::unique_ptr<SpanLog>> spans;

  double rate_mops() const {
    return elapsed_s > 0 ? static_cast<double>(tally.verified) / elapsed_s * 1e-6 : 0.0;
  }
};

/// Build the workload's universe, start and pin its threads, let each make
/// its first engine call in the workload's fixed order, then (seconds > 0)
/// warm up, measure for `seconds`, stop, verify and tear down.
SessionResult run_session(const Workload& w, const SessionOptions& opt);

}  // namespace perfbench
