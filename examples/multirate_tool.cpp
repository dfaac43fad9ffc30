// multirate_tool — the Multirate-pairwise benchmark as a standalone CLI
// over the real engine, configured the way a deployment would configure
// fairmpi: every engine knob comes from FAIRMPI_* environment variables
// (the paper's §III-B hint mechanism) or from command-line flags.
//
//   FAIRMPI_NUM_INSTANCES=4 FAIRMPI_ASSIGNMENT=dedicated ...
//   FAIRMPI_PROGRESS=concurrent ...
//   ./build/examples/multirate_tool --pairs 2 --comm-per-pair --duration 0.5
#include <cstdio>

#include "fairmpi/common/cli.hpp"
#include "fairmpi/common/table.hpp"
#include "fairmpi/core/cvar.hpp"
#include "fairmpi/multirate/multirate.hpp"

using namespace fairmpi;
using spc::Counter;

int main(int argc, char** argv) {
  Cli cli("multirate_tool", "Multirate-pairwise message-rate benchmark (real engine)");
  auto& pairs = cli.opt_int("pairs", 2, "communication pairs");
  auto& window = cli.opt_int("window", 128, "outstanding receives per pair");
  auto& bytes = cli.opt_int("bytes", 0, "payload size (0 = envelope only)");
  auto& duration = cli.opt_double("duration", 0.3, "measurement seconds");
  auto& process_mode = cli.opt_flag("process-mode", "pairs of single-threaded ranks");
  auto& comm_per_pair = cli.opt_flag("comm-per-pair", "dedicated communicator per pair");
  auto& any_tag = cli.opt_flag("any-tag", "post receives with the wildcard tag");
  auto& incast = cli.opt_flag("incast",
                              "N senders -> 1 receiver on one stream (worst-case "
                              "matching pressure) instead of pairwise");
  auto& show_cvars = cli.opt_flag("show-cvars", "print the resolved engine knobs");
  auto& trace_out = cli.opt_str("trace-out", "",
                                "write a Chrome/Perfetto trace JSON here "
                                "(pair with FAIRMPI_TRACE=1)");
  auto& obs_out = cli.opt_str("obs-out", "",
                              "write the observability JSON snapshot here "
                              "(pair with FAIRMPI_OBS=1)");
  auto& obs_selfcheck = cli.opt_flag(
      "obs-selfcheck",
      "deterministically contend the hot lock classes before exporting "
      "(for the CI --require-wait gate; 1-core runners cannot rely on "
      "preemption-driven contention)");
  cli.parse(argc, argv);

  multirate::MultirateConfig cfg;
  cfg.engine = config_from_env();  // FAIRMPI_* variables decide the design
  cfg.pairs = static_cast<int>(*pairs);
  cfg.window = static_cast<int>(*window);
  cfg.payload_bytes = static_cast<std::size_t>(*bytes);
  cfg.duration_s = *duration;
  cfg.process_mode = *process_mode;
  cfg.comm_per_pair = *comm_per_pair;
  cfg.any_tag = *any_tag;
  cfg.trace_out = *trace_out;
  cfg.obs_out = *obs_out;
  cfg.obs_selfcheck = *obs_selfcheck;

  if (*show_cvars) {
    std::printf("engine configuration:\n%s\n", list_cvars(cfg.engine).c_str());
  }

  const auto res = *incast ? multirate::run_incast(cfg) : multirate::run_pairwise(cfg);

  Table report({"metric", "value"});
  report.add_row({"message rate", format_si(res.msg_rate) + " msg/s"});
  report.add_row({"messages delivered", std::to_string(res.delivered)});
  report.add_row({"receives failed", std::to_string(res.failed)});
  report.add_row({"measured duration", std::to_string(res.duration_s) + " s"});
  report.add_row({"out-of-sequence",
                  std::to_string(res.receiver_spc.get(Counter::kOutOfSequence))});
  report.add_row({"unexpected messages",
                  std::to_string(res.receiver_spc.get(Counter::kUnexpectedMessages))});
  report.add_row(
      {"match time", format_ns(static_cast<double>(
                         res.receiver_spc.get(Counter::kMatchTimeNs)))});
  report.add_row({"receiver trylock failures",
                  std::to_string(res.receiver_spc.get(Counter::kInstanceTrylockFail))});
  std::puts(report.render().c_str());
  return res.delivered > 0 ? 0 : 1;
}
