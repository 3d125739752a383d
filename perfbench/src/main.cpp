// perfbench: the rtdls performance ledger binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--smoke] [--plant wrong_reply|violation]
//
// Runs one workload against the public librtdls APIs, checks its outputs,
// and prints one line per metric followed by the result object as the last
// line of stdout. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics (see README.md for what each one means and moves).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/log.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

const std::vector<std::string> kEndToEnd = {
    "setup_s",          "tasks_per_s",       "arrival_p50_us",    "arrival_p99_us",
    "history_slowdown", "peak_rss_mb",       "reject_ratio",      "success_ratio",
    "admit_p50_us.low", "admit_p99_us.low",  "admit_p50_us.high", "admit_p99_us.high",
    "max_rate_rps",
};

/// Per-layer metrics with the unit each takes; a workload that does not
/// exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"sched.admit_test_us.p50", "us"},
    {"sched.admit_test_us.p99", "us"},
    {"sched.resolver_positions_per_walk", "ratio"},
    {"sched.batch_passes_per_arrival", "ratio"},
    {"sched.session_rebuilds_per_arrival", "ratio"},
    {"sched.delta_replays_per_arrival", "ratio"},
    {"sched.session_peak_bytes", "bytes"},
    {"sched.bf_fixed_point_iterations_per_arrival", "ratio"},
    {"sim.commit_self_us", "us"},
    {"sim.rollout_us", "us"},
    {"sim.arrival_self_us", "us"},
    {"sim.loop_self_share", "ratio"},
    {"cluster.index_commit_depth_mean", "count"},
    {"cluster.index_records_per_commit", "ratio"},
    {"cluster.index_update_ns", "ns"},
    {"cluster.calendar_reserve_ns", "ns"},
    {"cluster.calendar_window_us.first", "us"},
    {"cluster.calendar_window_us.last", "us"},
    {"cluster.calendar_intervals_end", "count"},
    {"workload.trace_read_ns_per_task", "ns"},
    {"workload.generate_ns_per_task", "ns"},
    {"exp.pool_efficiency", "ratio"},
    {"exp.straggler_share", "ratio"},
    {"svc.server_us.p50", "us"},
    {"svc.server_us.p99", "us"},
    {"svc.transport_us", "us"},
    {"svc.lock_wait_us.p50", "us"},
    {"svc.lock_wait_us.p99", "us"},
    {"svc.shard_admit_us", "us"},
    {"svc.shard_commit_us", "us"},
    {"svc.shard_cancel_us", "us"},
    {"svc.codec_ns", "ns"},
    {"svc.scrape_us", "us"},
    {"svc.queue_depth_max", "count"},
    {"svc.session_bytes_end", "bytes"},
    {"loadgen.lag_p99_us", "us"},
    {"obs.record_ns", "ns"},
    {"obs.record_share", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"obs.trace_dropped", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--smoke] [--plant <defect>]\n"
               "workloads: paper_sweep large_n_replay backfill_history daemon_open_loop\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--workdir") {
      options.workdir = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--plant") {
      options.plant = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  rtdls::util::Logger::instance().set_level(rtdls::util::LogLevel::kWarn);
  Report report;
  try {
    if (options.workload == "paper_sweep") {
      perfbench::run_paper_sweep(options, report);
    } else if (options.workload == "large_n_replay") {
      perfbench::run_large_n_replay(options, report);
    } else if (options.workload == "backfill_history") {
      perfbench::run_backfill_history(options, report);
    } else if (options.workload == "daemon_open_loop") {
      perfbench::run_daemon_open_loop(options, report);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    std::vector<std::string> names;
    if (options.trace) {
      for (const auto& [name, unit] : kPerLayer) {
        if (!report.has(name)) report.metric(name, 0.0, unit, 0);
        names.push_back(name);
      }
    } else {
      names = kEndToEnd;
    }
    report.print(names);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  return report.failed_count() == 0 ? 0 : 3;
}
