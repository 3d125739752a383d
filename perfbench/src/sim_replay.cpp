// The two simulator-direct workloads.
//
//  * large_n_replay: N=512, EDF-DLT, load 1.0, DCRatio 2. The trace is
//    written to CSV in setup and streamed TraceReader -> StreamingTaskSource
//    -> run_stream, so per-commit work (index updates, per-node histogram
//    records, N-slot rollouts) dominates.
//  * backfill_history: N=16, EDF-OPR-MN-BF, load 1.0 over eight long traces
//    - the only NodeCalendar user, whose cost grows with reservation history.
//
// Both alternate low-load (0.2) and high-load (1.0) passes until the run's
// seconds are spent, timing every arrival through TimedSource.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "cluster/availability_index.hpp"
#include "cluster/calendar.hpp"
#include "common.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace perfbench {

namespace {

using rtdls::cluster::Time;
using rtdls::sim::SimMetrics;
using rtdls::workload::Task;

struct SimWorkload {
  const char* name;
  const char* algorithm;
  std::size_t nodes;
  double dc_ratio;
  std::size_t high_tasks;  ///< tasks per load-1.0 trace
  std::size_t high_traces; ///< distinct load-1.0 traces the passes cycle through
  std::size_t low_tasks;   ///< tasks in the load-0.2 trace
  std::size_t check_tasks; ///< prefix re-run with the cross-check armed
  bool stream_csv;         ///< replay from CSV (else from the in-memory vector)
  /// Traced runs shrink the traces by this factor: the ScheduleLog keeps one
  /// 64-byte entry per node per commit (~100 per task at N=512).
  std::size_t traced_scale_div;
};

struct Trace {
  std::vector<Task> tasks;
  Time horizon = 0.0;
  std::string csv;  ///< set when the workload streams from CSV
};

struct Inputs {
  Trace low;
  std::vector<Trace> high;
  double generate_ns_per_task = 0.0;
};

rtdls::workload::WorkloadParams params_for(const SimWorkload& w, double load, std::size_t tasks,
                                           std::uint64_t seed, std::uint64_t stream) {
  rtdls::workload::WorkloadParams params;
  params.cluster.node_count = w.nodes;
  params.system_load = load;
  params.dc_ratio = w.dc_ratio;
  params.seed = seed;
  params.stream = stream;
  params.total_time = static_cast<double>(tasks) * params.mean_interarrival();
  return params;
}

Inputs make_inputs(const SimWorkload& w, const Options& options, std::size_t scale_div) {
  Inputs inputs;
  const auto start = Clock::now();
  const auto low = params_for(w, 0.2, w.low_tasks / scale_div, options.seed, 1);
  inputs.low.tasks = rtdls::workload::generate_workload(low);
  inputs.low.horizon = low.total_time;
  std::size_t generated = inputs.low.tasks.size();
  for (std::size_t i = 0; i < w.high_traces; ++i) {
    const auto high = params_for(w, 1.0, w.high_tasks / scale_div, options.seed, 2 + i);
    inputs.high.push_back(Trace{rtdls::workload::generate_workload(high), high.total_time, ""});
    generated += inputs.high.back().tasks.size();
  }
  inputs.generate_ns_per_task =
      micros_between(start, Clock::now()) * 1000.0 / static_cast<double>(generated);
  if (w.stream_csv) {
    inputs.low.csv = options.workdir + "/" + w.name + "-low.csv";
    rtdls::workload::save_trace_file(inputs.low.csv, inputs.low.tasks);
    for (std::size_t i = 0; i < inputs.high.size(); ++i) {
      inputs.high[i].csv = options.workdir + "/" + w.name + "-high" + std::to_string(i) + ".csv";
      rtdls::workload::save_trace_file(inputs.high[i].csv, inputs.high[i].tasks);
    }
  }
  return inputs;
}

void remove_csvs(const Inputs& inputs) {
  if (!inputs.low.csv.empty()) std::remove(inputs.low.csv.c_str());
  for (const Trace& t : inputs.high) {
    if (!t.csv.empty()) std::remove(t.csv.c_str());
  }
}

/// One timed pass over a trace.
struct Pass {
  SimMetrics metrics;
  std::vector<double> service_us;
  std::string digest;
  double wall_s = 0.0;
};

Pass run_pass(rtdls::sim::ClusterSimulator& simulator, const Trace& trace) {
  Pass pass;
  pass.service_us.reserve(trace.tasks.size());
  Digest digest;
  const auto start = Clock::now();
  if (!trace.csv.empty()) {
    rtdls::workload::TraceReader reader(trace.csv);
    rtdls::sim::StreamingTaskSource source(reader);
    TimedSource timed(source, pass.service_us, digest);
    pass.metrics = simulator.run_stream(timed, trace.horizon);
  } else {
    rtdls::sim::VectorTaskSource source(trace.tasks);
    TimedSource timed(source, pass.service_us, digest);
    pass.metrics = simulator.run_stream(timed, trace.horizon);
  }
  pass.wall_s = seconds_between(start, Clock::now());
  digest.u64(pass.metrics.accepted);
  digest.u64(pass.metrics.rejected);
  digest.f64(pass.metrics.busy_time);
  digest.f64(pass.metrics.response_time.mean());
  pass.digest = digest.hex();
  return pass;
}

void check_pass(Report& report, const Pass& pass, const std::string& what) {
  report.check(pass.metrics.theorem4_violations == 0,
               what + ": " + std::to_string(pass.metrics.theorem4_violations) +
                   " Theorem-4 violations");
  report.check(pass.metrics.deadline_misses == 0,
               what + ": " + std::to_string(pass.metrics.deadline_misses) + " deadline misses");
}

rtdls::sim::SimulatorConfig config_for(const SimWorkload& w) {
  rtdls::sim::SimulatorConfig config;
  config.params.node_count = w.nodes;
  return config;
}

std::vector<Task> check_prefix(const SimWorkload& w, const Inputs& inputs) {
  const std::vector<Task>& tasks = inputs.high.front().tasks;
  const std::size_t count = std::min(w.check_tasks, tasks.size());
  return std::vector<Task>(tasks.begin(), tasks.begin() + static_cast<long>(count));
}

/// Replays a committed schedule into a standalone AvailabilityIndex:
/// nanoseconds per update.
double index_update_ns(const rtdls::sim::ScheduleLog& log, std::size_t nodes) {
  rtdls::cluster::AvailabilityIndex index;
  index.reset(nodes, rtdls::cluster::resolve_index_backend(rtdls::cluster::IndexBackend::kAuto,
                                                           nodes));
  std::vector<Time> free_at(nodes, 0.0);
  const auto start = Clock::now();
  for (const rtdls::sim::ScheduleEntry& e : log.entries()) {
    index.update(e.node, free_at[e.node], e.end);
    free_at[e.node] = e.end;
  }
  const double ns = micros_between(start, Clock::now()) * 1000.0;
  if (!index.consistent_with(free_at)) throw std::runtime_error("index replay diverged");
  return log.size() == 0 ? 0.0 : ns / static_cast<double>(log.size());
}

/// Replays a committed schedule into a standalone NodeCalendar, querying
/// the earliest 8-node window at every arrival instant against the
/// reservations committed by then.
void calendar_replay(const rtdls::sim::ScheduleLog& log, const std::vector<Task>& tasks,
                     std::size_t nodes, Report& report) {
  const auto& entries = log.entries();
  rtdls::cluster::NodeCalendar calendar(nodes);
  double duration = 0.0;
  for (const auto& e : entries) duration += e.end - e.start;
  duration = entries.empty() ? 1.0 : duration / static_cast<double>(entries.size());
  const std::size_t want = std::min<std::size_t>(8, nodes);

  double reserve_us = 0.0;
  std::size_t reserved = 0;
  std::vector<double> window_us;
  window_us.reserve(tasks.size());
  std::size_t next = 0;  // first entry of the next unreserved task group
  for (const Task& task : tasks) {
    while (next < entries.size()) {
      std::size_t end = next;
      Time first_start = entries[next].start;
      while (end < entries.size() && entries[end].task == entries[next].task) {
        first_start = std::min(first_start, entries[end].start);
        ++end;
      }
      if (first_start > task.arrival()) break;
      const auto start = Clock::now();
      for (std::size_t i = next; i < end; ++i) {
        calendar.reserve(entries[i].node, entries[i].start, entries[i].end);
      }
      reserve_us += micros_between(start, Clock::now());
      reserved += end - next;
      next = end;
    }
    const auto start = Clock::now();
    const auto window = calendar.earliest_window(task.arrival(), want, duration);
    window_us.push_back(micros_between(start, Clock::now()));
    if (!window) throw std::runtime_error("calendar replay: no window");
  }
  std::size_t intervals = 0;
  for (rtdls::cluster::NodeId id = 0; id < calendar.size(); ++id) {
    intervals += calendar.busy(id).size();
  }
  const std::size_t tenth = std::max<std::size_t>(1, window_us.size() / 10);
  report.metric("cluster.calendar_reserve_ns",
                reserved == 0 ? 0.0 : reserve_us * 1000.0 / static_cast<double>(reserved), "ns",
                reserved);
  report.metric("cluster.calendar_window_us.first",
                median(std::vector<double>(window_us.begin(),
                                           window_us.begin() + static_cast<long>(tenth))),
                "us", tenth);
  report.metric("cluster.calendar_window_us.last",
                median(std::vector<double>(window_us.end() - static_cast<long>(tenth),
                                           window_us.end())),
                "us", tenth);
  report.metric("cluster.calendar_intervals_end", static_cast<double>(intervals), "count", 1);
}

/// Nanoseconds per task for a bare TraceReader pass over the CSV.
double trace_read_ns(const std::string& csv) {
  rtdls::workload::TraceReader reader(csv);
  std::vector<Task> chunk;
  std::size_t tasks = 0;
  const auto start = Clock::now();
  while (reader.next_chunk(chunk)) tasks += chunk.size();
  return tasks == 0 ? 0.0 : micros_between(start, Clock::now()) * 1000.0 /
                                static_cast<double>(tasks);
}

void run_sim_workload(const SimWorkload& w, const Options& options, Report& report) {
  const std::size_t scale_div = options.smoke ? 50 : 1;
  const rtdls::sched::Algorithm algorithm = rtdls::sched::make_algorithm(w.algorithm);

  if (options.trace) {
    const Inputs inputs = make_inputs(w, options, scale_div * w.traced_scale_div);
    report.metric("workload.generate_ns_per_task", inputs.generate_ns_per_task, "ns",
                  inputs.low.tasks.size() + inputs.high.size() * inputs.high.front().tasks.size());
    const Trace& high = inputs.high.front();
    // The warm-up pass grows the ScheduleLog to its full size; untraced
    // reference passes carry the same log and alternate with traced ones,
    // so the two differ by the armed recorder alone. The last traced pass
    // is the one analysed.
    rtdls::sim::ScheduleLog log;
    rtdls::sim::SimulatorConfig config = config_for(w);
    config.schedule_log = &log;
    rtdls::sim::ClusterSimulator traced_sim(config, algorithm);
    run_pass(traced_sim, high);
    auto& recorder = rtdls::obs::TraceRecorder::instance();
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    Pass traced;
    RegistryView before;
    RegistryView after;
    for (int round = 0; round < kOverheadRounds; ++round) {
      log.clear();
      const Pass untraced = run_pass(traced_sim, high);
      check_pass(report, untraced, "untraced pass");
      untraced_s.push_back(untraced.wall_s);
      log.clear();
      recorder.clear();
      recorder.start(4 * high.tasks.size() + 4096);
      before = RegistryView::take();
      traced = run_pass(traced_sim, high);
      after = RegistryView::take();
      recorder.stop();
      check_pass(report, traced, "traced pass");
      report.check(traced.digest == untraced.digest, "traced and untraced decisions differ");
      traced_s.push_back(traced.wall_s);
      report.attempted(untraced.service_us.size() + traced.service_us.size());
    }

    report_obs_layer(report, before, after, traced.wall_s);
    const TraceSummary trace = collect_trace(options.workdir + "/" + w.name + "-trace.json");
    report_simulator_layers(report, trace, before, after);
    report.metric("sched.session_peak_bytes",
                  static_cast<double>(traced.metrics.admission_peak_bytes), "bytes", 1);
    report.metric("obs.trace_overhead", median(traced_s) / std::max(1e-9, median(untraced_s)),
                  "ratio", traced_s.size() + untraced_s.size());
    report.metric("cluster.index_update_ns", index_update_ns(log, w.nodes), "ns", log.size());
    if (algorithm.rule->uses_calendar()) calendar_replay(log, high.tasks, w.nodes, report);
    if (!high.csv.empty()) {
      report.metric("workload.trace_read_ns_per_task", trace_read_ns(high.csv), "ns",
                    high.tasks.size());
    }
    cross_check_prefix(w.algorithm, config_for(w).params, check_prefix(w, inputs), options,
                       report);
    report.set_digest(traced.digest);
    remove_csvs(inputs);
    return;
  }

  SpeedProbe probe;
  probe.sample_several();
  const Inputs inputs =
      repeated_setup(5, report, [&] { return make_inputs(w, options, scale_div); });
  rtdls::sim::ClusterSimulator simulator(config_for(w), algorithm);

  // Measured phase, after one unmeasured low-load pass as warm-up:
  // low/high pass pairs while another pair fits in the run's seconds, so
  // both loads see the same machine conditions. High passes cycle through
  // the distinct high-load traces.
  run_pass(simulator, inputs.low);
  const auto start = Clock::now();
  std::vector<Pass> low;
  std::vector<Pass> high;
  double wall_s = 0.0;  // sum of the passes' walls
  double pair_s = 0.0;
  do {
    probe.sample_once();
    low.push_back(run_pass(simulator, inputs.low));
    high.push_back(run_pass(simulator, inputs.high[high.size() % inputs.high.size()]));
    pair_s = low.back().wall_s + high.back().wall_s;
    wall_s += pair_s;
    if (options.smoke) break;
  } while (seconds_between(start, Clock::now()) + pair_s <= options.seconds);
  const double rss_mb = peak_rss_mb();
  probe.sample_several();

  std::vector<double> all_us;
  std::vector<double> low_us;
  std::vector<double> high_us;
  std::vector<double> slowdowns;
  std::size_t arrivals = 0;
  std::size_t high_arrivals = 0;
  std::size_t high_rejected = 0;
  Digest digest;
  for (const Pass& pass : low) {
    check_pass(report, pass, "low-load pass");
    report.check(pass.digest == low.front().digest, "low-load passes decided differently");
    low_us.insert(low_us.end(), pass.service_us.begin(), pass.service_us.end());
    all_us.insert(all_us.end(), pass.service_us.begin(), pass.service_us.end());
    arrivals += pass.metrics.arrivals;
  }
  for (std::size_t i = 0; i < high.size(); ++i) {
    const Pass& pass = high[i];
    check_pass(report, pass, "high-load pass");
    if (i < inputs.high.size()) {
      // First pass over each distinct trace.
      high_arrivals += pass.metrics.arrivals;
      high_rejected += pass.metrics.rejected;
      digest.bytes(pass.digest.data(), pass.digest.size());
    } else {
      report.check(pass.digest == high[i % inputs.high.size()].digest,
                   "a replayed high-load trace decided differently");
    }
    all_us.insert(all_us.end(), pass.service_us.begin(), pass.service_us.end());
    high_us.insert(high_us.end(), pass.service_us.begin(), pass.service_us.end());
    slowdowns.push_back(tenth_ratio(pass.service_us));
    arrivals += pass.metrics.arrivals;
  }
  report.attempted(arrivals);
  cross_check_prefix(w.algorithm, config_for(w).params, check_prefix(w, inputs), options, report);
  remove_csvs(inputs);

  report.metric("tasks_per_s", static_cast<double>(arrivals) / wall_s, "1/s", arrivals);
  report.metric("arrival_p50_us", quantile(all_us, 0.5), "us", all_us.size());
  report.metric("arrival_p99_us", quantile(all_us, 0.99), "us", all_us.size());
  report.metric("history_slowdown", median(slowdowns), "ratio", slowdowns.size());
  report.metric("peak_rss_mb", rss_mb, "MB", 1);
  report.metric("reject_ratio",
                static_cast<double>(high_rejected) / static_cast<double>(std::max<std::size_t>(1, high_arrivals)),
                "ratio", high_arrivals);
  report.metric("admit_p50_us.low", quantile(low_us, 0.5), "us", low_us.size());
  report.metric("admit_p99_us.low", quantile(low_us, 0.99), "us", low_us.size());
  report.metric("admit_p50_us.high", quantile(high_us, 0.5), "us", high_us.size());
  report.metric("admit_p99_us.high", quantile(high_us, 0.99), "us", high_us.size());
  report.metric("max_rate_rps", 1e6 / std::max(1e-9, mean(high_us)), "1/s", high_us.size());
  report.metric("success_ratio",
                1.0 - static_cast<double>(report.failed_count()) /
                          static_cast<double>(std::max<std::size_t>(1, report.attempted_count())),
                "ratio", report.attempted_count());
  report.set_digest(digest.hex());
  report.normalize(probe.factor());
  report.note("speed_factor " + std::to_string(probe.factor()) + " (" +
              std::to_string(probe.samples()) + " probes)");
}

}  // namespace

void run_large_n_replay(const Options& options, Report& report) {
  run_sim_workload(SimWorkload{"large_n_replay", "EDF-DLT", 512, 2.0, 100'000, 1, 20'000, 3'000,
                               true, 4},
                   options, report);
}

void run_backfill_history(const Options& options, Report& report) {
  run_sim_workload(SimWorkload{"backfill_history", "EDF-OPR-MN-BF", 16, 2.0, 7'400, 8, 2'000,
                               1'500, false, 1},
                   options, report);
}

}  // namespace perfbench
