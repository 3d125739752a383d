// paper_sweep: the reproduction user's run. The registry's fig03, fig04
// (DCRatio 3/10/20/100), fig05 (User-Split) and fig09 (FIFO) figures at
// N=16, executed as one campaign - the cell queue run_figure wraps - on a
// fixed 2-lane util::ThreadPool, repeated while another repetition fits in
// the run's seconds. At N=16 the availability index is trivial; partition
// rules and the admission session do the work.
#include <algorithm>
#include <map>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "obs/trace.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using rtdls::exp::CellRef;
using rtdls::exp::CellResult;
using rtdls::exp::SweepMetric;

constexpr std::size_t kLanes = 2;

struct Inputs {
  std::vector<rtdls::exp::FigureSpec> figures;
  /// Arrivals of each (sweep, load, run) trace, indexed like the campaign's
  /// per-trace id: offset[sweep] + load * runs + run.
  std::vector<std::size_t> arrivals;
  std::vector<std::size_t> trace_offset;
  double generate_ns_per_task = 0.0;
};

Inputs make_inputs(const Options& options) {
  rtdls::exp::Scale scale;  // the bench binaries' default: 5 runs x 2e6 time units
  if (options.trace) scale.runs = 2;  // bounds the trace rings' memory
  if (options.smoke) {
    scale.runs = 1;
    scale.sim_time = 20'000.0;
  }
  Inputs inputs;
  for (const char* id : {"fig03", "fig04", "fig05", "fig09"}) {
    rtdls::exp::FigureSpec figure = rtdls::exp::find_figure(id, scale);
    for (rtdls::exp::SweepSpec& panel : figure.panels) panel.seed = options.seed;
    inputs.figures.push_back(std::move(figure));
  }
  std::size_t generated = 0;
  const auto start = Clock::now();
  for (const auto& figure : inputs.figures) {
    for (const rtdls::exp::SweepSpec& spec : figure.panels) {
      inputs.trace_offset.push_back(inputs.arrivals.size());
      for (double load : spec.loads) {
        for (std::size_t run = 0; run < spec.runs; ++run) {
          const std::size_t n =
              rtdls::workload::generate_workload(rtdls::exp::cell_workload(spec, load, run))
                  .size();
          inputs.arrivals.push_back(n);
          generated += n;
        }
      }
    }
  }
  inputs.generate_ns_per_task =
      micros_between(start, Clock::now()) * 1000.0 / static_cast<double>(generated);
  return inputs;
}

/// Everything one repetition of the campaign produced.
struct Repetition {
  double wall_s = 0.0;
  std::size_t arrivals = 0;
  std::vector<double> cell_us_per_arrival;  ///< by global cell index
  std::vector<double> cell_load;
  std::vector<std::size_t> cell_arrivals;
  std::vector<CellResult> cells;  ///< by global cell index
  std::vector<rtdls::exp::FailedCell> failed;
  std::vector<rtdls::exp::ShapeCheck> shape_checks;
  double straggler_share = 0.0;
  std::string digest;
};

/// Keeps every cell, in index order, for the digest and the invariant checks.
class CellSink final : public rtdls::exp::ResultSink {
 public:
  explicit CellSink(std::vector<CellResult>& cells) : cells_(&cells) {}
  void consume(const rtdls::exp::Campaign&, const CellResult& cell) override {
    std::lock_guard<std::mutex> lock(mutex_);
    (*cells_)[cell.ref.index] = cell;
  }

 private:
  std::mutex mutex_;
  std::vector<CellResult>* cells_;
};

Repetition run_repetition(const Inputs& inputs, rtdls::util::ThreadPool& pool) {
  const rtdls::exp::Campaign campaign(inputs.figures);
  Repetition rep;
  const std::size_t cells = campaign.cell_count();
  rep.cells.resize(cells);
  rep.cell_us_per_arrival.assign(cells, 0.0);
  rep.cell_load.assign(cells, 0.0);
  rep.cell_arrivals.assign(cells, 0);

  rtdls::exp::AggregateSink aggregate(campaign);
  CellSink keep(rep.cells);
  rtdls::exp::TeeSink sink({&aggregate, &keep});

  // Progress callbacks run on the lane that just finished the cell and are
  // serialized, so the gap since the same lane's previous callback is the
  // cell's wall time (its trace generation included when it built one).
  const auto start = Clock::now();
  std::map<std::thread::id, Clock::time_point> lane_clock;
  rtdls::exp::CampaignOptions options;
  options.pool = &pool;
  options.failed = &rep.failed;
  options.progress = [&](const CellRef& ref, std::size_t, std::size_t) {
    const auto now = Clock::now();
    auto [it, fresh] = lane_clock.try_emplace(std::this_thread::get_id(), start);
    const auto& spec = campaign.sweeps()[ref.sweep];
    const std::size_t arrivals =
        inputs.arrivals[inputs.trace_offset[ref.sweep] + ref.load * spec.runs + ref.run];
    rep.cell_us_per_arrival[ref.index] =
        micros_between(it->second, now) / static_cast<double>(std::max<std::size_t>(1, arrivals));
    rep.cell_load[ref.index] = spec.loads[ref.load];
    rep.cell_arrivals[ref.index] = arrivals;
    it->second = now;
  };
  rtdls::exp::run_campaign(campaign, options, sink);
  const auto end = Clock::now();
  rep.wall_s = seconds_between(start, end);
  for (std::size_t n : rep.cell_arrivals) rep.arrivals += n;

  // The tail in which some lane had already run dry.
  auto first_idle = end;
  for (const auto& [lane, last] : lane_clock) first_idle = std::min(first_idle, last);
  rep.straggler_share = lane_clock.size() < kLanes ? 1.0 : seconds_between(first_idle, end) /
                                                               std::max(1e-9, rep.wall_s);

  // Shape checks figure by figure, exactly as run_figure evaluates them.
  std::vector<rtdls::exp::SweepResult> panels = aggregate.take(rep.wall_s);
  std::size_t next = 0;
  for (const auto& figure : inputs.figures) {
    const std::vector<rtdls::exp::SweepResult> mine(
        panels.begin() + static_cast<long>(next),
        panels.begin() + static_cast<long>(next + figure.panels.size()));
    next += figure.panels.size();
    for (auto& check : rtdls::exp::evaluate_checks(mine)) rep.shape_checks.push_back(check);
  }

  Digest digest;
  for (const CellResult& cell : rep.cells) {
    digest.u64(cell.ref.index);
    for (double value : cell.metrics) digest.f64(value);
  }
  rep.digest = digest.hex();
  return rep;
}

void check_repetition(Report& report, const Repetition& rep, const Repetition& first) {
  report.attempted(rep.cells.size());
  for (const auto& failed : rep.failed) {
    report.check(false, "cell " + std::to_string(failed.index) + " failed: " + failed.error);
  }
  std::size_t violations = 0;
  std::size_t misses = 0;
  for (const CellResult& cell : rep.cells) {
    violations += static_cast<std::size_t>(
        cell.metrics[static_cast<std::size_t>(SweepMetric::kTheorem4Violations)]);
    misses += static_cast<std::size_t>(
        cell.metrics[static_cast<std::size_t>(SweepMetric::kDeadlineMisses)]);
  }
  report.check(violations == 0, std::to_string(violations) + " Theorem-4 violations");
  report.check(misses == 0, std::to_string(misses) + " deadline misses");
  for (const auto& check : rep.shape_checks) {
    report.check(check.passed, "shape check " + check.description + " (" + check.detail + ")");
  }
  report.check(rep.digest == first.digest, "repetitions decided differently");
}

/// The deepest-queue cell (fig04d: DCRatio 100, load 1.0, both rules)
/// re-run off the clock with the admission cross-check armed.
void cross_check(const Inputs& inputs, const Options& options, Report& report,
                 std::size_t* peak_bytes) {
  const rtdls::exp::SweepSpec& spec = inputs.figures[1].panels.back();
  const auto tasks = rtdls::workload::generate_workload(
      rtdls::exp::cell_workload(spec, spec.loads.back(), 0));
  const std::size_t count = std::min<std::size_t>(tasks.size(), options.smoke ? 200 : 2500);
  const std::vector<rtdls::workload::Task> prefix(tasks.begin(),
                                                  tasks.begin() + static_cast<long>(count));
  for (const std::string& algorithm : spec.algorithms) {
    const auto metrics = cross_check_prefix(algorithm, spec.cluster, prefix, options, report);
    if (peak_bytes != nullptr) {
      *peak_bytes = std::max(*peak_bytes, metrics.admission_peak_bytes);
    }
  }
}

}  // namespace

void run_paper_sweep(const Options& options, Report& report) {
  if (options.trace) {
    const Inputs inputs = make_inputs(options);
    report.metric("workload.generate_ns_per_task", inputs.generate_ns_per_task, "ns",
                  inputs.arrivals.size());
    rtdls::util::ThreadPool pool(kLanes);
    const Repetition warmup = run_repetition(inputs, pool);
    // Untraced and traced repetitions alternate; the last traced one is the
    // one analysed.
    auto& recorder = rtdls::obs::TraceRecorder::instance();
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    Repetition traced;
    RegistryView before;
    RegistryView after;
    for (int round = 0; round < kOverheadRounds; ++round) {
      const Repetition untraced = run_repetition(inputs, pool);
      check_repetition(report, untraced, warmup);
      untraced_s.push_back(untraced.wall_s);
      recorder.clear();
      // ~5 events per arrival (arrival, admit test, commits incl. superseded
      // ones, rollout) split over the lanes; room for an 80/20 split.
      recorder.start(4 * untraced.arrivals + 65536);
      before = RegistryView::take();
      traced = run_repetition(inputs, pool);
      after = RegistryView::take();
      recorder.stop();
      check_repetition(report, traced, warmup);
      traced_s.push_back(traced.wall_s);
    }

    report_obs_layer(report, before, after, traced.wall_s);
    const TraceSummary trace = collect_trace(options.workdir + "/paper_sweep-trace.json");
    report_simulator_layers(report, trace, before, after);
    double run_us = 0.0;
    if (const auto it = trace.spans.find("sim.run"); it != trace.spans.end()) {
      for (double us : it->second.duration_us) run_us += us;
    }
    report.metric("exp.pool_efficiency",
                  run_us * 1e-6 / (traced.wall_s * static_cast<double>(kLanes)), "ratio",
                  traced.cells.size());
    report.metric("exp.straggler_share", traced.straggler_share, "ratio", kLanes);
    report.metric("obs.trace_overhead", median(traced_s) / std::max(1e-9, median(untraced_s)),
                  "ratio", traced_s.size() + untraced_s.size());
    std::size_t peak_bytes = 0;
    cross_check(inputs, options, report, &peak_bytes);
    report.metric("sched.session_peak_bytes", static_cast<double>(peak_bytes), "bytes", 1);
    report.set_digest(traced.digest);
    // The admission service over the same N=16 EDF-DLT admission: the svc
    // layers' share of the per-layer split.
    run_service_layers(options, report);
    return;
  }

  SpeedProbe probe;
  probe.sample_several();
  const Inputs inputs = repeated_setup(5, report, [&] { return make_inputs(options); });
  rtdls::util::ThreadPool pool(kLanes);

  // One unmeasured repetition warms the heap and caches first.
  const Repetition warmup = run_repetition(inputs, pool);
  const auto start = Clock::now();
  std::vector<Repetition> reps;
  double wall_s = 0.0;  // sum of the repetitions' walls
  do {
    probe.sample_once();
    reps.push_back(run_repetition(inputs, pool));
    wall_s += reps.back().wall_s;
    if (options.smoke) break;
  } while (reps.size() < 2 ||
           seconds_between(start, Clock::now()) + reps.back().wall_s <= options.seconds);
  const double rss_mb = peak_rss_mb();
  probe.sample_several();

  std::vector<double> all_us;
  std::vector<double> low_us;
  std::vector<double> high_us;
  double high_time_us = 0.0;
  std::size_t high_arrivals = 0;
  std::size_t arrivals = 0;
  check_repetition(report, warmup, warmup);
  for (const Repetition& rep : reps) {
    check_repetition(report, rep, warmup);
    arrivals += rep.arrivals;
    for (std::size_t i = 0; i < rep.cells.size(); ++i) {
      const double us = rep.cell_us_per_arrival[i];
      all_us.push_back(us);
      if (rep.cell_load[i] <= 0.3 + 1e-9) low_us.push_back(us);
      if (rep.cell_load[i] >= 0.8 - 1e-9) {
        high_us.push_back(us);
        high_time_us += us * static_cast<double>(rep.cell_arrivals[i]);
        high_arrivals += rep.cell_arrivals[i];
      }
    }
  }
  cross_check(inputs, options, report, nullptr);

  // The paper's headline number, arrival-weighted over every cell.
  double rejected = 0.0;
  const Repetition& first = reps.front();
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    rejected += first.cells[i].metrics[static_cast<std::size_t>(SweepMetric::kRejectRatio)] *
                static_cast<double>(first.cell_arrivals[i]);
  }

  report.metric("tasks_per_s", static_cast<double>(arrivals) / wall_s, "1/s", arrivals);
  report.metric("arrival_p50_us", quantile(all_us, 0.5), "us", all_us.size());
  report.metric("arrival_p99_us", windowed_quantile(all_us, 0.99, all_us.size() / reps.size()), "us", all_us.size());
  // Median wall of the later half of the repetitions over the earlier half's.
  std::vector<double> walls;
  for (const Repetition& rep : reps) walls.push_back(rep.wall_s);
  const long half = static_cast<long>(std::max<std::size_t>(1, walls.size() / 2));
  report.metric("history_slowdown",
                median(std::vector<double>(walls.end() - half, walls.end())) /
                    median(std::vector<double>(walls.begin(), walls.begin() + half)),
                "ratio", walls.size());
  report.metric("peak_rss_mb", rss_mb, "MB", 1);
  report.metric("reject_ratio", rejected / static_cast<double>(std::max<std::size_t>(1, first.arrivals)),
                "ratio", first.arrivals);
  report.metric("admit_p50_us.low", quantile(low_us, 0.5), "us", low_us.size());
  report.metric("admit_p99_us.low", windowed_quantile(low_us, 0.99, low_us.size() / reps.size()), "us", low_us.size());
  report.metric("admit_p50_us.high", quantile(high_us, 0.5), "us", high_us.size());
  report.metric("admit_p99_us.high", windowed_quantile(high_us, 0.99, high_us.size() / reps.size()), "us", high_us.size());
  report.metric("max_rate_rps",
                high_time_us > 0.0 ? 1e6 * static_cast<double>(high_arrivals) / high_time_us : 0.0,
                "1/s", high_arrivals);
  report.metric("success_ratio",
                1.0 - static_cast<double>(report.failed_count()) /
                          static_cast<double>(std::max<std::size_t>(1, report.attempted_count())),
                "ratio", report.attempted_count());
  report.set_digest(first.digest);
  report.normalize(probe.factor());
  report.note("speed_factor " + std::to_string(probe.factor()) + " (" +
              std::to_string(probe.samples()) + " probes)");
}

}  // namespace perfbench
