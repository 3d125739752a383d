// Shared plumbing of the perfbench binary: options, clocks and order
// statistics, the result report (human lines + the final JSON line), the
// decisions digest, and the trace-span analysis the traced runs use.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/metrics.hpp"
#include "sim/schedule_log.hpp"
#include "sim/task_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Traced runs alternate this many untraced and traced passes (or
/// repetitions) and compare their median walls for obs.trace_overhead.
inline constexpr int kOverheadRounds = 3;

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes: every workload runs once in well under a second (self-test).
  bool smoke = false;
  /// Planted defect for the self-test ("wrong_reply", "violation"); empty
  /// in real runs.
  std::string plant;
  /// Scratch directory for trace CSVs, the daemon socket and trace JSON.
  std::string workdir = ".";
};

double seconds_between(Clock::time_point a, Clock::time_point b);
double micros_between(Clock::time_point a, Clock::time_point b);

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Median over consecutive windows of `series` (each at least `min_window`
/// samples, at most 20 windows) of each window's q-quantile: a tail
/// percentile that one scheduling stall on a shared machine cannot move.
double windowed_quantile(const std::vector<double>& series, double q, std::size_t min_window);

/// Median of the last tenth of `series` divided by the median of its first
/// tenth (1 when the series is too short to have two tenths).
double tenth_ratio(const std::vector<double>& series);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// FNV-1a over decision bytes: equal digests mean bit-identical decisions.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void f64(double value) { bytes(&value, sizeof value); }
  void log(const rtdls::sim::ScheduleLog& log);
  std::uint64_t value() const { return state_; }
  std::string hex() const;

 private:
  std::uint64_t state_ = 1469598103934665603ull;
};

/// Collects metrics and check outcomes, and prints them: one human line per
/// metric (with its sample count) and per failed check, then the result
/// object as the last line of stdout.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// One checked operation; a false `ok` counts as failed and is printed.
  void check(bool ok, const std::string& what);
  /// `count` operations attempted by the measured work (each failure also
  /// goes through check()).
  void attempted(std::size_t count) { attempted_ += count; }
  void set_digest(const std::string& digest) { digest_ = digest; }
  /// A free-form line printed ahead of the metrics.
  void note(const std::string& line) { notes_.push_back(line); }
  /// Rescales every time-valued metric (units s, us) by `factor` and every
  /// rate (1/s) by 1 / factor; the raw value stays in the human line.
  void normalize(double factor);
  bool has(const std::string& name) const { return entries_.count(name) != 0; }
  std::size_t attempted_count() const { return attempted_; }
  std::size_t failed_count() const { return failed_; }

  /// Prints the human lines and the final JSON object restricted to
  /// `names` (every one must have been reported).
  void print(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    double raw = 0.0;  ///< before normalize()
  };
  std::map<std::string, Entry> entries_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string digest_;
};

/// Machine-speed probe. The shared VM the ledger runs on drifts between
/// speed states ~25% apart for minutes at a time, which moves every timing
/// together. A fixed, benchmark-owned CPU kernel (sorting 2048 doubles, no
/// librtdls code) timed before setup, between measured passes and at the end
/// tracks that state; dividing it out keeps runs comparable. factor() is the
/// reference kernel time over this run's median kernel time, so timings
/// read as on the reference machine state.
class SpeedProbe {
 public:
  /// Times the kernel once (~20 ms) / three times.
  void sample_once();
  void sample_several();
  double factor() const;
  std::size_t samples() const { return seconds_.size(); }

 private:
  std::vector<double> seconds_;
};

/// Runs `setup` at least `min_reps` times and until 0.5 s have gone into it
/// (at most 25 times), reports the median wall time as setup_s, and returns
/// the last result. Cheap setups repeat more, so their median holds still.
template <typename Setup>
auto repeated_setup(int min_reps, Report& report, Setup&& setup) {
  std::vector<double> times;
  double total = 0.0;
  auto start = Clock::now();
  auto result = setup();
  times.push_back(seconds_between(start, Clock::now()));
  total += times.back();
  while (times.size() < 25 &&
         (static_cast<int>(times.size()) < min_reps || total < 0.5)) {
    start = Clock::now();
    result = setup();
    times.push_back(seconds_between(start, Clock::now()));
    total += times.back();
  }
  report.metric("setup_s", median(times), "s", times.size());
  return result;
}

/// Wraps the simulator's arrival source and times each arrival from the
/// peek() that first returns it to the pop() that consumes it, i.e. the
/// commits due before it plus its own admission. Admitted ids feed the
/// decisions digest.
class TimedSource final : public rtdls::sim::TaskSource {
 public:
  TimedSource(rtdls::sim::TaskSource& inner, std::vector<double>& service_us, Digest& digest)
      : inner_(&inner), service_us_(&service_us), digest_(&digest) {}

  const rtdls::workload::Task* peek() override;
  void pop() override;
  void on_task_admitted(const rtdls::workload::Task* task) override;
  void on_task_retired(const rtdls::workload::Task* task) override;

 private:
  rtdls::sim::TaskSource* inner_;
  std::vector<double>* service_us_;
  Digest* digest_;
  bool pending_ = false;
  Clock::time_point since_;
};

/// Re-runs `prefix` off the clock: once with the incremental session
/// cross-checked against the stateless Figure-2 test on every arrival, once
/// with the stateless test alone. Both schedules must be bit-identical, and
/// every logged reservation must honour Theorem 4 (actual finish <= its
/// estimated release) and its task's deadline. Returns the incremental run's
/// metrics.
rtdls::sim::SimMetrics cross_check_prefix(const std::string& algorithm,
                                          const rtdls::cluster::ClusterParams& params,
                                          const std::vector<rtdls::workload::Task>& prefix,
                                          const Options& options, Report& report);

/// Span statistics recovered from the recorder's Chrome trace JSON.
struct SpanSet {
  std::vector<double> duration_us;
  std::vector<double> self_us;  ///< duration minus the time covered by child spans
};

struct TraceSummary {
  std::map<std::string, SpanSet> spans;
  /// Per traced admission-path span ("svc.admit"/"svc.commit"/"svc.cancel"):
  /// span start to its first svc.shard_locked instant on the same thread.
  std::vector<double> lock_wait_us;
};

/// Dumps the armed recorder to `path` and parses it back.
TraceSummary collect_trace(const std::string& path);

/// Snapshot of the process-global registry, keyed by metric name.
struct RegistryView {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, rtdls::obs::HistogramSample> histograms;

  static RegistryView take();
  std::uint64_t counter(const std::string& name) const;
  /// (count, sum) of a histogram; zeros when absent.
  std::pair<std::uint64_t, double> histogram(const std::string& name) const;
};

/// The sched/sim/cluster per-layer metrics of a traced simulator run: span
/// percentiles and self times from `trace`, per-arrival and per-commit
/// counts from the registry deltas between `before` and `after`.
void report_simulator_layers(Report& report, const TraceSummary& trace,
                             const RegistryView& before, const RegistryView& after);

/// Per-layer metrics that apply to every traced run: the obs record cost
/// (Histogram::record on a private registry, and its share of the wall
/// given the records made between the views) and the recorder's drop count
/// (which must be zero).
void report_obs_layer(Report& report, const RegistryView& before, const RegistryView& after,
                      double wall_s);

// --- workloads ---------------------------------------------------------------
void run_paper_sweep(const Options& options, Report& report);
void run_large_n_replay(const Options& options, Report& report);
void run_backfill_history(const Options& options, Report& report);
void run_daemon_open_loop(const Options& options, Report& report);
/// The svc-layer per-layer metrics of a short traced daemon session (EDF-DLT,
/// N=16), for a workload's traced run.
void run_service_layers(const Options& options, Report& report);

}  // namespace perfbench
