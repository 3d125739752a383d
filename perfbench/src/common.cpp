#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <array>
#include <string_view>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double windowed_quantile(const std::vector<double>& series, double q, std::size_t min_window) {
  const std::size_t windows =
      std::clamp<std::size_t>(series.size() / std::max<std::size_t>(1, min_window), 1, 20);
  const std::size_t width = series.size() / windows;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = series.begin() + static_cast<long>(w * width);
    const auto last = w + 1 == windows ? series.end() : first + static_cast<long>(width);
    per_window.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(per_window);
}

double tenth_ratio(const std::vector<double>& series) {
  const std::size_t tenth = series.size() / 10;
  if (tenth == 0) return 1.0;
  const std::vector<double> first(series.begin(), series.begin() + static_cast<long>(tenth));
  const std::vector<double> last(series.end() - static_cast<long>(tenth), series.end());
  const double base = median(first);
  return base > 0.0 ? median(last) / base : 1.0;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MiB
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 1099511628211ull;
  }
}

void Digest::log(const rtdls::sim::ScheduleLog& log) {
  for (const rtdls::sim::ScheduleEntry& e : log.entries()) {
    u64(e.task);
    u64(e.node);
    f64(e.usable_from);
    f64(e.start);
    f64(e.end);
    f64(e.alpha);
    f64(e.actual_finish);
  }
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(state_));
  return buffer;
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  entries_[name] = Entry{value, unit, samples, value};
}

void Report::normalize(double factor) {
  for (auto& [name, e] : entries_) {
    if (e.unit == "s" || e.unit == "us") e.value = e.raw * factor;
    if (e.unit == "1/s") e.value = e.raw / factor;
  }
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
}

namespace {

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

}  // namespace

void Report::print(const std::vector<std::string>& names) const {
  for (const std::string& failure : failures_) std::printf("FAILED %s\n", failure.c_str());
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  if (!digest_.empty()) std::printf("decisions_digest %s\n", digest_.c_str());
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = entries_.find(name);
    if (it == entries_.end()) throw std::logic_error("metric not reported: " + name);
    const Entry& e = it->second;
    std::printf("metric %-40s %16.6g %-6s samples=%zu raw=%.6g\n", name.c_str(), e.value,
                e.unit.c_str(), e.samples, e.raw);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(e.value) + ", \"unit\": \"" + e.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {

/// The probe kernel's median time on the reference machine state (the
/// ledger's 4-vCPU x86 VM in its slower state, gcc 12 -O3).
constexpr double kReferenceProbeSeconds = 0.022;

}  // namespace

void SpeedProbe::sample_several() {
  for (int i = 0; i < 3; ++i) sample_once();
}

void SpeedProbe::sample_once() {
  // 16 KiB of data: it stays in L1, so a probe between measured passes
  // neither evicts their working sets nor touches the heap they use.
  std::array<double, 2048> values{};
  std::uint64_t x = 88172645463325252ull;
  const auto start = Clock::now();
  for (int round = 0; round < 200; ++round) {
    for (double& v : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<double>(x >> 11);
    }
    std::sort(values.begin(), values.end());
  }
  seconds_.push_back(seconds_between(start, Clock::now()));
  // Keep the work observable so the compiler cannot drop it.
  if (values.front() < 0.0) seconds_.back() += 1.0;
}

double SpeedProbe::factor() const {
  return seconds_.empty() ? 1.0 : kReferenceProbeSeconds / median(seconds_);
}

const rtdls::workload::Task* TimedSource::peek() {
  const rtdls::workload::Task* task = inner_->peek();
  if (task != nullptr && !pending_) {
    pending_ = true;
    since_ = Clock::now();
  }
  return task;
}

void TimedSource::pop() {
  service_us_->push_back(micros_between(since_, Clock::now()));
  pending_ = false;
  inner_->pop();
}

void TimedSource::on_task_admitted(const rtdls::workload::Task* task) {
  digest_->u64(task->id);
  inner_->on_task_admitted(task);
}

void TimedSource::on_task_retired(const rtdls::workload::Task* task) {
  inner_->on_task_retired(task);
}

rtdls::sim::SimMetrics cross_check_prefix(const std::string& algorithm_name,
                                          const rtdls::cluster::ClusterParams& params,
                                          const std::vector<rtdls::workload::Task>& prefix,
                                          const Options& options, Report& report) {
  using rtdls::cluster::Time;
  const Time horizon = prefix.empty() ? 1.0 : prefix.back().arrival() + 1.0;
  const rtdls::sched::Algorithm algorithm = rtdls::sched::make_algorithm(algorithm_name);
  report.attempted(prefix.size());

  rtdls::sim::SimMetrics metrics;
  rtdls::sim::ScheduleLog incremental_log;
  rtdls::sim::ScheduleLog stateless_log;
  try {
    rtdls::sim::SimulatorConfig config;
    config.params = params;
    config.cross_check_admission = true;
    config.schedule_log = &incremental_log;
    metrics = rtdls::sim::ClusterSimulator(config, algorithm).run(prefix, horizon);
    config.cross_check_admission = false;
    config.incremental_admission = false;
    config.schedule_log = &stateless_log;
    rtdls::sim::ClusterSimulator(config, algorithm).run(prefix, horizon);
  } catch (const std::logic_error& e) {
    report.check(false, std::string("cross-check: incremental session diverged: ") + e.what());
    return metrics;
  }
  Digest incremental;
  Digest stateless;
  incremental.log(incremental_log);
  stateless.log(stateless_log);
  report.check(incremental.hex() == stateless.hex(),
               "cross-check: incremental and stateless schedules differ");

  if (options.plant == "violation" && incremental_log.size() > 0) {
    // Self-test: one reservation finishing after its estimated release.
    std::vector<rtdls::sim::ScheduleEntry> entries = incremental_log.entries();
    entries.front().actual_finish = entries.front().end + 1.0;
    incremental_log.clear();
    for (const auto& e : entries) incremental_log.add(e);
  }
  std::vector<Time> deadline(prefix.size(), 0.0);
  for (const rtdls::workload::Task& task : prefix) {
    if (task.id < deadline.size()) deadline[task.id] = task.abs_deadline();
  }
  std::size_t violations = 0;
  for (const rtdls::sim::ScheduleEntry& e : incremental_log.entries()) {
    const double tolerance = 1e-6 * std::max(1.0, e.end);
    if (e.actual_finish > e.end + tolerance) ++violations;
    if (e.task < deadline.size() && e.actual_finish > deadline[e.task] + tolerance) ++violations;
  }
  report.check(violations == 0, "cross-check: " + std::to_string(violations) +
                                    " logged reservations violate Theorem 4 or a deadline");
  return metrics;
}

namespace {

struct RawEvent {
  std::size_t name = 0;  ///< index into the parsed names
  char phase = 'X';
  double ts = 0.0;
  double dur = 0.0;
  std::uint32_t tid = 0;
};

/// Value of `"key":` inside one flat event object [begin, end).
const char* field(const char* begin, const char* end, const char* key) {
  const std::size_t key_len = std::strlen(key);
  for (const char* p = begin; p + key_len < end; ++p) {
    if (std::memcmp(p, key, key_len) == 0) return p + key_len;
  }
  throw std::runtime_error(std::string("trace JSON: missing ") + key);
}

/// Parses the recorder's one-object-per-event JSON (see obs/trace.cpp);
/// event names are interned into `names`.
std::vector<RawEvent> parse_events(const std::string& json, std::vector<std::string>& names) {
  std::vector<RawEvent> events;
  const char* p = std::strstr(json.c_str(), "\"traceEvents\":[");
  if (p == nullptr) throw std::runtime_error("trace JSON: no traceEvents");
  const char* const end = json.c_str() + json.size();
  while (p < end) {
    const char* open = static_cast<const char*>(std::memchr(p, '{', end - p));
    if (open == nullptr) break;
    const char* close = static_cast<const char*>(std::memchr(open, '}', end - open));
    if (close == nullptr) throw std::runtime_error("trace JSON: unterminated event");
    RawEvent event;
    const char* name = field(open, close, "\"name\":\"");
    const std::string_view view(name, static_cast<const char*>(std::memchr(name, '"', close - name)) - name);
    event.name = std::find(names.begin(), names.end(), view) - names.begin();
    if (event.name == names.size()) names.emplace_back(view);
    event.phase = *field(open, close, "\"ph\":\"");
    event.ts = std::strtod(field(open, close, "\"ts\":"), nullptr);
    if (event.phase == 'X') event.dur = std::strtod(field(open, close, "\"dur\":"), nullptr);
    event.tid = static_cast<std::uint32_t>(std::strtoul(field(open, close, "\"tid\":"), nullptr, 10));
    events.push_back(event);
    p = close + 1;
  }
  return events;
}

}  // namespace

TraceSummary collect_trace(const std::string& path) {
  std::string error;
  if (!rtdls::obs::TraceRecorder::instance().write_json_file(path, &error)) {
    throw std::runtime_error(error);
  }
  std::string json;
  {
    std::ifstream in(path, std::ios::binary);
    json.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  std::vector<std::string> names;
  std::vector<RawEvent> events = parse_events(json, names);
  json.clear();
  json.shrink_to_fit();

  TraceSummary summary;
  // Per thread, in start order (longer span first on ties, so parents
  // precede children), nest spans with a stack and charge each span's
  // duration to its parent's child time.
  std::stable_sort(events.begin(), events.end(), [](const RawEvent& a, const RawEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  struct Open {
    const RawEvent* event;
    double child_us;
    bool lock_seen;
  };
  std::vector<Open> stack;
  const auto close_span = [&] {
    const Open& open = stack.back();
    SpanSet& set = summary.spans[names[open.event->name]];
    set.duration_us.push_back(open.event->dur);
    set.self_us.push_back(std::max(0.0, open.event->dur - open.child_us));
    stack.pop_back();
  };
  // An instant at a span's last tick still belongs to it; a span starting
  // there does not.
  const auto ended_before = [](const Open& open, const RawEvent& event) {
    const double end = open.event->ts + open.event->dur;
    return end < event.ts || (end == event.ts && event.phase != 'i');
  };
  std::uint32_t tid = 0;
  for (const RawEvent& event : events) {
    if (event.tid != tid) {
      while (!stack.empty()) close_span();
      tid = event.tid;
    }
    while (!stack.empty() && ended_before(stack.back(), event)) close_span();
    if (event.phase == 'i') {
      if (names[event.name] != "svc.shard_locked") continue;
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        const std::string& name = names[it->event->name];
        if ((name == "svc.admit" || name == "svc.commit" || name == "svc.cancel") &&
            !it->lock_seen) {
          it->lock_seen = true;
          summary.lock_wait_us.push_back(event.ts - it->event->ts);
          break;
        }
      }
      continue;
    }
    if (!stack.empty()) stack.back().child_us += event.dur;
    stack.push_back(Open{&event, 0.0, false});
  }
  while (!stack.empty()) close_span();
  return summary;
}

RegistryView RegistryView::take() {
  RegistryView view;
  const rtdls::obs::Snapshot snapshot = rtdls::obs::Registry::global().snapshot();
  for (const auto& c : snapshot.counters) view.counters[c.name] = c.value;
  for (const auto& h : snapshot.histograms) view.histograms[h.name] = h;
  return view;
}

std::uint64_t RegistryView::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::pair<std::uint64_t, double> RegistryView::histogram(const std::string& name) const {
  const auto it = histograms.find(name);
  if (it == histograms.end()) return {0, 0.0};
  return {it->second.count, it->second.sum};
}

void report_simulator_layers(Report& report, const TraceSummary& trace,
                             const RegistryView& before, const RegistryView& after) {
  const auto span = [&](const char* name) {
    const auto it = trace.spans.find(name);
    return it == trace.spans.end() ? SpanSet{} : it->second;
  };
  const SpanSet admit = span("sim.admit_test");
  report.metric("sched.admit_test_us.p50", quantile(admit.duration_us, 0.5), "us",
                admit.duration_us.size());
  report.metric("sched.admit_test_us.p99", quantile(admit.duration_us, 0.99), "us",
                admit.duration_us.size());
  const SpanSet commit = span("sim.commit");
  report.metric("sim.commit_self_us", mean(commit.self_us), "us", commit.self_us.size());
  const SpanSet rollout = span("sim.rollout");
  report.metric("sim.rollout_us", mean(rollout.duration_us), "us", rollout.duration_us.size());
  const SpanSet arrival = span("sim.arrival");
  report.metric("sim.arrival_self_us", mean(arrival.self_us), "us", arrival.self_us.size());
  const SpanSet run = span("sim.run");
  double run_total = 0.0;
  double run_self = 0.0;
  for (std::size_t i = 0; i < run.duration_us.size(); ++i) {
    run_total += run.duration_us[i];
    run_self += run.self_us[i];
  }
  report.metric("sim.loop_self_share", run_total > 0.0 ? run_self / run_total : 0.0, "ratio",
                run.duration_us.size());

  const auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  const double arrivals = std::max(1.0, delta("rtdls_sim_arrivals_total"));
  const auto per_arrival = [&](const char* metric, const char* counter) {
    report.metric(metric, delta(counter) / arrivals, "ratio", static_cast<std::size_t>(arrivals));
  };
  const double walks = delta("rtdls_planner_resolver_walks_total");
  report.metric("sched.resolver_positions_per_walk",
                walks > 0.0 ? delta("rtdls_planner_resolver_positions_total") / walks : 0.0,
                "ratio", static_cast<std::size_t>(walks));
  per_arrival("sched.batch_passes_per_arrival", "rtdls_planner_batch_passes_total");
  per_arrival("sched.session_rebuilds_per_arrival", "rtdls_admission_session_rebuilds_total");
  per_arrival("sched.delta_replays_per_arrival", "rtdls_admission_delta_replays_total");
  per_arrival("sched.bf_fixed_point_iterations_per_arrival",
              "rtdls_planner_backfill_fixed_point_iterations_total");
  // Every accepted task commits exactly once (nothing is cancelled).
  const double commits = delta("rtdls_sim_accepted_total");
  const auto [count_after, sum_after] = after.histogram("rtdls_index_commit_depth");
  const auto [count_before, sum_before] = before.histogram("rtdls_index_commit_depth");
  const double records = static_cast<double>(count_after - count_before);
  report.metric("cluster.index_commit_depth_mean",
                records > 0.0 ? (sum_after - sum_before) / records : 0.0, "count",
                static_cast<std::size_t>(records));
  report.metric("cluster.index_records_per_commit", commits > 0.0 ? records / commits : 0.0,
                "ratio", static_cast<std::size_t>(commits));
}

namespace {

/// Nanoseconds per Histogram::record on a private registry.
double histogram_record_ns(std::size_t records) {
  rtdls::obs::Registry registry;
  const rtdls::obs::Histogram histogram = registry.histogram("perfbench_record_probe");
  const auto start = Clock::now();
  for (std::size_t i = 0; i < records; ++i) histogram.record(static_cast<double>(i % 4096));
  const double ns = micros_between(start, Clock::now()) * 1000.0;
  return ns / static_cast<double>(records);
}

/// Total histogram records made between two registry views.
std::uint64_t histogram_records_between(const RegistryView& before, const RegistryView& after) {
  std::uint64_t records = 0;
  for (const auto& [name, sample] : after.histograms) {
    records += sample.count - before.histogram(name).first;
  }
  return records;
}

}  // namespace

void report_obs_layer(Report& report, const RegistryView& before, const RegistryView& after,
                      double wall_s) {
  const double record_ns = histogram_record_ns(2'000'000);
  const std::uint64_t records = histogram_records_between(before, after);
  report.metric("obs.record_ns", record_ns, "ns", 2'000'000);
  report.metric("obs.record_share",
                wall_s > 0.0 ? static_cast<double>(records) * record_ns * 1e-9 / wall_s : 0.0,
                "ratio", records);
  const std::size_t dropped = rtdls::obs::TraceRecorder::instance().dropped();
  report.metric("obs.trace_dropped", static_cast<double>(dropped), "count", 1);
  report.check(dropped == 0, "trace recorder dropped events; the traced run is invalid");
}

}  // namespace perfbench
