#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "util/annotations.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace rtdls::exp {

Campaign::Campaign(std::vector<FigureSpec> figures) : figures_(std::move(figures)) {
  offsets_.push_back(0);
  for (std::size_t f = 0; f < figures_.size(); ++f) {
    for (std::size_t p = 0; p < figures_[f].panels.size(); ++p) {
      const SweepSpec& spec = figures_[f].panels[p];
      if (spec.loads.empty()) {
        throw std::invalid_argument("campaign: sweep '" + spec.id + "': no loads");
      }
      if (spec.algorithms.empty()) {
        throw std::invalid_argument("campaign: sweep '" + spec.id + "': no algorithms");
      }
      if (spec.runs == 0) {
        throw std::invalid_argument("campaign: sweep '" + spec.id + "': runs must be >= 1");
      }
      sweeps_.push_back(spec);
      panel_of_.emplace_back(f, p);
      offsets_.push_back(offsets_.back() +
                         spec.loads.size() * spec.runs * spec.algorithms.size());
    }
  }
}

CellRef Campaign::cell(std::size_t index) const {
  // offsets_ is [0, end_of_sweep_0, ...]; the owning sweep is the last
  // offset <= index.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), index);
  if (it == offsets_.begin() || index >= cell_count()) {
    throw std::out_of_range("Campaign::cell: index " + std::to_string(index) + " out of range");
  }
  CellRef ref;
  ref.index = index;
  ref.sweep = static_cast<std::size_t>(it - offsets_.begin()) - 1;
  const SweepSpec& spec = sweeps_[ref.sweep];
  const std::size_t local = index - offsets_[ref.sweep];
  const std::size_t algs = spec.algorithms.size();
  ref.algorithm = local % algs;
  const std::size_t trace = local / algs;  // load * runs + run
  ref.run = trace % spec.runs;
  ref.load = trace / spec.runs;
  return ref;
}

ShardSelection parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  unsigned long long index = 0;
  unsigned long long count = 0;
  if (slash == std::string::npos || !util::parse_u64(text.substr(0, slash), index) ||
      !util::parse_u64(text.substr(slash + 1), count)) {
    throw std::invalid_argument("parse_shard: expected i/m (e.g. 0/4), got '" + text + "'");
  }
  if (count == 0 || index >= count) {
    throw std::invalid_argument("parse_shard: shard " + text + " out of range (0-based)");
  }
  return ShardSelection{static_cast<std::size_t>(index), static_cast<std::size_t>(count)};
}

namespace {

/// One reusable simulation context: the algorithm instance (rules may keep
/// mutable scratch, so instances are never shared across threads) plus a
/// simulator whose run() resets state in place.
struct SimSlot {
  sched::Algorithm algorithm;
  sim::ClusterSimulator simulator;

  SimSlot(const sim::SimulatorConfig& config, sched::Algorithm alg)
      : algorithm(std::move(alg)), simulator(config, algorithm) {}
};

/// Per-algorithm free lists of SimSlots for one sweep. Workers check a slot
/// out per cell and return it afterwards, so a campaign allocates at most
/// (algorithms x concurrent workers) simulators per sweep and every
/// simulator serves many back-to-back cells. Results cannot depend on which
/// slot serves which cell: run() fully resets per-run state.
class SlotPool {
 public:
  SlotPool(const sim::SimulatorConfig& config, const std::vector<std::string>& names)
      : config_(config), names_(names), free_(names.size()) {}

  std::unique_ptr<SimSlot> acquire(std::size_t algorithm) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto& stack = free_[algorithm];
      if (!stack.empty()) {
        std::unique_ptr<SimSlot> slot = std::move(stack.back());
        stack.pop_back();
        return slot;
      }
    }
    return std::make_unique<SimSlot>(config_, sched::make_algorithm(names_[algorithm]));
  }

  void release(std::size_t algorithm, std::unique_ptr<SimSlot> slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_[algorithm].push_back(std::move(slot));
  }

 private:
  sim::SimulatorConfig config_;
  const std::vector<std::string>& names_;
  std::mutex mutex_;
  std::vector<std::vector<std::unique_ptr<SimSlot>>> free_;
};

/// Threads abandoned by timed-out cells. They cannot be interrupted (the
/// simulator has no cancellation points), so they run to completion holding
/// shared ownership of their trace and SimSlot. Tests join them between
/// runs; anything still alive at static destruction is detached - joining
/// there could block exit forever, and a joinable std::thread destructor
/// would std::terminate.
class StrayThreads {
 public:
  void add(std::thread thread) {
    std::lock_guard<std::mutex> lock(stray_mutex_);
    threads_.push_back(std::move(thread));
  }

  void join_all() {
    std::vector<std::thread> taken;
    {
      std::lock_guard<std::mutex> lock(stray_mutex_);
      taken.swap(threads_);
    }
    for (std::thread& thread : taken) {
      if (thread.joinable()) thread.join();
    }
  }

  ~StrayThreads() {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.detach();
    }
  }

 private:
  std::mutex stray_mutex_ RTDLS_LOCK_LEVEL(30);
  std::vector<std::thread> threads_;
};

StrayThreads& stray_threads() {
  static StrayThreads instance;
  return instance;
}

using TracePtr = std::shared_ptr<const std::vector<workload::Task>>;

/// Runs one cell attempt under a wall-clock budget. The helper thread takes
/// shared ownership of the slot and trace; on completion within the budget
/// the slot returns to the pool and the metrics (or the simulation's
/// exception) propagate. On timeout the thread is abandoned to the stray
/// registry - the slot is intentionally NOT returned (it is still running)
/// and a fresh one will be built on the pool's next miss.
sim::SimMetrics run_attempt_with_timeout(SlotPool& pool, std::size_t algorithm,
                                         std::unique_ptr<SimSlot> slot, TracePtr trace,
                                         double sim_time, double timeout_sec) {
  struct Shared {
    std::unique_ptr<SimSlot> slot;
    TracePtr trace;
    std::promise<sim::SimMetrics> promise;
  };
  auto shared = std::make_shared<Shared>();
  shared->slot = std::move(slot);
  shared->trace = std::move(trace);
  std::future<sim::SimMetrics> future = shared->promise.get_future();
  std::thread worker([shared, sim_time] {
    try {
      shared->promise.set_value(shared->slot->simulator.run(*shared->trace, sim_time));
    } catch (...) {
      shared->promise.set_exception(std::current_exception());
    }
  });
  if (future.wait_for(std::chrono::duration<double>(timeout_sec)) ==
      std::future_status::ready) {
    worker.join();
    // Release before get(): even when the simulation threw, run() resets all
    // per-run state on entry, so the slot is safe to reuse.
    pool.release(algorithm, std::move(shared->slot));
    return future.get();
  }
  stray_threads().add(std::move(worker));
  throw std::runtime_error("cell exceeded --cell-timeout-sec budget (" +
                           std::to_string(timeout_sec) + "s)");
}

/// Campaign-level telemetry in the process-global registry, alongside the
/// simulator/planner counters each cell's run contributes.
struct CampaignObs {
  obs::Counter cells;
  obs::Counter retried;
  obs::Counter failures;

  CampaignObs() {
    obs::Registry& reg = obs::Registry::global();
    cells = reg.counter("rtdls_campaign_cells_total");
    retried = reg.counter("rtdls_campaign_cell_retries_total");
    failures = reg.counter("rtdls_campaign_cell_failures_total");
  }
};

CampaignObs& campaign_obs() {
  static CampaignObs instance;
  return instance;
}

}  // namespace

HeartbeatFile::HeartbeatFile(std::string path)
    : path_(std::move(path)), start_(std::chrono::steady_clock::now()) {}

void HeartbeatFile::beat(std::size_t done, std::size_t total, std::size_t failed,
                         std::size_t last_cell) {
  std::ofstream file(path_, std::ios::out | std::ios::trunc);
  if (!file) return;  // advisory: a broken heartbeat must not kill the run
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  util::CsvWriter writer(file);
  writer.write_row({"done", "total", "failed", "last_cell", "elapsed_sec"});
  writer.write_row({std::to_string(done), std::to_string(total), std::to_string(failed),
                    std::to_string(last_cell), util::format_roundtrip(elapsed)});
  file.flush();
}

void join_timed_out_cells() { stray_threads().join_all(); }

void run_campaign(const Campaign& campaign, const CampaignOptions& options, ResultSink& sink) {
  const ShardSelection shard = options.shard;
  if (shard.count == 0) throw std::invalid_argument("run_campaign: shard count must be >= 1");
  if (shard.index >= shard.count) {
    throw std::invalid_argument("run_campaign: shard index out of range");
  }

  const std::vector<SweepSpec>& sweeps = campaign.sweeps();

  // This shard's stripe of the global cell queue - or, in resume mode, the
  // caller's explicit cell list.
  std::vector<std::size_t> work;
  const std::size_t total = campaign.cell_count();
  if (options.cells != nullptr) {
    work = *options.cells;
    for (std::size_t cell : work) {
      if (cell >= total) {
        throw std::invalid_argument("run_campaign: explicit cell " + std::to_string(cell) +
                                    " out of range");
      }
    }
  } else {
    work.reserve(total / shard.count + 1);
    for (std::size_t i = shard.index; i < total; i += shard.count) work.push_back(i);
  }

  // Per-sweep simulator configuration and reusable simulator slots.
  std::vector<sim::SimulatorConfig> configs(sweeps.size());
  std::vector<std::unique_ptr<SlotPool>> pools(sweeps.size());
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    // Materializes the sweep's het_profile key into a speed profile; the
    // workload params (cell_workload) keep the scalar cluster so load
    // calibration is profile-independent.
    configs[s].params = sweeps[s].materialized_cluster();
    configs[s].release_policy = sweeps[s].release_policy;
    configs[s].shared_link = sweeps[s].shared_link;
    configs[s].output_ratio = sweeps[s].output_ratio;
    pools[s] = std::make_unique<SlotPool>(configs[s], sweeps[s].algorithms);
  }

  // One workload trace per (sweep, load, run), shared by every algorithm of
  // that sweep present in this shard (the paper's paired comparison: same
  // trace, different algorithms). Traces are a pure function of
  // (spec, load, run), so lazily generating each in whichever cell needs it
  // first cannot change results; each is freed after its last shard cell,
  // so peak trace memory tracks the in-flight cells, not the whole
  // campaign (at paper scale a full trace set is large).
  std::vector<std::size_t> trace_offsets(sweeps.size() + 1, 0);
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    trace_offsets[s + 1] = trace_offsets[s] + sweeps[s].loads.size() * sweeps[s].runs;
  }
  const std::size_t trace_count = trace_offsets.back();
  // shared_ptr rather than plain vectors: a timed-out cell's runaway thread
  // keeps its trace alive through its own reference after the campaign has
  // dropped (or finished and freed) it.
  std::vector<TracePtr> traces(trace_count);
  const auto trace_once = std::make_unique<std::once_flag[]>(trace_count);
  const auto cells_left = std::make_unique<std::atomic<std::size_t>[]>(trace_count);
  for (std::size_t t = 0; t < trace_count; ++t) cells_left[t].store(0, std::memory_order_relaxed);
  auto trace_id = [&](const CellRef& ref) {
    return trace_offsets[ref.sweep] + ref.load * sweeps[ref.sweep].runs + ref.run;
  };
  for (std::size_t i : work) {
    cells_left[trace_id(campaign.cell(i))].fetch_add(1, std::memory_order_relaxed);
  }

  std::mutex progress_mutex;
  std::size_t done = 0;
  std::mutex failed_mutex;
  std::atomic<std::size_t> failed_count{0};
  std::unique_ptr<HeartbeatFile> heartbeat;
  if (!options.heartbeat_path.empty()) {
    heartbeat = std::make_unique<HeartbeatFile>(options.heartbeat_path);
  }

  auto run_cell = [&](std::size_t w) {
    // Cooperative cancellation: cells not yet started are skipped entirely,
    // leaving them "never run" for `campaign resume` to pick up.
    if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
      return;
    }
    const CellRef ref = campaign.cell(work[w]);
    const SweepSpec& spec = sweeps[ref.sweep];
    const std::size_t t = trace_id(ref);
    std::call_once(trace_once[t], [&] {
      traces[t] = std::make_shared<const std::vector<workload::Task>>(
          workload::generate_workload(cell_workload(spec, spec.loads[ref.load], ref.run)));
    });
    const TracePtr trace = traces[t];

    // The simulate-and-validate part retries (flaky fleet machines); the
    // sink never sees a cell twice, so sink errors stay fatal.
    CellResult cell;
    cell.ref = ref;
    bool computed = false;
    std::size_t attempts = 0;
    std::exception_ptr last_error;
    std::string last_what;
    std::size_t theorem4_violations = 0;
    while (!computed && attempts <= options.retries) {
      ++attempts;
      try {
        std::unique_ptr<SimSlot> slot = pools[ref.sweep]->acquire(ref.algorithm);
        sim::SimMetrics metrics;
        if (options.cell_timeout_sec > 0.0) {
          metrics = run_attempt_with_timeout(*pools[ref.sweep], ref.algorithm,
                                             std::move(slot), trace, spec.sim_time,
                                             options.cell_timeout_sec);
        } else {
          metrics = slot->simulator.run(*trace, spec.sim_time);
          pools[ref.sweep]->release(ref.algorithm, std::move(slot));
        }

        theorem4_violations = metrics.theorem4_violations;
        cell.metrics[static_cast<std::size_t>(SweepMetric::kRejectRatio)] =
            metrics.reject_ratio();
        cell.metrics[static_cast<std::size_t>(SweepMetric::kMeanResponse)] =
            metrics.response_time.mean();
        cell.metrics[static_cast<std::size_t>(SweepMetric::kMeanWait)] =
            metrics.wait_time.mean();
        cell.metrics[static_cast<std::size_t>(SweepMetric::kUtilization)] =
            metrics.utilization();
        cell.metrics[static_cast<std::size_t>(SweepMetric::kDeadlineMisses)] =
            static_cast<double>(metrics.deadline_misses);
        cell.metrics[static_cast<std::size_t>(SweepMetric::kTheorem4Violations)] =
            static_cast<double>(metrics.theorem4_violations);
        computed = true;
      } catch (const std::exception& e) {
        last_error = std::current_exception();
        last_what = e.what();
      }
    }
    if (cells_left[t].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      traces[t].reset();  // runaway threads hold their own reference
    }

    // Theorem-4 halts are deterministic model violations, not flaky-machine
    // failures: check AFTER the retry loop (the metrics are already
    // computed) so the simulation is never pointlessly re-run, then follow
    // the same record-vs-abort policy.
    if (computed && theorem4_violations != 0 && spec.halt_on_theorem4) {
      computed = false;
      last_what = "campaign: Theorem 4 violated in sweep '" + spec.id + "' algorithm " +
                  spec.algorithms[ref.algorithm] +
                  " (set SweepSpec::halt_on_theorem4 = false to record instead)";
      last_error = std::make_exception_ptr(std::logic_error(last_what));
    }

    if (attempts > 1) campaign_obs().retried.add(attempts - 1);
    if (!computed) {
      campaign_obs().failures.inc();
      failed_count.fetch_add(1, std::memory_order_relaxed);
      if (options.failed == nullptr) std::rethrow_exception(last_error);
      {
        std::lock_guard<std::mutex> lock(failed_mutex);
        options.failed->push_back(FailedCell{work[w], attempts, last_what});
      }
    } else {
      campaign_obs().cells.inc();
      sink.consume(campaign, cell);
    }

    if (options.progress || heartbeat != nullptr) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      ++done;
      if (options.progress) options.progress(ref, done, work.size());
      if (heartbeat != nullptr) {
        heartbeat->beat(done, work.size(), failed_count.load(std::memory_order_relaxed),
                        ref.index);
      }
    }
  };

  if (options.pool != nullptr) {
    options.pool->parallel_for(work.size(), run_cell);
  } else {
    for (std::size_t w = 0; w < work.size(); ++w) run_cell(w);
  }
  if (options.failed != nullptr) {
    // Completion order is pool-dependent; the report is canonical by index.
    std::sort(options.failed->begin(), options.failed->end(),
              [](const FailedCell& a, const FailedCell& b) { return a.index < b.index; });
  }
  sink.close();
  // The simulators and traces die here, but glibc keeps what the pool's
  // lanes freed in their per-thread arenas, fragmented, so every repeated
  // campaign would raise the process's peak RSS. Hand it back.
  pools.clear();
  traces.clear();
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

AggregateSink::AggregateSink(const Campaign& campaign) {
  results_.reserve(campaign.sweeps().size());
  for (const SweepSpec& spec : campaign.sweeps()) {
    SweepResult result;
    result.spec = spec;
    result.curves.resize(spec.algorithms.size());
    for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
      result.curves[a].algorithm = spec.algorithms[a];
      for (MetricSeries& series : result.curves[a].metrics) {
        series.raw.assign(spec.loads.size() * spec.runs, 0.0);
        series.per_load.resize(spec.loads.size());
      }
    }
    results_.push_back(std::move(result));
  }
}

void AggregateSink::consume(const Campaign&, const CellResult& cell) {
  // Every cell owns exactly one raw[] slot per metric, so concurrent
  // consume() calls never touch the same memory and need no lock.
  SweepResult& result = results_[cell.ref.sweep];
  const std::size_t sample = cell.ref.load * result.spec.runs + cell.ref.run;
  CurveResult& curve = result.curves[cell.ref.algorithm];
  for (std::size_t m = 0; m < kSweepMetricCount; ++m) {
    curve.metrics[m].raw[sample] = cell.metrics[m];
  }
}

std::vector<SweepResult> AggregateSink::take(double wall_seconds) {
  // Aggregate every (algorithm, metric, load) over the runs in run order
  // with a streaming accumulator; order is fixed, so aggregation is
  // deterministic regardless of cell completion order.
  for (SweepResult& result : results_) {
    const std::size_t loads = result.spec.loads.size();
    const std::size_t runs = result.spec.runs;
    for (CurveResult& curve : result.curves) {
      for (MetricSeries& series : curve.metrics) {
        for (std::size_t l = 0; l < loads; ++l) {
          stats::RunningStats acc;
          for (std::size_t r = 0; r < runs; ++r) acc.add(series.raw[l * runs + r]);
          series.per_load[l] = stats::mean_confidence_interval(acc, result.spec.confidence);
        }
      }
    }
    result.wall_seconds = wall_seconds;
  }
  return std::move(results_);
}

std::vector<std::string> CellCsvSink::header() {
  std::vector<std::string> header{"cell", "sweep_id", "sweep",     "load_index",
                                  "run",  "algorithm", "load"};
  for (std::size_t m = 0; m < kSweepMetricCount; ++m) {
    header.emplace_back(sweep_metric_name(static_cast<SweepMetric>(m)));
  }
  return header;
}

CellCsvSink::CellCsvSink(const std::string& path, bool append)
    : path_(path),
      file_(path, append ? std::ios::out | std::ios::app : std::ios::out) {
  if (!file_) throw std::runtime_error("CellCsvSink: cannot open " + path);
  if (!append) {
    util::CsvWriter writer(file_);
    writer.write_row(header());
    file_.flush();
  }
}

void CellCsvSink::consume(const Campaign& campaign, const CellResult& cell) {
  const SweepSpec& spec = campaign.sweeps()[cell.ref.sweep];
  std::vector<std::string> row;
  row.reserve(7 + kSweepMetricCount);
  row.push_back(std::to_string(cell.ref.index));
  row.push_back(spec.id);
  row.push_back(std::to_string(cell.ref.sweep));
  row.push_back(std::to_string(cell.ref.load));
  row.push_back(std::to_string(cell.ref.run));
  row.push_back(spec.algorithms[cell.ref.algorithm]);
  row.push_back(util::format_roundtrip(spec.loads[cell.ref.load]));
  for (std::size_t m = 0; m < kSweepMetricCount; ++m) {
    row.push_back(util::format_roundtrip(cell.metrics[m]));
  }
  // Append and flush per cell: a killed shard keeps everything it finished,
  // and `tail -f` shows live progress.
  std::lock_guard<std::mutex> lock(mutex_);
  util::CsvWriter writer(file_);
  writer.write_row(row);
  file_.flush();
}

void CellCsvSink::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!file_.is_open()) return;
  file_.close();
  if (!file_) throw std::runtime_error("CellCsvSink: error writing " + path_);
}

namespace {

[[noreturn]] void merge_fail(const std::string& path, std::size_t row, const std::string& what) {
  throw std::runtime_error("campaign cell file: " + path + " row " + std::to_string(row) +
                           ": " + what);
}

/// Parses and validates one campaign cell file against the plan, marking
/// covered cells in `seen` (duplicates and cross-plan cells throw) and
/// forwarding each row to `sink` when non-null. Shared by merge (full
/// coverage required afterwards) and resume (partial coverage expected).
void scan_cell_file(const Campaign& campaign, const std::string& path,
                    std::vector<char>& seen, ResultSink* sink) {
  const std::size_t total = campaign.cell_count();
  const std::vector<std::string> expected_header = CellCsvSink::header();
  const auto rows = util::parse_csv_file(path);
  if (rows.empty() || rows.front() != expected_header) {
    throw std::runtime_error("campaign cell file: " + path + " is not a campaign cell file");
  }
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    if (row.size() != expected_header.size()) merge_fail(path, r, "wrong field count");

    unsigned long long index = 0;
    if (!util::parse_u64(row[0], index) || index >= total) {
      merge_fail(path, r, "bad cell index '" + row[0] + "'");
    }
    const CellRef ref = campaign.cell(static_cast<std::size_t>(index));
    const SweepSpec& spec = campaign.sweeps()[ref.sweep];
    // Cross-check the human-readable columns against what this campaign
    // says cell `index` is: catches merging shards of a different plan.
    if (row[1] != spec.id || row[2] != std::to_string(ref.sweep) ||
        row[3] != std::to_string(ref.load) || row[4] != std::to_string(ref.run) ||
        row[5] != spec.algorithms[ref.algorithm]) {
      merge_fail(path, r, "cell " + row[0] + " does not belong to this campaign (sweep '" +
                              row[1] + "' algorithm " + row[5] + ")");
    }
    double load = 0.0;
    if (!util::parse_double(row[6], load) || load != spec.loads[ref.load]) {
      merge_fail(path, r, "load mismatch for cell " + row[0]);
    }
    if (seen[index] != 0) merge_fail(path, r, "duplicate cell " + row[0]);
    seen[index] = 1;

    if (sink != nullptr) {
      CellResult cell;
      cell.ref = ref;
      for (std::size_t m = 0; m < kSweepMetricCount; ++m) {
        if (!util::parse_double(row[7 + m], cell.metrics[m])) {
          merge_fail(path, r, "bad metric value '" + row[7 + m] + "'");
        }
      }
      sink->consume(campaign, cell);
    }
  }
}

}  // namespace

std::vector<SweepResult> merge_cell_files(const Campaign& campaign,
                                          const std::vector<std::string>& paths,
                                          const std::vector<FailedCell>* failed) {
  AggregateSink sink(campaign);
  const std::size_t total = campaign.cell_count();
  std::vector<char> seen(total, 0);
  for (const std::string& path : paths) scan_cell_file(campaign, path, seen, &sink);

  // Absent cells split into two operator problems: cells a shard RAN and
  // gave up on (its failed-cells report names them - debug or rerun those),
  // and cells no shard ever ran (a shard file is missing or the fleet died
  // mid-queue - finish with `campaign resume`).
  // Sorted view of the failed reports (sidecars from several shards
  // concatenate, so the combined list is not globally ordered): one
  // binary search per absent cell instead of a linear scan.
  std::vector<const FailedCell*> failed_by_index;
  if (failed != nullptr) {
    failed_by_index.reserve(failed->size());
    for (const FailedCell& cell : *failed) failed_by_index.push_back(&cell);
    std::sort(failed_by_index.begin(), failed_by_index.end(),
              [](const FailedCell* a, const FailedCell* b) { return a->index < b->index; });
  }
  std::size_t failed_missing = 0;
  const FailedCell* first_failed = nullptr;
  std::size_t never_run = 0;
  std::size_t first_never = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (seen[i] != 0) continue;
    const FailedCell* report = nullptr;
    const auto it = std::lower_bound(
        failed_by_index.begin(), failed_by_index.end(), i,
        [](const FailedCell* cell, std::size_t index) { return cell->index < index; });
    if (it != failed_by_index.end() && (*it)->index == i) report = *it;
    if (report != nullptr) {
      if (failed_missing == 0) first_failed = report;
      ++failed_missing;
    } else {
      if (never_run == 0) first_never = i;
      ++never_run;
    }
  }
  if (failed_missing + never_run != 0) {
    std::string what = "merge_cell_files: " + std::to_string(failed_missing + never_run) +
                       " of " + std::to_string(total) + " cells missing";
    if (failed_missing != 0) {
      what += ": " + std::to_string(failed_missing) + " failed on their shard (first: cell " +
              std::to_string(first_failed->index) + " after " +
              std::to_string(first_failed->attempts) + " attempt(s): " +
              first_failed->error + ")";
    }
    if (never_run != 0) {
      if (failed_missing != 0) what += " and";
      what += ": " + std::to_string(never_run) + " never ran (first: cell " +
              std::to_string(first_never) +
              "); pass every shard's cell file, or fill the gaps with "
              "`rtdls_cli campaign resume`";
    } else {
      what += "; re-run the failed cells with `rtdls_cli campaign resume --retries`";
    }
    throw std::runtime_error(what);
  }
  return sink.take();
}

namespace {

const std::vector<std::string>& failed_cells_header() {
  static const std::vector<std::string> header{"cell", "attempts", "error"};
  return header;
}

}  // namespace

void write_failed_cells(const std::string& path, const std::vector<FailedCell>& failed) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("write_failed_cells: cannot open " + path);
  util::CsvWriter writer(file);
  writer.write_row(failed_cells_header());
  for (const FailedCell& cell : failed) {
    writer.write_row({std::to_string(cell.index), std::to_string(cell.attempts), cell.error});
  }
  file.flush();
  if (!file) throw std::runtime_error("write_failed_cells: error writing " + path);
}

std::vector<FailedCell> read_failed_cells(const std::string& path) {
  const auto rows = util::parse_csv_file(path);
  if (rows.empty() || rows.front() != failed_cells_header()) {
    throw std::runtime_error("read_failed_cells: " + path +
                             " is not a campaign failed-cells report");
  }
  std::vector<FailedCell> failed;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    unsigned long long index = 0;
    unsigned long long attempts = 0;
    if (row.size() != 3 || !util::parse_u64(row[0], index) ||
        !util::parse_u64(row[1], attempts)) {
      throw std::runtime_error("read_failed_cells: " + path + " row " + std::to_string(r) +
                               ": malformed");
    }
    failed.push_back(FailedCell{static_cast<std::size_t>(index),
                                static_cast<std::size_t>(attempts), row[2]});
  }
  return failed;
}

std::vector<std::size_t> missing_cells(const Campaign& campaign,
                                       const std::vector<std::string>& paths) {
  std::vector<char> seen(campaign.cell_count(), 0);
  for (const std::string& path : paths) scan_cell_file(campaign, path, seen, nullptr);
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] == 0) missing.push_back(i);
  }
  return missing;
}

}  // namespace rtdls::exp
