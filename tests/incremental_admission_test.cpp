// Property tests for the incremental admission session (sched/admission):
// on randomized workloads the incremental simulator must produce schedules
// BIT-IDENTICAL to the full Figure-2 re-plan, for both policies, with and
// without calendar (backfilling) rules, and the parallel sweep runner must
// be byte-identical to the serial one.
#include <gtest/gtest.h>

#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "sched/admission.hpp"
#include "sim/schedule_log.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

workload::WorkloadParams random_params(std::uint64_t seed, double load, double dc_ratio) {
  workload::WorkloadParams params;
  params.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  params.system_load = load;
  params.dc_ratio = dc_ratio;
  params.total_time = 120000.0;
  params.seed = seed;
  return params;
}

/// Runs `algorithm` over `tasks` twice - incremental session (with the
/// controller's own full-test cross-check armed) and full stateless test -
/// and asserts every committed reservation and every counter agrees.
void expect_identical_schedules(const std::string& algorithm,
                                const workload::WorkloadParams& params,
                                sim::ReleasePolicy release_policy) {
  const auto tasks = workload::generate_workload(params);

  sim::ScheduleLog incremental_log;
  sim::SimulatorConfig incremental_config;
  incremental_config.params = params.cluster;
  incremental_config.release_policy = release_policy;
  incremental_config.incremental_admission = true;
  incremental_config.cross_check_admission = true;  // throws on any divergence
  incremental_config.schedule_log = &incremental_log;

  sim::ScheduleLog full_log;
  sim::SimulatorConfig full_config = incremental_config;
  full_config.incremental_admission = false;
  full_config.cross_check_admission = false;
  full_config.schedule_log = &full_log;

  const sim::SimMetrics inc = sim::simulate(incremental_config, algorithm, tasks,
                                            params.total_time);
  const sim::SimMetrics full = sim::simulate(full_config, algorithm, tasks,
                                             params.total_time);

  ASSERT_EQ(inc.arrivals, full.arrivals);
  ASSERT_EQ(inc.accepted, full.accepted) << algorithm;
  ASSERT_EQ(inc.rejected, full.rejected) << algorithm;
  ASSERT_EQ(inc.reject_reasons, full.reject_reasons);
  ASSERT_EQ(inc.theorem4_violations, full.theorem4_violations);
  ASSERT_EQ(inc.deadline_misses, full.deadline_misses);
  // Bitwise equality on the streamed statistics: identical schedules feed
  // identical observation sequences.
  EXPECT_EQ(inc.response_time.mean(), full.response_time.mean());
  EXPECT_EQ(inc.wait_time.mean(), full.wait_time.mean());
  EXPECT_EQ(inc.deadline_slack.mean(), full.deadline_slack.mean());
  EXPECT_EQ(inc.busy_time, full.busy_time);
  EXPECT_EQ(inc.idle_gap_time, full.idle_gap_time);

  // Every committed per-node reservation, in commit order, bit for bit.
  ASSERT_EQ(incremental_log.size(), full_log.size()) << algorithm;
  for (std::size_t i = 0; i < incremental_log.size(); ++i) {
    const sim::ScheduleEntry& a = incremental_log.entries()[i];
    const sim::ScheduleEntry& b = full_log.entries()[i];
    ASSERT_EQ(a.task, b.task) << algorithm << " entry " << i;
    ASSERT_EQ(a.node, b.node) << algorithm << " entry " << i;
    ASSERT_EQ(a.usable_from, b.usable_from) << algorithm << " entry " << i;
    ASSERT_EQ(a.start, b.start) << algorithm << " entry " << i;
    ASSERT_EQ(a.end, b.end) << algorithm << " entry " << i;
    ASSERT_EQ(a.alpha, b.alpha) << algorithm << " entry " << i;
  }
}

TEST(IncrementalAdmission, MatchesFullReplanAcrossRandomWorkloads) {
  // 2 policies x 2 rules x randomized (seed, load, DCRatio) cells under both
  // release policies. Loose deadlines (high DCRatio) build the deep waiting
  // queues that exercise insertion mid-queue, policy-front commits, and
  // rejected rebuilds; at DCRatio 100 nodes sit idle under a waiting queue,
  // so arrivals refloor the session's front. kActual releases move nodes
  // outside the session's model (version bumps).
  const char* algorithms[] = {"EDF-DLT", "FIFO-DLT", "EDF-OPR-MN", "FIFO-OPR-MN"};
  const std::uint64_t seeds[] = {1, 7, 20070227};
  const double loads[] = {0.4, 0.9, 1.2};
  const double dc_ratios[] = {2.0, 25.0, 100.0};
  const char* const resyncs = "rtdls_admission_session_resyncs_total";
  const std::uint64_t resyncs_before = obs::Registry::global().counter_value(resyncs);
  for (const char* algorithm : algorithms) {
    for (std::uint64_t seed : seeds) {
      for (double load : loads) {
        for (double dc : dc_ratios) {
          for (sim::ReleasePolicy release :
               {sim::ReleasePolicy::kEstimate, sim::ReleasePolicy::kActual}) {
            expect_identical_schedules(algorithm, random_params(seed, load, dc), release);
          }
        }
      }
    }
  }
  EXPECT_GT(obs::Registry::global().counter_value(resyncs), resyncs_before)
      << "no cell refloored the session's front";
}

/// A one-node rule whose plan reads the availability row only for
/// `available`: reserved at arrival + 100 for 10 time units. Its front plan
/// survives a refloor whatever the row holds past its one consumed entry,
/// so only the refloor's own row check can tell a raised entry that the
/// next task plans against.
class FixedWindowRule final : public sched::PartitionRule {
 public:
  dlt::Infeasibility plan(const sched::PlanRequest& request,
                          sched::TaskPlan& out) const override {
    const workload::Task& task = *request.task;
    const cluster::Time start = task.arrival() + 100.0;
    const cluster::Time available = request.free_times->front();
    if (available > start) return dlt::Infeasibility::kNeedsMoreNodes;
    out.task = task.id;
    out.nodes = 1;
    out.available.assign(1, available);
    out.reserve_from.assign(1, start);
    out.node_release.assign(1, start + 10.0);
    out.alpha.assign(1, 1.0);
    out.est_completion = start + 10.0;
    out.rounds = 1;
    out.node_ids.clear();
    out.node_cps.clear();
    return dlt::Infeasibility::kNone;
  }
  std::string_view name() const override { return "FixedWindow"; }
};

struct Held {
  const workload::Task* task = nullptr;
  sched::TaskPlan plan;
};

std::uint64_t counter(const char* name) { return obs::Registry::global().counter_value(name); }

/// Admits `tasks` one by one at their arrivals through a cross-checked
/// FIFO session on a 3-node cluster whose nodes free at `free_at`, with no
/// commits in between, and returns the held queue.
std::vector<Held> admit_without_commits(const std::vector<workload::Task>& tasks,
                                        const std::vector<cluster::Time>& free_at) {
  const cluster::ClusterParams params{.node_count = 3, .cms = 1.0, .cps = 100.0};
  cluster::Cluster cluster(params);
  for (cluster::NodeId id = 0; id < free_at.size(); ++id) {
    static_cast<void>(cluster.commit(id, 1000 + id, 0.0, 0.0, free_at[id]));
  }
  const FixedWindowRule rule;
  sched::AdmissionController controller(sched::Policy::kFifo, &rule);
  controller.set_cross_check(true);  // throws on any divergence from test()
  std::vector<Held> held;
  std::vector<const workload::Task*> waiting;
  for (const workload::Task& task : tasks) {
    sched::AdmissionOutcome& outcome =
        controller.test_incremental(task, waiting, params, cluster, task.arrival());
    EXPECT_TRUE(outcome.accepted) << "task " << task.id;
    controller.adopt_schedule(outcome, held, [](Held&) {});
    waiting.clear();
    for (const Held& entry : held) waiting.push_back(entry.task);
  }
  return held;
}

std::vector<workload::Task> two_arrivals(cluster::Time second) {
  std::vector<workload::Task> tasks(2);
  tasks[0].id = 1;
  tasks[0].spec = {0.0, 10.0, 1000.0};
  tasks[1].id = 2;
  tasks[1].spec = {second, 10.0, 1000.0};
  return tasks;
}

TEST(IncrementalAdmission, RefloorKeepsTheSessionWhenOnlyTheFrontMoves) {
  // Nodes free at 5 and 8: the second arrival at 6 raises only the entry
  // the front consumes, so the session refloors instead of rebuilding and
  // hands the caller the front's refreshed plan.
  const std::uint64_t rebuilds = counter("rtdls_admission_session_rebuilds_total");
  const std::uint64_t resyncs = counter("rtdls_admission_session_resyncs_total");
  const std::vector<workload::Task> tasks = two_arrivals(6.0);
  const std::vector<Held> held = admit_without_commits(tasks, {5.0, 8.0, 1000.0});
  EXPECT_EQ(counter("rtdls_admission_session_rebuilds_total") - rebuilds, 1u);
  EXPECT_EQ(counter("rtdls_admission_session_resyncs_total") - resyncs, 1u);
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[0].plan.available, std::vector<cluster::Time>{6.0});
  EXPECT_EQ(held[0].plan.commit_time(), 100.0);
  EXPECT_EQ(held[1].plan.available, std::vector<cluster::Time>{8.0});
}

TEST(IncrementalAdmission, RefloorRebuildsWhenARaisedEntryOutlivesTheFront) {
  // Nodes free at 5 and 6: the arrival at 7 also raises the entry the
  // front hands on, which the second task plans against. The front's own
  // plan still differs only in `available`, so only the row check keeps
  // the session from handing the second task the stale 6.
  const std::uint64_t rebuilds = counter("rtdls_admission_session_rebuilds_total");
  const std::uint64_t resyncs = counter("rtdls_admission_session_resyncs_total");
  const std::vector<workload::Task> tasks = two_arrivals(7.0);
  const std::vector<Held> held = admit_without_commits(tasks, {5.0, 6.0, 1000.0});
  EXPECT_EQ(counter("rtdls_admission_session_rebuilds_total") - rebuilds, 2u);
  EXPECT_EQ(counter("rtdls_admission_session_resyncs_total") - resyncs, 0u);
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[0].plan.available, std::vector<cluster::Time>{7.0});
  EXPECT_EQ(held[1].plan.available, std::vector<cluster::Time>{7.0});
}

TEST(IncrementalAdmission, MatchesFullReplanUnderEarlyRelease) {
  // kActual releases mutate availability outside the admission session's
  // model; the session must detect it (version bump) and rebuild, never
  // diverge.
  for (const char* algorithm : {"EDF-DLT", "FIFO-DLT"}) {
    expect_identical_schedules(algorithm, random_params(3, 1.0, 20.0),
                               sim::ReleasePolicy::kActual);
  }
}

TEST(IncrementalAdmission, CalendarRulesTakeTheFullTestPath) {
  // Backfilling rules cannot use the incremental session (plans depend on
  // the whole reservation calendar); the simulator must route them through
  // the full test and still produce identical schedules with the
  // incremental flag on or off.
  expect_identical_schedules("EDF-OPR-MN-BF", random_params(5, 0.8, 10.0),
                             sim::ReleasePolicy::kEstimate);
  expect_identical_schedules("FIFO-OPR-MN-BF", random_params(9, 0.8, 10.0),
                             sim::ReleasePolicy::kEstimate);
}

TEST(IncrementalAdmission, SimulatorInstanceIsReusableAcrossRuns) {
  // run() must reset all per-run state in place: the same instance run
  // twice on the same trace gives bitwise-identical results, and a run on
  // a different trace in between must not leak state.
  const auto params_a = random_params(2, 1.0, 20.0);
  const auto params_b = random_params(4, 0.5, 2.0);
  const auto tasks_a = workload::generate_workload(params_a);
  const auto tasks_b = workload::generate_workload(params_b);

  sim::SimulatorConfig config;
  config.params = params_a.cluster;
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sim::ClusterSimulator simulator(config, algorithm);

  const sim::SimMetrics first = simulator.run(tasks_a, params_a.total_time);
  simulator.run(tasks_b, params_b.total_time);
  const sim::SimMetrics again = simulator.run(tasks_a, params_a.total_time);

  EXPECT_EQ(first.accepted, again.accepted);
  EXPECT_EQ(first.rejected, again.rejected);
  EXPECT_EQ(first.busy_time, again.busy_time);
  EXPECT_EQ(first.response_time.mean(), again.response_time.mean());
  EXPECT_EQ(first.queue_length.max(), again.queue_length.max());
}

TEST(SweepDeterminism, PooledAndSerialSweepsAreByteIdentical) {
  exp::SweepSpec spec;
  spec.id = "determinism";
  spec.title = "pooled vs serial";
  spec.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  spec.loads = {0.4, 0.8, 1.0};
  spec.algorithms = {"EDF-OPR-MN", "EDF-DLT", "FIFO-DLT"};
  spec.runs = 3;
  spec.sim_time = 80000.0;

  const exp::SweepResult serial = exp::run_sweep(spec, nullptr);
  util::ThreadPool pool(4);
  const exp::SweepResult pooled = exp::run_sweep(spec, &pool);

  ASSERT_EQ(serial.curves.size(), pooled.curves.size());
  for (std::size_t a = 0; a < serial.curves.size(); ++a) {
    EXPECT_EQ(serial.curves[a].algorithm, pooled.curves[a].algorithm);
    for (std::size_t m = 0; m < exp::kSweepMetricCount; ++m) {
      const exp::MetricSeries& s = serial.curves[a].metrics[m];
      const exp::MetricSeries& p = pooled.curves[a].metrics[m];
      ASSERT_EQ(s.raw.size(), p.raw.size());
      for (std::size_t i = 0; i < s.raw.size(); ++i) {
        EXPECT_EQ(s.raw[i], p.raw[i])  // bitwise, not almost-equal
            << serial.curves[a].algorithm << " metric " << m << " sample " << i;
      }
      ASSERT_EQ(s.per_load.size(), p.per_load.size());
      for (std::size_t l = 0; l < s.per_load.size(); ++l) {
        EXPECT_EQ(s.per_load[l].mean, p.per_load[l].mean);
        EXPECT_EQ(s.per_load[l].half_width, p.per_load[l].half_width);
        EXPECT_EQ(s.per_load[l].samples, p.per_load[l].samples);
      }
    }
  }
}

}  // namespace
}  // namespace rtdls
