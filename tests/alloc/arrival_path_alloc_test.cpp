// Steady-state allocation budget of the arrival path: once a simulator has
// run a trace, running the same trace again - every Figure-2 test, suffix
// re-plan, outcome copy, schedule adoption and commit - allocates nothing.
// Plans are written into kept storage (PartitionRule::plan's plan-into
// contract), the admission session and its outcome recycle plan slots, and
// sched::adopt_schedule swaps plans with the waiting queue.
//
// Counted through alloc_counter.hpp (see there for why this is an
// executable of its own).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

constexpr std::size_t kTasks = 3000;

/// N=16, DCRatio 100, load 1.0: deep waiting queues, rejections, and
/// arrivals after an idle node's release (each refloors the session's front
/// or, when the rows after it change, rebuilds the session).
std::vector<workload::Task> deep_queue_trace() {
  workload::WorkloadParams params;
  params.cluster = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  params.system_load = 1.0;
  params.dc_ratio = 100.0;
  params.total_time = 1.5 * static_cast<double>(kTasks) * params.mean_interarrival();
  params.seed = 7;
  std::vector<workload::Task> tasks = workload::generate_workload(params);
  if (tasks.size() > kTasks) tasks.resize(kTasks);
  return tasks;
}

std::uint64_t counter(const char* name) { return obs::Registry::global().counter_value(name); }

class ArrivalPathAllocations : public ::testing::TestWithParam<std::string> {};

TEST_P(ArrivalPathAllocations, SecondRunOfTheSameTraceAllocatesNothing) {
  const std::vector<workload::Task> tasks = deep_queue_trace();
  ASSERT_EQ(tasks.size(), kTasks);
  const cluster::Time horizon = tasks.back().arrival();

  sim::SimulatorConfig config;
  config.params = {.node_count = 16, .cms = 1.0, .cps = 100.0};
  const sched::Algorithm algorithm = sched::make_algorithm(GetParam());
  sim::ClusterSimulator simulator(config, algorithm);

  const char* const rebuilds = "rtdls_admission_session_rebuilds_total";
  const char* const resyncs = "rtdls_admission_session_resyncs_total";
  const std::uint64_t rebuilds_before = counter(rebuilds);
  const std::uint64_t resyncs_before = counter(resyncs);
  const sim::SimMetrics warm = simulator.run(tasks, horizon);
  // The trace must reach the paths this budget is about.
  EXPECT_GT(warm.rejected, 0u);
  EXPECT_GT(warm.queue_length.mean(), 5.0);
  EXPECT_GT(counter(rebuilds), rebuilds_before) << "the session never rebuilt";
  EXPECT_GT(counter(resyncs), resyncs_before) << "the session never refloored its front";

  const std::uint64_t before = alloc_test::allocation_count();
  const sim::SimMetrics again = simulator.run(tasks, horizon);
  const std::uint64_t after = alloc_test::allocation_count();

  EXPECT_EQ(after - before, 0u) << (after - before) / static_cast<double>(kTasks)
                                << " allocations per arrival";
  EXPECT_EQ(again.accepted, warm.accepted);
  EXPECT_EQ(again.rejected, warm.rejected);
  EXPECT_EQ(again.theorem4_violations, 0u);
  EXPECT_EQ(again.deadline_misses, 0u);
}

std::string rule_label(const ::testing::TestParamInfo<std::string>& info) {
  std::string label = info.param;
  for (char& c : label) {
    if (c == '-') c = '_';
  }
  return label;
}

INSTANTIATE_TEST_SUITE_P(PaperRules, ArrivalPathAllocations,
                         ::testing::Values("EDF-DLT", "EDF-OPR-MN", "EDF-UserSplit",
                                           "FIFO-DLT", "FIFO-OPR-MN"),
                         rule_label);

}  // namespace
}  // namespace rtdls
