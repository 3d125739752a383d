// Steady-state allocation budget of the commit path: once warmed, putting a
// plan on nodes (sched::commit_plan), recording its index work, and rolling
// it out into a reused timeline allocate nothing.
//
// Counted through alloc_counter.hpp (see there for why this is an
// executable of its own).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "cluster/cluster.hpp"
#include "sched/admission.hpp"
#include "sim/exec_model.hpp"
#include "workload/task.hpp"

namespace rtdls {
namespace {

constexpr std::size_t kNodes = 512;
constexpr cluster::Time kLength = 1000.0;

/// A homogeneous single-round plan over `n` slots with equal fractions.
sched::TaskPlan equal_plan(std::size_t n) {
  sched::TaskPlan plan;
  plan.task = 1;
  plan.nodes = n;
  plan.available.assign(n, 0.0);
  plan.reserve_from.assign(n, 0.0);
  plan.node_release.assign(n, 0.0);
  plan.alpha.assign(n, 1.0 / static_cast<double>(n));
  return plan;
}

/// Moves `plan` to start at `at` in place: staggered reservations that all
/// release at at + kLength (no node is busy past `at` by construction).
void shift_to(sched::TaskPlan& plan, cluster::Time at) {
  for (std::size_t i = 0; i < plan.nodes; ++i) {
    plan.available[i] = at + static_cast<double>(i) * 0.5;
    plan.reserve_from[i] = plan.available[i];
    plan.node_release[i] = at + kLength;
  }
  plan.est_completion = at + kLength;
}

TEST(CommitPathAllocations, WarmCommitAndRolloutAllocateNothingAtN512) {
  const cluster::ClusterParams params{.node_count = kNodes, .cms = 1.0, .cps = 100.0};
  cluster::Cluster cluster(params);
  workload::Task task;
  task.id = 1;
  task.spec.sigma = 0.5;
  // Full-width, tiny and mid-size plans: a shrinking plan must not shed
  // capacity the next wide one needs.
  std::vector<sched::TaskPlan> plans{equal_plan(kNodes), equal_plan(3), equal_plan(64)};
  std::vector<cluster::NodeId> ids;
  sim::ActualTimeline timeline;
  cluster::Time at = 0.0;

  auto cycle = [&](std::size_t i) {
    sched::TaskPlan& plan = plans[i % plans.size()];
    shift_to(plan, at);
    sched::commit_plan(task, plan, at, cluster, nullptr, ids).record();
    sim::roll_out(params, task.sigma(), plan, 0.0, timeline);
    at += kLength + 1.0;
  };

  for (std::size_t i = 0; i < 3 * plans.size(); ++i) cycle(i);
  const std::uint64_t before = alloc_test::allocation_count();
  for (std::size_t i = 0; i < 1000; ++i) cycle(i);
  const std::uint64_t after = alloc_test::allocation_count();

  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(cluster.index_consistent());
  EXPECT_EQ(timeline.completion.size(), plans[999 % plans.size()].nodes);
}

}  // namespace
}  // namespace rtdls
