// Plan-into hygiene: every rule writes all of a TaskPlan, so planning into
// storage that last held a differently shaped plan (het identity columns,
// several rounds, a wider node count) gives exactly the plan a fresh
// TaskPlan gets. A stale field surviving in recycled storage is the one way
// kept plan storage could break the bit-identical schedules, so this pins
// it for every registered rule on homogeneous and heterogeneous clusters,
// and checks that a rejected test adopts nothing.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/calendar.hpp"
#include "cluster/speed_profile.hpp"
#include "sched/admission.hpp"
#include "sched/registry.hpp"

namespace rtdls {
namespace {

constexpr std::size_t kNodes = 16;

struct ReuseCase {
  std::string algorithm;
  bool het = false;
};

void PrintTo(const ReuseCase& c, std::ostream* os) {
  *os << c.algorithm << (c.het ? " het" : " homogeneous");
}

cluster::ClusterParams cluster_params(bool het) {
  cluster::ClusterParams params{.node_count = kNodes, .cms = 1.0, .cps = 100.0};
  if (het) {
    params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
        cluster::SpeedProfile::uniform(kNodes, 50.0, 150.0, 3));
  }
  return params;
}

/// Storage that last held a plan of another shape, every field junk.
sched::TaskPlan shaped(std::size_t n, std::size_t rounds, bool identity) {
  sched::TaskPlan plan;
  plan.task = 999;
  plan.nodes = n;
  plan.available.assign(n, -7.0);
  plan.reserve_from.assign(n, -7.0);
  plan.node_release.assign(n, 1.0e9);
  plan.alpha.assign(n, 0.5);
  plan.est_completion = 1.0e9;
  plan.rounds = rounds;
  if (identity) {
    plan.node_ids.assign(n, kNodes - 1);
    plan.node_cps.assign(n, 42.0);
  }
  return plan;
}

std::vector<sched::TaskPlan> dirty_slots() {
  return {shaped(kNodes, 1, true), shaped(kNodes, 4, false), shaped(1, 3, true),
          shaped(kNodes, 2, true)};
}

/// Availability rows: idle, staggered, and mostly busy.
std::vector<std::vector<cluster::Time>> rows() {
  std::vector<std::vector<cluster::Time>> out(3, std::vector<cluster::Time>(kNodes, 0.0));
  for (std::size_t i = 0; i < kNodes; ++i) {
    out[1][i] = 100.0 * static_cast<double>(i);
    out[2][i] = i < 3 ? 0.0 : 4000.0 + 10.0 * static_cast<double>(i);
  }
  return out;
}

/// Tasks from narrow to cluster-wide, plus hopeless ones (infeasible).
std::vector<workload::Task> tasks() {
  struct Spec {
    double sigma;
    double deadline;
    std::size_t user_nodes;
  };
  const std::vector<Spec> specs = {{200.0, 3000.0, 4},  {200.0, 1500.0, 16},
                                   {50.0, 50000.0, 2},  {200.0, 150.0, 3},
                                   {400.0, 2500.0, 16}, {120.0, 9000.0, 9}};
  std::vector<workload::Task> out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    workload::Task task;
    task.id = 10 + i;
    task.spec = {0.0, specs[i].sigma, specs[i].deadline};
    task.user_nodes = specs[i].user_nodes;
    out.push_back(task);
  }
  return out;
}

/// Node i busy over [0, row[i]) - the calendar view of an availability row.
cluster::NodeCalendar calendar_of(const std::vector<cluster::Time>& row) {
  cluster::NodeCalendar calendar(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (row[i] > 0.0) calendar.reserve(static_cast<cluster::NodeId>(i), 0.0, row[i]);
  }
  return calendar;
}

class PlanReuse : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(PlanReuse, RecycledStoragePlansBitIdenticalToFreshStorage) {
  const sched::Algorithm algorithm = sched::make_algorithm(GetParam().algorithm);
  const cluster::ClusterParams params = cluster_params(GetParam().het);
  std::vector<cluster::NodeId> ids(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) ids[i] = static_cast<cluster::NodeId>(i);

  // One slot carried across every request: it always last held the
  // previous request's plan (or an infeasible call's leftovers).
  sched::TaskPlan carried = shaped(kNodes, 4, true);
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (std::vector<cluster::Time> row : rows()) {
    const cluster::NodeCalendar calendar = calendar_of(row);
    for (const workload::Task& task : tasks()) {
      sched::PlanRequest request;
      request.task = &task;
      request.params = params;
      request.free_times = &row;
      request.node_ids = GetParam().het ? &ids : nullptr;
      request.calendar = algorithm.rule->uses_calendar() ? &calendar : nullptr;

      sched::TaskPlan fresh;
      const dlt::Infeasibility reason = algorithm.rule->plan(request, fresh);
      (reason == dlt::Infeasibility::kNone ? feasible : infeasible) += 1;

      std::vector<sched::TaskPlan> slots = dirty_slots();
      slots.push_back(carried);
      for (sched::TaskPlan& slot : slots) {
        ASSERT_EQ(algorithm.rule->plan(request, slot), reason) << "task " << task.id;
        if (reason == dlt::Infeasibility::kNone) {
          EXPECT_TRUE(slot == fresh) << "task " << task.id << ": a field of the slot's "
                                     << "previous plan survived";
        }
      }
      ASSERT_EQ(algorithm.rule->plan(request, carried), reason);
    }
  }
  // The requests must reach both outcomes for the check to mean anything.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

std::vector<ReuseCase> reuse_cases() {
  std::vector<std::string> names = sched::all_algorithm_names();
  names.push_back("EDF-DLT-IO20");
  names.push_back("FIFO-OPR-MN-IO20");
  names.push_back("EDF-MR2-IO20");
  std::vector<ReuseCase> cases;
  for (const std::string& name : names) {
    cases.push_back({name, false});
    cases.push_back({name, true});
  }
  return cases;
}

std::string case_label(const ::testing::TestParamInfo<ReuseCase>& info) {
  std::string label = info.param.algorithm + (info.param.het ? "_het" : "");
  for (char& c : label) {
    if (c == '-') c = '_';
  }
  return label;
}

INSTANTIATE_TEST_SUITE_P(AllRules, PlanReuse, ::testing::ValuesIn(reuse_cases()), case_label);

// A rejected arrival adopts nothing: its outcome carries no schedule, and
// the session's next accepted outcome - planned into the slots the
// rejection left behind - adopts into a queue equal, plan for plan, to a
// fresh controller's stateless test.
TEST(PlanReuse, RejectedArrivalAdoptsNothing) {
  const cluster::ClusterParams params = cluster_params(false);
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sched::AdmissionController controller(algorithm.policy, algorithm.rule.get());
  const cluster::Cluster cluster(params);
  const std::vector<workload::Task> all = tasks();

  struct Held {
    const workload::Task* task = nullptr;
    sched::TaskPlan plan;
  };
  std::vector<Held> held;
  std::vector<const workload::Task*> waiting;
  std::size_t rejected = 0;
  for (const workload::Task& task : all) {
    waiting.clear();
    for (const Held& entry : held) waiting.push_back(entry.task);
    sched::AdmissionOutcome& outcome =
        controller.test_incremental(task, waiting, params, cluster, 0.0);
    if (!outcome.accepted) {
      ++rejected;
      EXPECT_TRUE(outcome.schedule.empty());
      EXPECT_EQ(outcome.reused_prefix, 0u);
      EXPECT_FALSE(outcome.front_refreshed);
      continue;
    }
    controller.adopt_schedule(outcome, held, [](Held&) {});
    sched::AdmissionController reference(algorithm.policy, algorithm.rule.get());
    const sched::AdmissionOutcome& expected = reference.test(
        &task, waiting, params, std::vector<cluster::Time>(kNodes, 0.0), 0.0);
    ASSERT_TRUE(expected.accepted);
    ASSERT_EQ(held.size(), expected.schedule.size());
    for (std::size_t i = 0; i < held.size(); ++i) {
      EXPECT_EQ(held[i].task, expected.schedule[i].task);
      EXPECT_TRUE(held[i].plan == expected.schedule[i].plan);
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace rtdls
