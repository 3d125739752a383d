// Prior-work baselines from [22] (Lin et al., RTSS'07):
//
//  * OPR-MN ("optimal partitioning rule, minimum nodes"): the task waits
//    until its n nodes are simultaneously available at r_n, wasting the
//    earlier nodes' time as Inserted Idle Time; execution time is the
//    homogeneous E(sigma, n). The n search is shared with the DLT rule
//    (the Section 4.1.1 B closed form is common to both).
//  * OPR-AN ("all nodes"): every task gets the whole cluster; tasks
//    serialize and no IITs arise, at the cost of eliminating parallelism
//    between tasks.
#include <algorithm>
#include <vector>

#include "dlt/homogeneous.hpp"
#include "dlt/nmin.hpp"
#include "sched/het_planner.hpp"
#include "sched/rule_detail.hpp"
#include "util/annotations.hpp"
#include "util/fp.hpp"

namespace rtdls::sched {

namespace {

/// Writes the OPR plan into `out` (every field, see PartitionRule::plan):
/// all `assigned` nodes reserved from r_n to the estimate, which must meet
/// the deadline.
RTDLS_HOT dlt::Infeasibility make_opr_plan(const PlanRequest& request, std::size_t assigned,
                                          Time rn, TaskPlan& out) {
  const workload::Task& task = *request.task;
  const std::vector<Time>& free_times = *request.free_times;
  const Time est = rn + dlt::homogeneous_execution_time(request.params, task.sigma(),
                                                        assigned);
  if (fp::after(est, task.abs_deadline())) {
    // Live under kOptimistic; floating-point guard under kIterative.
    return dlt::Infeasibility::kNeedsMoreNodes;
  }
  out.task = task.id;
  out.nodes = assigned;
  out.available.assign(free_times.begin(),
                       free_times.begin() + static_cast<std::ptrdiff_t>(assigned));
  out.reserve_from.assign(assigned, rn);  // simultaneous allocation: IITs wasted
  out.node_release.assign(assigned, est);
  dlt::homogeneous_partition_into(request.params, assigned, out.alpha);
  out.est_completion = est;
  out.rounds = 1;
  out.node_ids.clear();
  out.node_cps.clear();
  return dlt::Infeasibility::kNone;
}

class OprMnRule final : public PartitionRule {
 public:
  explicit OprMnRule(NodeSearch search) : search_(search) {}

  dlt::Infeasibility plan(const PlanRequest& request, TaskPlan& out) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) return het::plan_opr_mn(request, het_scratch_, out);
    const workload::Task& task = *request.task;
    const std::vector<Time>& free_times = *request.free_times;

    const auto [assigned, reason] = detail::resolve_node_count(
        search_, request.params, task.sigma(), task.abs_deadline(), free_times);
    if (reason != dlt::Infeasibility::kNone) return reason;
    return make_opr_plan(request, assigned, free_times[assigned - 1], out);
  }

  std::string_view name() const override { return "OPR-MN"; }

  // Same first-position hard rejections as the DLT rule (shared
  // resolve_node_count / het scan).
  bool hard_rejects_at_front() const override { return true; }

 private:
  NodeSearch search_;
  mutable het::PlannerScratch het_scratch_;
};

class OprAnRule final : public PartitionRule {
 public:
  dlt::Infeasibility plan(const PlanRequest& request, TaskPlan& out) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) return het::plan_opr_an(request, het_scratch_, out);
    const std::vector<Time>& free_times = *request.free_times;
    const Time rn = free_times.back();
    if (request.task->abs_deadline() <= rn) return dlt::Infeasibility::kDeadlinePassed;
    return make_opr_plan(request, free_times.size(), rn, out);
  }

  std::string_view name() const override { return "OPR-AN"; }

 private:
  mutable het::PlannerScratch het_scratch_;
};

}  // namespace

std::unique_ptr<PartitionRule> make_opr_mn_rule(NodeSearch search) {
  return std::make_unique<OprMnRule>(search);
}

std::unique_ptr<PartitionRule> make_opr_an_rule() {
  return std::make_unique<OprAnRule>();
}

}  // namespace rtdls::sched
