// EDF/FIFO-UserSplit (Section 4.1.2): the current-practice baseline. The
// task is split into n equal chunks where n is the *user's* request
// (Task::user_nodes, drawn uniformly from [N_min, N] at generation time and
// stable across re-tests), the chunks go to the n earliest-available nodes,
// and each node starts as soon as it is free and the channel reaches it
// (IITs utilized, but with the suboptimal equal partition).
#include <algorithm>
#include <vector>

#include "dlt/user_split.hpp"
#include "sched/het_planner.hpp"
#include "sched/rule_detail.hpp"
#include "util/annotations.hpp"
#include "util/fp.hpp"

namespace rtdls::sched {

namespace {

/// Writes the equal-split plan over the first `n` availability slots into
/// `out` (every field, see PartitionRule::plan).
RTDLS_HOT dlt::Infeasibility write_user_split_plan(const PlanRequest& request, std::size_t n,
                                                  TaskPlan& out) {
  const workload::Task& task = *request.task;
  const std::vector<Time>& free_times = *request.free_times;
  // Each node frees at its own C_i; free_times is sorted, so the chunks go
  // to its first n entries in order.
  dlt::user_split_completions_into(request.params, task.sigma(), free_times.data(), n,
                                   out.node_release);
  const Time est = out.node_release.back();
  if (fp::after(est, task.abs_deadline())) return dlt::Infeasibility::kNeedsMoreNodes;
  out.task = task.id;
  out.nodes = n;
  out.available.assign(free_times.begin(),
                       free_times.begin() + static_cast<std::ptrdiff_t>(n));
  out.reserve_from = out.available;  // node is held from its r_i
  out.alpha.assign(n, 1.0 / static_cast<double>(n));
  out.est_completion = est;
  out.rounds = 1;
  out.node_ids.clear();
  out.node_cps.clear();
  return dlt::Infeasibility::kNone;
}

class UserSplitRule final : public PartitionRule {
 public:
  dlt::Infeasibility plan(const PlanRequest& request, TaskPlan& out) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) return het::plan_user_split(request, het_scratch_, out);
    const workload::Task& task = *request.task;
    const std::size_t cluster_size = request.free_times->size();
    // The "user" request; a degenerate 0 (e.g. hand-built task) means "ask
    // for the whole cluster".
    const std::size_t n = std::min(task.user_nodes == 0 ? cluster_size : task.user_nodes,
                                   cluster_size);
    return write_user_split_plan(request, n, out);
  }

  std::string_view name() const override { return "UserSplit"; }

 private:
  mutable het::PlannerScratch het_scratch_;
};

}  // namespace

std::unique_ptr<PartitionRule> make_user_split_rule() {
  return std::make_unique<UserSplitRule>();
}

}  // namespace rtdls::sched
