// EDF/FIFO-DLT partitioning (Section 4.1.1): the paper's new algorithm.
//
// Node-count resolution (see NodeSearch in partition_rule.hpp):
//  * kIterative - scan n = 1..N; with rn(n) = free_times[n-1], take the
//    first n with n_min_tilde(rn(n)) <= n. rn(n) is nondecreasing in n and
//    n_min_tilde nondecreasing in rn, so the first crossing satisfies the
//    bound with equality (n > 1): it IS the n_min_tilde assignment, reached
//    as the least fixed point of the pseudocode's circular definition.
//  * kOptimistic - n = n_min_tilde(free_times[0]) computed once at the
//    earliest possible start; the explicit completion check then rejects
//    tasks whose n nodes only gather too late.
// The two hard-infeasibility reasons (deadline passed / pure transmission
// too long) only worsen as rn grows, so they abort the search immediately.
#include <algorithm>
#include <vector>

#include "dlt/het_model.hpp"
#include "dlt/nmin.hpp"
#include "sched/het_planner.hpp"
#include "sched/rule_detail.hpp"
#include "util/annotations.hpp"
#include "util/fp.hpp"

namespace rtdls::sched {

namespace {

/// Writes the IIT-utilizing plan over the first `assigned` availability
/// slots into `out` (every field, see PartitionRule::plan); `part` is the
/// rule's reused model scratch.
RTDLS_HOT dlt::Infeasibility write_dlt_plan(const PlanRequest& request, std::size_t assigned,
                                           dlt::HetPartition& part, TaskPlan& out) {
  const workload::Task& task = *request.task;
  // free_times is sorted, so the model builds straight from its prefix.
  dlt::build_het_partition_into(request.params, task.sigma(), *request.free_times, assigned,
                                part);
  const Time est = part.estimated_completion();
  if (fp::after(est, task.abs_deadline())) {
    // Live under kOptimistic (the n nodes gathered too late); a
    // floating-point guard under kIterative.
    return dlt::Infeasibility::kNeedsMoreNodes;
  }
  out.task = task.id;
  out.nodes = assigned;
  out.available = part.available;
  out.reserve_from = part.available;  // IITs utilized: start when free
  out.node_release.assign(assigned, est);
  out.alpha = part.alpha;
  out.est_completion = est;
  out.rounds = 1;
  out.node_ids.clear();
  out.node_cps.clear();
  return dlt::Infeasibility::kNone;
}

class DltIitRule final : public PartitionRule {
 public:
  explicit DltIitRule(NodeSearch search) : search_(search) {}

  dlt::Infeasibility plan(const PlanRequest& request, TaskPlan& out) const override {
    detail::validate_request(request);
    if (request.params.heterogeneous()) return het::plan_dlt_iit(request, het_scratch_, out);
    const workload::Task& task = *request.task;
    const std::vector<Time>& free_times = *request.free_times;

    auto [assigned, reason] = detail::resolve_node_count(search_, request.params, task.sigma(),
                                                         task.abs_deadline(), free_times);
    if (reason == dlt::Infeasibility::kNeedsMoreNodes) {
      // n_min_tilde is only an UPPER bound for the IIT-utilizing execution
      // time E_hat <= E (Eq. 9). When the bound exceeds the cluster, the
      // pseudocode still assigns the task its nodes and lets the explicit
      // e_i <= A_i + D_i test decide - and with E_hat the whole cluster can
      // succeed where the bound (and OPR-MN) must give up. This clamped
      // retry is where utilizing IITs admits tasks the baseline rejects.
      assigned = free_times.size();
      reason = dlt::Infeasibility::kNone;
    }
    if (reason != dlt::Infeasibility::kNone) return reason;
    return write_dlt_plan(request, assigned, scratch_, out);
  }

  std::string_view name() const override { return "DLT"; }

  // Both paths reject at the row front exactly as the screen predicts: het
  // via hard_reject at position 1, homogeneous via minimum_nodes at
  // free_times[0] (kNeedsMoreNodes is the only clamped-retried reason; the
  // screen never returns it).
  bool hard_rejects_at_front() const override { return true; }

 private:
  NodeSearch search_;
  /// Reused across plan() calls (see PartitionRule's thread-affinity note):
  /// the model vectors are not re-allocated on every admission-loop plan.
  mutable dlt::HetPartition scratch_;
  mutable het::PlannerScratch het_scratch_;
};

}  // namespace

namespace detail {

namespace {

/// The linear scan returns the reason found at the FIRST infeasible
/// position; feasibility is monotone in rn (the slack and gamma only shrink
/// as rn grows), so that position is recovered by binary search over
/// (first_feasible, known_infeasible]. `known_reason` is the reason already
/// evaluated at the `infeasible` endpoint, so the common case (the range is
/// a single position) costs no extra n_min evaluation.
std::pair<std::size_t, dlt::Infeasibility> first_infeasible_reason(
    const cluster::ClusterParams& params, double sigma, Time deadline,
    const std::vector<Time>& free_times, std::size_t feasible, std::size_t infeasible,
    dlt::Infeasibility known_reason) {
  std::size_t lo = feasible + 1;
  std::size_t hi = infeasible;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (dlt::minimum_nodes(params, sigma, deadline, free_times[mid - 1]).feasible()) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == infeasible) return {0, known_reason};
  return {0, dlt::minimum_nodes(params, sigma, deadline, free_times[lo - 1]).reason};
}

}  // namespace

std::pair<std::size_t, dlt::Infeasibility> resolve_node_count(
    NodeSearch search, const cluster::ClusterParams& params, double sigma, Time deadline,
    const std::vector<Time>& free_times) {
  const std::size_t cluster_size = free_times.size();
  if (search == NodeSearch::kOptimistic) {
    const dlt::NminResult need =
        dlt::minimum_nodes(params, sigma, deadline, free_times.front());
    if (!need.feasible()) return {0, need.reason};
    if (need.nodes > cluster_size) return {0, dlt::Infeasibility::kNeedsMoreNodes};
    return {need.nodes, dlt::Infeasibility::kNone};
  }
  // Galloping least-fixed-point search, outcome-identical to the linear
  // n = 1..N scan. n_min_tilde(rn) is nondecreasing in rn and
  // rn(n) = free_times[n-1] is nondecreasing in n, so from a failing n with
  // m = n_min_tilde(rn(n)) > n every n' in (n, m) also fails
  // (n_min_tilde(rn(n')) >= m > n') and the search jumps straight to m:
  // O(log N)-ish evaluations on real availability states instead of O(N).
  std::size_t feasible_up_to = 0;  // largest position known feasible
  std::size_t n = 1;
  while (n <= cluster_size) {
    const dlt::NminResult need =
        dlt::minimum_nodes(params, sigma, deadline, free_times[n - 1]);
    if (!need.feasible()) {
      return first_infeasible_reason(params, sigma, deadline, free_times, feasible_up_to, n,
                                     need.reason);
    }
    if (need.nodes <= n) return {need.nodes, dlt::Infeasibility::kNone};
    feasible_up_to = n;
    if (need.nodes > cluster_size) {
      // No position can succeed any more; the scan would still surface an
      // infeasibility if rn crosses the threshold before N.
      const dlt::NminResult at_end =
          dlt::minimum_nodes(params, sigma, deadline, free_times[cluster_size - 1]);
      if (!at_end.feasible()) {
        return first_infeasible_reason(params, sigma, deadline, free_times, feasible_up_to,
                                       cluster_size, at_end.reason);
      }
      return {0, dlt::Infeasibility::kNeedsMoreNodes};
    }
    n = need.nodes;
  }
  return {0, dlt::Infeasibility::kNeedsMoreNodes};
}

}  // namespace detail

std::unique_ptr<PartitionRule> make_dlt_iit_rule(NodeSearch search) {
  return std::make_unique<DltIitRule>(search);
}

}  // namespace rtdls::sched
