// Output-aware decorator rule (*-IO variants): wraps any inner partition
// rule and budgets the result-collection phase (dlt/output_model) into the
// deadline. The inner rule plans the input phase against a deadline tighter
// by delta*sigma*Cms; the decorated plan then extends the completion
// estimate (and node holds) by exactly that channel time, which
// output_completion_bound proves sufficient.
#include <algorithm>
#include <string>

#include "dlt/output_model.hpp"
#include "sched/rule_detail.hpp"

namespace rtdls::sched {

namespace {

class OutputAwareRule final : public PartitionRule {
 public:
  OutputAwareRule(std::unique_ptr<PartitionRule> inner, double delta)
      : inner_(std::move(inner)),
        delta_(delta),
        name_(std::string(inner_->name()) + "-IO") {
    if (!(delta_ >= 0.0)) {
      throw std::invalid_argument("OutputAwareRule: delta must be >= 0");
    }
  }

  dlt::Infeasibility plan(const PlanRequest& request, TaskPlan& out) const override {
    detail::validate_request(request);
    const workload::Task& task = *request.task;
    const double result_time =
        dlt::output_channel_time(request.params, task.sigma(), delta_);

    // The input phase must finish early enough to leave channel time for
    // the results; infeasible outright if the result volume alone blows
    // the deadline.
    workload::Task input_task = task;
    input_task.spec.rel_deadline = task.rel_deadline() - result_time;
    if (input_task.spec.rel_deadline <= 0.0) {
      return dlt::Infeasibility::kTransmissionTooLong;
    }

    PlanRequest input_request = request;
    input_request.task = &input_task;
    const dlt::Infeasibility reason = inner_->plan(input_request, out);
    if (reason != dlt::Infeasibility::kNone) return reason;

    out.task = task.id;
    out.est_completion += result_time;
    // Conservative hold: the result-return order across nodes is not fixed
    // at planning time, so every node is held until the full bound.
    for (Time& release : out.node_release) {
      release = std::max(release, out.est_completion);
    }
    return reason;
  }

  std::string_view name() const override { return name_; }

  // The decorator tightens the deadline before delegating, so the screen's
  // raw-deadline columns would mispredict: keep hard_rejects_at_front()
  // false. Counters still flow through from the inner rule.
  PlannerCounters planner_counters() const override { return inner_->planner_counters(); }
  void reset_planner_counters() const override { inner_->reset_planner_counters(); }

 private:
  std::unique_ptr<PartitionRule> inner_;
  double delta_;
  std::string name_;
};

}  // namespace

std::unique_ptr<PartitionRule> make_output_aware_rule(std::unique_ptr<PartitionRule> inner,
                                                      double delta) {
  return std::make_unique<OutputAwareRule>(std::move(inner), delta);
}

}  // namespace rtdls::sched
