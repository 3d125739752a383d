#include "sim/exec_model.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include "util/fp.hpp"

namespace rtdls::sim {

Time ActualTimeline::task_completion() const {
  Time latest = 0.0;
  for (Time t : completion) latest = std::max(latest, t);
  return latest;
}

ActualTimeline roll_out(const cluster::ClusterParams& params, double sigma,
                        const sched::TaskPlan& plan, Time channel_available) {
  ActualTimeline timeline;
  roll_out(params, sigma, plan, channel_available, timeline);
  return timeline;
}

void roll_out(const cluster::ClusterParams& params, double sigma, const sched::TaskPlan& plan,
              Time channel_available, ActualTimeline& out) {
  if (plan.nodes == 0) throw std::invalid_argument("roll_out: empty plan");
  if (!(sigma > 0.0)) throw std::invalid_argument("roll_out: sigma must be > 0");

  out.tx_start.resize(plan.nodes);
  out.tx_end.resize(plan.nodes);
  out.completion.resize(plan.nodes);

  Time channel_free = channel_available;
  for (std::size_t i = 0; i < plan.nodes; ++i) {
    const double tx_cost = plan.alpha[i] * sigma * params.cms;
    // Heterogeneous plans pin each slot's actual speed; homogeneous plans
    // leave node_cps empty and every slot computes at params.cps.
    const double node_cps = plan.node_cps.empty() ? params.cps : plan.node_cps[i];
    const double compute_cost = plan.alpha[i] * sigma * node_cps;
    // The chunk may not be sent before the node is reserved for the task
    // (its own available time; r_n for OPR rules) nor before the previous
    // chunk left the channel.
    out.tx_start[i] = std::max(plan.reserve_from[i], channel_free);
    out.tx_end[i] = out.tx_start[i] + tx_cost;
    out.completion[i] = out.tx_end[i] + compute_cost;
    channel_free = out.tx_end[i];
  }
}

ResultTimeline roll_out_with_results(const cluster::ClusterParams& params, double sigma,
                                     double delta, const sched::TaskPlan& plan,
                                     Time channel_available) {
  ResultTimeline timeline;
  roll_out_with_results(params, sigma, delta, plan, channel_available, timeline);
  return timeline;
}

void roll_out_with_results(const cluster::ClusterParams& params, double sigma, double delta,
                           const sched::TaskPlan& plan, Time channel_available,
                           ResultTimeline& out) {
  if (!(delta >= 0.0)) {
    throw std::invalid_argument("roll_out_with_results: delta must be >= 0");
  }
  roll_out(params, sigma, plan, channel_available, out.input);
  std::vector<std::size_t>& order = out.service_order;
  order.resize(plan.nodes);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (fp::exact_eq(delta, 0.0)) {
    out.result_tx_start = out.input.completion;
    out.result_tx_end = out.input.completion;
    out.task_completion = out.input.task_completion();
    return;
  }

  // Serve result returns in node-completion order on the shared channel,
  // which frees after the last input transmission.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return out.input.completion[a] < out.input.completion[b];
  });

  out.result_tx_start.resize(plan.nodes);
  out.result_tx_end.resize(plan.nodes);
  out.task_completion = 0.0;
  Time channel_free = out.input.tx_end.back();
  for (std::size_t i : order) {
    const double result_cost = delta * plan.alpha[i] * sigma * params.cms;
    out.result_tx_start[i] = std::max(out.input.completion[i], channel_free);
    out.result_tx_end[i] = out.result_tx_start[i] + result_cost;
    channel_free = out.result_tx_end[i];
    out.task_completion = std::max(out.task_completion, channel_free);
  }
}

}  // namespace rtdls::sim
