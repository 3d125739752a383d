#include "dlt/user_split.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rtdls::dlt {

std::optional<std::size_t> user_split_min_nodes(const ClusterParams& params,
                                                double sigma, Time rel_deadline) {
  if (!params.valid()) throw std::invalid_argument("user_split_min_nodes: invalid params");
  if (!(sigma > 0.0)) throw std::invalid_argument("user_split_min_nodes: sigma must be > 0");
  const double denom = rel_deadline - sigma * params.cms;
  if (denom <= 0.0) return std::nullopt;  // even infinite nodes cannot help
  const double raw = sigma * params.cps / denom;
  std::size_t n = static_cast<std::size_t>(std::ceil(raw));
  return std::max<std::size_t>(n, 1);
}

UserSplitSchedule build_user_split_schedule(const ClusterParams& params, double sigma,
                                            std::vector<Time> available) {
  std::sort(available.begin(), available.end());
  UserSplitSchedule schedule;
  schedule.available = std::move(available);
  user_split_completions_into(params, sigma, schedule.available.data(),
                              schedule.available.size(), schedule.completion, &schedule.start);
  schedule.chunk = sigma / static_cast<double>(schedule.available.size());
  return schedule;
}

void user_split_completions_into(const ClusterParams& params, double sigma,
                                 const Time* available, std::size_t n,
                                 std::vector<Time>& completion, std::vector<Time>* start) {
  if (!params.valid()) throw std::invalid_argument("user_split_schedule: invalid params");
  if (!(sigma > 0.0)) throw std::invalid_argument("user_split_schedule: sigma must be > 0");
  if (n == 0) throw std::invalid_argument("user_split_schedule: need >= 1 node");

  const double chunk = sigma / static_cast<double>(n);
  const double tx = chunk * params.cms;
  const double compute = chunk * params.cps;
  completion.resize(n);
  if (start != nullptr) start->resize(n);
  Time previous_start = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // s_1 = r_1; s_i = max(r_i, s_{i-1} + chunk*Cms): node i cannot start
    // before it is free, nor before the head node finished transmitting the
    // previous chunks over the single channel.
    const Time channel_free = (i == 0) ? available[0] : previous_start + tx;
    previous_start = std::max(available[i], channel_free);
    completion[i] = previous_start + tx + compute;
    if (start != nullptr) (*start)[i] = previous_start;
  }
}

}  // namespace rtdls::dlt
