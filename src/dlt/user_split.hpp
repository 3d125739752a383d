// User-Split partitioning (Section 4.1.2): the "current practice" baseline
// where a user manually splits a task into n equal subtasks, n drawn by the
// user from [N_min, N].
//
//   N_min = ceil( sigma*Cps / (D - sigma*Cms) )
//   C_i(sigma, n) = s_i + sigma*Cms/n + sigma*Cps/n
//   s_1 = r_1,  s_i = max(r_i, s_{i-1} + sigma*Cms/n)      (Eq. 15 context)
//   C(sigma, n) = s_n + sigma*Cms/n + sigma*Cps/n          (Eq. 15)
//
// Unlike DLT partitioning, chunks are equal-sized, so the sequential
// distribution channel (not the computation) shapes the start times; the
// method still uses IITs because node i starts as soon as it is both free
// and reached by the channel.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dlt/params.hpp"
#include "util/annotations.hpp"

namespace rtdls::dlt {

/// N_min for user-split: the minimum node count that meets the relative
/// deadline when the task starts immediately on arrival. Returns nullopt
/// when no finite node count works (D <= sigma*Cms).
std::optional<std::size_t> user_split_min_nodes(const ClusterParams& params,
                                                double sigma, Time rel_deadline);

/// Per-node schedule of an equal split over nodes available at `available`
/// (sorted ascending internally).
struct UserSplitSchedule {
  std::vector<Time> available;     ///< r_i, sorted
  std::vector<Time> start;         ///< s_i: when node i's transmission starts
  std::vector<Time> completion;    ///< C_i = s_i + chunk*(Cms+Cps)
  double chunk = 0.0;              ///< sigma / n

  /// Task completion time C(sigma, n) = completion of the last node.
  Time task_completion() const { return completion.empty() ? 0.0 : completion.back(); }
};

/// Builds the equal-split schedule for load `sigma` over the given node
/// available times. Preconditions: valid params, sigma > 0, >= 1 node.
UserSplitSchedule build_user_split_schedule(const ClusterParams& params, double sigma,
                                            std::vector<Time> available);

/// The schedule's recurrence over `n` nodes whose available times
/// `available[0..n)` are already sorted ascending: writes each C_i into
/// `completion` (reusing its capacity) and, when `start` is non-null, each
/// s_i into it. Same preconditions as build_user_split_schedule.
RTDLS_HOT void user_split_completions_into(const ClusterParams& params, double sigma,
                                           const Time* available, std::size_t n,
                                           std::vector<Time>& completion,
                                           std::vector<Time>* start = nullptr);

}  // namespace rtdls::dlt
