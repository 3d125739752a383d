// Multi-round (multi-installment) divisible load scheduling - the paper's
// stated future-work direction (Section 6): "by adopting multi-round
// scheduling [10], we can further improve the IITs utilization".
//
// This module implements a uniform multi-installment heuristic on top of the
// heterogeneous-model partitioner: the load is divided into R installments
// of sigma/R; each installment is DLT-partitioned against the nodes'
// availability after the previous installment, and the full timeline
// (sequential single-channel transmissions, per-node computation) is rolled
// out explicitly so the completion estimate is exact by construction rather
// than an upper bound.
//
// This is an EXTENSION beyond the paper's evaluated algorithms; see
// `rtdls_cli figure --id ablation_multiround` for its measured effect.
#pragma once

#include <cstddef>
#include <vector>

#include "dlt/params.hpp"

namespace rtdls::dlt {

/// Timeline of one installment.
struct RoundPlan {
  std::vector<double> alpha;     ///< fractions of the *installment* load
  std::vector<Time> tx_start;    ///< per node, when its chunk starts transmitting
  std::vector<Time> completion;  ///< per node, when its chunk finishes computing
};

/// Full multi-round schedule.
struct MultiRoundSchedule {
  std::vector<Time> initial_available;  ///< r_i, sorted ascending
  std::vector<RoundPlan> rounds;
  std::vector<Time> node_completion;    ///< per node, completion of its last chunk
  Time channel_busy_until = 0.0;        ///< end of the last installment transmission

  /// Exact task completion time (max over nodes, last round).
  Time task_completion() const;
};

/// Builds a multi-round schedule for load `sigma` over nodes available at
/// `available`, using `rounds` uniform installments. rounds == 1 degenerates
/// to the single-round heterogeneous-model schedule (with the exact timeline
/// instead of the r_n + E_hat upper bound).
///
/// `channel_available`: earliest time the head node's link may serve this
/// task. Planning assumes a dedicated channel (0); the shared-link execution
/// rollout passes the global channel-free time so installments wait for the
/// link instead of double-booking it.
/// Preconditions: valid params, sigma > 0, >= 1 node, rounds >= 1.
MultiRoundSchedule build_multiround_schedule(const ClusterParams& params, double sigma,
                                             std::vector<Time> available,
                                             std::size_t rounds,
                                             Time channel_available = 0.0);

}  // namespace rtdls::dlt
