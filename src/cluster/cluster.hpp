// The cluster model: N homogeneous processing nodes behind one head node.
//
// The scheduler plans against the *sorted vector of node release times*
// (nodes are interchangeable in the paper's model); the cluster maps an
// accepted plan onto concrete node ids and keeps per-node accounting.
#pragma once

#include <vector>

#include "cluster/availability_index.hpp"
#include "cluster/node.hpp"
#include "cluster/types.hpp"

namespace rtdls::cluster {

/// Availability snapshot used by planning: release times of all N nodes,
/// floored at `now` and sorted ascending, so `times[k-1]` is the instant at
/// which k nodes are simultaneously available (and also the available time
/// r_k of the k-th earliest node for IIT-utilizing partitioning).
///
/// Under a heterogeneous speed profile the snapshot additionally carries
/// which node sits at each position and its unit processing cost: `ids[i]`
/// owns `times[i]` and costs `cps[i]`, strictly ordered by (time, id). The
/// id/cps columns are empty for homogeneous clusters, where positions are
/// interchangeable.
struct AvailabilityView {
  Time now = 0.0;
  std::vector<Time> times;   ///< sorted ascending, size N
  std::vector<NodeId> ids;   ///< het only: node at each position
  std::vector<double> cps;   ///< het only: unit processing cost per position
};

/// Mutable cluster state.
class Cluster {
 public:
  explicit Cluster(ClusterParams params);

  const ClusterParams& params() const { return params_; }
  std::size_t size() const { return nodes_.size(); }

  const Node& node(NodeId id) const { return nodes_.at(id); }

  /// Monotonic availability version: bumped by every mutation of any node's
  /// release time (commit, early release, reset). An unchanged version
  /// guarantees an unchanged availability snapshot for any `now` at or
  /// before the earliest node release, which lets the incremental admission
  /// path skip rebuilding and re-planning entirely.
  std::uint64_t version() const { return version_; }

  /// Returns every node to the initial idle state, keeping allocations
  /// (back-to-back sweep cells reuse one cluster instead of reconstructing).
  void reset();

  /// Builds the availability snapshot at time `now`.
  AvailabilityView availability(Time now) const;

  /// Same snapshot written into `out` (capacity reused; hot path). Served
  /// from the sorted free-time index: an O(N) copy, no per-call sort.
  void availability_into(Time now, std::vector<Time>& out) const;

  /// Snapshot plus the owning node ids in strict (time, id) order - the
  /// heterogeneous planning/admission input (see
  /// AvailabilityIndex::availability_with_ids_into).
  void availability_with_ids_into(Time now, std::vector<Time>& times,
                                  std::vector<NodeId>& ids) const;

  /// Ids of the `n` earliest-available nodes at `now` (ties broken by id so
  /// commitments are deterministic). `n` must not exceed size().
  std::vector<NodeId> earliest_free_nodes(Time now, std::size_t n) const;

  /// Same, written into `out` (capacity reused; hot path).
  void earliest_free_nodes_into(Time now, std::size_t n, std::vector<NodeId>& out) const;

  /// Commits node `id` to `task` over [start, end); see Node::commit for
  /// the `usable_from` IIT-accounting parameter.
  void commit(NodeId id, TaskId task, Time usable_from, Time start, Time end);

  /// Releases node `id` early at `at` (actual completion before estimate).
  void release_early(NodeId id, Time at);

  /// Restores node `id` to an exact snapshot state (service-layer crash
  /// recovery): release time and accounting are taken verbatim, the sorted
  /// index is repositioned, and the availability version is bumped so any
  /// admission session standing on the old state invalidates.
  void restore_node(NodeId id, Time free_at, Time busy_time, Time idle_gap_time,
                    std::size_t commitments);

  /// Totals across nodes, for utilization / IIT reports.
  Time total_busy_time() const;
  Time total_idle_gap_time() const;

  /// The sorted free-time index backing the availability reads; exposed for
  /// rank queries (AvailabilityIndex::available_by / kth_free_time) and the
  /// index-consistency tests.
  const AvailabilityIndex& index() const { return index_; }

  /// Debug/tests: true iff the index invariants hold against every node's
  /// authoritative free_at().
  bool index_consistent() const;

 private:
  ClusterParams params_;
  std::vector<Node> nodes_;
  AvailabilityIndex index_;
  std::uint64_t version_ = 0;
};

}  // namespace rtdls::cluster
