// Tests for the bucketed AvailabilityIndex: N=10^4 randomized differentials
// against a sorted-vector oracle over the three index mutations (commit /
// release_early / reset), the adversarial monotone-arrival pattern that
// drags every entry across the whole timeline, desync detection, and full
// simulations pinned to golden schedule digests (EDF/FIFO x DLT/MR2/
// OPR-MN-BF, homogeneous and heterogeneous, with the admission cross-check
// armed).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/availability_index.hpp"
#include "cluster/cluster.hpp"
#include "cluster/speed_profile.hpp"
#include "sim/schedule_log.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace rtdls {
namespace {

using cluster::AvailabilityIndex;
using cluster::NodeId;
using cluster::Time;

// --- oracle differentials ---------------------------------------------------

/// Test-only reference: every (free_at, node) pair in one sorted vector,
/// repositioned by erase + insert, with each query answered straight from
/// its definition. Slow and obviously right.
class SortedOracle {
 public:
  using Pair = std::pair<Time, NodeId>;

  explicit SortedOracle(std::size_t nodes) { reset(nodes); }

  void reset(std::size_t nodes) {
    entries_.clear();
    for (std::size_t i = 0; i < nodes; ++i) entries_.emplace_back(0.0, static_cast<NodeId>(i));
  }

  void update(NodeId node, Time from, Time to) {
    const Pair key{from, node};
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), key);
    ASSERT_TRUE(it != entries_.end() && *it == key) << "oracle desync";
    entries_.erase(it);
    entries_.insert(std::lower_bound(entries_.begin(), entries_.end(), Pair{to, node}),
                    Pair{to, node});
  }

  std::size_t size() const { return entries_.size(); }
  Time kth_free_time(std::size_t k) const { return entries_.at(k).first; }
  std::size_t available_by(Time t) const {
    return static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(), [t](const Pair& e) { return e.first <= t; }));
  }

  /// (max(free_at, now), node) for every node, in ascending pair order.
  std::vector<Pair> floored(Time now) const {
    std::vector<Pair> out = entries_;
    for (Pair& e : out) e.first = std::max(e.first, now);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<Pair> entries_;
};

/// Asserts the index's snapshot queries match the oracle's definitions.
void expect_snapshots_match(Time now, const SortedOracle& oracle,
                            const std::vector<Time>& times, const std::vector<NodeId>& ids,
                            std::size_t id_count) {
  const std::vector<SortedOracle::Pair> want = oracle.floored(now);
  ASSERT_EQ(times.size(), want.size()) << "now=" << now;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(times[i], want[i].first) << "time at " << i << " now=" << now;
  }
  ASSERT_EQ(ids.size(), id_count) << "now=" << now;
  for (std::size_t i = 0; i < id_count; ++i) {
    ASSERT_EQ(ids[i], want[i].second) << "id at " << i << " now=" << now;
  }
}

/// Asserts every query surface of `index` agrees with the oracle (and with
/// the authoritative per-node times). `full` toggles the O(N) snapshots.
void expect_matches_oracle(const AvailabilityIndex& index, const SortedOracle& oracle,
                           const std::vector<Time>& free_times, Time now, bool full) {
  ASSERT_TRUE(index.consistent_with(free_times));
  ASSERT_EQ(index.size(), oracle.size());
  EXPECT_EQ(index.available_by(now), oracle.available_by(now));
  EXPECT_EQ(index.available_by(0.0), oracle.available_by(0.0));
  const std::size_t n = index.size();
  for (std::size_t k : {std::size_t{0}, n / 3, n / 2, n - 1}) {
    EXPECT_EQ(index.kth_free_time(k), oracle.kth_free_time(k)) << "k=" << k;
  }
  if (!full) return;
  std::vector<Time> times;
  std::vector<NodeId> ids;
  index.availability_into(now, times);
  expect_snapshots_match(now, oracle, times, ids, 0);
  index.availability_with_ids_into(now, times, ids);
  expect_snapshots_match(now, oracle, times, ids, n);
  for (std::size_t want : {std::size_t{1}, n / 7, n / 2, n}) {
    if (want == 0) continue;
    index.earliest_free_nodes_into(now, want, ids);
    expect_snapshots_match(now, oracle, times, ids, want);
  }
}

TEST(AvailabilityIndexBucket, RandomizedDifferentialAtTenThousandNodes) {
  // Randomized update storm at N=10^4 (commits moving entries up, early
  // releases moving them down, plus resets), with the full query surface
  // compared to the oracle along the way. Times come off a coarse grid so
  // duplicate free_at values (the node-id tie-break path) occur constantly.
  constexpr std::size_t kNodes = 10000;
  AvailabilityIndex index;
  index.reset(kNodes);
  SortedOracle oracle(kNodes);
  std::vector<Time> free_times(kNodes, 0.0);
  workload::Xoshiro256StarStar rng(20260809);
  Time now = 0.0;
  for (int step = 0; step < 3000; ++step) {
    const auto node = static_cast<NodeId>(rng() % kNodes);
    const double action = rng.next_double();
    const Time from = free_times[node];
    if (action < 0.65) {
      // Commit: release moves forward, onto a coarse grid for ties.
      const Time to = from + 1.0 + std::floor(rng.next_double() * 40.0);
      index.update(node, from, to);
      oracle.update(node, from, to);
      free_times[node] = to;
    } else if (action < 0.85) {
      // Early release: move backwards (but not before `now`).
      const Time to = std::max(now, std::floor(from * (0.3 + 0.6 * rng.next_double())));
      index.update(node, from, to);
      oracle.update(node, from, to);
      free_times[node] = to;
    } else if (action < 0.95) {
      now += std::floor(rng.next_double() * 30.0);
    } else {
      // No-op reposition: to == from must leave the index untouched.
      EXPECT_EQ(index.update(node, from, from), 0u);
    }
    expect_matches_oracle(index, oracle, free_times, now, /*full=*/step % 16 == 0);
  }
  expect_matches_oracle(index, oracle, free_times, now, /*full=*/true);

  // Mid-run reset: back to the all-free state, and still working after it.
  index.reset(kNodes);
  oracle.reset(kNodes);
  std::fill(free_times.begin(), free_times.end(), 0.0);
  expect_matches_oracle(index, oracle, free_times, 0.0, /*full=*/true);
  index.update(17, 0.0, 99.0);
  oracle.update(17, 0.0, 99.0);
  free_times[17] = 99.0;
  expect_matches_oracle(index, oracle, free_times, 0.0, /*full=*/true);
}

TEST(AvailabilityIndexBucket, AdversarialMonotoneArrivalPattern) {
  // Every update takes the earliest-free node (position 0) and releases it
  // past the current maximum - what a saturated monotone-arrival replay
  // does, and the pattern that would drag an entire sorted vector through
  // memmove. The index must stay bounded by its fanout while matching the
  // oracle.
  constexpr std::size_t kNodes = 10000;
  AvailabilityIndex index;
  index.reset(kNodes);
  SortedOracle oracle(kNodes);
  std::vector<Time> free_times(kNodes, 0.0);
  Time horizon = 0.0;
  std::size_t max_depth = 0;
  for (int step = 0; step < 4000; ++step) {
    // argmin by (free_at, node): the entry at rank 0.
    NodeId victim = 0;
    for (NodeId id = 1; id < kNodes; ++id) {
      if (free_times[id] < free_times[victim]) victim = id;
    }
    const Time from = free_times[victim];
    horizon += 1.0;
    const Time to = horizon + static_cast<Time>(kNodes);
    max_depth = std::max(max_depth, index.update(victim, from, to));
    oracle.update(victim, from, to);
    free_times[victim] = to;
    if (step % 64 == 0) {
      expect_matches_oracle(index, oracle, free_times, horizon, /*full=*/true);
    }
  }
  // Erase shift + insert shift, each bucket-local: two fanout-bounded
  // memmoves instead of ten thousand entries.
  EXPECT_LE(max_depth, 256u);
  expect_matches_oracle(index, oracle, free_times, horizon, /*full=*/true);
}

TEST(AvailabilityIndexBucket, ClusterDifferentialCommitReleaseReset) {
  // Same storm through the Cluster layer (commit / release_early / reset) -
  // the wiring the simulator and daemon use - with the oracle following
  // each node's authoritative free_at().
  cluster::ClusterParams params;
  params.node_count = 512;
  params.cms = 1.0;
  params.cps = 100.0;
  cluster::Cluster cluster(params);
  SortedOracle oracle(512);

  workload::Xoshiro256StarStar rng(777);
  std::vector<Time> committed_until(512, 0.0);
  Time now = 0.0;
  std::vector<Time> times;
  std::vector<NodeId> ids;
  for (int step = 0; step < 600; ++step) {
    const auto node = static_cast<NodeId>(rng() % 512);
    const double action = rng.next_double();
    const Time before = cluster.node(node).free_at();
    if (action < 0.70) {
      const Time start = std::max(committed_until[node], now) + rng.next_double() * 50.0;
      const Time end = start + 1.0 + rng.next_double() * 500.0;
      cluster.commit(node, static_cast<cluster::TaskId>(step), start, start, end);
      committed_until[node] = end;
      oracle.update(node, before, cluster.node(node).free_at());
    } else if (action < 0.85) {
      const Time at = committed_until[node] * (0.5 + 0.5 * rng.next_double());
      cluster.release_early(node, at);
      committed_until[node] = at;
      oracle.update(node, before, cluster.node(node).free_at());
    } else if (action < 0.97) {
      now += rng.next_double() * 100.0;
    } else {
      cluster.reset();
      oracle.reset(512);
      std::fill(committed_until.begin(), committed_until.end(), 0.0);
      now = 0.0;
    }
    ASSERT_TRUE(cluster.index_consistent());
    cluster.availability_with_ids_into(now, times, ids);
    expect_snapshots_match(now, oracle, times, ids, 512);
    cluster.earliest_free_nodes_into(now, 128, ids);
    expect_snapshots_match(now, oracle, times, ids, 128);
  }
}

TEST(AvailabilityIndexBucket, BucketDesyncThrows) {
  // A desynced mirror must fail loudly: wrong `from` (any bucket) and
  // unknown node ids both throw.
  AvailabilityIndex index;
  index.reset(300);  // several buckets
  EXPECT_THROW(index.update(2, 5.0, 10.0), std::logic_error);    // wrong `from`
  EXPECT_THROW(index.update(299, -1.0, 10.0), std::logic_error); // before every bucket
  EXPECT_THROW(index.update(300, 0.0, 10.0), std::logic_error);  // unknown node
  index.update(2, 0.0, 10.0);
  EXPECT_EQ(index.available_by(0.0), 299u);
  EXPECT_THROW(index.update(2, 0.0, 20.0), std::logic_error);  // stale `from`
  EXPECT_THROW(index.kth_free_time(300), std::invalid_argument);
}

TEST(AvailabilityIndexBucket, InBucketFastPathReportsLocalDepth) {
  // Repositioning within one bucket must not disturb the geometry and must
  // report the bucket-local shift, not a global one.
  AvailabilityIndex index;
  index.reset(256);
  std::vector<Time> free_times(256, 0.0);
  // Spread entries so node i frees at i (one strictly increasing run).
  for (NodeId id = 0; id < 256; ++id) {
    index.update(id, 0.0, static_cast<Time>(id));
    free_times[id] = static_cast<Time>(id);
  }
  ASSERT_TRUE(index.consistent_with(free_times));
  // Node 10 moves from 10.0 to 12.5: two entries (11, 12) shift left.
  EXPECT_EQ(index.update(10, 10.0, 12.5), 2u);
  free_times[10] = 12.5;
  ASSERT_TRUE(index.consistent_with(free_times));
}

// --- schedule bit-identity property runs ------------------------------------

workload::WorkloadParams property_params(std::uint64_t seed, double load) {
  workload::WorkloadParams params;
  params.cluster = {.node_count = 512, .cms = 1.0, .cps = 100.0};
  params.system_load = load;
  params.avg_sigma = 40.0;  // short tasks: dense arrivals, heavy index churn
  params.dc_ratio = 20.0;
  params.total_time = 60000.0;
  params.seed = seed;
  return params;
}

/// 64-bit FNV-1a digest of a run's committed schedule: task, node and the
/// bit patterns of start/end/alpha for every reservation, then the
/// accepted/rejected counts.
std::uint64_t schedule_digest(const sim::ScheduleLog& log, const sim::SimMetrics& metrics) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const sim::ScheduleEntry& e : log.entries()) {
    mix(e.task);
    mix(e.node);
    mix(std::bit_cast<std::uint64_t>(e.start));
    mix(std::bit_cast<std::uint64_t>(e.end));
    mix(std::bit_cast<std::uint64_t>(e.alpha));
  }
  mix(metrics.accepted);
  mix(metrics.rejected);
  return hash;
}

/// Runs one algorithm with the admission cross-check armed and requires the
/// committed schedule to hash to `golden`. The constants were recorded from
/// a sorted-vector index that memmoved one flat array per update; the
/// index layout is pure representation, so any drift is an ordering bug.
void expect_golden_schedule(const std::string& algorithm, const workload::WorkloadParams& params,
                            sim::ReleasePolicy release_policy, bool heterogeneous,
                            std::uint64_t golden) {
  const auto tasks = workload::generate_workload(params);
  sim::ScheduleLog log;
  sim::SimulatorConfig config;
  config.params = params.cluster;
  config.release_policy = release_policy;
  config.incremental_admission = true;
  config.cross_check_admission = true;
  config.schedule_log = &log;
  if (heterogeneous) {
    config.params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
        cluster::parse_speed_profile("lognormal:0.4,7", params.cluster.node_count, 100.0));
  }
  const sim::SimMetrics metrics = sim::simulate(config, algorithm, tasks, params.total_time);
  ASSERT_GT(log.size(), 0u) << algorithm;
  EXPECT_EQ(schedule_digest(log, metrics), golden)
      << algorithm << ": accepted=" << metrics.accepted << " rejected=" << metrics.rejected
      << " reservations=" << log.size();
}

TEST(AvailabilityIndexBucketProperty, HomogeneousSchedulesBitIdentical) {
  const std::pair<const char*, std::uint64_t> runs[] = {
      {"EDF-DLT", 0x94a81391823e9de5ULL},       {"FIFO-DLT", 0x94a81391823e9de5ULL},
      {"EDF-MR2", 0xd33024675c375978ULL},       {"FIFO-MR2", 0xd33024675c375978ULL},
      {"EDF-OPR-MN-BF", 0xbbc73ace5f42d18cULL}, {"FIFO-OPR-MN-BF", 0xbbc73ace5f42d18cULL},
  };
  for (const auto& [algorithm, golden] : runs) {
    expect_golden_schedule(algorithm, property_params(21, 1.0), sim::ReleasePolicy::kEstimate,
                           /*heterogeneous=*/false, golden);
  }
}

TEST(AvailabilityIndexBucketProperty, HeterogeneousSchedulesBitIdentical) {
  const std::pair<const char*, std::uint64_t> runs[] = {
      {"EDF-DLT", 0x1675fda8190fb475ULL},
      {"FIFO-MR2", 0x7bedc2e1cf7b2f79ULL},
      {"EDF-OPR-MN-BF", 0x1675fda8190fb475ULL},
      {"FIFO-OPR-MN-BF", 0x1675fda8190fb475ULL},
  };
  for (const auto& [algorithm, golden] : runs) {
    expect_golden_schedule(algorithm, property_params(23, 1.0), sim::ReleasePolicy::kEstimate,
                           /*heterogeneous=*/true, golden);
  }
}

TEST(AvailabilityIndexBucketProperty, EarlyReleaseSchedulesBitIdentical) {
  // kActual releases reposition entries backwards through release_early.
  expect_golden_schedule("EDF-DLT", property_params(29, 1.1), sim::ReleasePolicy::kActual,
                         /*heterogeneous=*/false, 0xa402fa90a733e46aULL);
  expect_golden_schedule("FIFO-MR2", property_params(31, 1.1), sim::ReleasePolicy::kActual,
                         /*heterogeneous=*/true, 0x2ddfde92c03bc7e9ULL);
}

}  // namespace
}  // namespace rtdls
