// Commit-path record budget: `rtdls_index_commit_depth` gets exactly one
// sample per committed task - through the simulator (homogeneous, het, and
// with kActual early releases folded into the same sample) and through an
// admission shard - and none from a snapshot restore, which commits nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/speed_profile.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "svc/shard.hpp"
#include "workload/generator.hpp"

namespace rtdls {
namespace {

std::uint64_t commit_depth_records() {
  return obs::Registry::global().histogram_sample("rtdls_index_commit_depth").count;
}

/// Runs EDF-DLT at load 1.0 over ~`tasks` arrivals and checks the histogram
/// grew by exactly the number of committed tasks.
void expect_one_record_per_committed_task(const cluster::ClusterParams& cluster,
                                          sim::ReleasePolicy release, std::size_t tasks) {
  workload::WorkloadParams params;
  params.cluster = cluster;
  params.system_load = 1.0;
  params.dc_ratio = 2.0;
  params.total_time = static_cast<double>(tasks) * params.mean_interarrival();
  params.seed = 7;
  const std::vector<workload::Task> trace = workload::generate_workload(params);

  sim::SimulatorConfig config;
  config.params = cluster;
  config.release_policy = release;
  const std::uint64_t before = commit_depth_records();
  const sim::SimMetrics metrics = sim::simulate(config, "EDF-DLT", trace, params.total_time);
  const std::uint64_t after = commit_depth_records();

  ASSERT_GT(metrics.accepted, 0u);
  EXPECT_EQ(metrics.theorem4_violations, 0u);
  // Every accepted task commits exactly once by the end of the drain.
  EXPECT_EQ(after - before, metrics.accepted);
}

cluster::ClusterParams homogeneous(std::size_t nodes) {
  return cluster::ClusterParams{.node_count = nodes, .cms = 1.0, .cps = 100.0};
}

cluster::ClusterParams het_uniform(std::size_t nodes) {
  cluster::ClusterParams params = homogeneous(nodes);
  params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
      cluster::SpeedProfile::uniform(nodes, 50.0, 150.0, 3));
  return params;
}

TEST(CommitRecordBudget, OnePerCommittedTaskAtN512) {
  expect_one_record_per_committed_task(homogeneous(512), sim::ReleasePolicy::kEstimate, 400);
}

TEST(CommitRecordBudget, OnePerCommittedTaskHetN512) {
  expect_one_record_per_committed_task(het_uniform(512), sim::ReleasePolicy::kEstimate, 400);
}

TEST(CommitRecordBudget, EarlyReleasesFoldIntoTheTaskRecord) {
  expect_one_record_per_committed_task(homogeneous(512), sim::ReleasePolicy::kActual, 400);
  expect_one_record_per_committed_task(het_uniform(512), sim::ReleasePolicy::kActual, 400);
}

svc::TaskRecord scripted_task(std::size_t step) {
  svc::TaskRecord record;
  record.id = static_cast<cluster::TaskId>(step + 1);
  record.arrival = static_cast<double>(step) * 900.0;
  record.sigma = 150.0 + static_cast<double>(step % 5) * 40.0;
  record.rel_deadline = 5000.0;
  return record;
}

TEST(CommitRecordBudget, OnePerShardCommit) {
  svc::ShardConfig config;
  config.params = homogeneous(64);
  svc::AdmissionShard shard("EDF-DLT", config);
  const std::uint64_t before = commit_depth_records();
  for (std::size_t step = 0; step < 60; ++step) {
    const svc::TaskRecord record = scripted_task(step);
    const bool accepted = shard.admit(record).accepted;
    // Explicit commits on top of the clock-driven ones.
    if (accepted && step % 4 == 0) shard.commit(record.id);
  }
  svc::ShardStatus status;
  shard.fill_status(status);
  ASSERT_GT(status.committed, 0u);
  EXPECT_EQ(commit_depth_records() - before, status.committed);
}

TEST(CommitRecordBudget, SnapshotRestoreRecordsNothing) {
  svc::ShardConfig config;
  config.params = homogeneous(64);
  svc::AdmissionShard original("EDF-DLT", config);
  for (std::size_t step = 0; step < 30; ++step) original.admit(scripted_task(step));
  util::WireWriter writer;
  original.snapshot_to(writer);
  const std::vector<std::uint8_t> bytes = writer.take();

  svc::AdmissionShard restored("EDF-DLT", config);
  const std::uint64_t before = commit_depth_records();
  util::WireReader reader(bytes);
  restored.restore_from(reader);
  reader.expect_done();
  EXPECT_EQ(commit_depth_records(), before);
}

}  // namespace
}  // namespace rtdls
