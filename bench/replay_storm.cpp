// Million-task replay storm: the two headline numbers behind the bucketed
// availability index and the streaming trace pipeline (BENCH_replay.json in
// CI).
//
// Part 1 - commit path, N = RTDLS_REPLAY_NODES (1e5): one precomputed storm
// of index repositions (70% commits moving entries forward, 30% early
// releases moving them back - the exact mutation mix the simulator feeds
// AvailabilityIndex::update) is replayed and timed. The op list is generated
// up front from a side array, so the timed loop contains nothing but
// update() calls; each one shifts at most two fanout-bounded bucket runs,
// which CI gates as an absolute ns/update ceiling.
//
// Part 2 - streamed replay, RTDLS_REPLAY_TASKS (1e6) tasks: a trace CSV is
// *written row by row* to a temp file (never materialized - generation must
// not pollute the process's lifetime-max RSS) and then replayed through the
// full bounded-memory pipeline: TraceReader -> StreamingTaskSource ->
// ClusterSimulator::run_stream. Reported: tasks/sec,
// the source's peak resident task count, and getrusage peak RSS - the
// number CI gates to pin the O(chunk) memory claim (a materialized
// million-task load would hold ~90 MB of tasks + CSV text; the streamed
// pipeline should stay far under that).
//
//   replay_storm [out.json]
//   RTDLS_REPLAY_NODES=100000   index size for the commit-path storm
//   RTDLS_REPLAY_UPDATES=20000  timed repositions
//   RTDLS_REPLAY_TASKS=1000000  streamed trace length
//   RTDLS_REPLAY_SIM_NODES=512  cluster size for the streamed replay
//   RTDLS_REPLAY_CHUNK=65536    TraceReader chunk size
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/availability_index.hpp"
#include "sched/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/task_source.hpp"
#include "util/build_info.hpp"
#include "workload/rng.hpp"
#include "workload/trace.hpp"

namespace {

using namespace rtdls;
using cluster::AvailabilityIndex;
using cluster::NodeId;
using cluster::Time;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

double peak_rss_mb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB on Linux
}

// --- part 1: commit-path storm ----------------------------------------------

struct UpdateOp {
  NodeId node = 0;
  Time from = 0.0;
  Time to = 0.0;
};

/// Precomputes the storm from a side array so the timed loop below is pure
/// update() calls. Forward moves land uniformly across the live window
/// (typical commit: free-now -> released-late); backward moves model early
/// releases. Times sit on a coarse grid so duplicate keys (the id tie-break
/// path) occur throughout.
std::vector<UpdateOp> make_storm(std::size_t nodes, std::size_t updates) {
  std::vector<UpdateOp> ops;
  ops.reserve(updates);
  std::vector<Time> free_times(nodes, 0.0);
  workload::Xoshiro256StarStar rng(0xC0FFEE);
  Time window = 1000.0;
  for (std::size_t i = 0; i < updates; ++i) {
    UpdateOp op;
    op.node = static_cast<NodeId>(rng() % nodes);
    op.from = free_times[op.node];
    if (rng.next_double() < 0.70) {
      op.to = op.from + 1.0 + std::floor(rng.next_double() * window);
      window += 2.0;  // the live window creeps forward like a real replay clock
    } else {
      op.to = std::floor(op.from * (0.2 + 0.7 * rng.next_double()));
    }
    free_times[op.node] = op.to;
    ops.push_back(op);
  }
  return ops;
}

double time_storm(AvailabilityIndex& index, const std::vector<UpdateOp>& ops) {
  const auto start = std::chrono::steady_clock::now();
  for (const UpdateOp& op : ops) {
    index.update(op.node, op.from, op.to);
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(ops.size());
}

// --- part 2: streamed million-task replay -----------------------------------

/// Writes the replay trace one row at a time: the generator never holds more
/// than one line, so trace creation leaves no footprint in ru_maxrss. The
/// arrival step keeps the cluster loaded right around capacity (accepts and
/// rejects both flow, committed work turns the index over constantly) while
/// the waiting queue stays shallow.
void write_trace(const std::string& path, std::size_t tasks) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "replay_storm: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "id,arrival,sigma,deadline,user_nodes\n";
  char row[128];
  double arrival = 0.0;
  for (std::size_t i = 0; i < tasks; ++i) {
    arrival += 30.0 + 2.0 * static_cast<double>(i % 9);
    const double sigma = 150.0 + 25.0 * static_cast<double>(i % 5);
    const double deadline = 400.0 + 100.0 * static_cast<double>(i % 7);
    const int len = std::snprintf(row, sizeof(row), "%zu,%.1f,%.1f,%.1f,%zu\n", i, arrival,
                                  sigma, deadline, 8 + i % 8);
    out.write(row, len);
  }
  if (!out) {
    std::fprintf(stderr, "replay_storm: write failed for %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_replay.json";
  const std::size_t index_nodes = env_size("RTDLS_REPLAY_NODES", 100000);
  const std::size_t updates = env_size("RTDLS_REPLAY_UPDATES", 20000);
  const std::size_t replay_tasks = env_size("RTDLS_REPLAY_TASKS", 1000000);
  const std::size_t sim_nodes = env_size("RTDLS_REPLAY_SIM_NODES", 512);
  const std::size_t chunk_tasks = env_size("RTDLS_REPLAY_CHUNK", 65536);

  // --- commit path ----------------------------------------------------------
  std::printf("replay_storm: commit-path storm, N=%zu nodes x %zu updates\n", index_nodes,
              updates);
  const std::vector<UpdateOp> ops = make_storm(index_nodes, updates);

  AvailabilityIndex index;
  index.reset(index_nodes);
  const double ns_per_update = time_storm(index, ops);

  // Cheap good-faith check of the final state, outside the timing.
  {
    std::vector<Time> free_times(index_nodes, 0.0);
    for (const UpdateOp& op : ops) free_times[op.node] = op.to;
    if (!index.consistent_with(free_times)) {
      std::fprintf(stderr, "replay_storm: index diverged after the storm\n");
      return 1;
    }
  }
  std::printf("commit path: %.0f ns/update\n", ns_per_update);

  // --- streamed replay ------------------------------------------------------
  const std::string trace_path =
      "/tmp/rtdls_replay_" + std::to_string(static_cast<long>(::getpid())) + ".csv";
  std::printf("replay_storm: writing %zu-task trace to %s\n", replay_tasks,
              trace_path.c_str());
  write_trace(trace_path, replay_tasks);

  sim::SimulatorConfig config;
  config.params.node_count = sim_nodes;
  config.params.cms = 1.0;
  config.params.cps = 100.0;

  workload::TraceReader reader(trace_path, {.chunk_tasks = chunk_tasks});
  sim::StreamingTaskSource source(reader);
  const sched::Algorithm algorithm = sched::make_algorithm("EDF-DLT");
  sim::ClusterSimulator simulator(config, algorithm);

  // Horizon past the last arrival (the row generator's maximum step).
  const double horizon = static_cast<double>(replay_tasks) * 270.0 + 10000.0;
  const auto replay_start = std::chrono::steady_clock::now();
  const sim::SimMetrics metrics = simulator.run_stream(source, horizon);
  const double replay_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - replay_start).count();
  std::remove(trace_path.c_str());

  const double tasks_per_sec = static_cast<double>(replay_tasks) / replay_wall;
  const double rss_mb = peak_rss_mb();
  std::printf("replay: %zu tasks in %.2fs = %.0f tasks/s (%zu accepted, %zu rejected)\n",
              replay_tasks, replay_wall, tasks_per_sec, metrics.accepted, metrics.rejected);
  std::printf("memory: peak %zu resident tasks across %zu-task chunks, peak RSS %.1f MB\n",
              source.peak_resident_tasks(), chunk_tasks, rss_mb);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "replay_storm: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"replay_storm\",\n"
      << "  \"build\": \"" << util::build_description() << "\",\n"
      << "  \"commit_path\": {\n"
      << "    \"index_nodes\": " << index_nodes << ",\n"
      << "    \"updates\": " << updates << ",\n"
      << "    \"ns_per_update\": " << ns_per_update << "\n"
      << "  },\n"
      << "  \"streamed_replay\": {\n"
      << "    \"tasks\": " << replay_tasks << ",\n"
      << "    \"sim_nodes\": " << sim_nodes << ",\n"
      << "    \"chunk_tasks\": " << chunk_tasks << ",\n"
      << "    \"accepted\": " << metrics.accepted << ",\n"
      << "    \"rejected\": " << metrics.rejected << ",\n"
      << "    \"wall_seconds\": " << replay_wall << ",\n"
      << "    \"tasks_per_sec\": " << tasks_per_sec << ",\n"
      << "    \"peak_resident_tasks\": " << source.peak_resident_tasks() << ",\n"
      << "    \"peak_rss_mb\": " << rss_mb << "\n"
      << "  }\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
