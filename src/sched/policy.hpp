// Decision #1 of the Figure-2 framework: the task execution order.
#pragma once

#include <string_view>
#include <vector>

#include "workload/task.hpp"

namespace rtdls::sched {

/// Scheduling policy: how the temp task list is ordered.
enum class Policy {
  kEdf,   ///< earliest absolute deadline first
  kFifo,  ///< earliest arrival first
};

/// Canonical policy names ("EDF", "FIFO").
std::string_view policy_name(Policy policy);

/// A task's place in the policy order, detached from the Task: it stays
/// comparable after the task's storage is gone (a queued commit event
/// carries it instead of a Task* that a streaming source may recycle).
struct PolicyKey {
  cluster::Time deadline = 0.0;  ///< absolute deadline (read by EDF only)
  cluster::Time arrival = 0.0;
  cluster::TaskId id = cluster::kNoTask;
};

inline PolicyKey policy_key(const workload::Task& task) {
  return PolicyKey{task.abs_deadline(), task.arrival(), task.id};
}

/// Strict-weak-order comparator for the chosen policy. Ties (equal deadline
/// or arrival) break by arrival then id so orders are deterministic, and
/// strict: distinct task ids never compare equal.
inline bool policy_less(Policy policy, const PolicyKey& a, const PolicyKey& b) {
  if (policy == Policy::kEdf) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
  }
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.id < b.id;
}

bool policy_less(Policy policy, const workload::Task& a, const workload::Task& b);

/// Sorts task pointers by the policy (stable and deterministic).
void order_tasks(Policy policy, std::vector<const workload::Task*>& tasks);

}  // namespace rtdls::sched
