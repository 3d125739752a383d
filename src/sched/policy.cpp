#include "sched/policy.hpp"

#include <algorithm>

namespace rtdls::sched {

std::string_view policy_name(Policy policy) {
  switch (policy) {
    case Policy::kEdf: return "EDF";
    case Policy::kFifo: return "FIFO";
  }
  return "?";
}

bool policy_less(Policy policy, const workload::Task& a, const workload::Task& b) {
  return policy_less(policy, policy_key(a), policy_key(b));
}

void order_tasks(Policy policy, std::vector<const workload::Task*>& tasks) {
  std::sort(tasks.begin(), tasks.end(),
            [policy](const workload::Task* a, const workload::Task* b) {
              return policy_less(policy, *a, *b);
            });
}

}  // namespace rtdls::sched
