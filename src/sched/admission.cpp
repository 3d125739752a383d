#include "sched/admission.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace rtdls::sched {

namespace {

/// Process-registry counters for the incremental session's internals. Bumped
/// at per-arrival granularity (never inside the planner kernels), so the
/// thread-local relaxed increments are noise next to one plan() call.
struct AdmissionObs {
  obs::Counter session_rebuilds =
      obs::Registry::global().counter("rtdls_admission_session_rebuilds_total");
  obs::Counter delta_replays =
      obs::Registry::global().counter("rtdls_admission_delta_replays_total");
  obs::Counter checkpoints =
      obs::Registry::global().counter("rtdls_admission_checkpoints_total");
  /// Sessions kept by a refloor where `now` passed an idle node.
  obs::Counter session_resyncs =
      obs::Registry::global().counter("rtdls_admission_session_resyncs_total");
};

/// Equality in every field but `available`: the refloor's test that a
/// re-planned front hands on the same releases and commits at the same
/// instant.
bool same_but_available(const TaskPlan& a, const TaskPlan& b) {
  return a.task == b.task && a.nodes == b.nodes && a.reserve_from == b.reserve_from &&
         a.node_release == b.node_release && a.alpha == b.alpha &&
         a.est_completion == b.est_completion && a.rounds == b.rounds &&
         a.node_ids == b.node_ids && a.node_cps == b.node_cps;
}

AdmissionObs& admission_obs() {
  static AdmissionObs handles;
  return handles;
}

}  // namespace

AdmissionController::AdmissionController(Policy policy, const PartitionRule* rule)
    : policy_(policy), rule_(rule) {
  if (rule_ == nullptr) throw std::invalid_argument("AdmissionController: null rule");
  // Counted like every other plan: adopting a refreshed front swaps it into
  // circulation, and the pool has room for every plan made.
  outcome_.front = take_spare_plan();
}

AdmissionOutcome& AdmissionController::test(
    const workload::Task* new_task,
    const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params,
    const std::vector<Time>& free_times, Time now,
    const cluster::NodeCalendar* calendar,
    const std::vector<cluster::NodeId>& node_ids) {
  return test_into(outcome_, new_task, waiting, params, free_times, now, calendar, node_ids);
}

void AdmissionController::reset_outcome(AdmissionOutcome& out, std::size_t n) {
  out.accepted = false;
  out.reason = dlt::Infeasibility::kNone;
  out.blocking_task = cluster::kNoTask;
  out.reused_prefix = 0;
  out.front_refreshed = false;
  std::vector<ScheduledTask>& schedule = out.schedule;
  while (schedule.size() > n) {
    spare_plans_.push_back(std::move(schedule.back().plan));
    schedule.pop_back();
  }
  while (schedule.size() < n) {
    schedule.emplace_back();
    schedule.back().plan = take_spare_plan();
  }
}

TaskPlan AdmissionController::take_spare_plan() {
  TaskPlan plan;
  if (spare_plans_.empty()) {
    // A new plan: the pool makes room for it too, so handing every plan
    // back (invalidate, recycle_plan) never grows the pool.
    ++plans_made_;
    if (spare_plans_.capacity() < plans_made_) spare_plans_.reserve(2 * plans_made_);
    fit_plan(plan);
  } else {
    plan = std::move(spare_plans_.back());
    spare_plans_.pop_back();
  }
  return plan;
}

void AdmissionController::fit_plan(TaskPlan& plan) {
  plan.available.reserve(widest_plan_);
  plan.reserve_from.reserve(widest_plan_);
  plan.node_release.reserve(widest_plan_);
  plan.alpha.reserve(widest_plan_);
  plan.node_ids.reserve(widest_ids_);
  plan.node_cps.reserve(widest_ids_);
}

dlt::Infeasibility AdmissionController::plan_into(const PlanRequest& request,
                                                  TaskPlan& slot) {
  const dlt::Infeasibility reason = rule_->plan(request, slot);
  if (reason == dlt::Infeasibility::kNone &&
      (slot.nodes > widest_plan_ || slot.node_ids.size() > widest_ids_)) {
    // Restore the capacity invariant over every held plan. The widths at
    // least double (up to the node count, which no plan exceeds), so this
    // runs O(log N) times per controller.
    const std::size_t cap = request.params.node_count;
    if (slot.nodes > widest_plan_) {
      widest_plan_ = std::min(cap, std::max(slot.nodes, 2 * widest_plan_));
    }
    if (slot.node_ids.size() > widest_ids_) {
      widest_ids_ = std::min(cap, std::max(slot.node_ids.size(), 2 * widest_ids_));
    }
    for (std::size_t r = head_; r < plans_.size(); ++r) fit_plan(plans_[r]);
    for (TaskPlan& plan : spare_plans_) fit_plan(plan);
    for (ScheduledTask& entry : outcome_.schedule) fit_plan(entry.plan);
    fit_plan(outcome_.front);
  }
  return reason;
}

AdmissionOutcome& AdmissionController::test_into(
    AdmissionOutcome& out, const workload::Task* new_task,
    const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params, const std::vector<Time>& free_times, Time now,
    const cluster::NodeCalendar* calendar,
    const std::vector<cluster::NodeId>& node_ids) {
  if (free_times.size() != params.node_count) {
    throw std::invalid_argument("AdmissionController::test: free_times size mismatch");
  }
  if (rule_->uses_calendar() && calendar == nullptr) {
    throw std::invalid_argument("AdmissionController::test: rule requires a calendar");
  }
  // Private working copy accumulating the temp schedule's reservations.
  std::optional<cluster::NodeCalendar> temp_calendar;
  if (rule_->uses_calendar()) temp_calendar = *calendar;

  // TempTaskList <- NewTask + TaskWaitingQueue, ordered by the policy.
  temp_list_.assign(waiting.begin(), waiting.end());
  if (new_task != nullptr) temp_list_.push_back(new_task);
  order_tasks(policy_, temp_list_);

  std::vector<Time>& times = temp_times_;
  std::vector<cluster::NodeId>& ids = temp_ids_;
  times = free_times;
  const bool het = params.heterogeneous();
  if (het) {
    // Co-floor and co-sort the (time, id) columns into strict (time, id)
    // order; an empty id column means free_times is indexed by node id.
    if (node_ids.empty()) {
      ids.resize(times.size());
      for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<cluster::NodeId>(i);
    } else if (node_ids.size() != times.size()) {
      throw std::invalid_argument("AdmissionController::test: node_ids size mismatch");
    } else {
      ids = node_ids;
    }
    het_merge_scratch_.resize(times.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
      het_merge_scratch_[i] = {std::max(times[i], now), ids[i]};
    }
    std::sort(het_merge_scratch_.begin(), het_merge_scratch_.end());
    for (std::size_t i = 0; i < times.size(); ++i) {
      times[i] = het_merge_scratch_[i].first;
      ids[i] = het_merge_scratch_[i].second;
    }
  } else {
    for (Time& t : times) t = std::max(t, now);
    std::sort(times.begin(), times.end());
  }

  reset_outcome(out, temp_list_.size());
  for (std::size_t i = 0; i < temp_list_.size(); ++i) {
    const workload::Task* task = temp_list_[i];
    PlanRequest request;
    request.task = task;
    request.params = params;
    request.free_times = &times;
    request.node_ids = het ? &ids : nullptr;
    request.now = now;
    request.calendar = temp_calendar ? &*temp_calendar : nullptr;

    ScheduledTask& entry = out.schedule[i];
    entry.task = task;
    const TaskPlan& plan = entry.plan;
    const dlt::Infeasibility reason = plan_into(request, entry.plan);
    if (reason != dlt::Infeasibility::kNone) {
      reset_outcome(out, 0);
      out.reason = reason;
      out.blocking_task = task->id;
      return out;  // deadline miss somewhere in the temp list
    }

    // Propagate the plan's reservations to the later temp-schedule tasks.
    if (temp_calendar) {
      // Calendar-based rule: reserve the concrete intervals it chose.
      for (std::size_t k = 0; k < plan.nodes; ++k) {
        temp_calendar->reserve(plan.node_ids[k], plan.reserve_from[k],
                               plan.node_release[k]);
      }
    } else if (het) {
      cluster::apply_releases_het(times, ids, plan.node_release, plan.node_ids,
                                  het_merge_scratch_);
    } else {
      cluster::apply_releases(times, plan.node_release, merge_scratch_);
    }
  }

  out.accepted = true;
  return out;
}

AdmissionOutcome& AdmissionController::admit(
    const workload::Task& task, const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params, const cluster::Cluster& cluster,
    const cluster::NodeCalendar* calendar, Time now, bool incremental) {
  if (calendar != nullptr) {
    // Calendar mode: "release time" = end of the node's last committed
    // reservation (the BF rule itself plans against the gaps).
    free_scratch_.clear();
    for (cluster::NodeId id = 0; id < calendar->size(); ++id) {
      const auto& busy = calendar->busy(id);
      free_scratch_.push_back(std::max(now, busy.empty() ? now : busy.back().end));
    }
    return test(&task, waiting, params, free_scratch_, now, calendar);
  }
  if (incremental) return test_incremental(task, waiting, params, cluster, now);
  if (params.heterogeneous()) {
    cluster.availability_with_ids_into(now, free_scratch_, free_ids_scratch_);
    return test(&task, waiting, params, free_scratch_, now, nullptr, free_ids_scratch_);
  }
  cluster.availability_into(now, free_scratch_);
  return test(&task, waiting, params, free_scratch_, now);
}

void AdmissionController::invalidate() {
  // Every plan goes back to the pool, capacity kept: the rebuild takes its
  // slots from there in the order a fresh controller would make them.
  // (Slots below head_ are empty: on_commit recycled their plans.)
  for (std::size_t r = head_; r < plans_.size(); ++r) {
    spare_plans_.push_back(std::move(plans_[r]));
  }
  plans_.clear();
  cache_valid_ = false;
  head_ = 0;
  planned_ = 0;
  synced_prefix_ = 0;
  front_refreshed_ = false;
  order_.clear();
  delta_end_.clear();
  delta_times_.clear();
  delta_ids_.clear();
  fronts_.clear();
  for (Checkpoint& cp : checkpoints_) retire_checkpoint(std::move(cp));
  checkpoints_.clear();
  top_times_.clear();
  het_session_ = false;
  top_ids_.clear();
  // peak_ deliberately survives: a burst's high-water mark must outlive the
  // session rebuilds inside it (reset_session_stats() is the explicit reset).
}

AdmissionController::SessionMemory AdmissionController::session_memory() const {
  SessionMemory mem;
  if (!cache_valid_) return mem;
  std::size_t bytes = delta_times_.size() * sizeof(Time) +
                      delta_ids_.size() * sizeof(cluster::NodeId) +
                      delta_end_.size() * sizeof(std::size_t);
  for (const Checkpoint& cp : checkpoints_) {
    bytes += cp.times.size() * sizeof(Time) + cp.ids.size() * sizeof(cluster::NodeId);
  }
  bytes += top_times_.size() * sizeof(Time) + top_ids_.size() * sizeof(cluster::NodeId);
  bytes += fronts_.size() * sizeof(Time);
  mem.bytes = bytes;
  // The historical representation held one dense row per planned position
  // (rows head_..head_+planned_ pre-compaction, each N wide; het rows also
  // mirrored an id column).
  const std::size_t entry =
      sizeof(Time) + (het_session_ ? sizeof(cluster::NodeId) : 0);
  mem.dense_equivalent_bytes = (head_ + planned_ + 1) * node_count_ * entry;
  return mem;
}

void AdmissionController::note_session_peak() {
  const SessionMemory mem = session_memory();
  peak_.bytes = std::max(peak_.bytes, mem.bytes);
  peak_.dense_equivalent_bytes =
      std::max(peak_.dense_equivalent_bytes, mem.dense_equivalent_bytes);
}

AdmissionController::Checkpoint AdmissionController::take_checkpoint(std::size_t pos) {
  Checkpoint cp;
  if (checkpoint_pool_.empty()) {
    // A new checkpoint: the pool makes room for every one in existence, so
    // invalidate() retiring them all at once never grows it.
    const std::size_t made = checkpoints_.size() + scratch_checkpoints_.size() + 1;
    if (checkpoint_pool_.capacity() < made) checkpoint_pool_.reserve(2 * made);
  } else {
    cp = std::move(checkpoint_pool_.back());
    checkpoint_pool_.pop_back();
  }
  cp.pos = pos;
  admission_obs().checkpoints.inc();
  return cp;
}

void AdmissionController::retire_checkpoint(Checkpoint&& checkpoint) {
  // Cleared (not shrunk): the next take_checkpoint reuses the row capacity,
  // so the checkpoint churn of adoption truncations allocates nothing in
  // steady state.
  checkpoint.times.clear();
  checkpoint.ids.clear();
  checkpoint_pool_.push_back(std::move(checkpoint));
}

void AdmissionController::rebase_head(const std::vector<Time>& times,
                                      const std::vector<cluster::NodeId>& ids) {
  const auto keep = std::find_if(checkpoints_.begin(), checkpoints_.end(),
                                 [this](const Checkpoint& cp) { return cp.pos > head_; });
  // Recycle all but the first replaced checkpoint, which becomes the new
  // one (there is always one at or before head_).
  for (auto it = checkpoints_.begin() + 1; it != keep; ++it) {
    retire_checkpoint(std::move(*it));
  }
  checkpoints_.erase(checkpoints_.begin() + 1, keep);
  Checkpoint& base = checkpoints_.front();
  base.pos = head_;
  base.times = times;
  if (het_session_) base.ids = ids;
}

void AdmissionController::compact_head() {
  if (head_ == 0) return;
  // The cut must land on a dense row (everything below it is erased, so the
  // delta chain can no longer reach positions before the first checkpoint):
  // use the last checkpoint at or before head_. One always exists there
  // (the rebuild seeds position 0 and every compaction keeps the cut).
  std::size_t cut = 0;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.pos > head_) break;
    cut = cp.pos;
  }
  if (cut == 0) {
    // None past 0: FIFO appends at the frontier, where the suffix loop
    // never checkpoints, so materialize row head_ into the cut checkpoint.
    materialize_row(head_);
    rebase_head(work_state_, work_ids_);
    cut = head_;
  }
  const auto offset = static_cast<std::ptrdiff_t>(cut);
  const std::size_t flat_cut = delta_start(cut);
  order_.erase(order_.begin(), order_.begin() + offset);
  plans_.erase(plans_.begin(), plans_.begin() + offset);  // emptied by on_commit
  delta_end_.erase(delta_end_.begin(), delta_end_.begin() + offset);
  for (std::size_t& end : delta_end_) end -= flat_cut;
  delta_times_.erase(delta_times_.begin(),
                     delta_times_.begin() + static_cast<std::ptrdiff_t>(flat_cut));
  if (het_session_) {
    delta_ids_.erase(delta_ids_.begin(),
                     delta_ids_.begin() + static_cast<std::ptrdiff_t>(flat_cut));
  }
  fronts_.erase(fronts_.begin(), fronts_.begin() + offset);
  const auto keep = std::find_if(checkpoints_.begin(), checkpoints_.end(),
                                 [cut](const Checkpoint& cp) { return cp.pos >= cut; });
  for (auto it = checkpoints_.begin(); it != keep; ++it) {
    retire_checkpoint(std::move(*it));
  }
  checkpoints_.erase(checkpoints_.begin(), keep);
  for (Checkpoint& cp : checkpoints_) cp.pos -= cut;
  head_ -= cut;
}

TaskPlan& AdmissionController::plan_slot(std::size_t pos) {
  if (pos == plans_.size()) plans_.push_back(take_spare_plan());
  return plans_[pos];
}

void AdmissionController::materialize_row(std::size_t pos) {
  if (pos == head_ + planned_) {
    // The frontier row is kept dense: append-at-the-end planning (FIFO
    // always, EDF whenever the new deadline sorts last) replays nothing.
    work_state_ = top_times_;
    if (het_session_) work_ids_ = top_ids_;
    return;
  }
  const auto after = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), pos,
      [](std::size_t p, const Checkpoint& cp) { return p < cp.pos; });
  const Checkpoint& base = *(after - 1);  // exists: one is kept at or before head_
  work_state_ = base.times;
  if (het_session_) work_ids_ = base.ids;
  admission_obs().delta_replays.add(pos - base.pos);
  for (std::size_t r = base.pos; r < pos; ++r) {
    const std::size_t begin = delta_start(r);
    const std::size_t k = delta_end_[r] - begin;
    if (het_session_) {
      cluster::apply_delta_het(work_state_, work_ids_, delta_times_.data() + begin,
                               delta_ids_.data() + begin, k);
    } else {
      cluster::apply_delta(work_state_, delta_times_.data() + begin, k);
    }
  }
}

void AdmissionController::on_commit(const workload::Task* task, const TaskPlan& plan,
                                    std::uint64_t cluster_version) {
  if (!cache_valid_) return;
  if (order_.size() == head_ || order_[head_] != task || planned_ == 0 ||
      !(plans_[head_] == plan)) {
    // Out-of-policy-order commit, an unplanned front, or a committed plan
    // differing from the cached one (possible when the caller still holds
    // plans from before a rejected rebuild): the remaining waiting plans
    // were threaded through different inputs, so the next arrival must
    // rebuild.
    invalidate();
    return;
  }
  // Policy-order-front commit: its reservations are exactly the front
  // plan's releases, so the post-commit availability snapshot equals the
  // next row and the whole session just shifts by one - O(1) via the head
  // offset (the frontier row and every checkpoint keep their positions),
  // compacted back to the nearest checkpoint once the consumed prefix
  // passes 64 positions and a quarter of the live part (amortized O(1) per
  // advance; the state stays within a constant of the live queue).
  spare_plans_.push_back(std::move(plans_[head_]));  // the caller holds it
  ++head_;
  --planned_;
  if (synced_prefix_ > 0) --synced_prefix_;
  front_refreshed_ = false;
  cache_version_ = cluster_version;
  if (head_ > 64 && 4 * head_ > order_.size() - head_) compact_head();
}

AdmissionOutcome& AdmissionController::test_incremental(
    const workload::Task& new_task, const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params, const cluster::Cluster& cluster, Time now) {
  if (rule_->uses_calendar()) {
    throw std::logic_error("test_incremental: calendar rules require the full test()");
  }
  if (cluster.size() != params.node_count) {
    throw std::invalid_argument("test_incremental: cluster/params node count mismatch");
  }
  const std::size_t n = params.node_count;
  const std::size_t q = waiting.size();
  const bool het = params.heterogeneous();

  // The session is reusable when nothing that feeds the plans has changed:
  // same availability version, the same waiting order, and the same
  // homogeneous/heterogeneous mode. An entry floored below `now` (rows are
  // sorted, so the cached front of row head_ suffices) keeps it only if
  // the refloor shows the rows after the front unchanged.
  bool reuse = cache_valid_ && cache_version_ == cluster.version() &&
               node_count_ == n && het_session_ == het && order_.size() - head_ == q &&
               fronts_.size() > head_;
  if (reuse) reuse = std::equal(waiting.begin(), waiting.end(), order_.begin() + head_);
  if (reuse && fronts_[head_] < now) {
    reuse = refloor(params, cluster, now);
    if (reuse) admission_obs().session_resyncs.inc();
  }

  if (!reuse) {
    admission_obs().session_rebuilds.inc();
    invalidate();
    node_count_ = n;
    het_session_ = het;
    // ~sqrt(N), floored at 16: below that the dense rows are so small that
    // checkpoint churn costs more than the replays it saves (the sparse
    // representation is a large-N play; tiny clusters just replay).
    checkpoint_every_ = std::max<std::size_t>(
        16, static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(n)))));
    order_.assign(waiting.begin(), waiting.end());
    // The caller keeps `waiting` in policy order; re-sorting an already
    // sorted list is cheap and keeps a misordered caller correct (it merely
    // costs the incremental reuse).
    order_tasks(policy_, order_);
    if (het) {
      cluster.availability_with_ids_into(now, top_times_, top_ids_);
    } else {
      cluster.availability_into(now, top_times_);
    }
    Checkpoint base = take_checkpoint(0);
    base.times = top_times_;
    if (het) base.ids = top_ids_;
    checkpoints_.push_back(std::move(base));
    fronts_.push_back(top_times_.front());
    cache_valid_ = true;
    cache_version_ = cluster.version();
  }

  // Policy insertion point of the new task in the ordered waiting queue.
  // policy_less is a strict total order (ties break by arrival then id), so
  // inserting here reproduces order_tasks() on the merged list exactly.
  const std::size_t p = static_cast<std::size_t>(
      std::upper_bound(order_.begin() + static_cast<std::ptrdiff_t>(head_), order_.end(),
                       &new_task,
                       [this](const workload::Task* a, const workload::Task* b) {
                         return policy_less(policy_, *a, *b);
                       }) -
      (order_.begin() + static_cast<std::ptrdiff_t>(head_)));

  AdmissionOutcome& outcome = outcome_;
  const std::size_t start = std::min(p, planned_);
  const std::size_t reused = std::min(synced_prefix_, start);

  // Working availability state := row of live position `start`: the dense
  // frontier when planning appends at the end, otherwise the nearest
  // checkpoint plus a bounded delta-chain replay.
  materialize_row(head_ + start);

  // Batched hard-rejection screen: gather every task this call may plan
  // (temp-list order, i.e. screen index i - start for temp position i) into
  // flat (sigma*Cms, deadline) columns once. Each planning step below then
  // rejects a doomed task straight off the columns - the exact (reason,
  // blocker) the rule's own scan would return, per the
  // hard_rejects_at_front() contract - without paying for the plan() call.
  const bool screened = rule_->hard_rejects_at_front();
  if (screened) {
    screen_tasks_.clear();
    for (std::size_t i = start; i < p; ++i) screen_tasks_.push_back(order_[head_ + i]);
    screen_tasks_.push_back(&new_task);
    for (std::size_t i = p + 1; i <= q; ++i) screen_tasks_.push_back(order_[head_ + i - 1]);
    screen_.build(params.cms, screen_tasks_.data(), screen_tasks_.size());
  }

  PlanRequest request;
  request.params = params;
  request.free_times = &work_state_;
  request.node_ids = het ? &work_ids_ : nullptr;
  request.now = now;

  auto reject = [&](dlt::Infeasibility reason,
                    const workload::Task* blocker) -> AdmissionOutcome& {
    reset_outcome(outcome, 0);
    outcome.reason = reason;
    outcome.blocking_task = blocker->id;
    note_session_peak();
    if (cross_check_) verify_against_full(new_task, waiting, params, cluster, now, outcome);
    return outcome;
  };

  // Applies the freshly planned releases to the working row and appends the
  // resulting O(k) delta (the merge scratch holds exactly the sorted
  // entries the merge consumed) to the given flat delta columns.
  auto apply_and_record = [&](const TaskPlan& plan, std::vector<std::size_t>& ends,
                              std::vector<Time>& times,
                              std::vector<cluster::NodeId>& ids) {
    if (het) {
      cluster::apply_releases_het(work_state_, work_ids_, plan.node_release,
                                  plan.node_ids, het_merge_scratch_);
      for (std::size_t i = 0; i < plan.node_release.size(); ++i) {
        times.push_back(het_merge_scratch_[i].first);
        ids.push_back(het_merge_scratch_[i].second);
      }
    } else {
      cluster::apply_releases(work_state_, plan.node_release, merge_scratch_);
      times.insert(times.end(), merge_scratch_.begin(), merge_scratch_.end());
    }
    ends.push_back(times.size());
  };

  // Extend the waiting-only prefix up to the insertion point (runs only
  // after a rejected rebuild left the session partially planned). These
  // plans do not involve the new task, so they survive a rejection; the
  // frontier row is synced per step so a mid-loop rejection leaves the
  // session consistent.
  for (std::size_t i = planned_; i < p; ++i) {
    if (screened) {
      const dlt::Infeasibility doomed = screen_.screen(i - start, work_state_.front());
      if (doomed != dlt::Infeasibility::kNone) return reject(doomed, order_[head_ + i]);
    }
    request.task = order_[head_ + i];
    TaskPlan& plan = plan_slot(head_ + i);  // the first spare slot
    const dlt::Infeasibility reason = plan_into(request, plan);
    if (reason != dlt::Infeasibility::kNone) return reject(reason, order_[head_ + i]);
    apply_and_record(plan, delta_end_, delta_times_, delta_ids_);
    fronts_.push_back(work_state_.front());
    ++planned_;
    top_times_ = work_state_;
    if (het) top_ids_ = work_ids_;
    if (head_ + planned_ >= checkpoints_.back().pos + checkpoint_every_) {
      Checkpoint cp = take_checkpoint(head_ + planned_);
      cp.times = work_state_;
      if (het) cp.ids = work_ids_;
      checkpoints_.push_back(std::move(cp));
    }
  }

  // From the insertion point on the temp list diverges from the waiting
  // queue; plan into the outcome's slots (temp position i is outcome entry
  // i - reused) and adopt only if the whole suffix fits.
  reset_outcome(outcome, q + 1 - reused);
  scratch_delta_end_.clear();
  scratch_delta_times_.clear();
  scratch_delta_ids_.clear();
  scratch_fronts_.clear();
  for (Checkpoint& cp : scratch_checkpoints_) retire_checkpoint(std::move(cp));
  scratch_checkpoints_.clear();
  // Checkpoints above the insertion point describe rows of the suffix being
  // replaced and are dropped at adoption; the cadence for the re-planned
  // rows measures from the last one that will survive.
  std::size_t last_checkpoint = 0;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.pos > head_ + p) break;
    last_checkpoint = cp.pos;
  }
  for (std::size_t i = p; i <= q; ++i) {
    const workload::Task* task = (i == p) ? &new_task : order_[head_ + i - 1];
    if (screened) {
      const dlt::Infeasibility doomed = screen_.screen(i - start, work_state_.front());
      if (doomed != dlt::Infeasibility::kNone) return reject(doomed, task);
    }
    request.task = task;
    TaskPlan& plan = outcome.schedule[i - reused].plan;
    const dlt::Infeasibility reason = plan_into(request, plan);
    if (reason != dlt::Infeasibility::kNone) return reject(reason, task);
    apply_and_record(plan, scratch_delta_end_, scratch_delta_times_, scratch_delta_ids_);
    scratch_fronts_.push_back(work_state_.front());
    const std::size_t row = head_ + i + 1;  // row after planning temp entry i
    if (i < q && row >= last_checkpoint + checkpoint_every_) {
      // The final row needs no checkpoint: it becomes the dense frontier.
      Checkpoint cp = take_checkpoint(row);
      cp.times = work_state_;
      if (het) cp.ids = work_ids_;
      scratch_checkpoints_.push_back(std::move(cp));
      last_checkpoint = row;
    }
  }

  // Accepted: adopt the scratch suffix into the session. The replaced
  // suffix rolls back by truncation (its deltas, fronts, and checkpoints
  // simply fall off the stack); its plans are overwritten in place.
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(head_ + p), &new_task);
  for (std::size_t i = p; i <= q; ++i) {
    plan_slot(head_ + i) = outcome.schedule[i - reused].plan;  // copy into kept capacity
  }
  const std::size_t flat_base = delta_start(head_ + p);
  delta_end_.resize(head_ + p);
  delta_times_.resize(flat_base);
  if (het) delta_ids_.resize(flat_base);
  for (std::size_t end : scratch_delta_end_) delta_end_.push_back(flat_base + end);
  delta_times_.insert(delta_times_.end(), scratch_delta_times_.begin(),
                      scratch_delta_times_.end());
  if (het) {
    delta_ids_.insert(delta_ids_.end(), scratch_delta_ids_.begin(),
                      scratch_delta_ids_.end());
  }
  fronts_.resize(head_ + p + 1);
  fronts_.insert(fronts_.end(), scratch_fronts_.begin(), scratch_fronts_.end());
  while (checkpoints_.back().pos > head_ + p) {
    retire_checkpoint(std::move(checkpoints_.back()));
    checkpoints_.pop_back();
  }
  for (Checkpoint& cp : scratch_checkpoints_) checkpoints_.push_back(std::move(cp));
  scratch_checkpoints_.clear();  // moved-from shells
  std::swap(top_times_, work_state_);
  if (het) std::swap(top_ids_, work_ids_);
  planned_ = q + 1;
  synced_prefix_ = q + 1;
  note_session_peak();

  outcome.accepted = true;
  outcome.reused_prefix = reused;
  // A refreshed front inside the reused prefix travels on its own; from
  // reused_prefix 0 on the schedule carries it.
  outcome.front_refreshed = front_refreshed_ && reused > 0;
  if (outcome.front_refreshed) outcome.front = plans_[head_];  // copy into kept capacity
  front_refreshed_ = false;
  for (std::size_t i = reused; i <= q; ++i) {
    ScheduledTask& entry = outcome.schedule[i - reused];
    entry.task = order_[head_ + i];
    if (i < p) entry.plan = plans_[head_ + i];  // copy into kept capacity
  }
  if (cross_check_) verify_against_full(new_task, waiting, params, cluster, now, outcome);
  return outcome;
}

bool AdmissionController::refloor(const cluster::ClusterParams& params,
                                  const cluster::Cluster& cluster, Time now) {
  std::vector<Time>& row = free_scratch_;
  std::vector<cluster::NodeId>& ids = free_ids_scratch_;
  if (het_session_) {
    cluster.availability_with_ids_into(now, row, ids);
  } else {
    cluster.availability_into(now, row);
  }
  if (planned_ > 0) {
    // The front consumes the first k entries of row head_ and merges its
    // releases into the rest, so the next row is unchanged when the rest is
    // (every raised entry is among the k) and so are the releases.
    materialize_row(head_);
    TaskPlan& cached = plans_[head_];
    const auto k = static_cast<std::ptrdiff_t>(cached.node_release.size());
    if (!std::equal(row.begin() + k, row.end(), work_state_.begin() + k)) return false;
    if (het_session_ && !std::equal(ids.begin() + k, ids.end(), work_ids_.begin() + k)) {
      return false;
    }
    PlanRequest request;
    request.task = order_[head_];
    request.params = params;
    request.free_times = &row;
    request.node_ids = het_session_ ? &ids : nullptr;
    request.now = now;
    // The outcome's front slot is free until this call's outcome is
    // written, and plan_into keeps it under the capacity invariant.
    TaskPlan& fresh = outcome_.front;
    if (plan_into(request, fresh) != dlt::Infeasibility::kNone ||
        !same_but_available(fresh, cached)) {
      return false;
    }
    if (!(fresh.available == cached.available)) {
      std::swap(cached, fresh);
      front_refreshed_ = true;
    }
  } else {
    top_times_ = row;  // row head_ is the frontier
    if (het_session_) top_ids_ = ids;
  }
  rebase_head(row, ids);
  fronts_[head_] = row.front();
  return true;
}

void AdmissionController::verify_against_full(
    const workload::Task& new_task, const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params, const cluster::Cluster& cluster, Time now,
    const AdmissionOutcome& outcome) {
  const cluster::AvailabilityView view = cluster.availability(now);
  AdmissionOutcome reference;
  test_into(reference, &new_task, waiting, params, view.times, now, nullptr, view.ids);
  auto fail = [](const std::string& what) {
    throw std::logic_error(
        "AdmissionController cross-check: incremental vs full Figure-2 mismatch: " + what);
  };
  if (reference.accepted != outcome.accepted) fail("acceptance");
  if (!outcome.accepted) {
    if (reference.reason != outcome.reason) fail("infeasibility reason");
    if (reference.blocking_task != outcome.blocking_task) fail("blocking task");
    return;
  }
  // On acceptance the session holds the full adopted schedule.
  const std::size_t live = order_.size() - head_;
  if (reference.schedule.size() != live) fail("schedule size");
  for (std::size_t i = 0; i < live; ++i) {
    if (reference.schedule[i].task != order_[head_ + i]) fail("task order");
    if (!(reference.schedule[i].plan == plans_[head_ + i])) fail("plan equality");
  }
  // The outcome's tail and refreshed front were copied into recycled
  // storage: no field of an earlier plan may survive there.
  if (outcome.reused_prefix + outcome.schedule.size() != live) fail("outcome size");
  if (outcome.front_refreshed &&
      (outcome.reused_prefix == 0 || !(outcome.front == reference.schedule.front().plan))) {
    fail("refreshed front");
  }
  for (std::size_t i = 0; i < outcome.schedule.size(); ++i) {
    const ScheduledTask& expected = reference.schedule[outcome.reused_prefix + i];
    if (outcome.schedule[i].task != expected.task) fail("outcome task order");
    if (!(outcome.schedule[i].plan == expected.plan)) fail("outcome plan equality");
  }
}

cluster::CommitDepth commit_plan(const workload::Task& task, const TaskPlan& plan, Time at,
                                 cluster::Cluster& cluster, cluster::NodeCalendar* calendar,
                                 std::vector<cluster::NodeId>& ids) {
  cluster::CommitDepth depth;
  if (calendar != nullptr) {
    // Calendar-based plan: reserve the exact intervals it chose (possibly
    // backfilled into gaps in front of existing reservations).
    ids = plan.node_ids;
    for (std::size_t i = 0; i < plan.nodes; ++i) {
      calendar->reserve(ids[i], plan.reserve_from[i], plan.node_release[i]);
    }
    return depth;
  }
  if (!plan.node_ids.empty()) {
    // Heterogeneous plan: the partition was computed for exactly these
    // nodes' speeds, so commit them directly.
    ids = plan.node_ids;
  } else {
    // Map the plan's sorted slots onto the n earliest-free concrete nodes.
    cluster.earliest_free_nodes_into(at, plan.nodes, ids);
  }
  for (std::size_t i = 0; i < plan.nodes; ++i) {
    depth.add(cluster.commit(ids[i], task.id, plan.available[i], plan.reserve_from[i],
                             plan.node_release[i]));
  }
  return depth;
}

}  // namespace rtdls::sched
