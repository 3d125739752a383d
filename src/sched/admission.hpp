// The Figure-2 schedulability test: when a new task arrives, re-plan the new
// task plus every *waiting* (admitted but not yet started) task in policy
// order against the cluster's current availability. If every task in the
// temp list meets its deadline, the temp schedule is accepted and replaces
// the waiting tasks' plans; otherwise the new task is rejected and the
// previous (still valid) plans are kept.
//
// Two entry points implement the same test:
//  * test() is the stateless reference: it re-plans the full temp list on
//    every call, exactly as Figure 2 is written.
//  * test_incremental() exploits the fact that non-calendar plans are a
//    deterministic function of (task, cluster params, availability state):
//    while the cluster's availability version is unchanged and the waiting
//    set (kept in policy order by the caller) has only grown through
//    accepted arrivals, the prefix of the temp list before the new task's
//    insertion point has exactly the same inputs as the previous call, so
//    its cached plans are reused and only the suffix is re-planned. A
//    policy-order commit advances the cache in O(1) plans instead of
//    invalidating it. The outcomes are bit-identical to test() (asserted
//    when cross-check mode is on).
//
// Refloor: the test floors every node's availability at the arrival
// instant, so when `now` passes an idle node (a release before `now`, the
// IIT case of OPR-MN with loose deadlines) the session's first row is stale
// although nothing in the cluster changed. Instead of rebuilding, the
// session re-reads the floored row and re-plans only the policy front. The
// front consumes the row's first k entries and hands the rest on; when
// every raised entry is among those k and the front's new plan equals the
// cached one in every field but `available`, the front's releases - and so
// every later row and plan - are unchanged, and the session is kept. Any
// other difference (a raised entry past k, a changed node count or
// release, an infeasible front) falls back to the full rebuild. The caller
// learns of the refreshed front through AdmissionOutcome::front_refreshed;
// its commit instant is unchanged, so adopting it needs no new commit
// event.
//
// Session state representation: a plan touches only k << N availability
// entries, so the session stores one sparse cluster::AvailabilityDelta per
// planned task (O(k) bytes) instead of the dense N-wide row per task it used
// to copy (O(Q*N) bytes per arrival burst). Dense rows survive only as
//  * checkpoints every ~sqrt(N) planned positions, and
//  * the materialized frontier row after the last planned task (the common
//    append-at-the-end planning start).
// A suffix re-plan starting mid-queue rebuilds its dense starting row by
// copying the nearest checkpoint at or before the insertion point and
// replaying the bounded delta chain up to it - bit-identical to the row the
// dense representation held, because the replay runs the exact merge that
// produced the row originally. Policy-front commits still advance in O(1)
// (head offset); rejected/replaced suffixes roll back by truncating the
// delta stack. Peak memory per burst drops from O(Q*N) to
// O(Q*k + sqrt(N)*N), measured by session_memory()/peak_session_memory().
//
// Both drivers (sim::ClusterSimulator and svc::AdmissionShard) go through
// the same entries: admit() picks the test a rule gets, adopt_schedule()
// takes an accepted outcome into the caller's waiting queue,
// commit_plan() puts an accepted plan onto concrete nodes, and
// recycle_plan() hands the committed plan's storage back.
//
// Plan storage is kept, never churned: rules plan into existing TaskPlan
// slots (PartitionRule::plan's plan-into contract), the session recycles
// replaced and consumed plan slots, the controller owns the outcome it
// returns and copy-assigns its plans into kept capacity, adopt_schedule()
// swaps plans between the outcome and the waiting queue, and every spare
// plan lives in one controller pool. A warm arrival allocates nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/availability_delta.hpp"
#include "cluster/cluster.hpp"
#include "sched/partition_rule.hpp"
#include "sched/planner_batch.hpp"
#include "sched/policy.hpp"

namespace rtdls::sched {

/// One planned entry of an accepted temp schedule.
struct ScheduledTask {
  const workload::Task* task = nullptr;
  TaskPlan plan;
};

/// Result of a schedulability test. The tests return a reference to an
/// outcome their controller owns: it stays valid until the next
/// admit/test/test_incremental call on that controller, which overwrites it
/// in place (its plans' capacity is reused). A caller that needs it longer
/// copies it; the simulator and the shard adopt its plans by swap
/// (AdmissionController::adopt_schedule).
struct AdmissionOutcome {
  bool accepted = false;
  dlt::Infeasibility reason = dlt::Infeasibility::kNone;  ///< why it failed
  cluster::TaskId blocking_task = cluster::kNoTask;  ///< task that missed in the temp list

  /// Number of leading waiting-queue entries whose plans are unchanged from
  /// what the caller already holds (incremental path only; 0 for test()).
  /// `schedule` holds the temp-list entries from this position onward.
  std::size_t reused_prefix = 0;

  /// Incremental path only: the session refloored its policy front since
  /// the caller last adopted it, and the front lies in the reused prefix.
  /// `front` then holds waiting entry 0's refreshed plan, which differs
  /// from the held one only in `available` (same commit instant).
  bool front_refreshed = false;
  TaskPlan front;

  std::vector<ScheduledTask> schedule;  ///< plans in policy order (accepted only)
};

/// Admission logic: combines an ordering policy (Decision #1) with a
/// partition rule (Decisions #2 and #3). test() is stateless (it only
/// reuses the controller's storage); the incremental session state only
/// caches results derivable from the caller's inputs and never changes
/// outcomes.
class AdmissionController {
 public:
  AdmissionController(Policy policy, const PartitionRule* rule);

  Policy policy() const { return policy_; }
  const PartitionRule& rule() const { return *rule_; }

  /// Runs the schedulability test of Figure 2.
  ///
  /// `free_times`: release times of all N nodes floored at `now` (need not
  /// be sorted; a sorted copy is taken). `waiting`: admitted, uncommitted
  /// tasks. `new_task` may be null to validate the waiting queue alone.
  ///
  /// `calendar`: required when the rule uses_calendar() (backfilling); the
  /// controller plans each temp-schedule task against a private copy into
  /// which earlier tasks' reservations are inserted, so the accepted plans
  /// are mutually conflict-free.
  ///
  /// `node_ids`: owners of the free_times entries, required meaningful only
  /// when params.heterogeneous() (nodes stop being interchangeable once
  /// speeds differ). Empty means free_times[i] belongs to node i. The pair
  /// columns are co-floored and co-sorted into the strict (time, id) order
  /// the het rules plan against.
  ///
  /// Returns the controller-owned outcome (see AdmissionOutcome).
  AdmissionOutcome& test(const workload::Task* new_task,
                         const std::vector<const workload::Task*>& waiting,
                         const cluster::ClusterParams& params,
                         const std::vector<Time>& free_times, Time now,
                         const cluster::NodeCalendar* calendar = nullptr,
                         const std::vector<cluster::NodeId>& node_ids = {});

  /// Incremental Figure-2 test for non-calendar rules (throws
  /// std::logic_error when rule().uses_calendar()).
  ///
  /// Contract with the caller (the simulator):
  ///  * `waiting` is in policy order and, between calls, only changes
  ///    through this controller's outcomes (accepts) and on_commit();
  ///  * `cluster` is the availability source; its version() must be bumped
  ///    by every node mutation (Cluster does this).
  /// Violating the contract cannot produce wrong schedules - the cache
  /// revalidates against the waiting list and the availability version and
  /// falls back to a full re-plan - it only costs speed.
  ///
  /// Returns the controller-owned outcome (see AdmissionOutcome).
  AdmissionOutcome& test_incremental(const workload::Task& new_task,
                                     const std::vector<const workload::Task*>& waiting,
                                     const cluster::ClusterParams& params,
                                     const cluster::Cluster& cluster, Time now);

  /// The driver entry: runs the Figure-2 test for `task` the way its rule
  /// needs it. A non-null `calendar` (calendar rules) plans via test()
  /// against each node's max(now, end of its last reservation); otherwise
  /// `incremental` selects test_incremental(), and its absence test() over
  /// the cluster's floored availability (with owner ids when het).
  /// Returns the controller-owned outcome (see AdmissionOutcome).
  AdmissionOutcome& admit(const workload::Task& task,
                          const std::vector<const workload::Task*>& waiting,
                          const cluster::ClusterParams& params,
                          const cluster::Cluster& cluster,
                          const cluster::NodeCalendar* calendar, Time now,
                          bool incremental);

  /// Informs the incremental session that `task` left the waiting queue by
  /// committing `plan`, with `cluster_version` the availability version
  /// right after its reservations were applied. A policy-order-front commit
  /// whose plan equals the session's cached front plan advances the cache
  /// (the remaining plans' inputs are unchanged because the committed
  /// reservations equal the cached planning state); any other commit
  /// invalidates it.
  void on_commit(const workload::Task* task, const TaskPlan& plan,
                 std::uint64_t cluster_version);

  /// Adopts accepted `outcome` (this controller's) into a caller's waiting
  /// queue - policy order, `Entry` has `task` and `plan` members - by swap,
  /// never by copy: entry reused_prefix + i takes schedule[i]'s plan and
  /// hands its old plan back to the outcome, whose storage the next test
  /// rewrites in place. The schedule covers the queue from reused_prefix on
  /// plus the new task, so the queue grows by exactly one entry, which
  /// starts from a pooled plan (see recycle_plan). `stamp(entry)` runs on
  /// every adopted entry, in policy order. A refreshed front is swapped in
  /// the same way but not stamped: its commit instant is unchanged.
  template <typename Entry, typename Stamp>
  void adopt_schedule(AdmissionOutcome& outcome, std::vector<Entry>& waiting,
                      Stamp&& stamp) {
    if (outcome.front_refreshed) {
      std::swap(waiting.front().plan, outcome.front);
      fit_plan(outcome.front);
    }
    std::size_t pos = outcome.reused_prefix;
    for (ScheduledTask& scheduled : outcome.schedule) {
      if (pos == waiting.size()) {
        waiting.emplace_back();
        waiting.back().plan = take_spare_plan();
      }
      Entry& entry = waiting[pos++];
      entry.task = scheduled.task;
      std::swap(entry.plan, scheduled.plan);
      fit_plan(scheduled.plan);
      stamp(entry);
    }
    assert(pos == waiting.size() && "adopt_schedule: outcome does not cover the queue");
  }

  /// Takes back the storage of a plan that left the caller's waiting queue
  /// (committed or cancelled) for a later adoption.
  void recycle_plan(TaskPlan&& plan) {
    fit_plan(plan);
    spare_plans_.push_back(std::move(plan));
  }

  /// Drops the incremental session state (e.g. at the start of a run); kept
  /// plan storage stays.
  void invalidate();

  /// Debug mode: every test_incremental() also runs the full stateless
  /// test() and throws std::logic_error unless the outcomes (acceptance,
  /// reason, blocking task, and every plan, bitwise) are identical.
  void set_cross_check(bool on) { cross_check_ = on; }
  bool cross_check() const { return cross_check_; }

  /// Session availability-state footprint. `bytes` is what the delta stack,
  /// checkpoints, frontier row, and per-row front times actually hold
  /// (size-based, so it is deterministic); `dense_equivalent_bytes` is what
  /// the historical one-dense-row-per-task representation would hold for the
  /// same session (rows * N * entry width) - the denominator of the memory-
  /// reduction claims in tests and BM_AdmissionBurst.
  struct SessionMemory {
    std::size_t bytes = 0;
    std::size_t dense_equivalent_bytes = 0;
  };
  SessionMemory session_memory() const;

  /// High-water marks of session_memory() since construction or the last
  /// reset_session_stats() (invalidate() does NOT reset them: a burst's
  /// peak must survive the session rebuilds inside it).
  SessionMemory peak_session_memory() const { return peak_; }
  void reset_session_stats() { peak_ = SessionMemory{}; }

 private:
  /// test() into `out`: the cross-check runs its reference into an outcome
  /// of its own so it never aliases the outcome it checks.
  AdmissionOutcome& test_into(AdmissionOutcome& out, const workload::Task* new_task,
                              const std::vector<const workload::Task*>& waiting,
                              const cluster::ClusterParams& params,
                              const std::vector<Time>& free_times, Time now,
                              const cluster::NodeCalendar* calendar,
                              const std::vector<cluster::NodeId>& node_ids);
  /// Resets `out` to an empty rejection-free state with `n` schedule
  /// entries. Surplus entries park their plans in spare_plans_ instead of
  /// freeing them and missing ones start from a pooled plan, so the
  /// outcome's plan capacity survives rejections and shorter schedules.
  void reset_outcome(AdmissionOutcome& out, std::size_t n);
  /// A plan from spare_plans_, or a fresh fitted one when the pool is empty.
  TaskPlan take_spare_plan();
  /// rule_->plan() into `slot`; a plan wider than any before grows every
  /// kept plan (plan capacity invariant below).
  dlt::Infeasibility plan_into(const PlanRequest& request, TaskPlan& slot);
  /// Grows `plan`'s columns to the widest plan written so far.
  void fit_plan(TaskPlan& plan);
  /// The refloor (see the header comment): re-reads row head_ floored at
  /// `now` and re-plans the front against it. Returns false, with the
  /// session untouched, when the rows after the front would change.
  bool refloor(const cluster::ClusterParams& params, const cluster::Cluster& cluster,
               Time now);
  void verify_against_full(const workload::Task& new_task,
                           const std::vector<const workload::Task*>& waiting,
                           const cluster::ClusterParams& params,
                           const cluster::Cluster& cluster, Time now,
                           const AdmissionOutcome& outcome);

  Policy policy_;
  const PartitionRule* rule_;
  bool cross_check_ = false;

  // --- incremental session state (see test_incremental) ---
  // Storage position head_ + i corresponds to live waiting position i, so a
  // policy-front commit advances in O(1) by bumping head_ (compacted once
  // the consumed prefix outweighs the live part). Invariant when
  // cache_valid_: the live view of order_ is the waiting queue in policy
  // order; "row r" (r = head_ + i) is the availability state before
  // planning live entry i, with row head_ the floored sorted snapshot the
  // session currently stands on; plans_[r] (i < planned_) is live entry
  // i's plan against row r, and delta r - the sparse edit taking row r to
  // row r + 1, i.e. the plan's k sorted releases (with id payloads for het
  // sessions) - lives at [delta_start(r), delta_end_[r]) of the flat
  // delta_times_/delta_ids_ columns (flat so the steady state allocates
  // nothing per planned task; see cluster::apply_delta's span form);
  // fronts_[r] is row r's first (minimum) entry, the O(1) "did `now`
  // overtake the snapshot" reuse check; rows exist for live 0..planned_.
  // Dense rows are materialized only in checkpoints_ (ascending positions
  // on the ~sqrt(N) cadence, always one at or before head_ - a refloor or
  // a compaction that finds none past 0 puts one at head_; storage
  // recycled through checkpoint_pool_, so a rebuild's fresh position-0 row
  // allocates nothing) and top_times_/top_ids_, the row at position
  // head_ + planned_. Any other row is rebuilt on demand by
  // materialize_row. synced_prefix_ counts the leading live entries whose
  // plans the caller is known to hold verbatim, except that the front's
  // plan differs in `available` while front_refreshed_ is set (a refloor
  // the caller has not adopted yet). Plans are recycled, never
  // freed: on_commit() hands the consumed plan to spare_plans_ (slots below
  // head_ are empty until compact_head() erases them), adoption overwrites
  // the replaced suffix in place, invalidate() hands every plan to
  // spare_plans_, and a slot past head_ + planned_ (left by a rejected
  // extension) is reused by the next plan().
  struct Checkpoint {
    std::size_t pos = 0;
    std::vector<Time> times;
    std::vector<cluster::NodeId> ids;  ///< het sessions only
  };

  /// Plan slot at absolute position `pos` <= plans_.size(), appended when
  /// it is one past the end.
  TaskPlan& plan_slot(std::size_t pos);
  std::size_t delta_start(std::size_t r) const {
    return r == 0 ? 0 : delta_end_[r - 1];
  }
  Checkpoint take_checkpoint(std::size_t pos);
  void retire_checkpoint(Checkpoint&& checkpoint);
  /// Replaces every checkpoint at or before head_ with one at head_
  /// holding `times` (and `ids`, het sessions).
  void rebase_head(const std::vector<Time>& times, const std::vector<cluster::NodeId>& ids);
  void compact_head();
  /// Copies row `pos` (absolute) into work_state_/work_ids_: the frontier
  /// row, else the nearest checkpoint at or before `pos` plus the delta
  /// chain up to `pos`.
  void materialize_row(std::size_t pos);
  void note_session_peak();

  bool cache_valid_ = false;
  std::uint64_t cache_version_ = 0;
  std::size_t node_count_ = 0;
  std::size_t head_ = 0;
  std::size_t planned_ = 0;
  std::size_t synced_prefix_ = 0;
  bool front_refreshed_ = false;
  std::size_t checkpoint_every_ = 1;  ///< ~sqrt(N) cadence
  std::vector<const workload::Task*> order_;
  std::vector<TaskPlan> plans_;
  std::vector<std::size_t> delta_end_;         ///< per position: end offset
  std::vector<Time> delta_times_;              ///< flat sorted-release runs
  std::vector<cluster::NodeId> delta_ids_;     ///< het: aligned id payloads
  std::vector<Time> fronts_;
  std::vector<Checkpoint> checkpoints_;
  std::vector<Checkpoint> checkpoint_pool_;    ///< retired rows, capacity kept
  std::vector<Time> top_times_;
  bool het_session_ = false;
  std::vector<cluster::NodeId> top_ids_;
  SessionMemory peak_;

  // Scratch reused across calls (no per-arrival allocation steady-state).
  /// The cluster's floored availability: test()'s input row in admit(),
  /// the refloored row in refloor().
  std::vector<Time> free_scratch_;
  std::vector<cluster::NodeId> free_ids_scratch_;
  std::vector<Time> work_state_;
  std::vector<cluster::NodeId> work_ids_;
  std::vector<std::size_t> scratch_delta_end_;
  std::vector<Time> scratch_delta_times_;
  std::vector<cluster::NodeId> scratch_delta_ids_;
  std::vector<Time> scratch_fronts_;
  std::vector<Checkpoint> scratch_checkpoints_;
  /// Batched hard-rejection screen over the tasks a test_incremental call
  /// may plan (rules with hard_rejects_at_front() only): one SoA gather of
  /// (sigma*Cms, deadline) columns per call, then each planning step checks
  /// the columns before paying for rule_->plan(). Outcome-identical by the
  /// contract on PartitionRule::hard_rejects_at_front; the stateless test()
  /// stays unscreened as the cross-check reference.
  het::QueueScreen screen_;
  std::vector<const workload::Task*> screen_tasks_;
  /// apply_releases' merge buffer, shared by test() and the session.
  std::vector<Time> merge_scratch_;
  /// Het apply's (release, id) pair buffer.
  std::vector<std::pair<Time, cluster::NodeId>> het_merge_scratch_;
  /// test()'s temp list and floored, sorted input columns.
  std::vector<const workload::Task*> temp_list_;
  std::vector<Time> temp_times_;
  std::vector<cluster::NodeId> temp_ids_;
  /// The outcome every test returns, and the spare-plan pool its schedule
  /// and the callers' committed plans feed.
  AdmissionOutcome outcome_;
  std::vector<TaskPlan> spare_plans_;
  /// Plan capacity invariant: every plan the controller holds (plans_, the
  /// outcome's schedule and front, spare_plans_) has room for widest_plan_
  /// core entries and widest_ids_ node_ids/node_cps entries, at least the
  /// widest plan written so far. Which slot gets which plan depends on the recycling history, so
  /// without the invariant a slot would still grow whenever a plan wider
  /// than its own past ones landed in it; with it, a workload that repeats
  /// stops allocating after its first pass.
  std::size_t widest_plan_ = 0;
  std::size_t widest_ids_ = 0;
  std::size_t plans_made_ = 0;  ///< plans take_spare_plan() ever created
};

/// Commits `plan` for `task` at time `at` and fills `ids` with the concrete
/// nodes, slot-aligned with the plan: a non-null `calendar` reserves the
/// intervals on plan.node_ids; a het plan commits plan.node_ids directly
/// (nodes of different speeds are not interchangeable); a homogeneous plan
/// maps its sorted slots onto the plan.nodes earliest-free nodes at `at`.
/// Returns the task's index work (empty for calendar commits); the caller
/// adds any early releases of the same nodes and records it once.
[[nodiscard]] cluster::CommitDepth commit_plan(const workload::Task& task,
                                               const TaskPlan& plan, Time at,
                                               cluster::Cluster& cluster,
                                               cluster::NodeCalendar* calendar,
                                               std::vector<cluster::NodeId>& ids);

}  // namespace rtdls::sched
