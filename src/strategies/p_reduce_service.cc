#include "strategies/p_reduce_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/metric_table.h"

namespace pr {
namespace {

void Bump(Counter* c) {
  if (c != nullptr) c->Increment();
}

ServiceAction Action(ServiceAction::Kind kind, int worker,
                     uint64_t group_id = 0, int dead = -1) {
  ServiceAction a;
  a.kind = kind;
  a.worker = worker;
  a.group_id = group_id;
  a.dead = dead;
  return a;
}

ControllerOptions ControllerOptionsFrom(const StrategyOptions& options,
                                        int num_workers,
                                        const Topology& topology) {
  ControllerOptions copts;
  copts.num_workers = num_workers;
  copts.group_size = options.group_size;
  copts.mode = options.kind == StrategyKind::kPReduceDynamic
                   ? PartialReduceMode::kDynamic
                   : PartialReduceMode::kConstant;
  copts.dynamic = options.dynamic;
  copts.frozen_avoidance = options.frozen_avoidance;
  copts.history_window = options.history_window;
  copts.record_sync_matrices = options.record_sync_matrices;
  copts.topology = topology;
  copts.hierarchy = options.hierarchy;
  copts.group_cost_budget = options.group_cost_budget;
  return copts;
}

void AccumulateControllerStats(const ControllerStats& incarnation,
                               ControllerStats* total) {
  total->signals_received += incarnation.signals_received;
  total->groups_formed += incarnation.groups_formed;
  total->bridged_groups += incarnation.bridged_groups;
  total->frozen_detections += incarnation.frozen_detections;
  total->cross_node_groups += incarnation.cross_node_groups;
  total->intra_node_groups += incarnation.intra_node_groups;
}

}  // namespace

ControlMessage EncodeServiceAction(const ServiceAction& action) {
  ControlMessage m;
  switch (action.kind) {
    case ServiceAction::Kind::kGroupInfo: {
      const GroupDecision& g = *action.group;
      m.kind = kKindGroupInfo;
      m.tag = g.group_id;
      m.ints = {static_cast<int64_t>(g.group_id), g.advanced_iteration};
      m.ints.insert(m.ints.end(), g.members.begin(), g.members.end());
      m.weights = g.weights;
      break;
    }
    case ServiceAction::Kind::kRelease:
      m.kind = kKindRelease;
      m.ints = {action.iteration};
      break;
    case ServiceAction::Kind::kAbort:
      m.kind = kKindAbort;
      m.tag = action.group_id;
      m.ints = {static_cast<int64_t>(action.group_id),
                static_cast<int64_t>(action.dead)};
      break;
    case ServiceAction::Kind::kReregisterAck:
      m.kind = kKindReregisterAck;
      break;
  }
  return m;
}

PReduceService::PReduceService(const StrategyOptions& options,
                               int num_workers, const Topology& topology,
                               const FaultPlan& plan, Observers observers,
                               const RunManifest* resume)
    : controller_options_(
          ControllerOptionsFrom(options, num_workers, topology)),
      stuck_abort_reports_(plan.stuck_abort_reports),
      observers_(std::move(observers)),
      min_p_(options.scale_policy.min_group_size > 0
                 ? std::max(2, std::min(options.scale_policy.min_group_size,
                                        options.group_size))
                 : options.group_size),
      liveness_floor_(options.scale_policy.liveness_floor),
      outages_(plan.controller_events),
      workers_(static_cast<size_t>(num_workers)) {
  if (MetricsShard* m = observers_.metrics) {
    aborted_groups_ = m->Get(metric::kFaultAbortedGroups);
    heartbeats_ = m->Get(metric::kFaultHeartbeats);
    evictions_ = m->Get(metric::kFaultEvictions);
    failovers_ = m->Get(metric::kControllerFailovers);
    reregistrations_ = m->Get(metric::kControllerReregistrations);
    small_groups_ = m->Get(metric::kScenarioSmallGroups);
    local_steps_ = m->Get(metric::kScenarioLocalSteps);
  }
  std::stable_sort(
      outages_.begin(), outages_.end(),
      [](const ControllerFaultEvent& a, const ControllerFaultEvent& b) {
        return a.after_groups < b.after_groups;
      });
  controller_ = NewController();
  if (resume != nullptr) {
    controller_->Restore({resume->history, resume->next_group_id});
  }
}

std::unique_ptr<Controller> PReduceService::NewController() const {
  auto controller = std::make_unique<Controller>(controller_options_);
  controller->AttachObservers(observers_.metrics, observers_.trace,
                              observers_.now);
  return controller;
}

int PReduceService::TargetGroupSize(int active) const {
  return std::max(min_p_, std::min(active, controller_options_.group_size));
}

PReduceService::Verdict PReduceService::GateVerdict(int active) const {
  if (liveness_floor_ > 0 && active < liveness_floor_) {
    return Verdict::kLocalStep;
  }
  return active < min_p_ ? Verdict::kRelease : Verdict::kQueue;
}

void PReduceService::Trace(TraceEventKind kind, int worker, int64_t a) const {
  if (observers_.trace == nullptr) return;
  observers_.trace->Record(observers_.now ? observers_.now() : 0.0, kind,
                           worker, a);
}

bool PReduceService::active(int worker) const {
  return workers_[static_cast<size_t>(worker)].member == Member::kActive;
}

int PReduceService::active_count() const {
  return static_cast<int>(
      std::count_if(workers_.begin(), workers_.end(), [](const Worker& w) {
        return w.member == Member::kActive;
      }));
}

int PReduceService::remaining() const {
  return static_cast<int>(
      std::count_if(workers_.begin(), workers_.end(), [](const Worker& w) {
        return w.member == Member::kActive || w.member == Member::kPaused;
      }));
}

ControllerStats PReduceService::stats() const {
  ControllerStats total = retired_stats_;
  AccumulateControllerStats(controller_->stats(), &total);
  return total;
}

void PReduceService::StampManifest(RunManifest* manifest) const {
  const auto& groups = controller_->history().groups();
  manifest->history.assign(groups.begin(), groups.end());
  manifest->next_group_id = controller_->next_group_id();
}

ServiceActions PReduceService::Receive(int from, int kind,
                                       const std::vector<int64_t>& ints) {
  if (from < 0 || from >= controller_options_.num_workers) return {};
  const int64_t first = ints.empty() ? 0 : ints[0];
  switch (kind) {
    case kKindReady:
      return Ready(from, first);
    case kKindLeave:
      return Leave(from);
    case kKindPause:
      return Pause(from);
    case kKindRejoin:
      return Rejoin(from);
    case kKindHeartbeat:
      Heartbeat(from);
      return {};
    case kKindGroupDone:
      if (!ints.empty()) GroupDone(from, static_cast<uint64_t>(first));
      return {};
    case kKindGroupStuck:
      if (ints.empty()) return {};
      return GroupStuck(from, static_cast<uint64_t>(first));
    case kKindReregister: {
      ReregisterSnapshot snapshot;
      snapshot.worker = from;
      snapshot.iteration = first;
      for (size_t i = 1; i < ints.size(); ++i) {
        snapshot.done_groups.push_back(static_cast<uint64_t>(ints[i]));
      }
      return Reregister(snapshot);
    }
    default:
      return {};  // unknown or stale kinds are dropped under chaos
  }
}

void PReduceService::Broadcast(std::vector<GroupDecision> decisions,
                               ServiceActions* out) {
  for (GroupDecision& decision : decisions) {
    ++groups_formed_;
    auto group = std::make_shared<const GroupDecision>(std::move(decision));
    for (int m : group->members) {
      Worker& w = workers_[static_cast<size_t>(m)];
      w.wait = Wait::kInGroup;
      w.group = group->group_id;
      out->push_back(
          Action(ServiceAction::Kind::kGroupInfo, m, group->group_id));
      out->back().group = group;
    }
    in_flight_[group->group_id].group = std::move(group);
  }
}

void PReduceService::Enqueue(int worker, int64_t iteration,
                             ServiceActions* out) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  w.wait = Wait::kQueued;
  w.fresh_from = iteration;
  Broadcast(controller_->OnReadySignal(worker, iteration), out);
}

void PReduceService::Release(int worker, int64_t iteration,
                             ServiceActions* out) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  w.wait = Wait::kIdle;
  w.released = iteration;
  w.fresh_from = std::max(w.fresh_from, iteration + 1);
  out->push_back(Action(ServiceAction::Kind::kRelease, worker));
  out->back().iteration = iteration;
}

void PReduceService::ReleasePending(ServiceActions* out) {
  for (const ReadySignal& s : controller_->DrainPending()) {
    Release(s.worker, s.iteration, out);
  }
}

void PReduceService::MarkDone(uint64_t group_id, int worker) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  if (w.wait == Wait::kInGroup && w.group == group_id) w.wait = Wait::kIdle;
  auto it = in_flight_.find(group_id);
  if (it == in_flight_.end()) return;
  const GroupDecision& g = *it->second.group;
  const auto pos = std::find(g.members.begin(), g.members.end(), worker);
  if (pos == g.members.end()) return;
  // The group consumed this worker's signal: a late copy is stale.
  const size_t i = static_cast<size_t>(pos - g.members.begin());
  w.fresh_from = std::max(w.fresh_from, g.iterations[i] + 1);
  it->second.done.insert(worker);
  if (it->second.done.size() >= g.members.size()) in_flight_.erase(it);
}

void PReduceService::AbortGroup(uint64_t group_id, int dead,
                                ServiceActions* out) {
  auto it = in_flight_.find(group_id);
  if (it == in_flight_.end()) return;
  const InFlightGroup f = std::move(it->second);
  in_flight_.erase(it);
  Bump(aborted_groups_);
  Trace(TraceEventKind::kGroupAborted, -1, static_cast<int64_t>(group_id));
  for (int m : f.group->members) {
    if (f.done.count(m) != 0) continue;  // completed before the stall
    Worker& w = workers_[static_cast<size_t>(m)];
    if (w.wait != Wait::kInGroup || w.group != group_id) continue;
    w.wait = Wait::kIdle;
    if (m == dead) continue;
    out->push_back(Action(ServiceAction::Kind::kAbort, m, group_id, dead));
  }
}

void PReduceService::MembershipChanged(ServiceActions* out) {
  // Retarget the effective P, counting a shrink, and release the queued
  // waiters once a fresh signal would not be queued either.
  const int active = active_count();
  const int target = TargetGroupSize(active);
  const int current = controller_->effective_group_size();
  if (target != current) {
    if (target < current) Bump(small_groups_);
    Broadcast(controller_->SetEffectiveGroupSize(target), out);
  }
  if (GateVerdict(active) != Verdict::kQueue) ReleasePending(out);
}

void PReduceService::SetMember(int worker, Member member,
                               ServiceActions* out) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  const bool was_active = w.member == Member::kActive;
  w.member = member;
  const bool now_active = member == Member::kActive;
  if (was_active == now_active || !serving()) return;
  if (now_active) {
    Broadcast(controller_->NotifyWorkerRejoined(worker), out);
  } else {
    // A departed worker's queued signal must not be grouped.
    if (w.wait == Wait::kQueued) {
      controller_->PurgePending(worker);
      w.wait = Wait::kIdle;
    }
    Broadcast(controller_->NotifyWorkerLeft(worker), out);
  }
  MembershipChanged(out);
}

ServiceActions PReduceService::Ready(int worker, int64_t iteration) {
  ServiceActions out;
  Worker& w = workers_[static_cast<size_t>(worker)];
  if (w.member == Member::kLeft) return out;  // delayed stale signal
  if (stage_ == Stage::kRecovering) {
    // A worker that never noticed the outage: its plain signal is a
    // state-poor implicit re-registration.
    for (const ReregisterSnapshot& r : reregistered_) {
      if (r.worker == worker) return out;
    }
    ReregisterSnapshot r;
    r.worker = worker;
    r.iteration = iteration;
    reregistered_.push_back(std::move(r));
    return out;
  }
  if (!serving()) return out;

  if (w.wait == Wait::kInGroup) {
    const InFlightGroup& f = in_flight_.at(w.group);
    const std::vector<int>& members = f.group->members;
    const size_t i = static_cast<size_t>(
        std::find(members.begin(), members.end(), worker) - members.begin());
    const int64_t grouped = f.group->iterations[i];
    if (iteration == grouped) {
      // Re-sent signal for the very iteration we grouped: its GroupInfo
      // was lost — retransmit.
      out.push_back(Action(ServiceAction::Kind::kGroupInfo, worker, w.group));
      out.back().group = f.group;
      return out;
    }
    // The worker moved past the group (its GroupDone was dropped, or it
    // abandoned the wait): implicit completion.
    if (iteration > grouped) MarkDone(w.group, worker);
  }
  if (w.wait == Wait::kIdle && iteration == w.released) {
    // Re-sent signal for the iteration we released: the Release was lost.
    Release(worker, iteration, &out);
    return out;
  }
  if (iteration < w.fresh_from) return out;  // stale copy
  if (w.wait == Wait::kQueued) {
    if (iteration == w.fresh_from) return out;  // duplicated ready
    // Superseded signal (the worker gave up a verdict wait and advanced);
    // the stale queue entry must not be grouped.
    controller_->PurgePending(worker);
    w.wait = Wait::kIdle;
  }
  if (w.member != Member::kActive) {
    // A Ready from an evicted worker, or from a paused one whose Rejoin was
    // lost or overtaken, is an implicit rejoin.
    Trace(TraceEventKind::kChurnRejoin, worker);
    SetMember(worker, Member::kActive, &out);
  }
  const Verdict verdict = GateVerdict(active_count());
  if (verdict == Verdict::kLocalStep) {
    // Liveness-floor degradation: answer with an immediate release (local
    // SGD) instead of enqueuing; membership recovery lifts the gate.
    Bump(local_steps_);
    Release(worker, iteration, &out);
    ReleasePending(&out);
    return out;
  }
  Enqueue(worker, iteration, &out);
  if (verdict == Verdict::kRelease) ReleasePending(&out);
  return out;
}

ServiceActions PReduceService::Leave(int worker) {
  ServiceActions out;
  Worker& w = workers_[static_cast<size_t>(worker)];
  if (w.member == Member::kLeft) return out;  // duplicate
  if (stage_ == Stage::kRecovering) {
    reregistered_.erase(
        std::remove_if(reregistered_.begin(), reregistered_.end(),
                       [&](const ReregisterSnapshot& r) {
                         return r.worker == worker;
                       }),
        reregistered_.end());
  }
  if (serving() && w.wait == Wait::kInGroup) MarkDone(w.group, worker);
  SetMember(worker, Member::kLeft, &out);
  return out;
}

ServiceActions PReduceService::Pause(int worker) {
  ServiceActions out;
  if (!active(worker)) return out;
  Trace(TraceEventKind::kChurnLeave, worker);
  SetMember(worker, Member::kPaused, &out);
  return out;
}

ServiceActions PReduceService::Rejoin(int worker) {
  ServiceActions out;
  const Member m = workers_[static_cast<size_t>(worker)].member;
  // A rejoin from a worker that was never evicted (a hang shorter than the
  // eviction horizon) needs nothing.
  if (m != Member::kPaused && m != Member::kEvicted) return out;
  Trace(TraceEventKind::kChurnRejoin, worker);
  SetMember(worker, Member::kActive, &out);
  return out;
}

void PReduceService::Heartbeat(int worker) {
  if (!serving()) return;
  Bump(heartbeats_);
  Trace(TraceEventKind::kHeartbeat, worker);
}

void PReduceService::GroupDone(int worker, uint64_t group_id) {
  if (stage_ == Stage::kRecovering) {
    // A pre-crash group that finished during the outage: credit the
    // membership so the rebuilt history window sees its edges.
    for (ReregisterSnapshot& r : reregistered_) {
      if (r.worker == worker) r.done_groups.push_back(group_id);
    }
  } else if (serving()) {
    MarkDone(group_id, worker);
  }
}

ServiceActions PReduceService::GroupStuck(int worker, uint64_t group_id) {
  ServiceActions out;
  if (down()) return out;
  auto it = in_flight_.find(group_id);
  if (it == in_flight_.end()) {
    // Already aborted (the reporter's Abort was lost), long resolved, or
    // formed by a previous incarnation: tell just the reporter to stand
    // down.
    out.push_back(Action(ServiceAction::Kind::kAbort, worker, group_id));
    return out;
  }
  int dead = -1;
  for (int m : it->second.group->members) {
    if (workers_[static_cast<size_t>(m)].member == Member::kEvicted) dead = m;
  }
  if (dead >= 0 || ++it->second.stuck_reports >= stuck_abort_reports_) {
    // Either a member is dead, or the ring has stalled long enough that a
    // dropped segment is the likely cause — retry the group.
    AbortGroup(group_id, dead, &out);
  }
  return out;
}

ServiceActions PReduceService::Reregister(const ReregisterSnapshot& snapshot) {
  ServiceActions out;
  const int worker = snapshot.worker;
  if (down() || workers_[static_cast<size_t>(worker)].member == Member::kLeft) {
    return out;
  }
  Bump(reregistrations_);
  Trace(TraceEventKind::kWorkerReregister, worker, snapshot.iteration);
  out.push_back(Action(ServiceAction::Kind::kReregisterAck, worker));
  if (serving()) {
    // Under a healthy controller a re-registration is just a beefy ready
    // signal.
    ServiceActions ready = Ready(worker, snapshot.iteration);
    out.insert(out.end(), ready.begin(), ready.end());
    return out;
  }
  for (ReregisterSnapshot& r : reregistered_) {
    if (r.worker == worker) {
      r = snapshot;  // a re-sent snapshot supersedes the old one
      return out;
    }
  }
  reregistered_.push_back(snapshot);
  return out;
}

ServiceActions PReduceService::Evict(int worker) {
  ServiceActions out;
  if (!active(worker)) return out;
  Bump(evictions_);
  Trace(TraceEventKind::kWorkerEvicted, worker);
  Worker& w = workers_[static_cast<size_t>(worker)];
  if (serving() && w.wait == Wait::kInGroup) {
    // `dead` names the evicted member so survivors can purge that peer's
    // stashed segments.
    AbortGroup(w.group, worker, &out);
  }
  SetMember(worker, Member::kEvicted, &out);
  return out;
}

bool PReduceService::CrashDue(uint64_t groups) const {
  return serving() && next_outage_ < outages_.size() &&
         groups >= outages_[next_outage_].after_groups;
}

ControllerFaultEvent PReduceService::Crash() {
  PR_CHECK(CrashDue(std::numeric_limits<uint64_t>::max()));
  Trace(TraceEventKind::kControllerCrash, -1,
        static_cast<int64_t>(groups_formed_));
  stage_ = Stage::kDown;
  in_flight_.clear();
  for (Worker& w : workers_) {
    w.wait = Wait::kIdle;
    w.fresh_from = std::numeric_limits<int64_t>::min();
    w.released = std::numeric_limits<int64_t>::min();
  }
  return outages_[next_outage_++];
}

void PReduceService::BeginRecovery() {
  PR_CHECK(down());
  Bump(failovers_);
  Trace(TraceEventKind::kControllerRestart, -1,
        static_cast<int64_t>(next_outage_));
  AccumulateControllerStats(controller_->stats(), &retired_stats_);
  // Group ids are fencing tokens: the fresh controller continues where the
  // dead one stopped, so no stale GroupInfo passes the workers' dedup.
  const uint64_t next_group_id = controller_->next_group_id();
  controller_ = NewController();
  controller_->Restore({{}, next_group_id});
  reregistered_.clear();
  stage_ = Stage::kRecovering;
}

ServiceActions PReduceService::EndRecovery() {
  PR_CHECK(stage_ == Stage::kRecovering);
  ServiceActions out;
  stage_ = Stage::kServing;
  // Rebuild the history window from the snapshots, clustered from
  // reported memberships.
  std::map<uint64_t, std::vector<int>> reported;
  for (const ReregisterSnapshot& r : reregistered_) {
    for (uint64_t g : r.done_groups) {
      std::vector<int>& members = reported[g];
      if (std::find(members.begin(), members.end(), r.worker) ==
          members.end()) {
        members.push_back(r.worker);
      }
    }
  }
  ControllerRestoreState restore;
  for (const auto& [id, members] : reported) {
    // A group needs two reported members to carry a sync-graph edge.
    if (members.size() >= 2) restore.history.push_back(members);
  }
  controller_->Restore(restore);
  for (int w = 0; w < controller_options_.num_workers; ++w) {
    if (!active(w)) Broadcast(controller_->NotifyWorkerLeft(w), &out);
  }
  MembershipChanged(&out);
  // Refill the signal queue in arrival order. Workers that did not
  // re-register in time are either finishing a pre-crash reduce (their
  // next Ready lands normally) or dead (the detector evicts them).
  std::vector<ReregisterSnapshot> regs;
  regs.swap(reregistered_);
  for (const ReregisterSnapshot& r : regs) {
    ServiceActions ready = Ready(r.worker, r.iteration);
    out.insert(out.end(), ready.begin(), ready.end());
  }
  return out;
}

}  // namespace pr
