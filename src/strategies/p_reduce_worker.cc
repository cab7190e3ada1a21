#include "strategies/p_reduce_worker.h"

#include <algorithm>
#include <utility>

#include "obs/metric_table.h"

namespace pr {
namespace {

WorkerAction Act(WorkerAction::Kind kind) {
  WorkerAction a;
  a.kind = kind;
  return a;
}

}  // namespace

PReduceWorker::PReduceWorker(int worker, const StrategyOptions& options,
                             const FaultPlan& plan, Observers observers,
                             int64_t iteration, size_t completed,
                             size_t budget,
                             const std::vector<ChurnWindow>& windows)
    : worker_(worker),
      dynamic_(options.kind == StrategyKind::kPReduceDynamic),
      plan_(plan),
      controller_faults_(plan.has_controller_faults()),
      full_wait_(controller_faults_
                     ? std::max(plan.max_verdict_wait_seconds,
                                plan.max_controller_outage_seconds)
                     : plan.max_verdict_wait_seconds),
      budget_(budget),
      trace_(observers.trace),
      iteration_(iteration),
      completed_(completed) {
  if (observers.metrics != nullptr) {
    retries_ = observers.metrics->Get(metric::kFaultRetries);
  }
  for (const ChurnWindow& w : windows) {
    if (w.worker == worker) windows_.push_back(w);
  }
}

void PReduceWorker::Send(int kind, std::vector<int64_t> ints,
                         WorkerActions* out) const {
  WorkerAction a = Act(WorkerAction::Kind::kSend);
  a.message = kind;
  a.ints = std::move(ints);
  out->push_back(std::move(a));
}

void PReduceWorker::Purge(uint64_t group_id, WorkerActions* out) const {
  WorkerAction a = Act(WorkerAction::Kind::kPurgeGroup);
  a.group_id = group_id;
  out->push_back(std::move(a));
}

void PReduceWorker::SetPhase(Phase phase, WorkerActions* out) {
  if (phase == phase_) return;
  WorkerAction a = Act(WorkerAction::Kind::kPhaseChange);
  a.from = phase_;
  a.to = phase;
  out->push_back(std::move(a));
  phase_ = phase;
}

void PReduceWorker::NoteRetry(double now) {
  if (retries_ != nullptr) retries_->Increment();
  if (trace_ != nullptr) {
    trace_->Record(now, TraceEventKind::kWorkerRetry, worker_, iteration_);
  }
}

bool PReduceWorker::CrashArmed(bool in_group) const {
  for (const WorkerFaultEvent& e : plan_.worker_events) {
    if (e.worker == worker_ && e.kind == WorkerFaultEvent::Kind::kCrash) {
      // A worker dies once: its first crash event is the only one.
      return e.in_group == in_group &&
             completed_ >= static_cast<size_t>(e.after_iterations);
    }
  }
  return false;
}

WorkerActions PReduceWorker::Start() {
  WorkerActions out;
  Continue(0.0, /*signal=*/false, &out);
  return out;
}

WorkerActions PReduceWorker::Boundary(double now) {
  WorkerActions out;
  ++completed_;
  ++iteration_;
  if (CrashArmed(/*in_group=*/false)) {
    // Boundary crash: the controller's lease eviction is the only cleanup.
    SetPhase(Phase::kDead, &out);
    out.push_back(Act(WorkerAction::Kind::kDie));
    return out;
  }
  for (const WorkerFaultEvent& e : plan_.worker_events) {
    if (e.worker == worker_ && e.kind == WorkerFaultEvent::Kind::kHang &&
        completed_ == static_cast<size_t>(e.after_iterations) &&
        completed_ < budget_) {
      // Go dark long enough to (usually) lose the lease, then announce the
      // comeback: a rejoin from an evicted worker re-admits it.
      WorkerAction sleep = Act(WorkerAction::Kind::kSleep);
      sleep.seconds = e.hang_seconds;
      out.push_back(std::move(sleep));
      Send(kKindRejoin, {}, &out);
    }
  }
  Continue(now, /*signal=*/true, &out);
  return out;
}

void PReduceWorker::Leave(WorkerActions* out) {
  // The service handles the Leave through its membership path, so the
  // remaining workers keep forming groups.
  SetPhase(Phase::kFinished, out);
  out->push_back(Act(WorkerAction::Kind::kFinish));
  Send(kKindLeave, {}, out);
}

bool PReduceWorker::TakeDueWindows() {
  bool due = false;
  pause_seconds_ = 0.0;
  // Windows due at one count (Poisson churn overlaps them) make one pause.
  for (; next_window_ < windows_.size() &&
         static_cast<size_t>(windows_[next_window_].after_iterations) <=
             completed_;
       ++next_window_) {
    const ChurnWindow& w = windows_[next_window_];
    if (static_cast<size_t>(w.after_iterations) == completed_) {
      pause_seconds_ += w.pause_seconds;
      due = true;
    }
  }
  return due;
}

void PReduceWorker::Continue(double now, bool signal, WorkerActions* out) {
  const bool window_due = TakeDueWindows();
  if (completed_ >= budget_) {
    Leave(out);
  } else if (pause_requested_ || window_due) {
    pause_requested_ = false;
    resume_signals_ = signal;
    SetPhase(Phase::kPaused, out);
    Send(kKindPause, {}, out);
  } else if (signal) {
    BeginWait(now, out);
  } else {
    SetPhase(Phase::kComputing, out);
    out->push_back(Act(WorkerAction::Kind::kProceed));
  }
}

void PReduceWorker::RequestPause() {
  if (phase_ != Phase::kPaused && phase_ != Phase::kFinished &&
      phase_ != Phase::kDead) {
    pause_requested_ = true;
  }
}

WorkerActions PReduceWorker::Resume(double now) {
  WorkerActions out;
  if (phase_ != Phase::kPaused) {
    pause_requested_ = false;  // the pause never reached a boundary
    return out;
  }
  Send(kKindRejoin, {}, &out);
  Continue(now, resume_signals_, &out);
  return out;
}

WorkerActions PReduceWorker::Cancel() {
  WorkerActions out;
  if (phase_ != Phase::kFinished && phase_ != Phase::kDead) Leave(&out);
  return out;
}

void PReduceWorker::BeginWait(double now, WorkerActions* out) {
  SetPhase(Phase::kWaiting, out);
  Send(kKindReady, {iteration_}, out);
  ticks_ = 0;
  backoff_ = plan_.reregister_backoff_seconds;
  reregister_at_ = now + backoff_;
  // Once the controller looks gone for good, a wait is only a quick probe.
  give_up_at_ = now + (controller_lost_
                           ? plan_.reregister_backoff_max_seconds
                           : full_wait_);
}

bool PReduceWorker::Deliverable(int kind,
                                const std::vector<int64_t>& ints) const {
  switch (phase_) {
    case Phase::kWaiting:
      return true;
    case Phase::kReducing:
      return kind == kKindAbort && !ints.empty() &&
             ints[0] == static_cast<int64_t>(group_->group_id);
    default:
      return false;
  }
}

WorkerActions PReduceWorker::Receive(double now, int kind,
                                     const std::vector<int64_t>& ints,
                                     std::vector<double> weights) {
  // The decoder: over sockets these ints come from another process, so a
  // message of the wrong shape is dropped before it touches any state.
  const bool well_formed =
      (kind == kKindGroupInfo && ints.size() >= 3 &&
       weights.size() == ints.size() - 2) ||
      (kind == kKindAbort && ints.size() == 2) ||
      (kind == kKindRelease && ints.size() == 1) ||
      kind == kKindReregisterAck;
  if (!well_formed || !Deliverable(kind, ints)) return {};
  WorkerActions out;
  if (kind == kKindAbort && ints[1] >= 0) {
    // Peer-death hygiene: every parked message from the evicted member is
    // garbage.
    WorkerAction purge = Act(WorkerAction::Kind::kPurgePeer);
    purge.peer = static_cast<int>(ints[1]);
    out.push_back(std::move(purge));
  }
  if (phase_ == Phase::kReducing) {
    out.push_back(Act(WorkerAction::Kind::kStopReduce));  // the group's Abort
    return out;
  }
  if (controller_lost_) {
    // Any controller traffic refutes the "gone for good" verdict: grant the
    // full silence budget again.
    controller_lost_ = false;
    give_up_at_ = now + full_wait_;
  }
  switch (kind) {
    case kKindReregisterAck:
      // The (possibly restarted) controller holds our signal; keep waiting
      // for its verdict.
      give_up_at_ = now + full_wait_;
      break;
    case kKindRelease:
      // A Release answers one signal; a late copy for an earlier one is
      // stale.
      if (ints[0] == iteration_) {
        SetPhase(Phase::kComputing, &out);
        out.push_back(Act(WorkerAction::Kind::kProceed));
      }
      break;
    case kKindAbort:
      if (static_cast<uint64_t>(ints[0]) > last_group_id_) {
        // Abort for a group whose GroupInfo never arrived: adopt the id (so
        // a late re-send is ignored) and drop segments peers already sent.
        last_group_id_ = static_cast<uint64_t>(ints[0]);
        Purge(last_group_id_, &out);
      }
      break;
    default:
      return OnGroupInfo(now, ints, std::move(weights));
  }
  return out;
}

WorkerActions PReduceWorker::OnGroupInfo(double now,
                                         const std::vector<int64_t>& ints,
                                         std::vector<double> weights) {
  WorkerActions out;
  const uint64_t group_id = static_cast<uint64_t>(ints[0]);
  if (group_id <= last_group_id_) return out;  // duplicate or re-sent
  auto group = std::make_shared<GroupDecision>();
  group->group_id = group_id;
  group->advanced_iteration = ints[1];
  group->members.assign(ints.begin() + 2, ints.end());
  group->weights = std::move(weights);
  if (std::find(group->members.begin(), group->members.end(), worker_) ==
      group->members.end()) {
    return out;  // not addressed to this worker: malformed
  }
  last_group_id_ = group_id;
  if (CrashArmed(/*in_group=*/true)) {
    // Mid-group crash: peers are already blocked on our segments.
    SetPhase(Phase::kDead, &out);
    out.push_back(Act(WorkerAction::Kind::kDie));
    return out;
  }
  SetPhase(Phase::kReducing, &out);
  group_ = std::move(group);
  ring_ticks_ = 0;
  reduce_begin_ = now;
  WorkerAction start = Act(WorkerAction::Kind::kStartReduce);
  start.group = group_;
  out.push_back(std::move(start));
  return out;
}

WorkerActions PReduceWorker::WaitTick(double now) {
  WorkerActions out;
  if (phase_ != Phase::kWaiting) return out;
  ++ticks_;
  Send(kKindHeartbeat, {}, &out);
  if (controller_faults_) {
    // The plain re-send escalates to a re-registration probe with doubling
    // backoff: the park loop a worker sits in while the controller is down.
    if (now >= reregister_at_) {
      NoteRetry(now);
      std::vector<int64_t> snapshot = {iteration_};
      for (uint64_t g : done_groups_) {
        snapshot.push_back(static_cast<int64_t>(g));
      }
      Send(kKindReregister, std::move(snapshot), &out);
      backoff_ = std::min(backoff_ * 2.0, plan_.reregister_backoff_max_seconds);
      reregister_at_ = now + backoff_;
    }
  } else if (plan_.resend_ready_ticks > 0 &&
             ticks_ % plan_.resend_ready_ticks == 0) {
    NoteRetry(now);
    Send(kKindReady, {iteration_}, &out);
  }
  if (now >= give_up_at_) {
    // Liveness valve: proceed locally and re-synchronize next round.
    if (controller_faults_) controller_lost_ = true;
    SetPhase(Phase::kComputing, &out);
    out.push_back(Act(WorkerAction::Kind::kProceed));
  }
  return out;
}

WorkerActions PReduceWorker::RingTick(double now) {
  WorkerActions out;
  if (phase_ != Phase::kReducing) return out;
  Send(kKindHeartbeat, {}, &out);
  if (plan_.stuck_report_ticks > 0 &&
      ++ring_ticks_ % plan_.stuck_report_ticks == 0) {
    // The controller answers a hopeless stall (dead peer or dropped
    // segment) with an Abort, turning a would-be deadlock into a retry.
    Send(kKindGroupStuck, {static_cast<int64_t>(group_->group_id)}, &out);
  }
  if (now - reduce_begin_ > plan_.max_reduce_stall_seconds) {
    // Liveness valve: abandon the reduce even without a verdict; the stuck
    // escalation will (or did) abort it.
    out.push_back(Act(WorkerAction::Kind::kStopReduce));
  }
  return out;
}

WorkerActions PReduceWorker::ReduceEnd(double now, bool ok) {
  WorkerActions out;
  if (phase_ != Phase::kReducing) return out;
  if (!ok) {
    // Roll back the half-reduced vector, drop the conversation's leftovers
    // and put our signal back in the queue; the verdict wait's clocks carry
    // on where they stopped.
    out.push_back(Act(WorkerAction::Kind::kRollback));
    Purge(group_->group_id, &out);
    NoteRetry(now);
    SetPhase(Phase::kWaiting, &out);
    Send(kKindReady, {iteration_}, &out);
    return out;
  }
  // Duplicated segments of this conversation may still be parked.
  Purge(group_->group_id, &out);
  Send(kKindGroupDone, {static_cast<int64_t>(group_->group_id)}, &out);
  if (controller_faults_ && plan_.reregister_report_groups > 0) {
    // What a re-registration can vouch for after a controller crash.
    if (done_groups_.size() >=
        static_cast<size_t>(plan_.reregister_report_groups)) {
      done_groups_.pop_front();
    }
    done_groups_.push_back(group_->group_id);
  }
  // §3.3.3: DYN members adopt the group's max iteration.
  if (dynamic_) iteration_ = group_->advanced_iteration;
  SetPhase(Phase::kComputing, &out);
  out.push_back(Act(WorkerAction::Kind::kProceed));
  return out;
}

}  // namespace pr
