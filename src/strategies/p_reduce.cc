#include "strategies/p_reduce.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "core/aggregate.h"

namespace pr {

PReduceStrategy::PReduceStrategy(SimTraining* ctx,
                                 const StrategyOptions& options)
    : ctx_(ctx),
      options_(options),
      controller_(std::make_unique<Controller>(ControllerOptionsFrom(
          options, ctx->num_workers(), ctx->options().topology))),
      scenario_mode_(
          ScenarioMode(ctx->options().scenario, options.scale_policy)),
      scenario_metrics_(scenario_mode_
                            ? RegisterScenarioMetrics(ctx->metrics(),
                                                      ctx->options().scenario)
                            : ScenarioMetrics{}),
      policy_(options, scenario_metrics_) {
  controller_->AttachObservers(ctx->metrics(), ctx->trace(),
                               [ctx] { return ctx->engine()->now(); });

  leave_requested_.assign(static_cast<size_t>(ctx->num_workers()), false);
  active_.assign(static_cast<size_t>(ctx->num_workers()), true);
  active_count_ = ctx->num_workers();

  if (options.compression != CompressionKind::kNone) {
    // No AttachMetrics here: RecordReduceTraffic models the compress.*
    // instruments analytically (attaching too would double-count).
    compressors_.reserve(static_cast<size_t>(ctx->num_workers()));
    for (int w = 0; w < ctx->num_workers(); ++w) {
      compressors_.push_back(
          std::make_unique<Compressor>(options.compression));
    }
  }

  crashed_.assign(static_cast<size_t>(ctx->num_workers()), false);
  signal_seq_.assign(static_cast<size_t>(ctx->num_workers()), 0);
  if (ctx->options().fault.enabled()) {
    fault_ = RegisterFaultMetrics(ctx->metrics());
    outages_ = SortedOutages(ctx->options().fault);
  }

  scale_paused_.assign(static_cast<size_t>(ctx->num_workers()), false);
  if (options.scale_policy.enabled()) {
    scale_policy_ = std::make_unique<ScalePolicy>(options.scale_policy,
                                                  ctx->num_workers());
  }

  // Coordinated checkpointing: SimTraining cuts the shards; the strategy
  // stamps the controller-owned restore state into each manifest.
  ctx->ConfigureCheckpoint(Name(), [this](RunManifest* m) {
    StampManifest(*controller_, m);
  });
  if (const RunManifest* rm = ctx->resume()) {
    RestoreController(*rm, controller_.get());
  }
}

ControllerStats PReduceStrategy::controller_stats() const {
  ControllerStats total = retired_stats_;
  AccumulateControllerStats(controller_->stats(), &total);
  return total;
}

std::string PReduceStrategy::Name() const {
  return options_.kind == StrategyKind::kPReduceDynamic ? "DYN" : "CON";
}

bool PReduceStrategy::CrashArmed(int worker, bool in_group) const {
  if (crashed_[static_cast<size_t>(worker)]) return false;
  for (const WorkerFaultEvent& e : ctx_->options().fault.worker_events) {
    if (e.worker == worker && e.kind == WorkerFaultEvent::Kind::kCrash &&
        e.in_group == in_group &&
        ctx_->iteration(worker) >= e.after_iterations) {
      return true;
    }
  }
  return false;
}

void PReduceStrategy::EvictNow(int worker) {
  fault_.evictions->Increment();
  ctx_->trace()->Record(ctx_->engine()->now(),
                        TraceEventKind::kWorkerEvicted, worker);
  active_[static_cast<size_t>(worker)] = false;
  --active_count_;
  // With the controller down the lease verdict is deferred: the restarted
  // incarnation simply never hears from the dead worker again.
  if (!controller_down_) HandleDecisions(controller_->EvictWorker(worker));
  UpdateEffectiveGroupSize();
}

void PReduceStrategy::ScenarioLeave(int worker) {
  const size_t w = static_cast<size_t>(worker);
  if (!active_[w] || crashed_[w]) return;  // overlapping windows are fine
  leave_requested_[w] = true;  // takes effect at the gradient boundary
}

void PReduceStrategy::ScenarioRejoin(int worker) {
  const size_t w = static_cast<size_t>(worker);
  if (crashed_[w]) return;         // a crash outlives any window
  if (scale_paused_[w]) return;    // the autoscaler owns this pause now
  if (active_[w]) {
    // The leave never reached a boundary (window shorter than one step):
    // cancel it instead of rejoining twice.
    leave_requested_[w] = false;
    return;
  }
  active_[w] = true;
  ++active_count_;
  leave_requested_[w] = false;
  if (!controller_down_) {
    HandleDecisions(controller_->NotifyWorkerRejoined(worker));
  }
  UpdateEffectiveGroupSize();
  if (!ctx_->stopped()) BeginCompute(worker);
}

void PReduceStrategy::UpdateEffectiveGroupSize() {
  if (controller_down_) return;  // the next incarnation re-syncs
  HandleDecisions(policy_.Retarget(active_count_, controller_.get()));
}

void PReduceStrategy::ScalePolicyTick() {
  if (ctx_->stopped()) return;  // stop rescheduling; let the queue drain
  const double now = ctx_->engine()->now();
  const double span = now - last_tick_time_;
  double wait_total = 0.0;
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    wait_total += ctx_->worker_wait_seconds(w);
  }
  ScaleSample sample;
  sample.time = now;
  sample.active_workers = active_count_;
  if (span > 0.0 && active_count_ > 0) {
    sample.mean_idle_fraction =
        std::min(1.0, std::max(0.0, (wait_total - last_wait_total_) /
                                        (span * active_count_)));
    sample.updates_per_second =
        static_cast<double>(ctx_->updates() - last_updates_) / span;
  }
  last_wait_total_ = wait_total;
  last_tick_time_ = now;
  last_updates_ = ctx_->updates();

  const int target = scale_policy_->Decide(sample);
  if (target < active_count_) {
    // Shed the highest-id active worker: the surviving set stays a prefix,
    // matching the threaded ScaleDirector's deterministic order.
    for (int w = ctx_->num_workers() - 1; w >= 0; --w) {
      const size_t i = static_cast<size_t>(w);
      if (active_[i] && !crashed_[i] && !leave_requested_[i] &&
          !scale_paused_[i]) {
        scale_paused_[i] = true;
        leave_requested_[i] = true;
        scenario_metrics_.scale_shrink->Increment();
        break;
      }
    }
  } else if (target > active_count_) {
    // Readmit the lowest-id policy-paused worker.
    for (int w = 0; w < ctx_->num_workers(); ++w) {
      const size_t i = static_cast<size_t>(w);
      if (!scale_paused_[i]) continue;
      scale_paused_[i] = false;
      if (active_[i]) {
        leave_requested_[i] = false;  // pause never reached a boundary
      } else {
        ScenarioRejoin(w);
      }
      scenario_metrics_.scale_grow->Increment();
      break;
    }
  }
  ctx_->engine()->ScheduleAfter(
      std::max(1e-6, scale_policy_->config().interval_seconds),
      [this] { ScalePolicyTick(); });
}

void PReduceStrategy::Start() {
  // Scenario arrive windows (time 0) hold their workers out before the
  // first compute event is ever scheduled.
  for (const ChurnWindow& w : ctx_->scenario_churn()) {
    const size_t i = static_cast<size_t>(w.worker);
    if (w.time_seconds <= 0.0 && active_[i]) {
      active_[i] = false;
      --active_count_;
      HandleDecisions(controller_->NotifyWorkerLeft(w.worker));
    }
  }
  UpdateEffectiveGroupSize();

  for (int w = 0; w < ctx_->num_workers(); ++w) {
    if (active_[static_cast<size_t>(w)]) BeginCompute(w);
  }

  // Scenario churn windows become virtual-time leave/rejoin pairs. The
  // handlers are lenient (generated traces overlap windows freely); the
  // hand-written schedule below keeps its strict invariants.
  for (const ChurnWindow& w : ctx_->scenario_churn()) {
    if (w.time_seconds <= 0.0) {
      ctx_->engine()->ScheduleAt(w.pause_seconds,
                                 [this, w] { ScenarioRejoin(w.worker); });
    } else {
      ctx_->engine()->ScheduleAt(w.time_seconds,
                                 [this, w] { ScenarioLeave(w.worker); });
      ctx_->engine()->ScheduleAt(w.time_seconds + w.pause_seconds,
                                 [this, w] { ScenarioRejoin(w.worker); });
    }
  }
  // A partitioned worker is, in virtual time, a membership loss for the
  // window's duration: its traffic cannot reach the controller or any
  // group, which is exactly what leaving models.
  for (const PartitionEvent& p : ctx_->options().fault.partition_events) {
    ctx_->engine()->ScheduleAt(p.start_seconds, [this, p] {
      if (scenario_metrics_.partitions_applied != nullptr) {
        scenario_metrics_.partitions_applied->Increment();
      }
      ScenarioLeave(p.worker);
    });
    ctx_->engine()->ScheduleAt(p.start_seconds + p.duration_seconds,
                               [this, p] { ScenarioRejoin(p.worker); });
  }
  if (scale_policy_ != nullptr) {
    // Floor keeps a malformed zero interval from wedging the event queue
    // at one timestamp.
    ctx_->engine()->ScheduleAfter(
        std::max(1e-6, scale_policy_->config().interval_seconds),
        [this] { ScalePolicyTick(); });
  }

  // Elastic membership schedule: leaves take effect at the worker's next
  // gradient boundary; joins resume the worker with its last-held model.
  for (const ChurnEvent& event : options_.churn) {
    PR_CHECK_GE(event.worker, 0);
    PR_CHECK_LT(event.worker, ctx_->num_workers());
    ctx_->engine()->ScheduleAt(event.time, [this, event] {
      const size_t w = static_cast<size_t>(event.worker);
      if (event.leave) {
        PR_CHECK(active_[w]) << "leave for already-departed worker";
        leave_requested_[w] = true;
      } else {
        PR_CHECK(!active_[w]) << "join for already-active worker";
        active_[w] = true;
        ++active_count_;
        leave_requested_[w] = false;
        HandleDecisions(controller_->NotifyWorkerRejoined(event.worker));
        if (!ctx_->stopped()) BeginCompute(event.worker);
      }
    });
  }
}

void PReduceStrategy::BeginCompute(int worker) {
  // Gradient is computed against the worker's current (post-reduce) model.
  ctx_->TakeSnapshot(worker);
  const double d = ctx_->SampleComputeSeconds(worker);
  ctx_->RecordActivity(worker, WorkerActivity::kCompute,
                       ctx_->engine()->now(), ctx_->engine()->now() + d);
  ctx_->engine()->ScheduleAfter(d, [this, worker] {
    OnGradientReady(worker);
  });
}

void PReduceStrategy::OnGradientReady(int worker) {
  // Alg. 2 lines 3-5: local update, then signal the controller.
  std::vector<float> grad;
  ctx_->GradientAtSnapshot(worker, &grad);
  ctx_->LocalStep(worker, grad.data());
  ctx_->increment_iteration(worker);

  if (leave_requested_[static_cast<size_t>(worker)]) {
    // Gradient boundary: this worker departs instead of signaling.
    leave_requested_[static_cast<size_t>(worker)] = false;
    active_[static_cast<size_t>(worker)] = false;
    --active_count_;
    if (!scenario_mode_) {
      // Hand-written churn schedules promise this; scenario traces and the
      // autoscaler legitimately drive the live set below P (that is what
      // the degradation gates are for).
      PR_CHECK_GE(active_count_, options_.group_size)
          << "churn dropped the cluster below the group size";
    }
    if (!controller_down_) {
      HandleDecisions(controller_->NotifyWorkerLeft(worker));
    }
    UpdateEffectiveGroupSize();
    return;
  }

  if (CrashArmed(worker, /*in_group=*/false)) {
    // Boundary crash: the worker vanishes without signaling. The controller
    // notices when the lease horizon elapses and evicts it.
    crashed_[static_cast<size_t>(worker)] = true;
    const FaultPlan& plan = ctx_->options().fault;
    ctx_->engine()->ScheduleAfter(
        plan.lease_seconds * plan.missed_threshold,
        [this, worker] { EvictNow(worker); });
    return;
  }

  ctx_->MarkWaitStart(worker);
  SendSignal(worker);
}

void PReduceStrategy::SendSignal(int worker) {
  const FaultPlan& plan = ctx_->options().fault;
  if (plan.has_message_faults()) {
    // Mirror the worker->controller edge of the threaded fabric: a dropped
    // ready signal costs the protocol one resend interval, then retries
    // with the next sequence number.
    const uint64_t seq = signal_seq_[static_cast<size_t>(worker)]++;
    if (plan.RollDrop(worker, ctx_->num_workers(), seq)) {
      fault_.injected_drops->Increment();
      fault_.retries->Increment();
      ctx_->trace()->Record(ctx_->engine()->now(),
                            TraceEventKind::kWorkerRetry, worker,
                            ctx_->iteration(worker));
      ctx_->engine()->ScheduleAfter(
          plan.recv_timeout_seconds * plan.resend_ready_ticks,
          [this, worker] { SendSignal(worker); });
      return;
    }
  }
  // The worker->controller hop pays any deterministic link latency the
  // plan lists on that edge (the controller sits at endpoint id N), same
  // as the FaultyTransport holding the real message.
  double hop = ctx_->cost().controller_delay();
  const double link = plan.LinkDelay(worker, ctx_->num_workers());
  if (link > 0.0) {
    hop += link;
    fault_.injected_delays->Increment();
  }
  ctx_->engine()->ScheduleAfter(hop,
                                [this, worker] { OnSignalArrival(worker); });
}

void PReduceStrategy::OnSignalArrival(int worker) {
  if (controller_down_) {
    // The signal dies at the severed endpoint; the worker parks and
    // re-registers when the controller returns.
    fault_.severed_drops->Increment();
    parked_.push_back(worker);
    return;
  }
  if (scenario_mode_) {
    // Graceful degradation: a signal no group can take (or one below the
    // liveness floor) goes straight back to compute, the simulator's form
    // of the threaded service's immediate-release reply.
    const SignalVerdict verdict = policy_.Verdict(active_count_);
    if (verdict != SignalVerdict::kQueue) {
      if (verdict == SignalVerdict::kLocalStep) policy_.CountLocalStep();
      ctx_->MarkWaitEnd(worker);
      if (!ctx_->stopped() && active_[static_cast<size_t>(worker)]) {
        BeginCompute(worker);
      }
      return;
    }
  }
  HandleDecisions(
      controller_->OnReadySignal(worker, ctx_->iteration(worker)));
}

void PReduceStrategy::HandleDecisions(
    const std::vector<GroupDecision>& decisions) {
  for (const GroupDecision& decision : decisions) {
    // A member with an armed mid-group crash kills the whole reduce: the
    // survivors stall on its chunks until the controller's lease verdict
    // aborts the group (the threaded engine's recovery path, in virtual
    // time).
    std::vector<int> crashed;
    for (int m : decision.members) {
      if (CrashArmed(m, /*in_group=*/true)) crashed.push_back(m);
    }
    if (!crashed.empty()) {
      const FaultPlan& plan = ctx_->options().fault;
      const double stall = plan.lease_seconds * plan.missed_threshold;
      for (int m : decision.members) {
        crashed_[static_cast<size_t>(m)] =
            crashed_[static_cast<size_t>(m)] ||
            std::find(crashed.begin(), crashed.end(), m) != crashed.end();
        ctx_->MarkWaitEnd(m);
        ctx_->RecordActivity(m, WorkerActivity::kComm,
                             ctx_->engine()->now(),
                             ctx_->engine()->now() + stall);
      }
      ctx_->engine()->ScheduleAfter(
          stall, [this, d = decision, crashed] { OnGroupAborted(d, crashed); });
      continue;
    }

    // Group formed: members leave the wait state and spend the group-info
    // delay plus the P-member ring reduce communicating. Groups synchronize
    // in parallel — nothing here blocks other workers or other groups. The
    // ring cost is topology-aware: one slow inter-node edge paces the
    // pipelined ring.
    for (int m : decision.members) ctx_->MarkWaitEnd(m);
    double comm = ctx_->cost().controller_delay() +
                  ctx_->cost().RingAllReduceSeconds(decision.members,
                                                    ctx_->options().topology);
    // Deterministic link delays stretch the group the same way the
    // FaultyTransport stretches real chunks: the group-info broadcast waits
    // on the slowest controller->member edge, and every ring step waits on
    // the slowest member->member edge, 2(p-1) steps per reduce.
    const FaultPlan& fplan = ctx_->options().fault;
    if (fplan.has_link_delays()) {
      double info_delay = 0.0;
      double worst_edge = 0.0;
      const size_t p = decision.members.size();
      for (size_t i = 0; i < p; ++i) {
        const int m = decision.members[i];
        info_delay = std::max(info_delay,
                              fplan.LinkDelay(ctx_->num_workers(), m));
        worst_edge = std::max(
            worst_edge, fplan.LinkDelay(m, decision.members[(i + 1) % p]));
      }
      const double stall =
          info_delay + 2.0 * static_cast<double>(p - 1) * worst_edge;
      if (stall > 0.0) {
        comm += stall;
        fault_.injected_delays->Increment();
      }
    }
    for (int m : decision.members) {
      ctx_->RecordActivity(m, WorkerActivity::kComm, ctx_->engine()->now(),
                           ctx_->engine()->now() + comm);
    }
    ctx_->engine()->ScheduleAfter(
        comm, [this, d = decision] { OnGroupReduceDone(d); });
  }
}

void PReduceStrategy::OnGroupAborted(const GroupDecision& decision,
                                     const std::vector<int>& crashed) {
  fault_.aborted_groups->Increment();
  ctx_->trace()->Record(ctx_->engine()->now(), TraceEventKind::kGroupAborted,
                        -1, static_cast<int64_t>(decision.group_id));
  for (int m : crashed) EvictNow(m);
  if (ctx_->stopped()) return;
  for (int m : decision.members) {
    if (crashed_[static_cast<size_t>(m)]) continue;
    // Survivors roll back to their pre-reduce replicas (never touched in
    // the simulator — the average is only applied on success) and put their
    // signals back in the queue.
    fault_.retries->Increment();
    ctx_->trace()->Record(ctx_->engine()->now(),
                          TraceEventKind::kWorkerRetry, m,
                          ctx_->iteration(m));
    ctx_->MarkWaitStart(m);
    SendSignal(m);
  }
}

void PReduceStrategy::OnGroupReduceDone(const GroupDecision& decision) {
  std::vector<float*> models;
  models.reserve(decision.members.size());
  for (int m : decision.members) models.push_back(ctx_->params(m).data());
  if (!compressors_.empty()) {
    // Compression emulation: each member's model passes through its own
    // lossy codec + error feedback before the average (the blob itself is
    // irrelevant here — RecordReduceTraffic accounts the bytes).
    for (size_t i = 0; i < models.size(); ++i) {
      const size_t m = static_cast<size_t>(decision.members[i]);
      (void)compressors_[m]->EncodeRangePublish(models[i], 0,
                                                ctx_->num_params());
    }
  }
  WeightedAverageInPlace(models, decision.weights, ctx_->num_params());

  if (options_.average_momentum) {
    // Ablation: merge optimizer state with the same weights (the paper
    // keeps momentum local).
    std::vector<float*> velocities;
    velocities.reserve(decision.members.size());
    for (int m : decision.members) {
      velocities.push_back(ctx_->optimizer(m)->mutable_velocity()->data());
    }
    WeightedAverageInPlace(velocities, decision.weights, ctx_->num_params());
  }

  if (options_.kind == StrategyKind::kPReduceDynamic) {
    // §3.3.3: members adopt the group's max iteration — their models now
    // reflect the newest information in the group.
    for (int m : decision.members) {
      ctx_->set_iteration(m, decision.advanced_iteration);
    }
  }
  ++completed_groups_;
  if (!outages_.empty()) {
    const FaultPlan& plan = ctx_->options().fault;
    if (plan.reregister_report_groups > 0) {
      recent_groups_.emplace(decision.group_id, decision.members);
      if (recent_groups_.size() >
          static_cast<size_t>(plan.reregister_report_groups)) {
        recent_groups_.erase(recent_groups_.begin());
      }
    }
  }
  ctx_->RecordReduceTraffic(decision.members, options_.compression);
  ctx_->RecordUpdate();
  if (ctx_->stopped()) return;
  for (int m : decision.members) BeginCompute(m);
  MaybeCrashController();
}

void PReduceStrategy::MaybeCrashController() {
  if (controller_down_ || next_outage_ >= outages_.size()) return;
  if (completed_groups_ < outages_[next_outage_].after_groups) return;
  CrashController();
}

void PReduceStrategy::CrashController() {
  const ControllerFaultEvent& event = outages_[next_outage_];
  controller_down_ = true;
  ctx_->trace()->Record(ctx_->engine()->now(),
                        TraceEventKind::kControllerCrash, -1,
                        static_cast<int64_t>(completed_groups_));
  if (event.restart) {
    ctx_->engine()->ScheduleAfter(event.down_seconds,
                                  [this] { RestartController(); });
  }
  // No restart scheduled: the controller is gone for good. Workers park as
  // their signals arrive, the event queue drains, and the run ends with
  // whatever updates it had — the simulator's analogue of the threaded
  // workers giving up after max_controller_outage_seconds.
}

void PReduceStrategy::RestartController() {
  ++next_outage_;
  controller_down_ = false;
  fault_.failovers->Increment();
  ctx_->trace()->Record(ctx_->engine()->now(),
                        TraceEventKind::kControllerRestart, -1,
                        static_cast<int64_t>(completed_groups_));

  // Fresh incarnation: all queue/history/EMA state died with the old
  // controller. Rebuild the history window and the group-id watermark from
  // the groups recent re-registrations can vouch for, then re-apply the
  // cluster-membership facts (departures survive a controller crash — they
  // are knowledge about the cluster, not controller state).
  AccumulateControllerStats(controller_->stats(), &retired_stats_);
  controller_ = std::make_unique<Controller>(controller_->options());
  controller_->AttachObservers(ctx_->metrics(), ctx_->trace(),
                               [ctx = ctx_] { return ctx->engine()->now(); });
  controller_->Restore(RestoreStateFromGroups(recent_groups_));
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    if (!active_[static_cast<size_t>(w)]) {
      HandleDecisions(controller_->NotifyWorkerLeft(w));
    }
  }

  // Every surviving worker re-registers — that is how the fresh incarnation
  // learns the membership it just restored. Workers whose ready signal hit
  // the dead controller additionally re-enter the queue in arrival order
  // after one controller hop.
  std::vector<int> parked;
  parked.swap(parked_);
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    if (!active_[static_cast<size_t>(w)]) continue;
    fault_.reregistrations->Increment();
    ctx_->trace()->Record(ctx_->engine()->now(),
                          TraceEventKind::kWorkerReregister, w,
                          ctx_->iteration(w));
  }
  for (int worker : parked) {
    ctx_->engine()->ScheduleAfter(
        ctx_->cost().controller_delay(),
        [this, worker] { OnSignalArrival(worker); });
  }
  // The fresh incarnation starts at the configured P; re-apply the
  // degradation clamp for the membership it just learned.
  UpdateEffectiveGroupSize();
}

}  // namespace pr
