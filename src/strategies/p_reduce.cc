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
      scenario_mode_(
          ScenarioMode(ctx->options().scenario, options.scale_policy)),
      scenario_metrics_(scenario_mode_
                            ? RegisterScenarioMetrics(ctx->metrics(),
                                                      ctx->options().scenario)
                            : ScenarioMetrics{}),
      service_(options, ctx->num_workers(), ctx->options().topology,
               ctx->options().fault, scenario_metrics_,
               {ctx->metrics(), ctx->trace(),
                [ctx] { return ctx->engine()->now(); }},
               ctx->resume()) {
  const size_t n = static_cast<size_t>(ctx->num_workers());
  leave_requested_.assign(n, false);

  if (options.compression != CompressionKind::kNone) {
    // No AttachMetrics here: RecordReduceTraffic models the compress.*
    // instruments analytically (attaching too would double-count).
    compressors_.reserve(n);
    for (size_t w = 0; w < n; ++w) {
      compressors_.push_back(
          std::make_unique<Compressor>(options.compression));
    }
  }

  crashed_.assign(n, false);
  signal_seq_.assign(n, 0);
  done_groups_.resize(n);

  scale_paused_.assign(n, false);
  if (options.scale_policy.enabled()) {
    scale_policy_ = std::make_unique<ScalePolicy>(options.scale_policy,
                                                  ctx->num_workers());
  }

  // Coordinated checkpointing: SimTraining cuts the shards; the strategy
  // stamps the controller-owned restore state into each manifest.
  ctx->ConfigureCheckpoint(Name(), [this](RunManifest* m) {
    service_.StampManifest(m);
  });
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

void PReduceStrategy::ScenarioLeave(int worker) {
  const size_t w = static_cast<size_t>(worker);
  if (!service_.active(worker) || crashed_[w]) return;  // overlapping windows
  leave_requested_[w] = true;  // takes effect at the gradient boundary
}

void PReduceStrategy::ScenarioRejoin(int worker) {
  const size_t w = static_cast<size_t>(worker);
  if (crashed_[w]) return;         // a crash outlives any window
  if (scale_paused_[w]) return;    // the autoscaler owns this pause now
  // A leave that never reached a boundary (window shorter than one step)
  // is cancelled instead of rejoining twice.
  leave_requested_[w] = false;
  if (service_.active(worker)) return;
  Apply(service_.Rejoin(worker));
  if (!ctx_->stopped()) BeginCompute(worker);
}

void PReduceStrategy::ScalePolicyTick() {
  if (ctx_->stopped()) return;  // stop rescheduling; let the queue drain
  const double now = ctx_->engine()->now();
  double wait_total = 0.0;
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    wait_total += ctx_->worker_wait_seconds(w);
  }
  ScaleSample sample;
  sample.active_workers = service_.active_count();
  sample.mean_idle_fraction =
      MeanIdleFraction(wait_total - last_wait_total_, now - last_tick_time_,
                       sample.active_workers);
  last_wait_total_ = wait_total;
  last_tick_time_ = now;

  const int target = scale_policy_->Decide(sample);
  if (target < sample.active_workers) {
    // Shed the highest-id active worker: the surviving set stays a prefix,
    // matching the threaded ScaleDirector's deterministic order.
    for (int w = ctx_->num_workers() - 1; w >= 0; --w) {
      const size_t i = static_cast<size_t>(w);
      if (service_.active(w) && !crashed_[i] && !leave_requested_[i] &&
          !scale_paused_[i]) {
        scale_paused_[i] = true;
        leave_requested_[i] = true;
        scenario_metrics_.scale_shrink->Increment();
        break;
      }
    }
  } else if (target > sample.active_workers) {
    // Readmit the lowest-id policy-paused worker.
    for (int w = 0; w < ctx_->num_workers(); ++w) {
      const size_t i = static_cast<size_t>(w);
      if (!scale_paused_[i]) continue;
      scale_paused_[i] = false;
      ScenarioRejoin(w);
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
    if (w.time_seconds <= 0.0 && service_.active(w.worker)) {
      Apply(service_.Pause(w.worker));
    }
  }

  for (int w = 0; w < ctx_->num_workers(); ++w) {
    if (service_.active(w)) BeginCompute(w);
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
        PR_CHECK(service_.active(event.worker))
            << "leave for already-departed worker";
        leave_requested_[w] = true;
      } else {
        PR_CHECK(!service_.active(event.worker))
            << "join for already-active worker";
        leave_requested_[w] = false;
        Apply(service_.Rejoin(event.worker));
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
    if (!scenario_mode_) {
      // Hand-written churn schedules promise this; scenario traces and the
      // autoscaler legitimately drive the live set below P (that is what
      // the degradation gates are for).
      PR_CHECK_GE(service_.active_count() - 1, options_.group_size)
          << "churn dropped the cluster below the group size";
    }
    Apply(service_.Pause(worker));
    return;
  }

  if (CrashArmed(worker, /*in_group=*/false)) {
    // Boundary crash: the worker vanishes without signaling. The controller
    // notices when the lease horizon elapses and evicts it.
    crashed_[static_cast<size_t>(worker)] = true;
    const FaultPlan& plan = ctx_->options().fault;
    ctx_->engine()->ScheduleAfter(
        plan.lease_seconds * plan.missed_threshold,
        [this, worker] { Apply(service_.Evict(worker)); });
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
      service_.fault_metrics().injected_drops->Increment();
      service_.fault_metrics().retries->Increment();
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
    service_.fault_metrics().injected_delays->Increment();
  }
  ctx_->engine()->ScheduleAfter(hop,
                                [this, worker] { OnSignalArrival(worker); });
}

void PReduceStrategy::OnSignalArrival(int worker) {
  if (service_.down()) {
    // The signal dies at the severed endpoint; the worker parks and
    // re-registers when the controller returns.
    service_.fault_metrics().severed_drops->Increment();
    parked_.push_back(worker);
  } else if (!service_.serving()) {
    Reregister(worker);  // inside the recovery window
  } else {
    Apply(service_.Ready(worker, ctx_->iteration(worker)));
  }
}

void PReduceStrategy::Reregister(int worker) {
  ReregisterSnapshot snapshot;
  snapshot.worker = worker;
  snapshot.iteration = ctx_->iteration(worker);
  const std::deque<uint64_t>& done = done_groups_[static_cast<size_t>(worker)];
  snapshot.done_groups.assign(done.begin(), done.end());
  Apply(service_.Reregister(snapshot));
}

void PReduceStrategy::Apply(const ServiceActions& actions) {
  for (const ServiceAction& a : actions) {
    switch (a.kind) {
      case ServiceAction::Kind::kGroupInfo:
        // One event per group, started by its first member's GroupInfo.
        if (!a.resend && a.worker == a.group->members.front()) {
          StartGroup(*a.group);
        }
        break;
      case ServiceAction::Kind::kRelease:
        // No group can take the signal (graceful degradation): the worker
        // goes straight back to compute.
        ctx_->MarkWaitEnd(a.worker);
        if (!ctx_->stopped() && service_.active(a.worker)) {
          BeginCompute(a.worker);
        }
        break;
      case ServiceAction::Kind::kAbort:
        // Only evictions abort groups here, and OnGroupStalled retries the
        // survivors at that same instant.
      case ServiceAction::Kind::kReregisterAck:
        break;
    }
  }
}

void PReduceStrategy::StartGroup(const GroupDecision& decision) {
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
      ctx_->RecordActivity(m, WorkerActivity::kComm, ctx_->engine()->now(),
                           ctx_->engine()->now() + stall);
    }
    ctx_->engine()->ScheduleAfter(
        stall, [this, d = decision, crashed] { OnGroupStalled(d, crashed); });
    return;
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
      service_.fault_metrics().injected_delays->Increment();
    }
  }
  for (int m : decision.members) {
    ctx_->RecordActivity(m, WorkerActivity::kComm, ctx_->engine()->now(),
                         ctx_->engine()->now() + comm);
  }
  ctx_->engine()->ScheduleAfter(
      comm, [this, d = decision] { OnGroupReduceDone(d); });
}

void PReduceStrategy::OnGroupStalled(const GroupDecision& decision,
                                     const std::vector<int>& crashed) {
  for (int m : crashed) Apply(service_.Evict(m));
  if (ctx_->stopped()) return;
  for (int m : decision.members) {
    if (crashed_[static_cast<size_t>(m)]) continue;
    // Survivors roll back to their pre-reduce replicas (never touched in
    // the simulator — the average is only applied on success) and put their
    // signals back in the queue.
    service_.fault_metrics().retries->Increment();
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
  for (int m : decision.members) service_.GroupDone(m, decision.group_id);
  ++completed_groups_;
  const FaultPlan& plan = ctx_->options().fault;
  if (plan.has_controller_faults()) {
    // What each member can vouch for when it re-registers.
    for (int m : decision.members) {
      std::deque<uint64_t>& done = done_groups_[static_cast<size_t>(m)];
      done.push_back(decision.group_id);
      if (done.size() > static_cast<size_t>(plan.reregister_report_groups)) {
        done.pop_front();
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
  if (!service_.CrashDue(completed_groups_)) return;
  const ControllerFaultEvent event = service_.Crash();
  // Without a restart the controller is gone for good: workers park as
  // their signals arrive, the event queue drains, and the run ends with
  // whatever updates it had — the simulator's analogue of the threaded
  // workers giving up after max_controller_outage_seconds.
  if (event.restart) {
    ctx_->engine()->ScheduleAfter(event.down_seconds,
                                  [this] { RestartController(); });
  }
}

void PReduceStrategy::RestartController() {
  // The recovery window: parked workers re-register at once, in arrival
  // order, and workers that become ready inside the window re-register as
  // their signals land; the fresh incarnation rebuilds from those snapshots
  // when the window closes, as the threaded service does.
  service_.BeginRecovery();
  std::vector<int> parked;
  parked.swap(parked_);
  for (int worker : parked) Reregister(worker);
  ctx_->engine()->ScheduleAfter(
      ctx_->options().fault.reregister_window_seconds,
      [this] { Apply(service_.EndRecovery()); });
}

}  // namespace pr
