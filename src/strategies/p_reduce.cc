#include "strategies/p_reduce.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "core/aggregate.h"

namespace pr {

PReduceStrategy::PReduceStrategy(SimTraining* ctx,
                                 const StrategyOptions& options)
    : ctx_(ctx),
      options_(options),
      service_(options, ctx->num_workers(), ctx->run().topology,
               ctx->run().fault,
               {ctx->metrics(), ctx->trace(),
                [ctx] { return ctx->engine()->now(); }},
               ctx->resume()),
      injected_drops_(ctx->metrics()->Get(metric::kFaultInjectedDrops)),
      injected_delays_(ctx->metrics()->Get(metric::kFaultInjectedDelays)),
      severed_drops_(ctx->metrics()->Get(metric::kFaultSeveredDrops)),
      partitions_applied_(
          ctx->metrics()->Get(metric::kScenarioPartitionsApplied)),
      scale_grow_(ctx->metrics()->Get(metric::kScenarioScaleGrow)),
      scale_shrink_(ctx->metrics()->Get(metric::kScenarioScaleShrink)) {
  const size_t n = static_cast<size_t>(ctx->num_workers());
  const FaultPlan& plan = ctx->run().fault;
  workers_.reserve(n);
  for (int w = 0; w < ctx->num_workers(); ++w) {
    // A resumed worker continues from its restored counters.
    workers_.emplace_back(w, options, plan,
                          PReduceWorker::Observers{ctx->metrics(),
                                                   ctx->trace()},
                          ctx->iteration(w), ctx->completed(w),
                          std::numeric_limits<size_t>::max(),
                          ctx->scenario_churn());
  }
  envs_.resize(n);

  if (options.compression != CompressionKind::kNone) {
    // No AttachMetrics here: RecordReduceTraffic models the compress.*
    // instruments analytically (attaching too would double-count).
    compressors_.reserve(n);
    for (size_t w = 0; w < n; ++w) {
      compressors_.push_back(
          std::make_unique<Compressor>(options.compression));
    }
  }

  if (options.scale_policy.enabled()) {
    scale_policy_ = std::make_unique<ScalePolicy>(options.scale_policy,
                                                  ctx->num_workers());
    scale_director_ = std::make_unique<ScaleDirector>(ctx->num_workers());
  }
}

void PReduceStrategy::MaybeResume(int worker) {
  const WorkerEnv& env = envs_[static_cast<size_t>(worker)];
  const double now = ctx_->engine()->now();
  if (env.partitions > 0 || now < env.window_end ||
      (scale_director_ != nullptr && scale_director_->ShouldPause(worker))) {
    return;
  }
  // A pause that never reached a boundary is cancelled instead.
  Run(worker, workers_[static_cast<size_t>(worker)].Resume(now));
}

void PReduceStrategy::ScalePolicyTick() {
  if (ctx_->stopped()) return;  // stop rescheduling; let the queue drain
  const double now = ctx_->engine()->now();
  double wait_total = 0.0;
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    wait_total += ctx_->worker_wait_seconds(w);
  }
  const ScaleSample sample = scale_director_->Sample(
      wait_total - last_wait_total_, now - last_tick_time_);
  last_wait_total_ = wait_total;
  last_tick_time_ = now;
  // Victims pause at their next boundary (OnGradientReady asks the
  // director, as the threaded worker does); released ones come back now.
  std::vector<int> released;
  const int delta =
      scale_director_->SetTarget(scale_policy_->Decide(sample), &released);
  if (delta > 0) scale_grow_->Increment(delta);
  if (delta < 0) scale_shrink_->Increment(-delta);
  for (int w : released) MaybeResume(w);
  ScheduleScaleTick();
}

void PReduceStrategy::ScheduleScaleTick() {
  // Floor keeps a malformed zero interval from wedging the event queue at
  // one timestamp.
  ctx_->engine()->ScheduleAfter(
      std::max(1e-6, scale_policy_->config().interval_seconds),
      [this] { ScalePolicyTick(); });
}

void PReduceStrategy::Start() {
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    Run(w, workers_[static_cast<size_t>(w)].Start());
  }
  // A partitioned worker is, in virtual time, a membership loss for the
  // window's duration: its traffic cannot reach the controller or any
  // group, which is exactly what leaving models. The handlers are lenient:
  // the core ignores a request while paused (overlapping windows) or dead.
  for (const PartitionEvent& p : ctx_->run().fault.partition_events) {
    const int w = p.worker;
    ctx_->engine()->ScheduleAt(p.start_seconds, [this, w] {
      if (partitions_applied_ != nullptr) partitions_applied_->Increment();
      ++envs_[static_cast<size_t>(w)].partitions;
      workers_[static_cast<size_t>(w)].RequestPause();
    });
    ctx_->engine()->ScheduleAt(p.start_seconds + p.duration_seconds,
                               [this, w] {
                                 --envs_[static_cast<size_t>(w)].partitions;
                                 MaybeResume(w);
                               });
  }
  if (scale_policy_ != nullptr) ScheduleScaleTick();
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
  // Alg. 2 lines 3-5: local update, then the core signals the controller.
  std::vector<float> grad;
  ctx_->GradientAtSnapshot(worker, &grad);
  ctx_->LocalStep(worker, grad.data());
  PReduceWorker& core = workers_[static_cast<size_t>(worker)];
  if (scale_director_ != nullptr && scale_director_->ShouldPause(worker)) {
    core.RequestPause();
  }
  Run(worker, core.Boundary(ctx_->engine()->now()));
}

void PReduceStrategy::Run(int worker, WorkerActions actions) {
  PReduceWorker& core = workers_[static_cast<size_t>(worker)];
  ctx_->set_iteration(worker, core.iteration());
  bool stop_reduce = false;
  for (WorkerAction& a : actions) {
    switch (a.kind) {
      case WorkerAction::Kind::kPhaseChange:
        Transition(worker, a.from, a.to);
        break;
      case WorkerAction::Kind::kSend:
        SendToService(worker, a.message, std::move(a.ints));
        break;
      case WorkerAction::Kind::kStartReduce:
        Join(a.group);
        break;
      case WorkerAction::Kind::kStopReduce:
        stop_reduce = true;
        break;
      case WorkerAction::Kind::kDie: {
        // The worker vanishes; the controller's lease verdict is the only
        // cleanup, one eviction horizon later.
        const FaultPlan& plan = ctx_->run().fault;
        ctx_->engine()->ScheduleAfter(
            plan.lease_seconds * plan.missed_threshold,
            [this, worker] { Apply(service_.Evict(worker)); });
        break;
      }
      case WorkerAction::Kind::kSleep:
        // Hangs are threaded-only: no lease is modeled here to lose.
      case WorkerAction::Kind::kRollback:
      case WorkerAction::Kind::kPurgeGroup:
      case WorkerAction::Kind::kPurgePeer:
        // Replicas change only when a ring completes, and nothing is ever
        // parked: nothing to undo or purge.
      case WorkerAction::Kind::kFinish:
        break;
      case WorkerAction::Kind::kProceed:
        if (ctx_->stopped()) break;
        // The completed iteration's synchronization resolved: the cut point.
        ctx_->CutCheckpoint(
            worker, core.iteration(), core.completed(),
            [this](RunManifest* m) { service_.StampManifest(m); });
        BeginCompute(worker);
        break;
    }
  }
  if (stop_reduce) {
    // The ring is broken for every member; this one re-signals at once and
    // the members still inside are stalled from now on.
    const uint64_t group_id = core.group().group_id;
    const std::vector<int> members = core.group().members;
    rings_[group_id].broken = true;
    Run(worker, core.ReduceEnd(ctx_->engine()->now(), false));
    for (int m : members) {
      const PReduceWorker& peer = workers_[static_cast<size_t>(m)];
      if (peer.phase() == PReduceWorker::Phase::kReducing &&
          peer.group().group_id == group_id) {
        ScheduleTick(m, ++envs_[static_cast<size_t>(m)].epoch);
      }
    }
  }
}

void PReduceStrategy::Transition(int worker, PReduceWorker::Phase from,
                                 PReduceWorker::Phase to) {
  using Phase = PReduceWorker::Phase;
  WorkerEnv& env = envs_[static_cast<size_t>(worker)];
  const double now = ctx_->engine()->now();
  if (from == Phase::kWaiting) ctx_->MarkWaitEnd(worker);
  if (from == Phase::kReducing) {
    ctx_->RecordActivity(worker, WorkerActivity::kComm, env.since, now);
  }
  env.since = now;
  if (to == Phase::kWaiting) ctx_->MarkWaitStart(worker);
  ++env.epoch;  // a pending tick belongs to the phase that ended
  if (to == Phase::kWaiting || to == Phase::kReducing) {
    ScheduleTick(worker, env.epoch);
  }
  if (to == Phase::kPaused) {
    // The core's windows set the length (0 for a requested pause).
    env.window_end =
        now + workers_[static_cast<size_t>(worker)].pause_seconds();
    ctx_->engine()->ScheduleAt(env.window_end,
                               [this, worker] { MaybeResume(worker); });
  }
  if (controller_gone_) MaybeStopWithoutController();
}

void PReduceStrategy::SendToService(int worker, int kind,
                                    std::vector<int64_t> ints) {
  const FaultPlan& plan = ctx_->run().fault;
  const int controller = ctx_->num_workers();
  if (plan.has_message_faults() &&
      plan.RollDrop(worker, controller,
                    envs_[static_cast<size_t>(worker)].send_seq++)) {
    // Mirror the worker->controller edge of the threaded fabric; the core's
    // re-sends recover.
    injected_drops_->Increment();
    return;
  }
  // The hop pays any deterministic link latency the plan lists on that
  // edge (the controller sits at endpoint id N), same as the
  // FaultyTransport holding the real message.
  double hop = ctx_->cost().controller_delay();
  const double link = plan.LinkDelay(worker, controller);
  if (link > 0.0) {
    hop += link;
    injected_delays_->Increment();
  }
  ctx_->engine()->ScheduleAfter(
      hop, [this, worker, kind, ints = std::move(ints)] {
        if (service_.down()) {
          // The message dies at the severed endpoint.
          severed_drops_->Increment();
          return;
        }
        Apply(service_.Receive(worker, kind, ints));
      });
}

void PReduceStrategy::Apply(const ServiceActions& actions) {
  for (const ServiceAction& a : actions) {
    PReduceWorker& core = workers_[static_cast<size_t>(a.worker)];
    ControlMessage m = EncodeServiceAction(a);
    if (!core.Deliverable(m.kind, m.ints)) continue;
    Run(a.worker, core.Receive(ctx_->engine()->now(), m.kind, m.ints,
                               std::move(m.weights)));
  }
}

void PReduceStrategy::Join(const std::shared_ptr<const GroupDecision>& group) {
  Ring& ring = rings_[group->group_id];
  if (ring.group == nullptr) ring.group = group;
  if (++ring.joined < group->members.size() || ring.broken) return;
  // Every member is in: the ring spends the group-info delay plus the
  // P-member reduce. Groups synchronize in parallel — nothing here blocks
  // other workers or other groups. The ring cost is topology-aware: one
  // slow inter-node edge paces the pipelined ring.
  const std::vector<int>& members = group->members;
  double comm = ctx_->cost().controller_delay() +
                ctx_->cost().RingAllReduceSeconds(members,
                                                  ctx_->run().topology);
  // Deterministic link delays stretch the group the same way the
  // FaultyTransport stretches real chunks: the group-info broadcast waits
  // on the slowest controller->member edge, and every ring step waits on
  // the slowest member->member edge, 2(p-1) steps per reduce.
  const FaultPlan& fplan = ctx_->run().fault;
  if (fplan.has_link_delays()) {
    double info_delay = 0.0;
    double worst_edge = 0.0;
    const size_t p = members.size();
    for (size_t i = 0; i < p; ++i) {
      info_delay = std::max(info_delay,
                            fplan.LinkDelay(ctx_->num_workers(), members[i]));
      worst_edge = std::max(worst_edge,
                            fplan.LinkDelay(members[i], members[(i + 1) % p]));
    }
    const double stall =
        info_delay + 2.0 * static_cast<double>(p - 1) * worst_edge;
    if (stall > 0.0) {
      comm += stall;
      injected_delays_->Increment();
    }
  }
  ctx_->engine()->ScheduleAfter(
      comm, [this, id = group->group_id] { CompleteRing(id); });
}

void PReduceStrategy::ScheduleTick(int worker, uint64_t epoch) {
  const FaultPlan& plan = ctx_->run().fault;
  if (!plan.enabled()) return;  // a disabled plan's waits block
  ctx_->engine()->ScheduleAfter(plan.recv_timeout_seconds,
                                [this, worker, epoch] { Tick(worker, epoch); });
}

bool PReduceStrategy::Stalled(int worker) const {
  const PReduceWorker& core = workers_[static_cast<size_t>(worker)];
  if (core.phase() == PReduceWorker::Phase::kWaiting) return true;
  if (core.phase() != PReduceWorker::Phase::kReducing) return false;
  // A ring stalls until its last member joins, and again once a member
  // stopped; a ring that runs makes progress and times nothing out.
  const auto it = rings_.find(core.group().group_id);
  return it == rings_.end() || it->second.broken ||
         it->second.joined < it->second.group->members.size();
}

void PReduceStrategy::Tick(int worker, uint64_t epoch) {
  const size_t w = static_cast<size_t>(worker);
  // Moved on, or a ring that is running now: this clock ends here.
  if (envs_[w].epoch != epoch || ctx_->stopped() || !Stalled(worker)) return;
  PReduceWorker& core = workers_[w];
  const double now = ctx_->engine()->now();
  Run(worker, core.phase() == PReduceWorker::Phase::kWaiting
                  ? core.WaitTick(now)
                  : core.RingTick(now));
  if (envs_[w].epoch == epoch) ScheduleTick(worker, epoch);
}

void PReduceStrategy::MaybeStopWithoutController() {
  for (const PReduceWorker& w : workers_) {
    if (w.phase() != PReduceWorker::Phase::kDead &&
        w.phase() != PReduceWorker::Phase::kPaused && !w.controller_lost()) {
      return;
    }
  }
  ctx_->Stop();
}

void PReduceStrategy::CompleteRing(uint64_t group_id) {
  auto it = rings_.find(group_id);
  const Ring ring = std::move(it->second);
  rings_.erase(it);
  // A member stopped before the ring finished: nobody's replica changed,
  // and the members still inside stall until their own Abort or valve.
  if (ring.broken) return;
  const GroupDecision& decision = *ring.group;
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

  ++completed_groups_;
  ctx_->RecordReduceTraffic(decision.members, options_.compression);
  ctx_->RecordUpdate();
  // Each core reports GroupDone, adopts the DYN iteration and proceeds.
  for (int m : decision.members) {
    Run(m, workers_[static_cast<size_t>(m)].ReduceEnd(ctx_->engine()->now(),
                                                       /*ok=*/true));
  }
  if (!ctx_->stopped()) MaybeCrashController();
}

void PReduceStrategy::MaybeCrashController() {
  if (!service_.CrashDue(completed_groups_)) return;
  const ControllerFaultEvent event = service_.Crash();
  // Without a restart the controller is gone for good: the workers give up
  // on it after max_controller_outage_seconds, as the threaded ones do, and
  // the run ends with whatever updates it had.
  if (event.restart) {
    ctx_->engine()->ScheduleAfter(event.down_seconds,
                                  [this] { RestartController(); });
  } else {
    controller_gone_ = true;
  }
}

void PReduceStrategy::RestartController() {
  // The recovery window: the waiting workers' re-registration probes land
  // as their backoff fires; the fresh incarnation rebuilds from those
  // snapshots when the window closes, as the threaded service does.
  service_.BeginRecovery();
  ctx_->engine()->ScheduleAfter(
      ctx_->run().fault.reregister_window_seconds,
      [this] { Apply(service_.EndRecovery()); });
}

}  // namespace pr
