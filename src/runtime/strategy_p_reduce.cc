#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/protocol.h"
#include "comm/collectives.h"
#include "common/check.h"
#include "fault/failure_detector.h"
#include "fault/fault_plan.h"
#include "obs/metric_table.h"
#include "runtime/threaded_strategies.h"
#include "runtime/worker_runtime.h"
#include "strategies/p_reduce_service.h"
#include "strategies/p_reduce_worker.h"

namespace pr {
namespace {

/// A worker's cut report {epoch, protocol iteration, completed}, stamped
/// with the controller's history window and group-id watermark.
void ReportCut(ServiceContext* ctx, const Envelope& env,
               const PReduceService& service) {
  CkptCoordinator* ckpt = ctx->ckpt();
  if (ckpt == nullptr || env.ints.size() < 3 || env.ints[0] <= 0) return;
  const uint64_t epoch = static_cast<uint64_t>(env.ints[0]);
  ckpt->Report(epoch,
               {env.from, env.ints[1], static_cast<uint64_t>(env.ints[2]),
                ShardFileName(epoch, env.from)},
               {service.groups_formed(), ctx->Now(),
                [&service](RunManifest* m) { service.StampManifest(m); }});
}

/// Partial reduce on real threads (Alg. 2): each worker thread pumps its
/// PReduceWorker core and the service thread the PReduceService core, and
/// both carry out their cores' actions. Every fault reaction fires on a
/// receive timeout, so a run whose fault plan is disabled simply has no
/// deadlines: its waits block, its leases never lapse, and its group
/// reduces cannot abort.
class ThreadedPReduce : public ThreadedStrategy {
 public:
  explicit ThreadedPReduce(const StrategyOptions& options)
      : options_(options) {
    PR_CHECK(IsPReduce(options.kind));
    PR_CHECK_GE(options.group_size, 2);
  }

  bool has_service() const override { return true; }

  void RunService(ServiceContext* ctx) override;
  void RunWorker(WorkerContext* ctx) override;
  void OnWorkersReturned(WorkerContext* last) override {
    // Wakes the service, which may be blocked on a receive with no deadline.
    (void)last->endpoint()->Send(last->service_node(), 0,
                                 kKindWorkersReturned, {});
  }

  void FillResult(ThreadedRunResult* result) const override {
    result->group_reduces = group_reduces_;
    result->controller_stats = controller_stats_;
  }

 private:
  StrategyOptions options_;
  // Written by the service thread; read after every thread joined.
  uint64_t group_reduces_ = 0;
  ControllerStats controller_stats_;
};

void ThreadedPReduce::RunService(ServiceContext* ctx) {
  const int n = ctx->run().num_workers;
  const FaultPlan& plan = ctx->run().fault;
  PR_CHECK_LE(options_.group_size, n);
  Endpoint* ep = ctx->endpoint();
  // Without a fault plan every wait blocks and every lease is infinite.
  const bool ft = plan.enabled();
  const double tick = ft ? plan.recv_timeout_seconds : -1.0;
  const double lease =
      ft ? plan.lease_seconds : std::numeric_limits<double>::infinity();
  PReduceService service(options_, n, ctx->run().topology, plan,
                         {ctx->metrics(), ctx->trace(),
                          [ctx] { return ctx->Now(); }},
                         ctx->resume());

  auto emit = [&](const ServiceActions& actions) {
    for (const ServiceAction& a : actions) {
      ControlMessage m = EncodeServiceAction(a);
      (void)ep->Send(a.worker, m.tag, m.kind, std::move(m.ints),
                     Buffer::FromVector(std::vector<float>(m.weights.begin(),
                                                          m.weights.end())));
    }
  };

  // Leases follow the service's membership view: any message renews the
  // sender's lease, and paused, evicted or departed workers are silent on
  // purpose. A fresh controller incarnation starts fresh leases.
  std::unique_ptr<FailureDetector> detector;
  auto renew = [&](int w, double now) {
    if (!service.active(w)) {
      detector->Suspend(w);
    } else if (!detector->alive(w)) {
      detector->Resume(w, now);
    } else {
      detector->Beat(w, now);
    }
  };
  auto start_leases = [&] {
    const double now = ctx->Now();
    detector = std::make_unique<FailureDetector>(n, lease,
                                                 plan.missed_threshold, now);
    for (int w = 0; w < n; ++w) renew(w, now);
  };
  start_leases();

  // Stop once every worker has left or been evicted and every worker body
  // of this process has returned (the last one wakes us with a
  // kKindWorkersReturned): an evicted worker may still be alive (a hang
  // past its lease) and must find a service that re-admits it. A
  // service-only process (a multi-process slice) runs no worker bodies and
  // cannot see the remote ones, so there membership alone decides.
  auto done = [&] {
    return service.remaining() == 0 && ctx->workers_returned();
  };
  while (!done()) {
    if (service.CrashDue(service.groups_formed())) {
      const ControllerFaultEvent event = service.Crash();
      FaultyTransport* faulty = ctx->faulty();
      PR_CHECK(faulty != nullptr)
          << "controller faults need the fault-injecting fabric";
      faulty->SeverNode(ep->id());
      // Without a restart the controller is gone for good: parked workers
      // re-register into the void until their outage budget runs out, then
      // fall back to local-only progress.
      if (!event.restart) break;
      const double down_until = ctx->Now() + event.down_seconds;
      while (ctx->Now() < down_until && !ep->closed()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (ep->closed()) break;
      // A restarted process boots with an empty mailbox: everything that
      // arrived before the crash — stash included — predates the failover.
      while (ep->RecvAnyFor(0.0).has_value()) {
      }
      ep->PurgeStash([](const Envelope&) { return true; });
      faulty->RestoreNode(ep->id());
      // Recovery window: survivors are parked in their re-registration
      // loops; collect their snapshots before serving again.
      service.BeginRecovery();
      const double window_end = ctx->Now() + plan.reregister_window_seconds;
      while (ctx->Now() < window_end && !ep->closed()) {
        std::optional<Envelope> env = ep->RecvAnyFor(
            std::min(plan.recv_timeout_seconds, window_end - ctx->Now()));
        if (env.has_value()) {
          emit(service.Receive(env->from, env->kind, env->ints));
        }
      }
      if (ep->closed()) break;
      emit(service.EndRecovery());
      start_leases();
      continue;
    }
    std::optional<Envelope> env = ep->RecvAnyFor(tick);
    const double now = ctx->Now();
    for (int w : detector->Expired(now)) emit(service.Evict(w));
    if (!env.has_value()) {
      if (ep->closed()) break;
      continue;
    }
    if (env->from < 0 || env->from >= n) continue;
    if (env->kind == kKindWorkersReturned) continue;
    if (env->kind == kKindCkptReport) {
      ReportCut(ctx, *env, service);
    } else {
      emit(service.Receive(env->from, env->kind, env->ints));
    }
    renew(env->from, now);
  }
  group_reduces_ = service.groups_formed();
  controller_stats_ = service.stats();
}

void ThreadedPReduce::RunWorker(WorkerContext* ctx) {
  const RunOptions& run = ctx->run();
  const FaultPlan& plan = run.fault;
  const NodeId controller = ctx->service_node();
  Endpoint* ep = ctx->endpoint();
  MutableSlice params = ctx->params();
  std::vector<float> grad;
  // Pre-reduce parameters, restored when a group reduce aborts. Only a
  // reduce with a deadline can abort, so fault-free runs never fill it.
  std::vector<float> backup;
  // Without a fault plan every wait blocks: the core's re-sends, stuck
  // reports and liveness valves all run on receive timeouts, so they never
  // fire. Control sends are best-effort throughout: the protocol tolerates
  // a lost message, and a shut-down fabric shows up in closed().
  const bool ft = plan.enabled();
  const double tick = ft ? plan.recv_timeout_seconds : -1.0;
  // The core sits out the trace's churn windows as they fall due.
  PReduceWorker core(ctx->worker(), options_, plan,
                     {ctx->metrics(), ctx->trace()}, ctx->resume_iteration(),
                     ctx->start_iteration(), run.iterations_per_worker,
                     ctx->scenario_churn());
  ScaleDirector* scale = ctx->scale_director();
  // Naps through the trace windows, then through the autoscaler's verdict.
  // That wait is bounded (lease-like) so a policy stuck at its minimum can
  // never deadlock the run's termination.
  const double scale_pause_budget =
      8.0 * ctx->strategy_options().scale_policy.interval_seconds;
  auto sit_out = [&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(core.pause_seconds()));
    if (scale == nullptr) return;
    const double deadline = ctx->Now() + scale_pause_budget;
    while (scale->ShouldPause(ctx->worker()) && ctx->Now() < deadline &&
           !ep->closed()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };

  // Carries out the core's actions. Returns false on kDie; kStopReduce
  // raises `stop_reduce`. Time in a verdict wait is idle and time in a ring
  // is comm, aborted rings included.
  bool stop_reduce = false;
  double since = 0.0;  // when the core's current phase began
  // A verdict wait spins only while this worker's last one ended inside the
  // spin budget: behind a slow controller link every verdict is late, and
  // spinning for it would only burn a core.
  bool verdict_due = true;
  // Under a fault plan the ring keeps its sends for NACKs (RingResender),
  // and they stay here until the next ring starts: the verdict wait answers
  // a NACK for this worker's last hop after it has left the ring.
  RingResender resender(ctx->metrics() != nullptr
                            ? ctx->metrics()->Get(metric::kFaultSegmentResends)
                            : nullptr);
  auto execute = [&](WorkerActions& actions) -> bool {
    for (WorkerAction& a : actions) {
      switch (a.kind) {
        case WorkerAction::Kind::kPhaseChange:
          if (a.from == WorkerPhase::kWaiting) {
            const double now = ctx->Now();
            ctx->RecordIdle(since, now);
            verdict_due = now - since <= kDueSpinSeconds;
          }
          if (a.from == WorkerPhase::kReducing) {
            ctx->RecordComm(since, ctx->Now());
          }
          since = ctx->Now();
          break;
        case WorkerAction::Kind::kSend:
          (void)ep->Send(controller, 0, a.message, std::move(a.ints));
          break;
        case WorkerAction::Kind::kStartReduce:
          if (ft) {
            backup.assign(params.begin(), params.end());  // reuses its block
            // What peers sent for older groups (late resends) is stale.
            ep->PurgeStash([&](const Envelope& e) {
              return e.from != controller && e.tag < a.group->group_id;
            });
          }
          ctx->trace()->Record(ctx->Now(), TraceEventKind::kReduceStart,
                               ctx->worker(),
                               static_cast<int64_t>(a.group->group_id));
          break;
        case WorkerAction::Kind::kStopReduce:
          stop_reduce = true;
          break;
        case WorkerAction::Kind::kRollback:
          params.CopyFrom(backup);
          break;
        case WorkerAction::Kind::kPurgeGroup:
          ep->PurgeStash(
              [g = a.group_id](const Envelope& e) { return e.tag == g; });
          break;
        case WorkerAction::Kind::kPurgePeer:
          ep->PurgeStashFrom(static_cast<NodeId>(a.peer));
          break;
        case WorkerAction::Kind::kSleep:
          std::this_thread::sleep_for(std::chrono::duration<double>(a.seconds));
          break;
        case WorkerAction::Kind::kDie:
          return false;  // vanish without a word
        case WorkerAction::Kind::kFinish:
          ctx->MarkFinished();
          break;
        case WorkerAction::Kind::kProceed:
          break;
      }
    }
    return true;
  };

  // The group's ring. Under a fault plan its segment waits carry a
  // deadline and recover a lost segment by NACK and resend. The group's
  // Abort wakes the wait at once, and each timeout tick hands the core a
  // ring tick (lease renewal, stuck reports, the stall valve); the core's
  // kStopReduce ends the ring with a timeout.
  auto reduce = [&]() -> Status {
    const GroupDecision& g = core.group();
    const size_t my_index = static_cast<size_t>(
        std::find(g.members.begin(), g.members.end(), ctx->worker()) -
        g.members.begin());
    // Hands the core's actions to execute(); false ends the ring.
    auto step = [&](WorkerActions actions) {
      stop_reduce = false;
      execute(actions);
      return !stop_reduce;
    };
    RingDeadline deadline;
    if (ft) {
      deadline.recv_timeout_seconds = plan.recv_timeout_seconds;
      deadline.on_tick = [&] { return step(core.RingTick(ctx->Now())); };
      deadline.wakes_on = [&](const Envelope& e) {
        return e.from == controller && core.Deliverable(e.kind, e.ints);
      };
      deadline.on_wake = [&](const Envelope& e) {
        return step(core.Receive(ctx->Now(), e.kind, e.ints));
      };
      deadline.resender = &resender;
    }
    return GroupWeightedAllReduce(ep, g.members, g.weights, my_index,
                                  g.group_id, params.data(), params.size(),
                                  ctx->compressor(), deadline);
  };

  // Feeds the core until it wants the next local step (true) or the body
  // must return (false: finished, dead, or the fabric shut down).
  auto drive = [&](WorkerActions actions) -> bool {
    for (;;) {
      if (!execute(actions)) return false;
      switch (core.phase()) {
        case WorkerPhase::kComputing:
          return true;
        case WorkerPhase::kFinished:
        case WorkerPhase::kDead:
          return false;
        case WorkerPhase::kPaused:
          sit_out();
          if (ep->closed()) return false;
          actions = core.Resume(ctx->Now());
          break;
        case WorkerPhase::kWaiting: {
          // Every NACK, and a peer's late segment for this worker's last
          // ring or an older one, is taken here, never stashed, and does not
          // restart the tick: a NACK is answered, or dropped when its
          // segment is not kept (the peer NACKs again on its next tick), and
          // a late segment is dropped.
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::duration<double>(tick);
          std::optional<Envelope> env;
          for (;;) {
            const double left =
                tick < 0.0 ? -1.0
                           : std::max(0.0, std::chrono::duration<double>(
                                               until -
                                               std::chrono::steady_clock::now())
                                               .count());
            env = ep->RecvWhereFor(
                [&](const Envelope& e) {
                  return e.from == controller || RingResender::IsNack(e) ||
                         e.tag <= core.last_group_id();
                },
                left, verdict_due ? RecvWait::kDue : RecvWait::kPark);
            if (!env.has_value() || env->from == controller) break;
            resender.Answer(ep, *env);
          }
          if (!env.has_value()) {
            if (ep->closed()) return false;
            actions = core.WaitTick(ctx->Now());
          } else {
            actions = core.Receive(
                ctx->Now(), env->kind, env->ints,
                std::vector<double>(env->payload.begin(), env->payload.end()));
          }
          break;
        }
        case WorkerPhase::kReducing: {
          const Status reduced = reduce();
          // Shutdown, or a ring without a deadline failing: unwind.
          if (!reduced.ok() && (!ft || ep->closed())) return false;
          if (reduced.ok()) {
            ctx->trace()->Record(ctx->Now(), TraceEventKind::kReduceEnd,
                                 ctx->worker(),
                                 static_cast<int64_t>(core.group().group_id));
          }
          actions = core.ReduceEnd(ctx->Now(), reduced.ok());
          break;
        }
      }
    }
  };

  if (!drive(core.Start())) return;
  for (;;) {
    if (run.control != nullptr && run.control->cancel_requested()) {
      // Cooperative cancel: leave the pool exactly like a worker whose
      // budget ran out, so the run drains cleanly with partial progress.
      (void)drive(core.Cancel());
      return;
    }
    ctx->ComputeGradient(params.data(), &grad);
    ctx->sgd()->Step(grad.data(), params.data(), params.size());
    const size_t k = core.completed() + 1;
    if (scale != nullptr && scale->ShouldPause(ctx->worker())) {
      core.RequestPause();
    }
    if (!drive(core.Boundary(ctx->Now()))) return;
    // Checkpoint cut (CutEpoch), reported to the controller's coordinator.
    const uint64_t epoch = CutEpoch(run.ckpt, k, run.iterations_per_worker,
                                    ctx->forced_ckpt());
    if (epoch != 0 &&
        SaveCutShard(ctx->metrics(), run.ckpt.dir, epoch, ctx->worker(),
                     params, ctx->sgd()->velocity())
            .ok()) {
      (void)ep->Send(controller, 0, kKindCkptReport,
                     {static_cast<int64_t>(epoch), core.iteration(),
                      static_cast<int64_t>(k)});
    }
  }
}

}  // namespace

std::unique_ptr<ThreadedStrategy> MakeThreadedPReduce(
    const StrategyOptions& options) {
  return std::make_unique<ThreadedPReduce>(options);
}

}  // namespace pr
