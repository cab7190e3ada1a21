#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/manifest.h"
#include "comm/collectives.h"
#include "common/check.h"
#include "fault/failure_detector.h"
#include "fault/fault_plan.h"
#include "runtime/threaded_strategies.h"
#include "runtime/worker_runtime.h"
#include "strategies/p_reduce_service.h"

namespace pr {
namespace {

/// Controller-side half of the coordinated checkpoint (P-Reduce): workers
/// write their shards at local-iteration cuts and report them; once every
/// worker of the run has reported an epoch, the manifest — binding the
/// shards to the controller's group-history window and id watermark — is
/// written atomically. Reports lost to chaos (or a worker crash) leave that
/// epoch incomplete and unwritten; the previous manifest stays the restore
/// point.
class ServiceCkpt {
 public:
  ServiceCkpt(ServiceContext* ctx, const StrategyOptions& sopts)
      : ctx_(ctx), sopts_(sopts) {
    if (!ctx->run().ckpt.enabled() ||
        ctx->run().ckpt.every_iterations == 0) {
      return;
    }
    enabled_ = true;
    manifests_counter_ = ctx->metrics()->GetCounter("ckpt.manifests_written");
    save_hist_ = ctx->metrics()->GetHistogram("ckpt.save_seconds",
                                              CkptSaveSecondsBuckets());
  }

  void OnReport(const Envelope& env, const PReduceService& service) {
    if (!enabled_ || env.ints.size() < 3) return;
    const int64_t epoch = env.ints[0];
    if (epoch <= last_written_) return;  // stale straggler
    Epoch& e = epochs_[epoch];
    e.reports[env.from] = {env.ints[1], static_cast<uint64_t>(env.ints[2])};
    if (e.reports.size() < static_cast<size_t>(ctx_->run().num_workers)) {
      return;
    }

    RunManifest m;
    m.engine = "threaded";
    m.strategy = StrategyKindName(sopts_.kind);
    m.num_workers = ctx_->run().num_workers;
    m.num_params = static_cast<uint64_t>(ctx_->num_params());
    m.seed = ctx_->run().seed;
    m.epoch = static_cast<uint64_t>(epoch);
    m.updates_done = service.groups_formed();
    m.saved_at_seconds = ctx_->Now();
    service.StampManifest(&m);
    for (const auto& [w, info] : e.reports) {
      ManifestWorker mw;
      mw.worker = w;
      mw.iteration = info.first;
      mw.completed = info.second;
      mw.shard_file = ShardFileName(static_cast<uint64_t>(epoch), w);
      m.workers.push_back(mw);
    }
    const double begin = ctx_->Now();
    const Status s = SaveManifest(ctx_->run().ckpt.dir, m);
    save_hist_->Observe(ctx_->Now() - begin);
    if (s.ok()) {
      manifests_counter_->Increment();
      ctx_->trace()->Record(ctx_->Now(), TraceEventKind::kCkptSaved, -1,
                            epoch, static_cast<int64_t>(m.updates_done));
    }
    last_written_ = epoch;
    epochs_.erase(epochs_.begin(), epochs_.upper_bound(epoch));
  }

 private:
  struct Epoch {
    /// worker -> {protocol iteration, completed local iterations}.
    std::map<int, std::pair<int64_t, uint64_t>> reports;
  };

  ServiceContext* ctx_;
  StrategyOptions sopts_;
  bool enabled_ = false;
  int64_t last_written_ = 0;
  std::map<int64_t, Epoch> epochs_;
  Counter* manifests_counter_ = nullptr;
  Histogram* save_hist_ = nullptr;
};

/// Partial reduce on real threads (Alg. 2): worker threads send ready
/// signals; the service thread pumps them through the PReduceService core
/// and sends its answers. Every fault reaction fires on a receive timeout,
/// so a run whose fault plan is disabled simply has no deadlines: its waits
/// block, its leases never lapse, and its group reduces cannot abort.
class ThreadedPReduce : public ThreadedStrategy {
 public:
  explicit ThreadedPReduce(const StrategyOptions& options)
      : options_(options) {
    PR_CHECK(options.kind == StrategyKind::kPReduceConst ||
             options.kind == StrategyKind::kPReduceDynamic);
    PR_CHECK_GE(options.group_size, 2);
  }

  std::string Name() const override { return StrategyKindName(options_.kind); }
  bool has_service() const override { return true; }

  void RunService(ServiceContext* ctx) override;
  void RunWorker(WorkerContext* ctx) override;

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
  ServiceCkpt ckpt(ctx, options_);
  PReduceService service(options_, n, ctx->run().topology, plan,
                         ctx->scenario_metrics(),
                         {ctx->metrics(), ctx->trace(),
                          [ctx] { return ctx->Now(); }},
                         ctx->resume());

  // Encodes the service's actions as sends. A group's weights are encoded
  // once and shared by every member's GroupInfo.
  std::shared_ptr<const GroupDecision> encoded;
  std::vector<int64_t> info;
  Buffer weights;
  auto emit = [&](const ServiceActions& actions) {
    for (const ServiceAction& a : actions) {
      switch (a.kind) {
        case ServiceAction::Kind::kGroupInfo:
          if (a.group != encoded) {
            encoded = a.group;
            info = {static_cast<int64_t>(a.group_id),
                    a.group->advanced_iteration};
            info.insert(info.end(), a.group->members.begin(),
                        a.group->members.end());
            weights = Buffer::FromVector(std::vector<float>(
                a.group->weights.begin(), a.group->weights.end()));
          }
          (void)ep->Send(a.worker, a.group_id, kKindGroupInfo, info, weights);
          break;
        case ServiceAction::Kind::kRelease:
          (void)ep->Send(a.worker, 0, kKindRelease, {});
          break;
        case ServiceAction::Kind::kAbort:
          (void)ep->Send(a.worker, a.group_id, kKindAbort,
                         {static_cast<int64_t>(a.group_id),
                          static_cast<int64_t>(a.dead)});
          break;
        case ServiceAction::Kind::kReregisterAck:
          (void)ep->Send(a.worker, 0, kKindReregisterAck, {});
          break;
      }
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

  while (service.remaining() > 0) {
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
    if (env->kind == kKindCkptReport) {
      ckpt.OnReport(*env, service);
    } else {
      emit(service.Receive(env->from, env->kind, env->ints));
    }
    renew(env->from, now);
  }
  group_reduces_ = service.groups_formed();
  controller_stats_ = service.stats();
}

void ThreadedPReduce::RunWorker(WorkerContext* ctx) {
  const ThreadedRunOptions& run = ctx->run();
  const FaultPlan& plan = run.fault;
  const NodeId controller = ctx->service_node();
  Endpoint* ep = ctx->endpoint();
  MutableSlice params = ctx->params();
  std::vector<float> grad;
  // Pre-reduce parameters, restored when a group reduce aborts. Only a
  // reduce with a deadline can abort, so fault-free runs never fill it.
  std::vector<float> backup;
  int64_t iteration = ctx->resume_iteration();
  uint64_t last_group_id = 0;  // workers dedup GroupInfo by ascending id
  // Without a fault plan every wait blocks: the heartbeats, Ready re-sends,
  // stuck reports and liveness valves below all run on timeout ticks, so
  // they never fire.
  const bool ft = plan.enabled();
  const double tick = ft ? plan.recv_timeout_seconds : -1.0;
  Counter* retries_counter =
      ft ? RegisterFaultMetrics(ctx->metrics()).retries : nullptr;
  const bool cf = plan.has_controller_faults();
  // How long a verdict wait may stay silent before the worker gives up and
  // proceeds locally. Under controller faults the budget covers a full
  // outage plus recovery; once the controller looks gone for good the
  // worker stops granting it that much and degrades to quick probes.
  const double full_wait =
      cf ? std::max(plan.max_verdict_wait_seconds,
                    plan.max_controller_outage_seconds)
         : plan.max_verdict_wait_seconds;
  bool controller_lost = false;
  // Recently completed group ids (bounded), reported on re-registration so
  // a restarted controller can rebuild its history window.
  std::deque<uint64_t> done_groups;

  const WorkerFaultEvent* crash = nullptr;
  std::vector<const WorkerFaultEvent*> hangs;
  for (const WorkerFaultEvent& e : plan.worker_events) {
    if (e.worker != ctx->worker()) continue;
    if (e.kind == WorkerFaultEvent::Kind::kCrash && crash == nullptr) {
      crash = &e;
    } else if (e.kind == WorkerFaultEvent::Kind::kHang) {
      hangs.push_back(&e);
    }
  }
  // This worker's absence windows, in firing order. A trace can schedule
  // several (Poisson churn revisits workers), and an arrive event compiles
  // to a window at iteration 0 — served before the first local step.
  // Control sends are best-effort throughout: the protocol tolerates a lost
  // message, and a shut-down fabric shows up in closed().
  std::vector<ThreadedChurnEvent> churns;
  for (const ThreadedChurnEvent& c : run.churn) {
    if (c.worker == ctx->worker()) churns.push_back(c);
  }
  std::sort(churns.begin(), churns.end(),
            [](const ThreadedChurnEvent& a, const ThreadedChurnEvent& b) {
              return a.after_iterations < b.after_iterations;
            });
  size_t next_churn = 0;
  // Serves every window due at or before boundary `k` (windows behind a
  // resume's start point are skipped). Returns false on fabric shutdown.
  auto run_churn = [&](size_t k) -> bool {
    while (next_churn < churns.size() &&
           churns[next_churn].after_iterations <= k) {
      if (churns[next_churn].after_iterations == k) {
        (void)ep->Send(controller, 0, kKindPause, {});
        if (ep->closed()) return false;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            churns[next_churn].pause_seconds));
        (void)ep->Send(controller, 0, kKindRejoin, {});
      }
      ++next_churn;
    }
    return !ep->closed();
  };
  // Autoscaling pause: the policy thread flags this worker out; sit out on
  // the same elastic path a trace departure uses. The wait is bounded
  // (lease-like) so a policy stuck at its minimum can never deadlock the
  // run's termination. Returns false on fabric shutdown.
  ScaleDirector* scale = ctx->scale_director();
  const double scale_pause_budget =
      8.0 * ctx->strategy_options().scale_policy.interval_seconds;
  auto scale_pause = [&]() -> bool {
    if (scale == nullptr || !scale->ShouldPause(ctx->worker())) return true;
    (void)ep->Send(controller, 0, kKindPause, {});
    const double deadline = ctx->Now() + scale_pause_budget;
    while (scale->ShouldPause(ctx->worker()) && ctx->Now() < deadline) {
      if (ep->closed()) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    (void)ep->Send(controller, 0, kKindRejoin, {});
    return !ep->closed();
  };

  auto note_retry = [&] {
    if (retries_counter != nullptr) retries_counter->Increment();
    ctx->trace()->Record(ctx->Now(), TraceEventKind::kWorkerRetry,
                         ctx->worker(), iteration);
  };

  auto send_reregister = [&] {
    std::vector<int64_t> ints;
    ints.reserve(1 + done_groups.size());
    ints.push_back(iteration);
    for (uint64_t g : done_groups) ints.push_back(static_cast<int64_t>(g));
    (void)ep->Send(controller, 0, kKindReregister, std::move(ints));
  };

  // Checkpoint cut: shard written after iteration k's synchronization
  // resolved (reduce, release or local fallback), reported to the
  // controller, which writes the manifest once every worker reported the
  // epoch. The final iteration never cuts — the run is about to end anyway.
  auto maybe_checkpoint = [&](size_t k) {
    const CheckpointConfig& ckpt = run.ckpt;
    if (!ckpt.enabled() || ckpt.every_iterations == 0) return;
    int64_t epoch;
    if (ctx->forced_ckpt()) {
      // Sustained-partition gate: cut the upcoming epoch at every boundary
      // until the service lands a manifest.
      epoch = static_cast<int64_t>((k + ckpt.every_iterations - 1) /
                                   ckpt.every_iterations);
      if (epoch == 0) epoch = 1;
    } else {
      if (k % ckpt.every_iterations != 0) return;
      epoch = static_cast<int64_t>(k / ckpt.every_iterations);
    }
    if (ctx->SaveCkptShard(epoch).ok()) {
      (void)ep->Send(controller, 0, kKindCkptReport,
                     {epoch, iteration, static_cast<int64_t>(k)});
    }
  };

  if (!run_churn(ctx->start_iteration())) return;  // arrive-at-start windows
  if (ctx->start_iteration() >= run.iterations_per_worker) {
    // The manifest cut at this worker's full budget; nothing left to run.
    ctx->MarkFinished();
    (void)ep->Send(controller, 0, kKindLeave, {});
    return;
  }

  for (size_t k = ctx->start_iteration() + 1; k <= run.iterations_per_worker;
       ++k) {
    if (run.control != nullptr && run.control->cancel_requested()) {
      // Cooperative cancel: leave the pool exactly like a worker whose
      // budget ran out. The controller handles the Leave through its normal
      // membership path, so the remaining workers keep forming groups and
      // the run drains cleanly with partial progress.
      ctx->MarkFinished();
      (void)ep->Send(controller, 0, kKindLeave, {});
      return;
    }
    ctx->ComputeGradient(params.data(), &grad);
    ctx->sgd()->Step(grad.data(), params.data(), params.size());
    ++iteration;

    if (crash != nullptr && !crash->in_group &&
        k >= static_cast<size_t>(crash->after_iterations)) {
      // Boundary crash: vanish without a word; the controller's lease
      // eviction is the only cleanup path.
      return;
    }
    if (k == run.iterations_per_worker) {
      ctx->MarkFinished();
      (void)ep->Send(controller, 0, kKindLeave, {});
      return;
    }
    for (const WorkerFaultEvent* h : hangs) {
      if (k == static_cast<size_t>(h->after_iterations)) {
        // Go dark long enough to (usually) lose the lease, then announce
        // the comeback — the controller treats a rejoin from an evicted
        // worker as re-admission.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(h->hang_seconds));
        (void)ep->Send(controller, 0, kKindRejoin, {});
      }
    }
    // Elastic pause: leave the pool, nap, rejoin with the parameters we
    // last held. Trace-driven windows first, then the autoscaler's verdict.
    if (!run_churn(k) || !scale_pause()) return;  // shutdown

    (void)ep->Send(controller, 0, kKindReady, {iteration});

    // Verdict wait with lease upkeep, bounded re-sends, and a liveness
    // valve: if the controller stays silent past the deadline the worker
    // falls back to local computation and re-synchronizes next round. Ring
    // segments from other groups that land meanwhile are stashed and
    // replayed to the collective.
    // Under controller faults the plain Ready re-send escalates to a
    // re-registration probe with doubling backoff — the park loop a worker
    // sits in while the controller is down.
    const double wait_begin = ctx->Now();
    double idle_begin = wait_begin;
    int ticks = 0;
    bool proceed = false;
    double backoff = plan.reregister_backoff_seconds;
    double reregister_at = wait_begin + backoff;
    double give_up_at =
        wait_begin +
        (controller_lost ? plan.reregister_backoff_max_seconds : full_wait);
    while (!proceed) {
      std::optional<Envelope> env =
          ep->RecvFromFor(controller, tick);
      if (!env.has_value()) {
        if (ep->closed()) return;
        ++ticks;
        (void)ep->Send(controller, 0, kKindHeartbeat, {});
        if (cf) {
          if (ctx->Now() >= reregister_at) {
            note_retry();
            send_reregister();
            backoff =
                std::min(backoff * 2.0, plan.reregister_backoff_max_seconds);
            reregister_at = ctx->Now() + backoff;
          }
        } else if (plan.resend_ready_ticks > 0 &&
                   ticks % plan.resend_ready_ticks == 0) {
          note_retry();
          (void)ep->Send(controller, 0, kKindReady, {iteration});
        }
        if (ctx->Now() >= give_up_at) {
          ctx->RecordIdle(idle_begin, ctx->Now());
          if (cf) controller_lost = true;
          proceed = true;
        }
        continue;
      }
      if (controller_lost) {
        // Any controller traffic refutes the "gone for good" verdict:
        // grant the full silence budget again.
        controller_lost = false;
        give_up_at = ctx->Now() + full_wait;
      }
      switch (env->kind) {
        case kKindReregisterAck:
          // The (possibly restarted) controller recorded our snapshot; our
          // signal is queued on its side, so keep waiting for the verdict.
          give_up_at = ctx->Now() + full_wait;
          break;

        case kKindRelease:
          ctx->RecordIdle(idle_begin, ctx->Now());
          proceed = true;
          break;

        case kKindAbort: {
          if (env->ints.empty()) break;
          // Peer-death hygiene: an Abort naming an evicted worker means
          // every message of theirs still parked in the stash is garbage.
          if (env->ints.size() >= 2 && env->ints[1] >= 0) {
            ep->PurgeStashFrom(static_cast<NodeId>(env->ints[1]));
          }
          const uint64_t g = static_cast<uint64_t>(env->ints[0]);
          if (g > last_group_id) {
            // Abort for a group whose GroupInfo we never received: adopt
            // the id (so a late re-send is ignored) and drop any chunks
            // peers already sent us for it.
            last_group_id = g;
            ep->PurgeStash([&](const Envelope& e) { return e.tag == g; });
          }
          break;  // stale aborts for finished groups are ignored
        }

        case kKindGroupInfo: {
          const uint64_t group_id = static_cast<uint64_t>(env->ints[0]);
          if (group_id <= last_group_id) break;  // duplicate / re-sent
          last_group_id = group_id;
          const int64_t advanced = env->ints[1];
          std::vector<NodeId> members;
          for (size_t i = 2; i < env->ints.size(); ++i) {
            members.push_back(static_cast<NodeId>(env->ints[i]));
          }
          std::vector<double> weights(env->payload.begin(),
                                      env->payload.end());
          const size_t my_index = static_cast<size_t>(
              std::find(members.begin(), members.end(), ctx->worker()) -
              members.begin());
          if (my_index >= members.size() ||
              weights.size() != members.size()) {
            break;  // malformed under chaos: ignore rather than die
          }
          if (crash != nullptr && crash->in_group &&
              k >= static_cast<size_t>(crash->after_iterations)) {
            // Mid-group crash: the nastiest case — peers are already
            // blocked on our chunks. Die silently inside the group.
            return;
          }
          ctx->RecordIdle(idle_begin, ctx->Now());
          if (ft) backup = params.ToVector();
          const double comm_begin = ctx->Now();
          ctx->trace()->Record(comm_begin, TraceEventKind::kReduceStart,
                               ctx->worker(),
                               static_cast<int64_t>(group_id));
          // Under a fault plan the ring's segment waits carry a deadline.
          // Each timeout tick renews this worker's lease, takes a parked
          // Abort for the group, and periodically escalates a GroupStuck
          // report; the controller answers a hopeless stall (dead peer or
          // dropped segment) with an Abort, turning a would-be deadlock into
          // a group retry.
          RingDeadline deadline;
          int ring_ticks = 0;
          if (ft) {
            deadline.recv_timeout_seconds = plan.recv_timeout_seconds;
            deadline.on_tick = [&] {
              if (auto abort = ep->TryTakeStashed([&](const Envelope& e) {
                    return e.from == controller && e.kind == kKindAbort &&
                           !e.ints.empty() &&
                           e.ints[0] == static_cast<int64_t>(group_id);
                  })) {
                // The Abort names the evicted member (when there is one);
                // its parked segments can never be selected again.
                if (abort->ints.size() >= 2 && abort->ints[1] >= 0) {
                  ep->PurgeStashFrom(static_cast<NodeId>(abort->ints[1]));
                }
                return false;
              }
              (void)ep->Send(controller, 0, kKindHeartbeat, {});
              ++ring_ticks;
              if (plan.stuck_report_ticks > 0 &&
                  ring_ticks % plan.stuck_report_ticks == 0) {
                (void)ep->Send(controller, group_id, kKindGroupStuck,
                               {static_cast<int64_t>(group_id)});
              }
              // Liveness valve: abandon the reduce even without a verdict;
              // the stuck escalation will (or did) abort it.
              return ctx->Now() - comm_begin <= plan.max_reduce_stall_seconds;
            };
          }
          const Status reduced = GroupWeightedAllReduce(
              ep, members, weights, my_index, group_id, params.data(),
              params.size(), ctx->compressor(), deadline);
          if (!reduced.ok()) {
            // Shutdown, or a ring without a deadline failing: unwind.
            if (!ft || ep->closed()) return;
            // Abort: roll back the half-reduced vector, drop the
            // conversation's leftovers, and put our signal back in the
            // queue.
            params.CopyFrom(backup);
            ep->PurgeStash(
                [&](const Envelope& e) { return e.tag == group_id; });
            note_retry();
            (void)ep->Send(controller, 0, kKindReady, {iteration});
            idle_begin = ctx->Now();
            break;  // back to the verdict wait
          }
          ctx->RecordComm(comm_begin, ctx->Now());
          ctx->trace()->Record(ctx->Now(), TraceEventKind::kReduceEnd,
                               ctx->worker(),
                               static_cast<int64_t>(group_id));
          // Duplicated segments of this conversation may still be parked.
          ep->PurgeStash(
              [&](const Envelope& e) { return e.tag == group_id; });
          (void)ep->Send(controller, 0, kKindGroupDone,
                         {static_cast<int64_t>(group_id)});
          if (cf && plan.reregister_report_groups > 0) {
            // Remember recent completions so a re-registration after a
            // controller crash can vouch for groups whose GroupDone died
            // with the old incarnation.
            if (done_groups.size() >=
                static_cast<size_t>(plan.reregister_report_groups)) {
              done_groups.pop_front();
            }
            done_groups.push_back(group_id);
          }
          if (options_.kind == StrategyKind::kPReduceDynamic) {
            iteration = advanced;
          }
          proceed = true;
          break;
        }

        default:
          break;  // unknown or stale control messages are ignored
      }
    }
    maybe_checkpoint(k);
  }
}

}  // namespace

std::unique_ptr<ThreadedStrategy> MakeThreadedPReduce(
    const StrategyOptions& options) {
  return std::make_unique<ThreadedPReduce>(options);
}

}  // namespace pr
