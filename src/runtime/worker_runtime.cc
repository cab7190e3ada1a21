#include "runtime/worker_runtime.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "models/catalog.h"
#include "runtime/threaded_strategy.h"
#include "tensor/ops.h"

namespace pr {

// ---------------------------------------------------------------------------
// WorkerContext
// ---------------------------------------------------------------------------

WorkerContext::WorkerContext(WorkerRuntime* runtime, int worker)
    : runtime_(runtime),
      worker_(worker),
      endpoint_(runtime->fabric_, worker),
      sgd_(runtime->model_->NumParams(), runtime->options_.sgd),
      rng_(runtime->worker_seeds_[static_cast<size_t>(worker)]),
      delay_seconds_(0.0),
      metrics_(runtime->registry_.NewShard()),
      iterations_counter_(metrics_->Get(metric::kWorkerIterations, worker)),
      compute_seconds_counter_(
          metrics_->Get(metric::kWorkerComputeSeconds, worker)),
      comm_seconds_counter_(metrics_->Get(metric::kWorkerCommSeconds, worker)),
      idle_seconds_counter_(metrics_->Get(metric::kWorkerIdleSeconds, worker)) {
  const auto& delays = runtime->options_.worker_delay_seconds;
  if (!delays.empty()) {
    PR_CHECK_EQ(delays.size(),
                static_cast<size_t>(runtime->options_.num_workers));
    delay_seconds_ = delays[static_cast<size_t>(worker)];
  }
  endpoint_.AttachObservers(
      metrics_, metrics_->Get(metric::kWorkerStashHighWater, worker),
      &runtime->trace_, [this] { return Now(); });
  if (!runtime->options_.topology.flat()) {
    // Captured by value: the classifier must outlive rebinds of the runtime's
    // options. The controller endpoint (id == num_workers) maps to node 0.
    const Topology topo = runtime->options_.topology;
    const int self_node = topo.NodeOf(worker);
    endpoint_.SetInterNodeClassifier([topo, self_node](NodeId peer) {
      return topo.NodeOf(peer) != self_node;
    });
  }
  if (runtime->strategy_options_.compression != CompressionKind::kNone) {
    compressor_ =
        std::make_unique<Compressor>(runtime->strategy_options_.compression);
    compressor_->AttachMetrics(metrics_);
  }
  if (runtime->resume_.has_value()) {
    const WorkerResume& restored =
        runtime->resume_->workers[static_cast<size_t>(worker)];
    start_iteration_ = static_cast<size_t>(restored.completed);
    resume_iteration_ = restored.iteration;
    completed_iterations_ = start_iteration_;
    *sgd_.mutable_velocity() = restored.velocity;
    // Metric continuity: the resumed run's iteration counters pick up
    // where the original left off, so dashboards see one run.
    iterations_counter_->Increment(static_cast<double>(start_iteration_));
  }
}

CkptCoordinator* WorkerContext::ckpt() { return runtime_->ckpt_.get(); }

const std::vector<ChurnWindow>& WorkerContext::scenario_churn() const {
  return runtime_->churn_;
}

int WorkerContext::num_workers() const {
  return runtime_->options_.num_workers;
}

NodeId WorkerContext::service_node() const {
  return runtime_->options_.num_workers;
}

const RunOptions& WorkerContext::run() const {
  return runtime_->options_;
}

const StrategyOptions& WorkerContext::strategy_options() const {
  return runtime_->strategy_options_;
}

const Model& WorkerContext::model() const { return *runtime_->model_; }

size_t WorkerContext::num_params() const {
  return runtime_->model_->NumParams();
}

MutableSlice WorkerContext::params() {
  return runtime_->replicas_->replica(static_cast<size_t>(worker_));
}

TraceRecorder* WorkerContext::trace() { return &runtime_->trace_; }

double WorkerContext::Now() const { return runtime_->NowSeconds(); }

float WorkerContext::ComputeGradient(const float* at,
                                     std::vector<float>* grad) {
  const double begin = Now();
  grad->resize(runtime_->model_->NumParams());
  runtime_->samplers_[static_cast<size_t>(worker_)]->NextBatch(&batch_x_,
                                                               &batch_y_);
  const float loss =
      runtime_->model_->LossAndGradient(at, batch_x_, batch_y_, grad->data());
  // A slowdown factor scales the worker's injected compute delay; with no
  // configured delay it scales a 1 ms nominal tick so the fault is still
  // observable on fast proxy models.
  const double slowdown =
      runtime_->options_.fault.SlowdownFactor(worker_, completed_iterations_);
  const double base = delay_seconds_ > 0.0 ? delay_seconds_ : 1e-3;
  const double sleep_seconds = delay_seconds_ + (slowdown - 1.0) * base;
  if (sleep_seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
  }
  ++completed_iterations_;
  iterations_counter_->Increment();
  if (runtime_->options_.control != nullptr) {
    runtime_->options_.control->Tick();
  }
  RecordCompute(begin, Now());
  return loss;
}

void WorkerContext::Record(WorkerActivity activity, double begin,
                           double end) {
  switch (activity) {
    case WorkerActivity::kCompute:
      compute_seconds_counter_->Increment(end - begin);
      break;
    case WorkerActivity::kComm:
      comm_seconds_counter_->Increment(end - begin);
      break;
    case WorkerActivity::kIdle:
      idle_seconds_counter_->Increment(end - begin);
      break;
  }
  if (!runtime_->options_.record_timeline) return;
  intervals_.push_back(TimelineInterval{worker_, activity, begin, end});
}

void WorkerContext::RecordCompute(double begin, double end) {
  Record(WorkerActivity::kCompute, begin, end);
}

void WorkerContext::RecordComm(double begin, double end) {
  Record(WorkerActivity::kComm, begin, end);
}

void WorkerContext::RecordIdle(double begin, double end) {
  Record(WorkerActivity::kIdle, begin, end);
}

void WorkerContext::MarkFinished() {
  runtime_->finish_seconds_[static_cast<size_t>(worker_)] = Now();
}

bool WorkerContext::forced_ckpt() const {
  return runtime_->force_ckpt_.load(std::memory_order_acquire);
}

ScaleDirector* WorkerContext::scale_director() {
  return runtime_->scale_director_.get();
}

// ---------------------------------------------------------------------------
// ServiceContext
// ---------------------------------------------------------------------------

ServiceContext::ServiceContext(WorkerRuntime* runtime)
    : runtime_(runtime),
      endpoint_(runtime->fabric_, runtime->options_.num_workers),
      metrics_(runtime->registry_.NewShard()) {
  endpoint_.AttachObservers(metrics_,
                            metrics_->Get(metric::kServiceStashHighWater),
                            &runtime->trace_, [this] { return Now(); });
  if (!runtime->options_.topology.flat()) {
    // The controller endpoint sits on node 0 by convention (NodeOf clamps
    // out-of-range ids), so cross-node control traffic is counted against
    // the links leaving node 0.
    const Topology topo = runtime->options_.topology;
    const int self_node = topo.NodeOf(runtime->options_.num_workers);
    endpoint_.SetInterNodeClassifier([topo, self_node](NodeId peer) {
      return topo.NodeOf(peer) != self_node;
    });
  }
  if (runtime->strategy_options_.compression != CompressionKind::kNone) {
    compressor_ =
        std::make_unique<Compressor>(runtime->strategy_options_.compression);
    compressor_->AttachMetrics(metrics_);
  }
}

const RunOptions& ServiceContext::run() const {
  return runtime_->options_;
}

const StrategyOptions& ServiceContext::strategy_options() const {
  return runtime_->strategy_options_;
}

const Model& ServiceContext::model() const { return *runtime_->model_; }

size_t ServiceContext::num_params() const {
  return runtime_->model_->NumParams();
}

const std::vector<float>& ServiceContext::init_params() const {
  return runtime_->init_;
}

TraceRecorder* ServiceContext::trace() { return &runtime_->trace_; }

double ServiceContext::Now() const { return runtime_->NowSeconds(); }

FaultyTransport* ServiceContext::faulty() { return runtime_->faulty_.get(); }

const RunManifest* ServiceContext::resume() const {
  return runtime_->resume_.has_value() ? &runtime_->resume_->manifest
                                       : nullptr;
}

CkptCoordinator* ServiceContext::ckpt() { return runtime_->ckpt_.get(); }

bool ServiceContext::workers_returned() const {
  return runtime_->running_workers_.load(std::memory_order_acquire) == 0;
}

// ---------------------------------------------------------------------------
// WorkerRuntime
// ---------------------------------------------------------------------------

WorkerRuntime::WorkerRuntime(const StrategyOptions& strategy_options,
                             const RunOptions& options)
    : strategy_options_(strategy_options),
      options_(options),
      // Node num_workers is the service endpoint (unused mailbox for
      // strategies without one).
      transport_(options.num_workers + 1),
      trace_(options.trace_capacity) {
  PR_CHECK_GE(options_.num_workers, 1);
  PR_CHECK_GE(options_.iterations_per_worker, 1u);
  // Before any transport decision: from here on a scenario run is
  // indistinguishable from a hand-written chaos run.
  churn_ = CompileRunScenario(&options_);
  if (strategy_options_.scale_policy.enabled()) {
    scale_director_ = std::make_unique<ScaleDirector>(options_.num_workers);
  }
  // Controller outages sever/restore the service node through the
  // fault-injecting decorator, so plans with controller events need it even
  // when no per-edge message faults are configured. Worker partitions use
  // the same sever/restore mechanism from the scenario thread.
  if (options_.fault.has_message_faults() ||
      options_.fault.has_controller_faults() ||
      options_.fault.has_partitions()) {
    faulty_ = std::make_unique<FaultyTransport>(&transport_, options_.fault);
    fabric_ = faulty_.get();
  } else {
    fabric_ = &transport_;
  }

  Rng rng(options_.seed);
  SyntheticSpec spec = options_.dataset;
  spec.seed = DataSeed(options_);
  split_ = GenerateSynthetic(spec);
  model_ = MakeProxyModel(options_.model, spec.dim, spec.num_classes);

  model_->InitParams(&init_, &rng);
  replicas_ = std::make_unique<ParamStore>(
      static_cast<size_t>(options_.num_workers), model_->NumParams());
  replicas_->InitAll(init_);
  finish_seconds_.assign(static_cast<size_t>(options_.num_workers), 0.0);

  std::vector<Shard> shards =
      options_.dataset.dirichlet_alpha > 0.0
          ? ShardDatasetDirichlet(split_.train.labels,
                                  split_.train.num_classes,
                                  static_cast<size_t>(options_.num_workers),
                                  options_.dataset.dirichlet_alpha, &rng)
          : ShardDataset(split_.train.size(),
                         static_cast<size_t>(options_.num_workers), &rng);
  for (int w = 0; w < options_.num_workers; ++w) {
    samplers_.push_back(std::make_unique<BatchSampler>(
        &split_.train, std::move(shards[static_cast<size_t>(w)]),
        options_.batch_size, rng.Next()));
    worker_seeds_.push_back(rng.Next());
  }
}

void WorkerRuntime::UseExternalFabric(Transport* fabric) {
  PR_CHECK(fabric != nullptr);
  PR_CHECK_GE(fabric->num_nodes(), options_.num_workers + 1);
  external_fabric_ = fabric;
  if (faulty_ != nullptr) {
    // Rebuild the decorator over the external fabric: fault decisions stay
    // deterministic in (seed, from, to, seq) and each process only sends
    // from its own nodes, so a multi-process run rolls the same per-edge
    // outcomes an in-proc run would.
    faulty_ = std::make_unique<FaultyTransport>(fabric, options_.fault);
    fabric_ = faulty_.get();
  } else {
    fabric_ = fabric;
  }
}

void WorkerRuntime::RestrictTo(std::vector<int> workers, bool run_service) {
  for (int w : workers) {
    PR_CHECK_GE(w, 0);
    PR_CHECK_LT(w, options_.num_workers);
  }
  restricted_ = true;
  local_workers_ = std::move(workers);
  run_service_ = run_service;
}

Status WorkerRuntime::Resume(const std::string& manifest_path) {
  ResumeState state;
  PR_RETURN_NOT_OK(LoadResume(manifest_path, CkptIdentity(), &state));
  for (size_t w = 0; w < state.workers.size(); ++w) {
    WorkerResume& restored = state.workers[w];
    replicas_->replica(w).CopyFrom(restored.params.data(),
                                   restored.params.size());
    restored.params = {};
    samplers_[w]->Skip(restored.completed);
  }
  resume_ = std::move(state);
  return Status::OK();
}

RunIdentity WorkerRuntime::CkptIdentity() const {
  return {EngineKind::kThreaded, StrategyKindName(strategy_options_.kind),
          options_.num_workers, model_->NumParams(), options_.seed};
}

double WorkerRuntime::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

ThreadedRunResult WorkerRuntime::Run(ThreadedStrategy* strategy) {
  PR_CHECK(strategy != nullptr);
  const int n = options_.num_workers;
  start_ = std::chrono::steady_clock::now();
  MetricsShard* run_shard =
      RegisterRunMetrics(&registry_, strategy_options_, options_,
                         EngineKind::kThreaded, resume_.has_value());
  if (faulty_ != nullptr) {
    faulty_->AttachObservers(registry_.NewShard(), &trace_,
                             [this] { return NowSeconds(); });
  }
  if (options_.ckpt.enabled() || resume_.has_value()) {
    ckpt_ = std::make_unique<CkptCoordinator>(
        options_.ckpt.dir, CkptIdentity(), registry_.NewShard(), &trace_,
        resume_.has_value() ? &resume_->manifest : nullptr);
  }

  const ScalePolicyConfig& scale_cfg = strategy_options_.scale_policy;
  // The scenario thread's handles; null outside scenario mode (a
  // hand-written fault plan can still carry partitions).
  Counter* partitions_applied =
      run_shard->Get(metric::kScenarioPartitionsApplied);
  Counter* forced_ckpts = run_shard->Get(metric::kScenarioForcedCkpts);
  Counter* scale_grow = run_shard->Get(metric::kScenarioScaleGrow);
  Counter* scale_shrink = run_shard->Get(metric::kScenarioScaleShrink);

  // The workers this process actually runs (all of them unless RestrictTo
  // carved out a multi-process slice).
  std::vector<int> locals;
  if (restricted_) {
    locals = local_workers_;
  } else {
    locals.resize(static_cast<size_t>(n));
    for (int w = 0; w < n; ++w) locals[static_cast<size_t>(w)] = w;
  }
  const bool with_service =
      strategy->has_service() && (!restricted_ || run_service_);

  std::vector<std::unique_ptr<WorkerContext>> contexts;
  contexts.reserve(locals.size());
  for (int w : locals) {
    contexts.emplace_back(new WorkerContext(this, w));
  }

  // The wall-clock scenario thread: replays timed partition windows through
  // the fault decorator, raises the forced-checkpoint gate on sustained
  // partitions, and drives the autoscaling policy off live idle samples.
  // The simulator runs the same schedule on virtual time.
  struct PartitionAction {
    double time = 0.0;
    int worker = -1;
    bool sever = false;
    bool forces_ckpt = false;
  };
  std::vector<PartitionAction> actions;
  for (const PartitionEvent& p : options_.fault.partition_events) {
    const bool sustained =
        options_.ckpt.enabled() && scale_cfg.partition_ckpt_seconds > 0.0 &&
        p.duration_seconds >= scale_cfg.partition_ckpt_seconds;
    actions.push_back({p.start_seconds, p.worker, true, sustained});
    actions.push_back(
        {p.start_seconds + p.duration_seconds, p.worker, false, false});
  }
  std::sort(actions.begin(), actions.end(),
            [](const PartitionAction& a, const PartitionAction& b) {
              return a.time < b.time;
            });
  // Autoscaling samples this process's worker contexts, so it only runs in
  // single-process mode; a multi-process slice would see partial idle data.
  const bool drive_policy =
      scale_cfg.enabled() && scale_director_ != nullptr && !restricted_;
  std::atomic<bool> scenario_stop{false};
  std::thread scenario_thread;
  if (!actions.empty() || drive_policy) {
    PR_CHECK(actions.empty() || faulty_ != nullptr);
    std::vector<WorkerContext*> ctxs;
    ctxs.reserve(contexts.size());
    for (auto& c : contexts) ctxs.push_back(c.get());
    scenario_thread = std::thread([&, ctxs] {
      ScalePolicy policy(scale_cfg, n);
      size_t next_action = 0;
      double ckpt_baseline = 0.0;
      bool forcing = false;
      std::vector<double> last_idle(ctxs.size(), 0.0);
      double last_sample = 0.0;
      double next_tick = scale_cfg.interval_seconds;
      while (!scenario_stop.load(std::memory_order_acquire)) {
        const double now = NowSeconds();
        while (next_action < actions.size() &&
               now >= actions[next_action].time) {
          const PartitionAction& a = actions[next_action];
          if (a.sever) {
            faulty_->SeverNode(a.worker);
            if (partitions_applied != nullptr) {
              partitions_applied->Increment();
            }
            if (a.forces_ckpt && !forcing) {
              ckpt_baseline = registry_.Snapshot().counter(
                  metric::kCkptManifestsWritten.name);
              forcing = true;
              force_ckpt_.store(true, std::memory_order_release);
            }
          } else {
            faulty_->RestoreNode(a.worker);
          }
          ++next_action;
        }
        if (forcing && registry_.Snapshot().counter(
                           metric::kCkptManifestsWritten.name) >
                           ckpt_baseline) {
          // First manifest since the partition began: the forced cut
          // landed, stand the gate down.
          force_ckpt_.store(false, std::memory_order_release);
          forcing = false;
          forced_ckpts->Increment();
        }
        if (drive_policy && now >= next_tick) {
          double idle_delta = 0.0;
          for (size_t i = 0; i < ctxs.size(); ++i) {
            const double idle = ctxs[i]->idle_seconds_counter_->value();
            idle_delta += idle - last_idle[i];
            last_idle[i] = idle;
          }
          const ScaleSample sample =
              scale_director_->Sample(idle_delta, now - last_sample);
          last_sample = now;
          const int delta = scale_director_->SetTarget(policy.Decide(sample));
          if (delta > 0) scale_grow->Increment(delta);
          if (delta < 0) scale_shrink->Increment(-delta);
          next_tick += scale_cfg.interval_seconds;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  // Bind the owner's control handle to this run's fabric: an Abort() from
  // any thread shuts the transport down and every blocked receive unwinds.
  RunControl* control = options_.control.get();
  if (control != nullptr) {
    Transport* fabric = fabric_;
    control->BindAbort([fabric] { fabric->Shutdown(); });
  }

  // Set before the service starts, so it never sees a count of zero early.
  running_workers_.store(static_cast<int>(contexts.size()),
                         std::memory_order_release);
  auto run_worker = [this, strategy, with_service](WorkerContext* ctx) {
    strategy->RunWorker(ctx);
    if (running_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        with_service) {
      strategy->OnWorkersReturned(ctx);
    }
  };
  std::unique_ptr<ServiceContext> service_ctx;
  std::thread service_thread;
  const bool pooled = options_.launcher != nullptr;
  if (with_service) {
    service_ctx.reset(new ServiceContext(this));
    if (!pooled) {
      service_thread =
          std::thread([&] { strategy->RunService(service_ctx.get()); });
    }
  }

  if (pooled) {
    // Pooled execution: worker bodies run on donated threads; the service
    // loop (when the strategy has one) runs inline on the calling thread,
    // which would otherwise idle in join.
    for (auto& context : contexts) {
      WorkerContext* ctx = context.get();
      options_.launcher->Launch(ctx->worker(),
                                [run_worker, ctx] { run_worker(ctx); });
    }
    if (with_service) strategy->RunService(service_ctx.get());
    options_.launcher->JoinAll();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(locals.size());
    for (auto& context : contexts) {
      WorkerContext* ctx = context.get();
      workers.emplace_back([run_worker, ctx] { run_worker(ctx); });
    }
    for (auto& t : workers) t.join();
    if (service_thread.joinable()) service_thread.join();
  }
  scenario_stop.store(true, std::memory_order_release);
  if (scenario_thread.joinable()) scenario_thread.join();
  fabric_->Shutdown();
  if (control != nullptr) control->UnbindAbort();
  const double wall = NowSeconds();

  ThreadedRunResult result;
  result.strategy = StrategyKindName(strategy_options_.kind);
  result.wall_seconds = wall;
  result.worker_iterations.assign(static_cast<size_t>(n), 0);
  for (size_t i = 0; i < locals.size(); ++i) {
    result.worker_iterations[static_cast<size_t>(locals[i])] =
        contexts[i]->completed_iterations();
  }
  result.worker_finish_seconds = finish_seconds_;

  // Inference model: the strategy's global model when it has one, otherwise
  // the average of the replicas this process owns (Alg. 2 line 8; in a
  // multi-process run the launcher re-averages across all reports, and a
  // service-only process has nothing to evaluate).
  const std::vector<float>* eval = strategy->eval_params();
  std::vector<float> avg;
  if (eval == nullptr && !locals.empty()) {
    avg.assign(model_->NumParams(), 0.0f);
    for (int w : locals) {
      Axpy(1.0f / static_cast<float>(locals.size()),
           replicas_->replica(static_cast<size_t>(w)).data(), avg.data(),
           avg.size());
    }
    eval = &avg;
  }
  if (eval != nullptr) {
    result.final_accuracy =
        EvaluateAccuracy(*model_, eval->data(), split_.test);
    result.final_loss = EvaluateLoss(*model_, eval->data(), split_.test);
    result.final_params = *eval;
  }

  double spread = 0.0;
  const size_t num_params = model_->NumParams();
  for (size_t a = 0; a < locals.size(); ++a) {
    const Slice pa =
        std::as_const(*replicas_).replica(static_cast<size_t>(locals[a]));
    for (size_t b = a + 1; b < locals.size(); ++b) {
      const Slice pb =
          std::as_const(*replicas_).replica(static_cast<size_t>(locals[b]));
      for (size_t i = 0; i < num_params; ++i) {
        spread = std::max(spread,
                          std::fabs(static_cast<double>(pa[i]) -
                                    static_cast<double>(pb[i])));
      }
    }
  }
  result.replica_spread = spread;

  result.timeline = Timeline(n);
  if (options_.record_timeline) {
    for (const auto& ctx : contexts) {
      for (const TimelineInterval& iv : ctx->intervals_) {
        result.timeline.Record(iv.worker, iv.activity, iv.begin, iv.end);
      }
    }
  }

  strategy->FillResult(&result);

  // Run-level metrics. Every worker thread has joined, so reading their
  // counters and deriving the idle fractions here is race-free.
  run_shard->Get(metric::kRunWallSeconds)->Set(wall);
  run_shard->Get(metric::kRunUpdates)
      ->Increment(static_cast<double>(result.group_reduces));
  for (size_t i = 0; i < locals.size(); ++i) {
    const int w = locals[i];
    const WorkerContext& ctx = *contexts[i];
    const double active = finish_seconds_[static_cast<size_t>(w)] > 0.0
                              ? finish_seconds_[static_cast<size_t>(w)]
                              : wall;
    const double idle = ctx.idle_seconds_counter_->value();
    run_shard->Get(metric::kWorkerIdleFraction, w)
        ->Set(active > 0.0 ? idle / active : 0.0);
  }
  result.metrics = registry_.Snapshot();
  result.trace = trace_.Log();
  return result;
}

}  // namespace pr
