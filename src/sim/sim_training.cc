#include "sim/sim_training.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "comm/collectives.h"
#include "common/check.h"
#include "common/logging.h"
#include "tensor/ops.h"

namespace pr {

SimTraining::SimTraining(const RunConfig& config,
                         const std::string& resume_manifest)
    : config_(config),
      max_updates_(config.sim.max_updates > 0
                       ? config.sim.max_updates
                       : UpdateBudget(config.strategy, config.run.num_workers,
                                      config.run.iterations_per_worker)),
      metrics_shard_(registry_.NewShard()),
      trace_(config.run.trace_capacity),
      rng_(config.run.seed) {
  const RunOptions& run = config_.run;
  PR_CHECK_GE(run.num_workers, 1);
  PR_CHECK_GE(run.batch_size, 1u);
  PR_CHECK(run.topology.flat() ||
           run.topology.num_workers() == run.num_workers)
      << "topology places " << run.topology.num_workers()
      << " workers but the run has " << run.num_workers;
  scenario_churn_ = CompileRunScenario(&config_.run);
  const bool resuming = !resume_manifest.empty();
  RegisterRunMetrics(&registry_, config_.strategy, config_.run,
                     EngineKind::kSim, resuming);
  MetricsShard* m = metrics_shard_;
  traffic_ = {m->Get(metric::kTransportBytesSent),
              m->Get(metric::kTransportBytesReceived),
              m->Get(metric::kTransportPayloadCopies),
              m->Get(metric::kTransportInterNodeBytes),
              m->Get(metric::kCompressBytesIn),
              m->Get(metric::kCompressBytesOut),
              m->Get(metric::kCompressRatio)};

  SyntheticSpec spec = run.dataset;
  spec.seed = DataSeed(run);
  split_ = GenerateSynthetic(spec);

  model_ = MakeProxyModel(run.model, spec.dim, spec.num_classes);
  cost_ = std::make_unique<CostModel>(
      LookupPaperModel(config_.sim.paper_model), config_.sim.cost);
  hetero_ = MakeHeterogeneityModel(config_.sim.hetero, run.num_workers,
                                   rng_.Next());

  // Single shared initialization copied to all replicas (Alg. 2 requires
  // identical starting points).
  std::vector<float> init;
  model_->InitParams(&init, &rng_);

  Rng shard_rng = rng_.Fork();
  const size_t n = static_cast<size_t>(run.num_workers);
  std::vector<Shard> shards =
      spec.dirichlet_alpha > 0.0
          ? ShardDatasetDirichlet(split_.train.labels,
                                  split_.train.num_classes, n,
                                  spec.dirichlet_alpha, &shard_rng)
          : ShardDataset(split_.train.size(), n, &shard_rng);

  workers_.resize(n);
  for (size_t w = 0; w < n; ++w) {
    WorkerState& ws = workers_[w];
    ws.params = init;
    ws.snapshot = init;
    ws.optimizer = std::make_unique<Sgd>(model_->NumParams(), run.sgd);
    ws.sampler = std::make_unique<BatchSampler>(
        &split_.train, std::move(shards[w]), run.batch_size, rng_.Next());
  }

  if (run.record_timeline) {
    timeline_ = std::make_unique<Timeline>(run.num_workers);
  }
  eval_scratch_.resize(model_->NumParams());

  if (run.ckpt.enabled() || resuming) {
    PR_CHECK(CheckpointSupported(config_.strategy.kind))
        << "strategy " << StrategyKindName(config_.strategy.kind)
        << " does not support coordinated checkpointing";
    const Status s = EnableCheckpoint(resume_manifest);
    PR_CHECK(s.ok()) << "resuming from " << resume_manifest << ": "
                     << s.message();
  }
}

void SimTraining::RecordActivity(int worker, WorkerActivity activity,
                                 double begin, double end) {
  if (timeline_) timeline_->Record(worker, activity, begin, end);
}

double SimTraining::SampleComputeSeconds(int worker) {
  // Scheduled slowdown faults compound with the ambient heterogeneity over
  // the worker's next local step (the threaded engine scales its injected
  // compute delay by the same factor).
  return cost_->ComputeSeconds(
      hetero_->Sample(worker, iteration(worker)) *
      config_.run.fault.SlowdownFactor(worker, completed(worker)));
}

std::vector<float>& SimTraining::params(int worker) {
  PR_CHECK_GE(worker, 0);
  PR_CHECK_LT(worker, num_workers());
  return workers_[static_cast<size_t>(worker)].params;
}

const std::vector<float>& SimTraining::params(int worker) const {
  PR_CHECK_GE(worker, 0);
  PR_CHECK_LT(worker, num_workers());
  return workers_[static_cast<size_t>(worker)].params;
}

void SimTraining::TakeSnapshot(int worker) {
  WorkerState& ws = workers_[static_cast<size_t>(worker)];
  ws.snapshot = ws.params;
}

const std::vector<float>& SimTraining::snapshot(int worker) const {
  return workers_[static_cast<size_t>(worker)].snapshot;
}

float SimTraining::GradientAtSnapshot(int worker, std::vector<float>* grad) {
  const WorkerState& ws = workers_[static_cast<size_t>(worker)];
  return GradientAt(worker, ws.snapshot.data(), grad);
}

float SimTraining::GradientAt(int worker, const float* at,
                              std::vector<float>* grad) {
  PR_CHECK(grad != nullptr);
  grad->assign(model_->NumParams(), 0.0f);
  ++gradients_computed_;
  WorkerState& ws = workers_[static_cast<size_t>(worker)];
  ++ws.completed;
  if (config_.sim.timing_only) return 0.0f;
  Tensor x;
  std::vector<int> y;
  ws.sampler->NextBatch(&x, &y);
  return model_->LossAndGradient(at, x, y, grad->data());
}

Sgd* SimTraining::optimizer(int worker) {
  PR_CHECK_GE(worker, 0);
  PR_CHECK_LT(worker, num_workers());
  return workers_[static_cast<size_t>(worker)].optimizer.get();
}

void SimTraining::LocalStep(int worker, const float* grad, double lr_scale) {
  WorkerState& ws = workers_[static_cast<size_t>(worker)];
  ws.optimizer->set_learning_rate(CurrentLr());
  ws.optimizer->Step(grad, &ws.params, lr_scale);
}

double SimTraining::CurrentLr() const {
  const LrDecaySpec& decay = config_.sim.lr_decay;
  const double base = config_.run.sgd.learning_rate;
  if (!decay.enabled) return base;
  const size_t progress =
      decay.per_gradient ? gradients_computed_ : updates_;
  const size_t stage = progress / decay.every_updates;
  double lr = base;
  for (size_t s = 0; s < stage; ++s) lr *= decay.factor;
  return lr;
}

int64_t SimTraining::iteration(int worker) const {
  return workers_[static_cast<size_t>(worker)].iteration;
}

void SimTraining::set_iteration(int worker, int64_t it) {
  workers_[static_cast<size_t>(worker)].iteration = it;
}

void SimTraining::increment_iteration(int worker) {
  ++workers_[static_cast<size_t>(worker)].iteration;
}

void SimTraining::RecordUpdate() {
  ++updates_;
  update_intervals_.Add(engine_.now() - last_update_time_);
  last_update_time_ = engine_.now();

  const SimOptions& sim = config_.sim;
  if (sim.timing_only) {
    if (updates_ >= sim.timing_updates) stopped_ = true;
    return;
  }
  if (sim.eval_every > 0 && updates_ % sim.eval_every == 0) MaybeEvaluate();
  if (updates_ >= max_updates_ || engine_.now() >= sim.max_sim_seconds) {
    stopped_ = true;
  }
}

Status SimTraining::EnableCheckpoint(const std::string& resume_manifest) {
  PR_CHECK(!config_.sim.timing_only)
      << "checkpointing needs real training state to snapshot";
  const RunIdentity identity{EngineKind::kSim,
                             StrategyKindName(config_.strategy.kind),
                             num_workers(), num_params(), config_.run.seed};
  if (!resume_manifest.empty()) {
    ResumeState state;
    PR_RETURN_NOT_OK(LoadResume(resume_manifest, identity, &state));
    for (size_t w = 0; w < workers_.size(); ++w) {
      WorkerState& ws = workers_[w];
      WorkerResume& restored = state.workers[w];
      ws.params = std::move(restored.params);
      *ws.optimizer->mutable_velocity() = std::move(restored.velocity);
      ws.iteration = restored.iteration;
      ws.sampler->Skip(restored.completed);
      ws.completed = static_cast<size_t>(restored.completed);
      ws.cut_at = ws.completed;
      gradients_computed_ += ws.completed;
    }
    updates_ = state.manifest.updates_done;
    resume_ = std::move(state.manifest);
  }
  ckpt_ = std::make_unique<CkptCoordinator>(config_.run.ckpt.dir, identity,
                                            metrics_shard_, &trace_, resume());
  return Status::OK();
}

void SimTraining::CutCheckpoint(
    int worker, int64_t iteration, size_t completed,
    const std::function<void(RunManifest*)>& stamp, bool barrier) {
  WorkerState& ws = workers_[static_cast<size_t>(worker)];
  if (ckpt_ == nullptr || completed <= ws.cut_at) return;
  ws.cut_at = completed;
  const uint64_t epoch = CutEpoch(config_.run.ckpt, completed, SIZE_MAX);
  if (epoch == 0 || !SaveCutShard(metrics_shard_, config_.run.ckpt.dir, epoch,
                                  worker,
                                  Slice(ws.params.data(), ws.params.size()),
                                  ws.optimizer->velocity())
                         .ok()) {
    return;
  }
  const CutState state{updates_, engine_.now(), stamp};
  if (barrier) {
    ckpt_->ReportAll(epoch, completed, state);
  } else {
    ckpt_->Report(epoch,
                  {worker, iteration, completed, ShardFileName(epoch, worker)},
                  state);
  }
}

void SimTraining::MarkWaitStart(int worker) {
  WorkerState& ws = workers_[static_cast<size_t>(worker)];
  PR_CHECK_LT(ws.wait_started, 0.0) << "worker " << worker
                                    << " already waiting";
  ws.wait_started = engine_.now();
}

void SimTraining::MarkWaitEnd(int worker) {
  WorkerState& ws = workers_[static_cast<size_t>(worker)];
  PR_CHECK_GE(ws.wait_started, 0.0) << "worker " << worker << " not waiting";
  ws.total_wait += engine_.now() - ws.wait_started;
  RecordActivity(worker, WorkerActivity::kIdle, ws.wait_started,
                 engine_.now());
  ws.wait_started = -1.0;
}

void SimTraining::SetEvalProvider(std::function<const float*()> provider) {
  eval_provider_ = std::move(provider);
}

const float* SimTraining::EvalParams() {
  if (eval_provider_) return eval_provider_();
  // Default: mean over all replicas (Alg. 2 line 8).
  const size_t n = model_->NumParams();
  std::memset(eval_scratch_.data(), 0, n * sizeof(float));
  const float w = 1.0f / static_cast<float>(num_workers());
  for (const WorkerState& ws : workers_) {
    Axpy(w, ws.params.data(), eval_scratch_.data(), n);
  }
  return eval_scratch_.data();
}

void SimTraining::MaybeEvaluate() {
  // Skip duplicate evaluations at the same update count (e.g. the final
  // EvaluateNow right after a periodic eval).
  if (!curve_.empty() && curve_.back().updates == updates_) return;
  const float* p = EvalParams();
  const double acc = EvaluateAccuracy(*model_, p, split_.test);
  const double loss = EvaluateLoss(*model_, p, split_.test);
  best_accuracy_ = std::max(best_accuracy_, acc);
  final_accuracy_ = acc;
  final_loss_ = loss;
  CurvePoint point{engine_.now(), updates_, acc, loss, 0.0};
  if (config_.sim.record_grad_norm) {
    point.grad_norm_sq = EvaluateGradientNormSq(*model_, p, split_.train,
                                                /*max_examples=*/2048);
  }
  curve_.push_back(point);
  if (config_.sim.accuracy_threshold > 0.0 &&
      acc >= config_.sim.accuracy_threshold) {
    converged_ = true;
    stopped_ = true;
  }
}

void SimTraining::EvaluateNow() {
  if (!config_.sim.timing_only) MaybeEvaluate();
}

double SimTraining::ChargeReduceTraffic(size_t p, CompressionKind kind) {
  const RingTraffic t = GroupAllReduceTraffic(num_params(), p, kind);
  traffic_.bytes_sent->Increment(t.bytes);
  traffic_.bytes_received->Increment(t.bytes);
  traffic_.payload_copies->Increment(t.payload_copies);
  if (traffic_.codec_bytes_in != nullptr && t.codec_bytes_out > 0.0) {
    traffic_.codec_bytes_in->Increment(t.codec_bytes_in);
    traffic_.codec_bytes_out->Increment(t.codec_bytes_out);
    traffic_.codec_ratio->Set(traffic_.codec_bytes_in->value() /
                              traffic_.codec_bytes_out->value());
  }
  return t.bytes;
}

void SimTraining::RecordReduceTraffic(size_t p, CompressionKind kind) {
  (void)ChargeReduceTraffic(p, kind);
}

void SimTraining::RecordReduceTraffic(const std::vector<int>& members,
                                      CompressionKind kind) {
  const double bytes = ChargeReduceTraffic(members.size(), kind);
  const Topology& topology = config_.run.topology;
  if (bytes <= 0.0 || topology.flat()) return;
  // Each ring edge carries an equal 1/p share of the group total; credit
  // the node-crossing edges' share to the inter-node counter.
  size_t cross_edges = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    if (!topology.SameNode(members[i], members[(i + 1) % members.size()])) {
      ++cross_edges;
    }
  }
  if (cross_edges > 0) {
    const double per_edge = bytes / static_cast<double>(members.size());
    traffic_.inter_node_bytes->Increment(per_edge *
                                         static_cast<double>(cross_edges));
  }
}

RunResult SimTraining::BuildResult(const std::string& strategy_name) {
  RunResult result;
  result.engine = EngineKind::kSim;
  result.strategy = strategy_name;
  result.converged = converged_;
  result.clock_seconds = engine_.now();
  result.updates = updates_;
  result.per_update_seconds =
      updates_ == 0 ? 0.0 : engine_.now() / static_cast<double>(updates_);
  result.final_accuracy = final_accuracy_;
  result.final_loss = final_loss_;
  result.best_accuracy = best_accuracy_;
  result.curve = curve_;
  result.update_intervals = update_intervals_;

  double idle = 0.0;
  for (size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& ws = workers_[w];
    double wait = ws.total_wait;
    if (ws.wait_started >= 0.0) wait += engine_.now() - ws.wait_started;
    const double fraction = engine_.now() > 0.0 ? wait / engine_.now() : 0.0;
    idle += fraction;
    result.worker_iterations.push_back(static_cast<size_t>(ws.iteration));
    const int i = static_cast<int>(w);
    metrics_shard_->Get(metric::kWorkerIdleSeconds, i)->Increment(wait);
    metrics_shard_->Get(metric::kWorkerIdleFraction, i)->Set(fraction);
    metrics_shard_->Get(metric::kWorkerIterations, i)
        ->Increment(static_cast<double>(ws.iteration));
  }
  result.mean_idle_fraction = idle / static_cast<double>(workers_.size());

  // run.sim_seconds takes run.wall_seconds' place: the engines differ
  // exactly in which clock they advance.
  metrics_shard_->Get(metric::kRunSimSeconds)->Set(engine_.now());
  metrics_shard_->Get(metric::kRunUpdates)
      ->Increment(static_cast<double>(updates_));
  metrics_shard_->Get(metric::kEngineEventsProcessed)
      ->Increment(static_cast<double>(engine_.events_processed()));
  result.metrics = registry_.Snapshot();
  result.trace = trace_.Log();
  return result;
}

}  // namespace pr
