#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt_config.h"
#include "ckpt/manifest.h"
#include "common/check.h"
#include "common/stats.h"
#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "hetero/hetero.h"
#include "models/catalog.h"
#include "obs/metric_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/sgd.h"
#include "scenario/scenario.h"
#include "sim/cost_model.h"
#include "strategies/strategy.h"
#include "topo/topology.h"

namespace pr {

class RunControl;
class WorkerLauncher;

/// \brief How to run a strategy; both engines read every field they share.
///
/// The threaded engine is the analogue of the paper's prototype (§4): one
/// thread per worker with its own replica and data shard, the strategy's
/// central state on a service thread. The simulator trains the same model
/// on the same data under virtual time.
struct RunOptions {
  int num_workers = 4;
  /// Local iterations per worker, each ending in one synchronization step.
  /// The simulator derives its update budget from it (UpdateBudget).
  size_t iterations_per_worker = 50;
  SgdOptions sgd;
  size_t batch_size = 32;
  ProxyModelSpec model;
  /// The synthetic task and its partitioning (`dirichlet_alpha`); drawn
  /// with DataSeed: the run seed, shifted by `dataset.seed`'s distance from
  /// its default.
  SyntheticSpec dataset;
  /// Injected per-iteration sleep per worker (seconds); empty = no sleeps.
  /// Threaded engine only.
  std::vector<double> worker_delay_seconds;
  /// Fault-injection schedule (P-Reduce kinds only). An enabled plan also
  /// arms the P-Reduce protocol's deadlines (leases, eviction, group
  /// abort/retry); the simulator mirrors it in virtual time.
  FaultPlan fault;
  /// Cluster placement; flat by default.
  Topology topology;
  /// Coordinated checkpointing (CheckpointSupported kinds; resume with
  /// ResumeRun). Disabled by default.
  CheckpointConfig ckpt;
  /// Trace-driven chaos (P-Reduce kinds only), the one description of
  /// churn. Compiled at run start (CompileRunScenario) and merged into
  /// `fault`; worker events land on local iterations on both engines, and
  /// window lengths and partitions run on the engine's clock.
  ScenarioSpec scenario;
  /// Record a per-worker compute/comm/idle timeline (Fig. 3).
  bool record_timeline = false;
  /// Trace ring-buffer capacity (obs/trace.h); 0 disables tracing.
  size_t trace_capacity = 0;
  uint64_t seed = 7;
  /// Threaded engine only, not serialized: the cancel/abort/liveness
  /// handle and the thread-donation seam (threaded_runtime.h). The
  /// launcher is not owned and must outlive the run.
  std::shared_ptr<RunControl> control;
  WorkerLauncher* launcher = nullptr;
};

/// \brief Step-decay schedule of the simulator's learning rate.
struct LrDecaySpec {
  bool enabled = false;
  double factor = 0.1;
  size_t every_updates = 2000;
  /// Count gradients computed instead of global updates: strategies fold
  /// different gradient counts into an update (AR: N, P-Reduce: P, ASP:
  /// 1), so this is the fair analogue of the paper's per-epoch decay.
  bool per_gradient = false;
};

/// \brief What only the simulator reads. The defaults run the budget that
/// RunOptions describes: no accuracy stop, one evaluation at the end.
struct SimOptions {
  /// Paper workload whose catalog entry drives the cost model.
  std::string paper_model = "resnet34";
  CostModelOptions cost;
  HeteroSpec hetero;
  LrDecaySpec lr_decay;
  /// Stop at this test accuracy; <= 0 disables the accuracy stop.
  double accuracy_threshold = 0.0;
  /// Global update cap; 0 applies UpdateBudget.
  size_t max_updates = 0;
  double max_sim_seconds = 1e9;
  /// Updates between periodic evaluations; 0 evaluates only at the end.
  size_t eval_every = 0;
  /// Skip gradient math and evaluation and run exactly `timing_updates`
  /// updates (hardware-efficiency sweeps).
  bool timing_only = false;
  size_t timing_updates = 1000;
  /// Record ||∇F||² at every periodic evaluation (Theorem 1's quantity).
  bool record_grad_norm = false;
};

/// \brief One run, described once. StartRun executes it on either engine.
struct RunConfig {
  StrategyOptions strategy;
  RunOptions run;
  SimOptions sim;
};

/// The seed both engines draw the synthetic data with: the run seed,
/// offset by `run.dataset.seed - SyntheticSpec().seed`. A run that leaves
/// `dataset.seed` at its default draws with the run seed itself.
inline uint64_t DataSeed(const RunOptions& run) {
  return run.seed + (run.dataset.seed - SyntheticSpec().seed);
}

/// True when a run carries a scenario, a scale policy or degradation gates;
/// such a run opens the scenario.* gate.
inline bool ScenarioMode(const ScenarioSpec& scenario,
                         const ScalePolicyConfig& scale_policy) {
  return scenario.enabled() || scale_policy.enabled() ||
         scale_policy.degradation_enabled();
}

/// The metric gates (obs/metric_table.h) a run opens on `engine`. `run` is
/// the compiled run, so a scenario merged into its fault plan opens the
/// fault gate; `resumed` opens the checkpoint gate without a checkpoint
/// directory.
inline MetricGates RunMetricGates(const StrategyOptions& strategy,
                                  const RunOptions& run, EngineKind engine,
                                  bool resumed) {
  const StrategyKind kind = strategy.kind;
  return MetricGates()
      .Open(MetricGate::kController, IsPReduce(kind))
      .Open(MetricGate::kServer,
            IsPsFamily(kind) || kind == StrategyKind::kEagerReduce)
      .Open(MetricGate::kFault, run.fault.enabled())
      .Open(MetricGate::kScenario,
            ScenarioMode(run.scenario, strategy.scale_policy))
      .Open(MetricGate::kCkpt, run.ckpt.enabled() || resumed)
      .Open(MetricGate::kCompression,
            strategy.compression != CompressionKind::kNone)
      .Open(MetricGate::kThreaded, engine == EngineKind::kThreaded)
      .Open(MetricGate::kSim, engine == EngineKind::kSim);
}

/// Opens `registry` with the run's gates and registers every metric they
/// open, the scenario's compile counts included. Both engines call it once
/// at run start; returns the shard holding the registrations.
inline MetricsShard* RegisterRunMetrics(MetricsRegistry* registry,
                                        const StrategyOptions& strategy,
                                        const RunOptions& run,
                                        EngineKind engine, bool resumed) {
  MetricsShard* shard = registry->Open(
      RunMetricGates(strategy, run, engine, resumed), run.num_workers);
  for (const auto& [def, count] : ScenarioMetricCounts(run.scenario)) {
    if (Counter* c = shard->Get(*def)) c->Increment(count);
  }
  return shard;
}

/// Compiles `run->scenario` into `run->fault` (an invalid one aborts the
/// run) and returns its churn windows for the P-Reduce worker cores. Both
/// engines call it once at construction, before anything reads the plan.
inline std::vector<ChurnWindow> CompileRunScenario(RunOptions* run) {
  if (!run->scenario.enabled()) return {};
  CompiledScenario compiled;
  const Status s = CompileScenario(run->scenario, run->num_workers,
                                   run->topology, run->fault, &compiled);
  PR_CHECK(s.ok()) << "scenario '" << run->scenario.name
                   << "': " << s.message();
  run->fault = std::move(compiled.fault);
  return std::move(compiled.churn);
}

/// \brief One point of a simulated convergence curve (Fig. 7 / Fig. 10).
struct CurvePoint {
  double time = 0.0;    ///< virtual seconds
  size_t updates = 0;   ///< global update count at evaluation time
  double accuracy = 0.0;
  double loss = 0.0;
  double grad_norm_sq = 0.0;  ///< only with record_grad_norm
};

/// \brief What a run produced, on either engine. Metric names inside
/// `metrics` match across engines by construction (DESIGN.md).
struct RunResult {
  EngineKind engine = EngineKind::kThreaded;
  /// Display name of the strategy that ran ("CON", "AR", "PS-BSP", ...).
  std::string strategy;
  /// Wall-clock seconds (threaded) or virtual seconds (sim).
  double clock_seconds = 0.0;
  /// Global synchronizations: P-Reduce group reduces, AR/ER/PS rounds or
  /// versions, AD-PSGD pair averages.
  uint64_t updates = 0;
  /// Of the evaluated model on the test set: the replica average, or the
  /// global model for centralized strategies.
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  std::vector<size_t> worker_iterations;
  /// Summed over every controller incarnation (P-Reduce kinds only).
  ControllerStats controller_stats;
  MetricsSnapshot metrics;
  TraceLog trace;

  // Threaded engine only.
  std::vector<double> worker_finish_seconds;
  /// Max pairwise L-inf distance between replicas at the end.
  double replica_spread = 0.0;
  /// The vector final_accuracy and final_loss were computed on.
  std::vector<float> final_params;

  // Simulator only.
  bool converged = false;
  double best_accuracy = 0.0;
  std::vector<CurvePoint> curve;
  double per_update_seconds = 0.0;
  /// Time between consecutive global updates (Fig. 9).
  SampleSet update_intervals;
  /// Mean over workers of synchronization-wait / run time (Fig. 3).
  double mean_idle_fraction = 0.0;
};

}  // namespace pr
