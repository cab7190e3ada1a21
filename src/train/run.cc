#include "train/run.h"

#include "common/check.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"
#include "sim/sim_training.h"

namespace pr {
namespace {

RunResult FromThreaded(ThreadedRunResult result) {
  RunResult out;
  out.engine = EngineKind::kThreaded;
  out.strategy = std::move(result.strategy);
  out.clock_seconds = result.wall_seconds;
  out.updates = result.group_reduces;
  out.final_accuracy = result.final_accuracy;
  out.final_loss = result.final_loss;
  out.worker_iterations = std::move(result.worker_iterations);
  out.controller_stats = result.controller_stats;
  out.metrics = std::move(result.metrics);
  out.trace = std::move(result.trace);
  out.worker_finish_seconds = std::move(result.worker_finish_seconds);
  out.replica_spread = result.replica_spread;
  out.final_params = std::move(result.final_params);
  return out;
}

/// One simulated run, resumed from `resume_manifest` when it is non-empty.
RunResult RunSim(const RunConfig& config, const std::string& resume_manifest) {
  SimTraining ctx(config, resume_manifest);
  const std::string strategy_name = StrategyKindName(config.strategy.kind);
  std::unique_ptr<Strategy> strategy = MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); },
                         config.sim.max_sim_seconds);
  // Final evaluation if the run ended between periodic evals.
  ctx.EvaluateNow();
  RunResult result = ctx.BuildResult(strategy_name);
  result.controller_stats = strategy->controller_stats();
  return result;
}

}  // namespace

RunResult StartRun(const RunConfig& config, EngineKind engine) {
  switch (engine) {
    case EngineKind::kThreaded:
      return FromThreaded(RunThreaded(config));
    case EngineKind::kSim:
      return RunSim(config, "");
  }
  PR_CHECK(false) << "unknown engine kind";
  return RunResult{};
}

RunResult ResumeRun(const RunConfig& config, EngineKind engine,
                    const std::string& manifest_path) {
  switch (engine) {
    case EngineKind::kThreaded: {
      ValidateRunConfig(config);
      WorkerRuntime runtime(config.strategy, config.run);
      const Status s = runtime.Resume(manifest_path);
      PR_CHECK(s.ok()) << "resuming from " << manifest_path << ": "
                       << s.message();
      return FromThreaded(
          runtime.Run(MakeThreadedStrategy(config.strategy).get()));
    }
    case EngineKind::kSim:
      return RunSim(config, manifest_path);
  }
  PR_CHECK(false) << "unknown engine kind";
  return RunResult{};
}

RunConfig PaperSimConfig() {
  RunConfig config;
  config.run.num_workers = 8;
  config.run.batch_size = 8;
  config.run.model = {ProxyModelSpec::Kind::kMlp, {64}, 8};
  config.run.dataset = SpecForDataset("cifar10");
  config.run.seed = 1;
  config.sim.accuracy_threshold = 0.9;
  config.sim.max_updates = 100000;
  config.sim.eval_every = 25;
  return config;
}

AggregateResult RunExperimentSeeds(const RunConfig& config,
                                   size_t num_seeds) {
  PR_CHECK_GE(num_seeds, 1u);
  AggregateResult agg;
  agg.num_runs = num_seeds;
  for (size_t s = 0; s < num_seeds; ++s) {
    RunConfig cfg = config;
    cfg.run.seed = config.run.seed + s;
    RunResult run = StartRun(cfg, EngineKind::kSim);
    agg.strategy = run.strategy;
    if (run.converged) ++agg.num_converged;
    agg.mean_run_time += run.clock_seconds;
    agg.mean_updates += static_cast<double>(run.updates);
    agg.mean_per_update += run.per_update_seconds;
    agg.mean_final_accuracy += run.final_accuracy;
    agg.mean_idle_fraction += run.mean_idle_fraction;
    agg.runs.push_back(std::move(run));
  }
  const double inv = 1.0 / static_cast<double>(num_seeds);
  agg.mean_run_time *= inv;
  agg.mean_updates *= inv;
  agg.mean_per_update *= inv;
  agg.mean_final_accuracy *= inv;
  agg.mean_idle_fraction *= inv;
  return agg;
}

}  // namespace pr
