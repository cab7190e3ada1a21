#include "train/experiment.h"

#include "common/check.h"

namespace pr {
namespace {

/// One simulated run, resumed from `resume_manifest` when it is non-empty.
SimRunResult RunSim(const ExperimentConfig& config,
                    const std::string& resume_manifest) {
  SimTraining ctx(config.training);
  const std::string strategy_name = StrategyKindName(config.strategy.kind);
  if (config.training.ckpt.enabled() || !resume_manifest.empty()) {
    PR_CHECK(CheckpointSupported(config.strategy.kind))
        << "strategy " << strategy_name
        << " does not support coordinated checkpointing";
    const Status s = ctx.EnableCheckpoint(strategy_name, resume_manifest);
    PR_CHECK(s.ok()) << "resuming from " << resume_manifest << ": "
                     << s.message();
  }
  std::unique_ptr<Strategy> strategy = MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); },
                         config.training.max_sim_seconds);
  // Final evaluation if the run ended between periodic evals.
  ctx.EvaluateNow();
  SimRunResult result = ctx.BuildResult(strategy_name);
  const ControllerStats stats = strategy->controller_stats();
  result.bridged_groups = stats.bridged_groups;
  result.frozen_detections = stats.frozen_detections;
  return result;
}

}  // namespace

SimRunResult RunExperiment(const ExperimentConfig& config) {
  return RunSim(config, "");
}

SimRunResult RestoreSimRun(const ExperimentConfig& config,
                           const std::string& manifest_path) {
  return RunSim(config, manifest_path);
}

AggregateResult RunExperimentSeeds(const ExperimentConfig& config,
                                   size_t num_seeds) {
  PR_CHECK_GE(num_seeds, 1u);
  AggregateResult agg;
  agg.num_runs = num_seeds;
  for (size_t s = 0; s < num_seeds; ++s) {
    ExperimentConfig cfg = config;
    cfg.training.seed = config.training.seed + s;
    SimRunResult run = RunExperiment(cfg);
    agg.strategy = run.strategy;
    if (run.converged) ++agg.num_converged;
    agg.mean_run_time += run.sim_seconds;
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
