#include "train/run.h"

#include <algorithm>

#include "common/check.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"
#include "strategies/server_core.h"

namespace pr {
namespace {

/// Global updates the sim engine should run to consume the same gradient
/// budget the threaded engine would (num_workers x iterations_per_worker).
size_t DerivedUpdateBudget(const RunConfig& config) {
  const double total_gradients =
      static_cast<double>(config.run.num_workers) *
      static_cast<double>(config.run.iterations_per_worker);
  double per_update = 1.0;
  switch (config.strategy.kind) {
    case StrategyKind::kAllReduce:
    case StrategyKind::kPsBsp:
    case StrategyKind::kPsBackup:
      per_update = static_cast<double>(config.run.num_workers);
      break;
    case StrategyKind::kPReduceConst:
    case StrategyKind::kPReduceDynamic:
      per_update = static_cast<double>(std::max(1, config.strategy.group_size));
      break;
    case StrategyKind::kEagerReduce:
      per_update = static_cast<double>(
          EagerReduceQuorum(config.strategy, config.run.num_workers));
      break;
    case StrategyKind::kAdPsgd:
      per_update = 2.0;
      break;
    case StrategyKind::kPsAsp:
    case StrategyKind::kPsHete:
      per_update = 1.0;
      break;
  }
  const double updates = total_gradients / per_update;
  return static_cast<size_t>(std::max(1.0, updates + 0.5));
}

RunOutcome FromThreaded(ThreadedRunResult result) {
  RunOutcome out;
  out.engine = EngineKind::kThreaded;
  out.strategy = result.strategy;
  out.clock_seconds = result.wall_seconds;
  out.sync_rounds = result.group_reduces;
  out.final_accuracy = result.final_accuracy;
  out.final_loss = result.final_loss;
  out.metrics = result.metrics;
  out.trace = result.trace;
  out.threaded = std::move(result);
  return out;
}

RunOutcome FromSim(SimRunResult result) {
  RunOutcome out;
  out.engine = EngineKind::kSim;
  out.strategy = result.strategy;
  out.clock_seconds = result.sim_seconds;
  out.sync_rounds = result.updates;
  out.final_accuracy = result.final_accuracy;
  out.final_loss = result.curve.empty() ? 0.0 : result.curve.back().loss;
  out.metrics = result.metrics;
  out.trace = result.trace;
  out.sim = std::move(result);
  return out;
}

}  // namespace

ExperimentConfig ToExperimentConfig(const RunConfig& config) {
  ExperimentConfig out;
  out.strategy = config.strategy;
  SimTrainingOptions& t = out.training;
  const ThreadedRunOptions& r = config.run;
  t.num_workers = r.num_workers;
  t.batch_size = r.batch_size;
  t.sgd = r.sgd;
  t.model = r.model;
  t.custom_dataset = r.dataset;
  t.fault = r.fault;
  t.scenario = r.scenario;
  t.topology = r.topology;
  t.ckpt = r.ckpt;
  t.seed = r.seed;
  t.trace_capacity = r.trace_capacity;
  t.record_timeline = r.record_timeline;
  // Budget-driven stop, matching the threaded engine's semantics: no
  // accuracy early-exit, one evaluation at the end.
  t.accuracy_threshold = -1.0;
  t.max_updates = DerivedUpdateBudget(config);
  t.eval_every = t.max_updates + 1;
  return out;
}

RunOutcome StartRun(const RunConfig& config, EngineKind engine) {
  switch (engine) {
    case EngineKind::kThreaded:
      return FromThreaded(RunThreaded(config));
    case EngineKind::kSim:
      return FromSim(RunExperiment(ToExperimentConfig(config)));
  }
  PR_CHECK(false) << "unknown engine kind";
  return RunOutcome{};
}

RunOutcome ResumeRun(const RunConfig& config, EngineKind engine,
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
      return FromSim(
          RestoreSimRun(ToExperimentConfig(config), manifest_path));
  }
  PR_CHECK(false) << "unknown engine kind";
  return RunOutcome{};
}

}  // namespace pr
