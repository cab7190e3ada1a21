#include "runtime/threaded_runtime.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "ckpt/manifest.h"
#include "common/check.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"

namespace pr {
namespace {

bool IsPsFamily(StrategyKind kind) {
  return kind == StrategyKind::kPsBsp || kind == StrategyKind::kPsAsp ||
         kind == StrategyKind::kPsHete || kind == StrategyKind::kPsBackup;
}

bool IsPReduce(StrategyKind kind) {
  return kind == StrategyKind::kPReduceConst ||
         kind == StrategyKind::kPReduceDynamic;
}

}  // namespace

void ValidateRunConfig(const RunConfig& config) {
  const StrategyOptions& strategy = config.strategy;
  const ThreadedRunOptions& options = config.run;
  // Centralized PS training degenerates gracefully to one worker; every
  // collective/gossip scheme needs a counterpart.
  PR_CHECK_GE(options.num_workers, IsPsFamily(strategy.kind) ? 1 : 2);
  if (IsPReduce(strategy.kind)) {
    PR_CHECK_GE(strategy.group_size, 2);
    PR_CHECK_LE(strategy.group_size, options.num_workers);
  }
  PR_CHECK(options.churn.empty() || IsPReduce(strategy.kind))
      << "elastic churn is a P-Reduce feature";
  PR_CHECK(!options.fault.enabled() || IsPReduce(strategy.kind))
      << "fault plans require the P-Reduce recovery protocol";
  PR_CHECK(!options.ckpt.enabled() || IsPReduce(strategy.kind) ||
           strategy.kind == StrategyKind::kAllReduce)
      << "coordinated checkpointing covers P-Reduce and All-Reduce";
  if (!options.topology.flat()) {
    PR_CHECK_EQ(options.topology.num_workers(), options.num_workers)
        << "topology places a different worker count than the run";
  }
  if (strategy.hierarchy.enabled) {
    PR_CHECK(IsPReduce(strategy.kind))
        << "hierarchical two-level scheduling is a P-Reduce feature";
    PR_CHECK_GE(strategy.hierarchy.cross_period, 1);
  }
  PR_CHECK_GE(strategy.group_cost_budget, 0.0);
}

std::vector<double> ThreadedRunResult::worker_idle_fraction() const {
  std::vector<double> out;
  out.reserve(worker_iterations.size());
  for (size_t w = 0; w < worker_iterations.size(); ++w) {
    out.push_back(
        metrics.gauge("worker." + std::to_string(w) + ".idle_fraction"));
  }
  return out;
}

ThreadedRunResult RunThreaded(const RunConfig& config) {
  ValidateRunConfig(config);
  std::unique_ptr<ThreadedStrategy> impl = MakeThreadedStrategy(config.strategy);
  WorkerRuntime runtime(config.strategy, config.run);
  return runtime.Run(impl.get());
}

ThreadedRunResult RestoreThreadedRun(const RunConfig& config,
                                     const std::string& manifest_path) {
  ValidateRunConfig(config);
  RunManifest manifest;
  Status s = LoadManifest(manifest_path, &manifest);
  PR_CHECK(s.ok()) << "loading manifest " << manifest_path << ": "
                   << s.message();
  PR_CHECK(manifest.engine == EngineKindName(EngineKind::kThreaded))
      << "manifest was written by the '" << manifest.engine << "' engine";
  PR_CHECK(manifest.strategy == StrategyKindName(config.strategy.kind))
      << "manifest strategy " << manifest.strategy
      << " does not match the requested "
      << StrategyKindName(config.strategy.kind);
  PR_CHECK_EQ(manifest.seed, config.run.seed)
      << "resuming with a different seed would draw different batches";
  const std::string dir =
      std::filesystem::path(manifest_path).parent_path().string();
  std::unique_ptr<ThreadedStrategy> impl = MakeThreadedStrategy(config.strategy);
  WorkerRuntime runtime(config.strategy, config.run, &manifest, dir);
  return runtime.Run(impl.get());
}

}  // namespace pr
