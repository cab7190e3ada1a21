#include "runtime/threaded_runtime.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"

namespace pr {

void ValidateRunConfig(const RunConfig& config) {
  const StrategyOptions& strategy = config.strategy;
  const RunOptions& options = config.run;
  // Centralized PS training degenerates gracefully to one worker; every
  // collective/gossip scheme needs a counterpart.
  PR_CHECK_GE(options.num_workers, IsPsFamily(strategy.kind) ? 1 : 2);
  if (IsPReduce(strategy.kind)) {
    PR_CHECK_GE(strategy.group_size, 2);
    PR_CHECK_LE(strategy.group_size, options.num_workers);
  }
  PR_CHECK(!options.fault.enabled() || IsPReduce(strategy.kind))
      << "fault plans require the P-Reduce recovery protocol";
  PR_CHECK(!options.ckpt.enabled() || CheckpointSupported(strategy.kind))
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

ThreadedRunResult RunThreaded(const RunConfig& config) {
  ValidateRunConfig(config);
  std::unique_ptr<ThreadedStrategy> impl = MakeThreadedStrategy(config.strategy);
  WorkerRuntime runtime(config.strategy, config.run);
  return runtime.Run(impl.get());
}

}  // namespace pr
