#include "launch/process_runner.h"

#include <memory>
#include <utility>
#include <vector>

#include "launch/report_io.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"
#include "strategies/strategy.h"

namespace pr {

bool StrategyHasService(const RunConfig& config) {
  return MakeThreadedStrategy(config.strategy)->has_service();
}

Status RunNode(const NodeRunOptions& options) {
  const RunConfig& config = options.config;
  const int num_workers = config.run.num_workers;
  if (options.node < 0 || options.node > num_workers) {
    return Status::InvalidArgument("node " + std::to_string(options.node) +
                                   " out of range for " +
                                   std::to_string(num_workers) + " workers");
  }
  ValidateRunConfig(config);
  std::unique_ptr<ThreadedStrategy> strategy =
      MakeThreadedStrategy(config.strategy);
  const bool is_service = options.node == num_workers;
  if (is_service && !strategy->has_service()) {
    return Status::InvalidArgument("strategy " +
                                   StrategyKindName(config.strategy.kind) +
                                   " has no service node");
  }

  // The fabric hosts exactly this process's node; everything else is a
  // remote peer reached through the connection manager.
  SocketTransport fabric(options.socket, options.node, num_workers + 1);
  PR_RETURN_NOT_OK(fabric.Start());

  WorkerRuntime runtime(config.strategy, config.run);
  // Resume: every process loads the same checkpoint. Replica/optimizer
  // shards for non-local workers are restored and then simply unused.
  if (!options.resume_manifest.empty()) {
    PR_RETURN_NOT_OK(runtime.Resume(options.resume_manifest));
  }
  runtime.UseExternalFabric(&fabric);
  runtime.RestrictTo(is_service ? std::vector<int>{}
                                : std::vector<int>{options.node},
                     is_service);
  ThreadedRunResult result = runtime.Run(strategy.get());

  ProcessReport report;
  report.node = options.node;
  report.role = is_service ? "service" : "worker";
  report.strategy = result.strategy;
  report.wall_seconds = result.wall_seconds;
  report.group_reduces = result.group_reduces;
  report.worker_iterations = result.worker_iterations;
  report.worker_finish_seconds = result.worker_finish_seconds;
  if (!is_service) report.replica = std::move(result.final_params);
  report.metrics = std::move(result.metrics);
  if (!options.report_path.empty()) {
    PR_RETURN_NOT_OK(SaveProcessReport(options.report_path, report));
  }
  return Status::OK();
}

}  // namespace pr
