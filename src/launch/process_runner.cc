#include "launch/process_runner.h"

#include <filesystem>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/manifest.h"
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
  SocketTransport fabric(options.socket, {options.node}, num_workers + 1);
  PR_RETURN_NOT_OK(fabric.Start());

  // Resume: every process loads the same manifest. Replica/optimizer shards
  // for non-local workers are restored and then simply unused.
  std::optional<RunManifest> manifest;
  std::string manifest_dir;
  if (!options.resume_manifest.empty()) {
    RunManifest m;
    PR_RETURN_NOT_OK(LoadManifest(options.resume_manifest, &m));
    const std::string threaded = EngineKindName(EngineKind::kThreaded);
    if (m.engine != threaded) {
      return Status::InvalidArgument("manifest engine '" + m.engine +
                                     "' is not '" + threaded + "'");
    }
    if (m.strategy != StrategyKindName(config.strategy.kind)) {
      return Status::InvalidArgument(
          "manifest strategy " + m.strategy + " does not match requested " +
          StrategyKindName(config.strategy.kind));
    }
    if (m.seed != config.run.seed) {
      return Status::InvalidArgument(
          "resuming with a different seed would draw different batches");
    }
    manifest_dir = std::filesystem::path(options.resume_manifest)
                       .parent_path()
                       .string();
    manifest = std::move(m);
  }

  WorkerRuntime runtime(config.strategy, config.run,
                        manifest ? &*manifest : nullptr, manifest_dir);
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
