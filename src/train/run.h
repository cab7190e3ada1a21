#pragma once

#include <string>
#include <vector>

#include "runtime/threaded_runtime.h"
#include "strategies/run_config.h"

namespace pr {

/// \brief Executes `config` end-to-end on the chosen engine.
///
/// The threaded engine runs RunThreaded. The simulator runs until its stop
/// rule fires: the update budget (SimOptions::max_updates, else
/// UpdateBudget), the accuracy threshold or the virtual-time cap.
RunResult StartRun(const RunConfig& config,
                   EngineKind engine = EngineKind::kThreaded);

/// \brief Resumes `config` from a checkpoint manifest written by an earlier
/// run of the same configuration on the same engine; LoadResume's checks
/// (ckpt/protocol.h) failing aborts. A resumed simulation restarts its
/// virtual clock at 0, so clock_seconds covers only the remaining work.
RunResult ResumeRun(const RunConfig& config, EngineKind engine,
                    const std::string& manifest_path);

/// \brief The simulated cell the paper benches are calibrated on
/// (EXPERIMENTS.md): 8 workers, a per-worker batch of 8 (small batches keep
/// gradient noise high enough that staleness effects show on the synthetic
/// tasks), an MLP with one hidden layer of 64 on the CIFAR10-like task,
/// seed 1, stopping at 90% test accuracy or 100000 updates, evaluated every
/// 25 updates. Callers override what their experiment varies.
RunConfig PaperSimConfig();

/// \brief Seed-averaged metrics over repeated simulated runs of one cell
/// (the paper averages five runs per cell).
struct AggregateResult {
  std::string strategy;
  size_t num_runs = 0;
  size_t num_converged = 0;
  double mean_run_time = 0.0;        ///< virtual seconds to stop
  double mean_updates = 0.0;
  double mean_per_update = 0.0;
  double mean_final_accuracy = 0.0;
  double mean_idle_fraction = 0.0;
  std::vector<RunResult> runs;

  bool AllConverged() const { return num_converged == num_runs; }
};

/// \brief Simulates `num_seeds` replicas of the cell with run seeds seed,
/// seed+1, ...
AggregateResult RunExperimentSeeds(const RunConfig& config, size_t num_seeds);

}  // namespace pr
