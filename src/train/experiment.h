#pragma once

#include <string>
#include <vector>

#include "sim/sim_training.h"
#include "strategies/strategy.h"

namespace pr {

/// \brief One experiment cell: a training configuration plus a strategy.
struct ExperimentConfig {
  SimTrainingOptions training;
  StrategyOptions strategy;
};

/// \brief Runs one simulated experiment to completion (convergence, update
/// cap, or time cap) and returns its result record.
SimRunResult RunExperiment(const ExperimentConfig& config);

/// \brief Resumes a simulated experiment from a checkpoint manifest written
/// by an earlier run of the same cell; LoadResume's checks failing aborts.
/// The virtual clock restarts at 0, so sim_seconds covers only the
/// remaining work. Restoring the same manifest twice yields identical
/// results.
SimRunResult RestoreSimRun(const ExperimentConfig& config,
                           const std::string& manifest_path);

/// \brief Seed-averaged metrics over repeated runs of one cell (the paper
/// averages five runs per cell).
struct AggregateResult {
  std::string strategy;
  size_t num_runs = 0;
  size_t num_converged = 0;
  double mean_run_time = 0.0;        ///< virtual seconds to stop
  double mean_updates = 0.0;
  double mean_per_update = 0.0;
  double mean_final_accuracy = 0.0;
  double mean_idle_fraction = 0.0;
  std::vector<SimRunResult> runs;

  bool AllConverged() const { return num_converged == num_runs; }
};

/// \brief Runs `num_seeds` replicas of the cell with seeds seed, seed+1, ...
AggregateResult RunExperimentSeeds(const ExperimentConfig& config,
                                   size_t num_seeds);

}  // namespace pr
