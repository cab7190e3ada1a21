#pragma once

#include <string>

#include "ckpt/manifest.h"
#include "runtime/threaded_runtime.h"
#include "train/experiment.h"

namespace pr {

/// \brief Engine-agnostic outcome of a run started through StartRun.
///
/// The shared fields mean the same thing under either engine (metric names
/// already match by construction); the engine-specific records are kept in
/// full for callers that need detail, with exactly one of them populated.
struct RunOutcome {
  EngineKind engine = EngineKind::kThreaded;
  /// Display name of the strategy that ran ("CON", "AR", "PS-BSP", ...).
  std::string strategy;
  /// Wall-clock seconds (threaded) or virtual seconds (sim) to completion.
  double clock_seconds = 0.0;
  /// Global synchronizations performed (group reduces / rounds / pushes).
  uint64_t sync_rounds = 0;
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  /// Merged metrics + trace under the cross-engine naming convention.
  MetricsSnapshot metrics;
  TraceLog trace;

  /// Engine-specific detail; valid only for the matching `engine`.
  ThreadedRunResult threaded;
  SimRunResult sim;
};

/// \brief Maps a threaded-run request onto the simulator's configuration.
///
/// Workers, batch size, SGD options, model spec, dataset spec, fault plan,
/// checkpoint config, seed, and observability knobs carry over directly.
/// The simulator stops on an update budget rather than per-worker iteration
/// counts, so the threaded gradient budget (num_workers x
/// iterations_per_worker) is converted into the equivalent number of global
/// updates for the strategy kind (AR/PS rounds consume N gradients each,
/// P-Reduce groups consume group_size, AD-PSGD pairs consume 2, asynchronous
/// pushes consume 1). Accuracy-based stopping is disabled: a facade run
/// executes its budget, like the threaded engine does.
ExperimentConfig ToExperimentConfig(const RunConfig& config);

/// \brief Unified run entry: executes `config` end-to-end on the chosen
/// engine and returns the engine-agnostic outcome. RunThreaded/RunExperiment
/// remain as the engine-specific entry points beneath this facade.
RunOutcome StartRun(const RunConfig& config,
                    EngineKind engine = EngineKind::kThreaded);

/// \brief Unified resume entry: resumes `config` from a checkpoint manifest
/// written by an earlier run of the same configuration on the same engine;
/// LoadResume's checks (ckpt/protocol.h) failing aborts.
RunOutcome ResumeRun(const RunConfig& config, EngineKind engine,
                     const std::string& manifest_path);

}  // namespace pr
