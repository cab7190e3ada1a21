#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ckpt/ckpt_config.h"
#include "ckpt/manifest.h"
#include "common/buffer.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pr {

/// \brief The cut rule both engines share. A worker cuts after local
/// iteration `k` has resolved its synchronization (a group reduce, a
/// release, a local fallback or a barrier round) when
/// k % every_iterations == 0. Returns the epoch k / every_iterations, or 0
/// for no cut. Iteration `budget` ends the run and never cuts; `forced` (the
/// threaded sustained-partition gate) cuts the upcoming epoch at every
/// boundary until a manifest lands.
uint64_t CutEpoch(const CheckpointConfig& config, size_t k, size_t budget,
                  bool forced = false);

/// Writes `worker`'s shard of `epoch` (its replica and optimizer velocity)
/// under `dir` and observes the write's wall-clock latency as one
/// ckpt.save_seconds sample in `metrics`.
Status SaveCutShard(MetricsShard* metrics, const std::string& dir,
                    uint64_t epoch, int worker, Slice params,
                    const std::vector<float>& velocity);

/// \brief What a manifest header says about its run; a resume must match.
struct RunIdentity {
  EngineKind engine = EngineKind::kThreaded;
  std::string strategy;  ///< StrategyKindName
  int num_workers = 0;
  uint64_t num_params = 0;
  uint64_t seed = 0;
};

/// \brief Run-level state a manifest binds its shards to, read when the
/// last report of an epoch lands.
struct CutState {
  uint64_t updates_done = 0;
  double clock_seconds = 0.0;  ///< the engine's clock
  /// Stamps the controller's history window and group-id watermark; null
  /// without a controller.
  std::function<void(RunManifest*)> stamp;
};

/// \brief The manifest side of the coordinated checkpoint, one per run,
/// sans-IO like the protocol cores (no engine clock, thread or transport).
///
/// Input: one report per worker cut, its shard already on disk. Once every
/// worker has reported an epoch the header is filled once (identity, epoch,
/// CutState) and the manifest written. Stale reports (an epoch at or below
/// the last written) are dropped; a worker's repeated report replaces its
/// earlier one (the forced gate rewrites the shard) and counts once.
/// Owns the ckpt.* family: manifests_written, restore_count, one
/// save_seconds sample per manifest (SaveCutShard adds one per shard), and
/// one kCkptSaved (worker -1, a = epoch, b = updates_done) per manifest.
/// One thread drives it: the threaded P-Reduce service, All-Reduce worker
/// 0, or the simulator.
class CkptCoordinator {
 public:
  /// Registers the ckpt.* family in `metrics`; a `resume` counts one
  /// restore, and its epoch and every earlier one are final.
  CkptCoordinator(std::string dir, const RunIdentity& identity,
                  MetricsShard* metrics, TraceRecorder* trace,
                  const RunManifest* resume = nullptr);

  /// One worker's cut of `epoch`. True when it completed the epoch and its
  /// manifest was written (older pending epochs are then dropped).
  bool Report(uint64_t epoch, const ManifestWorker& report,
              const CutState& state);

  /// Barrier strategies: after round `k` every replica and velocity are
  /// identical, so worker 0's shard stands for all N workers.
  bool ReportAll(uint64_t epoch, size_t k, const CutState& state);

 private:
  std::string dir_;
  RunManifest header_;  ///< the identity fields every manifest carries
  Histogram* save_seconds_;
  TraceRecorder* trace_;
  Counter* manifests_written_;
  uint64_t last_written_ = 0;
  std::map<uint64_t, std::map<int, ManifestWorker>> pending_;
};

/// \brief One worker's state as its shard stored it.
struct WorkerResume {
  std::vector<float> params;
  std::vector<float> velocity;
  /// Protocol iteration counter (P-Reduce's group-advanced counter, which
  /// can exceed `completed` under dynamic weights).
  int64_t iteration = 0;
  uint64_t completed = 0;  ///< local iterations; the sampler skips these
};

/// \brief A checkpoint loaded for a resume.
struct ResumeState {
  RunManifest manifest;
  std::vector<WorkerResume> workers;  ///< indexed by worker id
};

/// The one resume loader: loads the manifest at `manifest_path`, checks it
/// against `expect` (engine, strategy, seed, worker count, parameter count)
/// and loads every worker's shard from the manifest's directory.
Status LoadResume(const std::string& manifest_path, const RunIdentity& expect,
                  ResumeState* out);

}  // namespace pr
