#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/protocol.h"
#include "common/stats.h"
#include "compress/codec.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "hetero/hetero.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/sgd.h"
#include "scenario/scenario.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/timeline.h"
#include "strategies/run_config.h"

namespace pr {

/// \brief Shared state and services for simulated synchronization
/// strategies.
///
/// Couples *real* SGD (proxy MLP on synthetic data) with *virtual* time
/// (cost model + heterogeneity): a strategy asks for a worker's compute
/// duration, schedules the finish event, and at that event asks for the
/// actual gradient — so the staleness pattern SGD experiences is exactly
/// the one induced by simulated timing.
///
/// Built from a RunConfig: `run` describes the workload exactly as the
/// threaded engine reads it, `sim` adds the cost model, heterogeneity and
/// stop rules. A scenario in `run` is compiled into `run().fault` here.
/// A run with `run.ckpt` enabled, or given `resume_manifest`, joins the
/// coordinated checkpoint; the manifest seeds replicas, velocity, counters,
/// samplers and the update count (LoadResume's checks failing aborts).
class SimTraining {
 public:
  explicit SimTraining(const RunConfig& config,
                       const std::string& resume_manifest = "");

  SimEngine* engine() { return &engine_; }
  const RunOptions& run() const { return config_.run; }
  int num_workers() const { return config_.run.num_workers; }
  const CostModel& cost() const { return *cost_; }
  const Model& model() const { return *model_; }
  size_t num_params() const { return model_->NumParams(); }
  Rng* rng() { return &rng_; }

  /// Samples the duration of `worker`'s next local computation (base
  /// compute time x heterogeneity x FaultPlan::SlowdownFactor).
  double SampleComputeSeconds(int worker);

  /// Worker-replica parameter access.
  std::vector<float>& params(int worker);
  const std::vector<float>& params(int worker) const;

  /// Records the worker's current params as the model version its in-flight
  /// gradient will be computed against (the "read model").
  void TakeSnapshot(int worker);
  const std::vector<float>& snapshot(int worker) const;

  /// Draws the worker's next mini-batch and computes the gradient at its
  /// snapshot. Returns the batch loss (0 in timing-only mode, where the
  /// math is skipped and `grad` is zeroed).
  float GradientAtSnapshot(int worker, std::vector<float>* grad);

  /// Same, but at arbitrary parameters (PS strategies evaluate at the
  /// pulled global model).
  float GradientAt(int worker, const float* at, std::vector<float>* grad);

  /// SGD step on the worker's replica (local momentum state).
  void LocalStep(int worker, const float* grad, double lr_scale = 1.0);

  /// The worker replica's optimizer (momentum-averaging ablation).
  Sgd* optimizer(int worker);

  /// The base learning rate now, after the run's decay schedule (the
  /// central-server strategies hand it to their ServerCore).
  double CurrentLr() const;

  /// Worker iteration counters (dynamic partial reduce advances these).
  int64_t iteration(int worker) const;
  void set_iteration(int worker, int64_t it);
  void increment_iteration(int worker);

  /// Registers one global update (aggregation event). Triggers periodic
  /// evaluation and stop-condition checks.
  void RecordUpdate();
  size_t updates() const { return updates_; }

  /// Local iterations `worker` has completed (gradients computed).
  size_t completed(int worker) const {
    return workers_[static_cast<size_t>(worker)].completed;
  }

  /// At `worker`'s synchronization boundary: cuts its shard when local
  /// iteration `completed` is a cut point (CutEpoch), once per count, and
  /// reports it; `stamp` adds the controller's state. With `barrier`
  /// (All-Reduce) worker 0's shard stands for every worker. No-op outside a
  /// checkpointed run.
  void CutCheckpoint(int worker, int64_t iteration, size_t completed,
                     const std::function<void(RunManifest*)>& stamp,
                     bool barrier = false);
  /// The manifest this run resumed from, or null on a fresh run (strategies
  /// re-seed their controller from it during construction).
  const RunManifest* resume() const {
    return resume_.has_value() ? &*resume_ : nullptr;
  }

  /// Idle accounting: call when `worker` starts/stops waiting on
  /// synchronization (barrier or group wait), at current engine time.
  void MarkWaitStart(int worker);
  void MarkWaitEnd(int worker);

  /// Total synchronization-wait seconds `worker` has accumulated so far
  /// (completed waits only). Scale policies sample deltas of this to build
  /// their idle-fraction signal, mirroring the threaded engine's
  /// worker.<i>.idle_seconds counters.
  double worker_wait_seconds(int worker) const {
    return workers_[static_cast<size_t>(worker)].total_wait;
  }

  /// The run's compiled scenario churn windows (empty without a scenario),
  /// handed to the P-Reduce worker cores; partition windows live in
  /// run().fault.partition_events.
  const std::vector<ChurnWindow>& scenario_churn() const {
    return scenario_churn_;
  }

  /// Charges the traffic a `p`-member group reduce over the full model
  /// moves on the threaded engine's data plane to the transport.* and
  /// compress.* instruments the threaded Endpoints and Compressors count:
  /// GroupAllReduceTraffic, the ring's own traffic model.
  void RecordReduceTraffic(size_t p,
                           CompressionKind kind = CompressionKind::kNone);

  /// Member-aware variant: additionally splits the ring traffic over the
  /// run topology, crediting the share moved over node-crossing ring edges
  /// to `transport.inter_node_bytes`. Each of the group's ring edges
  /// carries an equal 1/p share of the total, which is exact for the
  /// segmented ring's uniform chunking.
  void RecordReduceTraffic(const std::vector<int>& members,
                           CompressionKind kind = CompressionKind::kNone);

  /// The run's metrics shard (the simulator is single-threaded, so one
  /// shard serves every strategy) and trace recorder. Strategies fetch
  /// their instruments here through the metric table.
  MetricsShard* metrics() { return metrics_shard_; }
  TraceRecorder* trace() { return &trace_; }

  /// The activity timeline, or null when run().record_timeline is off. Idle
  /// intervals are appended automatically by MarkWaitEnd; strategies record
  /// compute/comm via RecordActivity.
  Timeline* timeline() { return timeline_.get(); }

  /// Records a compute/comm interval when the timeline is enabled
  /// (otherwise a no-op, so strategies can call it unconditionally).
  void RecordActivity(int worker, WorkerActivity activity, double begin,
                      double end);

  /// Overrides which parameters are evaluated for convergence. Default:
  /// elementwise mean over all worker replicas (Alg. 2 line 8). PS
  /// strategies point this at the global model.
  void SetEvalProvider(std::function<const float*()> provider);

  /// Forces evaluation now (used once at the end of a run).
  void EvaluateNow();

  bool stopped() const { return stopped_; }
  void Stop() { stopped_ = true; }

  /// Builds the result record; finalizes idle accounting at current time.
  RunResult BuildResult(const std::string& strategy_name);

  const Dataset& test_set() const { return split_.test; }

 private:
  struct WorkerState {
    std::vector<float> params;
    std::vector<float> snapshot;
    std::unique_ptr<Sgd> optimizer;
    std::unique_ptr<BatchSampler> sampler;
    int64_t iteration = 0;
    /// Local iterations completed; a restore fast-forwards the sampler by
    /// this count so the resumed run draws the batches the original would.
    size_t completed = 0;
    size_t cut_at = 0;  ///< the completed count last considered for a cut
    double wait_started = -1.0;  ///< -1 when not waiting
    double total_wait = 0.0;
  };

  /// The handles RecordReduceTraffic charges; the compress.* ones are null
  /// without a codec.
  struct TrafficMetrics {
    Counter* bytes_sent = nullptr;
    Counter* bytes_received = nullptr;
    Counter* payload_copies = nullptr;
    Counter* inter_node_bytes = nullptr;
    Counter* codec_bytes_in = nullptr;
    Counter* codec_bytes_out = nullptr;
    Gauge* codec_ratio = nullptr;
  };

  Status EnableCheckpoint(const std::string& resume_manifest);
  /// Charges one group reduce; returns the bytes sent.
  double ChargeReduceTraffic(size_t p, CompressionKind kind);
  void MaybeEvaluate();
  const float* EvalParams();

  RunConfig config_;
  /// sim().max_updates, or the run's UpdateBudget when that is 0.
  size_t max_updates_;
  SimEngine engine_;
  MetricsRegistry registry_;
  MetricsShard* metrics_shard_;  // owned by registry_
  TrafficMetrics traffic_;
  TraceRecorder trace_;
  Rng rng_;
  TrainTestSplit split_;
  std::unique_ptr<Model> model_;
  std::unique_ptr<CostModel> cost_;
  std::unique_ptr<HeterogeneityModel> hetero_;
  std::vector<WorkerState> workers_;
  std::vector<ChurnWindow> scenario_churn_;
  std::unique_ptr<Timeline> timeline_;
  std::function<const float*()> eval_provider_;
  std::vector<float> eval_scratch_;

  /// Checkpoint wiring.
  std::unique_ptr<CkptCoordinator> ckpt_;
  std::optional<RunManifest> resume_;

  size_t updates_ = 0;
  size_t gradients_computed_ = 0;
  double last_update_time_ = 0.0;
  bool stopped_ = false;
  bool converged_ = false;
  double best_accuracy_ = 0.0;
  double final_accuracy_ = 0.0;
  double final_loss_ = 0.0;
  std::vector<CurvePoint> curve_;
  SampleSet update_intervals_;
};

}  // namespace pr
