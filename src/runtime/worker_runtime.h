#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/protocol.h"
#include "comm/transport.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "fault/faulty_transport.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/sgd.h"
#include "runtime/param_store.h"
#include "runtime/threaded_runtime.h"
#include "scenario/scale_policy.h"
#include "scenario/scenario.h"
#include "sim/timeline.h"
#include "strategies/p_reduce_service.h"
#include "strategies/strategy.h"
#include "tensor/tensor.h"

namespace pr {

class ThreadedStrategy;
class WorkerRuntime;

/// \brief A worker thread's view of the runtime: its endpoint, replica,
/// data shard, optimizer, and RNG, plus helpers that fold heterogeneity
/// delay injection, metrics accounting, and timeline recording into the
/// local-compute step.
///
/// One instance per worker thread, owned by the WorkerRuntime; never shared
/// between threads. Each context owns its MetricsShard, so its counters are
/// updated without cross-thread contention.
class WorkerContext {
 public:
  int worker() const { return worker_; }
  int num_workers() const;
  /// The service thread's transport node id (== num_workers).
  NodeId service_node() const;

  const RunOptions& run() const;
  const StrategyOptions& strategy_options() const;
  const Model& model() const;
  size_t num_params() const;

  Endpoint* endpoint() { return &endpoint_; }
  /// This worker's gradient compressor (error-feedback residual included),
  /// or null when the run's strategy.compression is none. Strategies pass it
  /// to the group collectives and use it directly on point-to-point bulk
  /// sends; one instance per worker keeps the residual stream well-defined.
  Compressor* compressor() { return compressor_.get(); }
  /// This worker's model replica: a writable view into the runtime's shared
  /// parameter arena (all replicas start from the same initialization).
  MutableSlice params();
  /// This worker's optimizer (momentum state stays local, per the paper).
  Sgd* sgd() { return &sgd_; }
  /// Per-worker RNG (deterministic in the run seed and worker id).
  Rng* rng() { return &rng_; }

  /// This worker thread's metrics shard (worker.<i>.* instruments live
  /// here; strategies may add their own).
  MetricsShard* metrics() { return metrics_; }
  /// The run's shared trace recorder; null-safe to pass around but always
  /// non-null (a zero-capacity recorder drops everything).
  TraceRecorder* trace();

  /// Wall-clock seconds since the run started.
  double Now() const;

  /// One local computation: samples the next mini-batch from this worker's
  /// shard, computes the gradient at `at` into `grad` (resized to
  /// NumParams()), then injects this worker's configured heterogeneity
  /// delay. Records the whole thing as one compute interval and bumps the
  /// worker's iteration counter. Returns the batch loss.
  float ComputeGradient(const float* at, std::vector<float>* grad);

  /// Activity accounting. Seconds always accumulate into the worker.<i>.*
  /// counters; the interval is additionally kept for the run timeline when
  /// run().record_timeline is set.
  void RecordCompute(double begin, double end);
  void RecordComm(double begin, double end);
  void RecordIdle(double begin, double end);

  /// Stamps this worker's finish time. Call once, when the final local
  /// iteration completes (before any trailing protocol messages).
  void MarkFinished();

  /// Local iterations completed so far (crashed workers stop short of the
  /// run budget; the run result reports the true count). Starts at the
  /// restored count on a resumed run.
  size_t completed_iterations() const { return completed_iterations_; }

  /// The restored WorkerResume counters (0 on a fresh run); strategies
  /// begin their loop at start_iteration() + 1.
  size_t start_iteration() const { return start_iteration_; }
  int64_t resume_iteration() const { return resume_iteration_; }

  /// The run's checkpoint coordinator (null when unused); All-Reduce
  /// drives it from worker 0.
  CkptCoordinator* ckpt();

  /// Graceful-degradation gate: true while a sustained partition demands a
  /// checkpoint cut at every iteration boundary (the scenario thread sets
  /// it; the service's first completed manifest clears it).
  bool forced_ckpt() const;
  /// The run's autoscaling pause board, or null when no scale policy is
  /// configured. Workers poll it at iteration boundaries.
  ScaleDirector* scale_director();
  /// The compiled scenario's depart/arrive windows, every worker's, sorted
  /// by worker then `after_iterations` (empty without a scenario).
  const std::vector<ChurnWindow>& scenario_churn() const;

 private:
  friend class WorkerRuntime;
  WorkerContext(WorkerRuntime* runtime, int worker);

  void Record(WorkerActivity activity, double begin, double end);

  WorkerRuntime* runtime_;
  int worker_;
  Endpoint endpoint_;
  std::unique_ptr<Compressor> compressor_;  // null when compression is none
  Sgd sgd_;
  Rng rng_;
  double delay_seconds_;
  size_t completed_iterations_ = 0;
  size_t start_iteration_ = 0;
  int64_t resume_iteration_ = 0;
  Tensor batch_x_;
  std::vector<int> batch_y_;
  std::vector<TimelineInterval> intervals_;

  MetricsShard* metrics_;  // owned by the runtime's registry
  Counter* iterations_counter_;
  Counter* compute_seconds_counter_;
  Counter* comm_seconds_counter_;
  Counter* idle_seconds_counter_;
};

/// \brief The service thread's view of the runtime (controller / server
/// strategies). Owns the endpoint at node `num_workers` and its own
/// metrics shard.
class ServiceContext {
 public:
  const RunOptions& run() const;
  const StrategyOptions& strategy_options() const;
  const Model& model() const;
  size_t num_params() const;
  Endpoint* endpoint() { return &endpoint_; }
  /// The service's compressor (for centralized model broadcasts/replies),
  /// or null when compression is none. Its error-feedback residual tracks
  /// the server-side model stream, separate from every worker's.
  Compressor* compressor() { return compressor_.get(); }
  /// The shared initial parameter vector every replica starts from
  /// (centralized strategies seed their global model with it).
  const std::vector<float>& init_params() const;

  /// The service thread's metrics shard (controller.* / ps.* instruments).
  MetricsShard* metrics() { return metrics_; }
  /// The run's shared trace recorder.
  TraceRecorder* trace();
  /// Wall-clock seconds since the run started.
  double Now() const;

  /// The fault-injecting transport decorator, when the run's plan created
  /// one (message faults or controller outages); null otherwise. The
  /// P-Reduce service uses it to sever its own node while the controller
  /// is "down".
  FaultyTransport* faulty();
  /// The manifest this run resumed from, or null on a fresh run.
  const RunManifest* resume() const;
  /// The run's checkpoint coordinator (null when unused).
  CkptCoordinator* ckpt();
  /// True once every worker body this process runs has returned (always,
  /// in a multi-process run's service-only slice).
  bool workers_returned() const;

 private:
  friend class WorkerRuntime;
  explicit ServiceContext(WorkerRuntime* runtime);

  WorkerRuntime* runtime_;
  Endpoint endpoint_;
  std::unique_ptr<Compressor> compressor_;  // null when compression is none
  MetricsShard* metrics_;  // owned by the runtime's registry
};

/// \brief The generic threaded execution engine.
///
/// Owns the full lifecycle of a threaded training run: dataset generation
/// and sharding, model construction (through the models catalog), replica
/// initialization, transport wiring (N worker nodes plus one service node),
/// spawning/joining the worker and service threads, the observability
/// plumbing (metrics registry + trace recorder), and the run-level
/// accounting (wall time, per-worker finish times, replica spread, merged
/// timeline, final evaluation). Strategy-specific behaviour is delegated
/// entirely to the ThreadedStrategy passed to Run().
class WorkerRuntime {
 public:
  WorkerRuntime(const StrategyOptions& strategy_options,
                const RunOptions& options);

  /// Seeds replicas, velocity, counters, samplers and the controller from
  /// the checkpoint at `manifest_path` (LoadResume). Call before Run().
  Status Resume(const std::string& manifest_path);

  /// Routes all traffic through `fabric` (a SocketTransport hosting this
  /// process's nodes, or a SocketFabric for in-process socket runs) instead
  /// of the built-in in-proc transport. `fabric` must expose at least
  /// num_workers + 1 nodes and outlive the runtime; Run() still calls its
  /// Shutdown(). When the run's fault plan injects message faults, the
  /// FaultyTransport decorator is rebuilt over `fabric`, so the chaos
  /// suites drive real sockets unchanged. Call before Run().
  void UseExternalFabric(Transport* fabric);

  /// Restricts Run() to a slice of the world: spawn threads only for
  /// `workers`, and the service thread only when `run_service` is set.
  /// The multi-process launcher gives each process its own slice; result
  /// accounting (iterations, finish times, replica averaging/spread, final
  /// evaluation) covers only the local workers — a service-only process
  /// skips evaluation entirely — and the launcher merges the per-process
  /// reports. Call before Run().
  void RestrictTo(std::vector<int> workers, bool run_service);

  /// Executes the run. Blocks until every thread has joined.
  ThreadedRunResult Run(ThreadedStrategy* strategy);

 private:
  friend class WorkerContext;
  friend class ServiceContext;

  double NowSeconds() const;
  RunIdentity CkptIdentity() const;

  StrategyOptions strategy_options_;
  RunOptions options_;
  TrainTestSplit split_;
  std::unique_ptr<Model> model_;
  std::vector<float> init_;
  /// All worker replicas live in one aligned arena (built once the model's
  /// parameter count is known).
  std::unique_ptr<ParamStore> replicas_;
  std::vector<std::unique_ptr<BatchSampler>> samplers_;
  std::vector<uint64_t> worker_seeds_;
  InProcTransport transport_;
  /// Present when the run's fault plan injects message faults; endpoints
  /// then talk through it instead of the raw in-proc fabric.
  std::unique_ptr<FaultyTransport> faulty_;
  Transport* fabric_;  ///< faulty_ when present, else the raw fabric
  /// Non-null after UseExternalFabric (not owned).
  Transport* external_fabric_ = nullptr;
  /// Set by RestrictTo: the workers this process runs, and whether it hosts
  /// the service thread. Unrestricted runs cover everything.
  std::vector<int> local_workers_;
  bool run_service_ = true;
  bool restricted_ = false;
  /// Worker bodies of the current Run() that have not returned yet.
  std::atomic<int> running_workers_{0};
  MetricsRegistry registry_;
  TraceRecorder trace_;
  std::chrono::steady_clock::time_point start_;
  std::vector<double> finish_seconds_;

  /// Scenario machinery (empty/null unless the run carries a scenario or a
  /// scale policy). The compiled plan is merged into options_.fault and its
  /// churn windows kept in churn_ at construction; Run() drives the
  /// partition schedule and the autoscaler from a wall-clock scenario
  /// thread.
  std::vector<ChurnWindow> churn_;
  std::unique_ptr<ScaleDirector> scale_director_;
  std::atomic<bool> force_ckpt_{false};

  /// Resume state (empty on a fresh run) and the checkpoint coordinator
  /// (built by Run() when the run checkpoints or resumed).
  std::optional<ResumeState> resume_;
  std::unique_ptr<CkptCoordinator> ckpt_;
};

}  // namespace pr
