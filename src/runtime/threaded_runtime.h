#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/ckpt_config.h"
#include "core/controller.h"
#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "models/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/sgd.h"
#include "scenario/scenario.h"
#include "sim/timeline.h"
#include "strategies/strategy.h"

namespace pr {

/// \brief Cross-thread control handle over a live threaded run.
///
/// Created by whoever owns the run (a job service, a signal handler) and
/// passed in through ThreadedRunOptions::control; the runtime and the
/// strategies observe it, the owner drives it. Three facilities:
///
///  - **Cooperative cancel** (`RequestCancel`): P-Reduce workers poll the
///    flag at iteration boundaries and leave the pool through the normal
///    `Leave` protocol, so the controller keeps forming groups among the
///    remaining members and the run drains cleanly (partial progress, clean
///    transport). Strategies with hard barriers (AR, PS-BSP) ignore it —
///    aborting a collective mid-barrier cannot be done cooperatively.
///  - **Hard abort** (`Abort`): shuts the run's transport down. Every
///    blocked receive wakes with nullopt and the strategies unwind through
///    their existing shutdown paths. Works for every strategy kind; forfeits
///    the in-flight synchronization step.
///  - **Liveness** (`progress()`): a monotonic tick bumped on every local
///    gradient computation across all workers. An external monitor (the job
///    service's FailureDetector loop) treats a stalled tick as a hung run
///    and escalates to Abort.
///
/// All members are safe to call from any thread, at any point in the run's
/// lifecycle (Abort before the run starts makes it exit immediately).
class RunControl {
 public:
  /// Asks the run to drain cooperatively (P-Reduce kinds; see above).
  void RequestCancel() { cancel_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire);
  }

  /// Hard-stops the run by shutting down its transport fabric. Idempotent;
  /// callable before the run binds (the run then aborts at bind time).
  void Abort() {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      aborted_ = true;
      fn = abort_fn_;
    }
    if (fn) fn();
  }
  bool aborted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return aborted_;
  }

  /// Total local gradient computations so far, across every worker of the
  /// bound run. Monotonic; a monitor samples it to detect hangs.
  uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }
  /// Bumps the progress tick (runtime-internal; one call per gradient).
  void Tick() { progress_.fetch_add(1, std::memory_order_relaxed); }

  /// Runtime-internal: installs/removes the live run's abort hook. BindAbort
  /// invokes `fn` immediately when Abort() already happened (abort-before-
  /// bind); UnbindAbort makes later Aborts no-ops so a completed run's
  /// resources cannot be poked after teardown.
  void BindAbort(std::function<void()> fn) {
    bool fire = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      abort_fn_ = std::move(fn);
      fire = aborted_;
    }
    if (fire) Abort();
  }
  void UnbindAbort() {
    std::lock_guard<std::mutex> lock(mu_);
    abort_fn_ = nullptr;
  }

 private:
  std::atomic<bool> cancel_{false};
  std::atomic<uint64_t> progress_{0};
  mutable std::mutex mu_;
  bool aborted_ = false;
  std::function<void()> abort_fn_;
};

/// \brief Seam for donating worker threads to a run.
///
/// By default the runtime spawns one fresh std::thread per worker. A shared
/// worker pool instead installs a launcher: `Launch` hands the worker body to
/// a pooled thread, `JoinAll` blocks until every launched body returned.
/// When a launcher is set the strategy's service loop (controller / PS
/// server), if any, runs inline on the thread that called RunThreaded — the
/// caller donates itself instead of idling in join.
class WorkerLauncher {
 public:
  virtual ~WorkerLauncher() = default;

  /// Runs `body` (the full worker loop for `worker`) on a pooled thread.
  /// Bodies for all workers of a run are launched before JoinAll; the
  /// launcher must run them concurrently (they rendezvous through
  /// collectives — serializing them deadlocks).
  virtual void Launch(int worker, std::function<void()> body) = 0;

  /// Blocks until every body launched since the last JoinAll has returned.
  virtual void JoinAll() = 0;
};

/// \brief Elastic membership on real threads (P-Reduce only): the worker
/// Leaves the pool after completing `after_iterations` local iterations,
/// sleeps for `pause_seconds`, then Rejoins and finishes its budget —
/// exercising Controller::NotifyWorkerRejoined through the transport path.
struct ThreadedChurnEvent {
  int worker = -1;
  size_t after_iterations = 0;
  double pause_seconds = 0.01;
};

/// \brief Configuration for a real (wall-clock, multi-threaded) training run.
///
/// This is the prototype-system analogue of the paper's implementation (§4):
/// each worker is a thread with its own model replica and data shard; the
/// strategy's central state (P-Reduce controller, PS/ER server), when it has
/// any, lives on a dedicated service thread; the data plane runs collectives
/// over the in-process transport. Heterogeneity is injected as per-worker
/// per-iteration sleeps. Which synchronization scheme runs is selected by
/// the StrategyOptions half of RunConfig — the same options that drive the
/// simulator.
struct ThreadedRunOptions {
  int num_workers = 4;
  /// Local iterations per worker (each ends with one synchronization step
  /// of the selected strategy).
  size_t iterations_per_worker = 50;

  SgdOptions sgd;
  size_t batch_size = 32;
  /// Runnable proxy architecture, constructed through the models catalog
  /// (the same specs SimTraining uses).
  ProxyModelSpec model;
  SyntheticSpec dataset;

  /// Injected per-iteration sleep per worker (seconds); empty = no sleeps.
  std::vector<double> worker_delay_seconds;

  /// Elastic membership schedule (P-Reduce kinds only).
  std::vector<ThreadedChurnEvent> churn;

  /// Fault-injection schedule (P-Reduce kinds only): per-edge message
  /// drop/dup/delay via a FaultyTransport wrapped around the in-proc
  /// fabric, plus per-worker crash/hang/slowdown events. An enabled plan
  /// also arms the P-Reduce protocol's deadlines (heartbeat leases,
  /// lease-based eviction, group abort/retry on a stalled ring); under a
  /// default-constructed plan the same protocol runs with every wait
  /// blocking, so none of those reactions can fire.
  FaultPlan fault;

  /// Cluster placement (nodes × workers). Flat (the default) reproduces the
  /// historical uniform fabric. A non-flat topology feeds the controller's
  /// topology-aware group filter / hierarchical scheduling and classifies
  /// each endpoint's sends into `transport.inter_node_bytes`.
  Topology topology;

  /// Coordinated checkpointing (P-Reduce kinds and All-Reduce): every
  /// `ckpt.every_iterations` local iterations each worker snapshots its
  /// replica + optimizer state into a shard, and the controller (worker 0
  /// under All-Reduce) writes a manifest once every live worker has
  /// reported the epoch. A run killed after a manifest lands resumes via
  /// RestoreThreadedRun. Disabled by default.
  CheckpointConfig ckpt;

  /// Trace-driven chaos scenario (P-Reduce kinds only). A non-empty
  /// scenario is compiled at run start (CompileScenario) and *merged* into
  /// `fault` and `churn` above: crash/hang/slowdown events become
  /// iteration-keyed fault events, depart/arrive windows become churn
  /// events, and partitions are applied on the wall clock by a scheduler
  /// thread through the severable transport. The compiled scenario.* event
  /// counters are registered in the run's metrics with names identical to
  /// the simulator's.
  ScenarioSpec scenario;

  /// Record a per-worker wall-clock activity timeline (compute/comm/idle
  /// intervals) comparable to the simulator's Fig. 3 traces.
  bool record_timeline = false;

  /// Capacity of the structured trace ring buffer (see obs/trace.h);
  /// 0 disables tracing. Metrics are always collected — they are cheap —
  /// but traces carry one record per signal/group/push, so they are opt-in.
  size_t trace_capacity = 0;

  uint64_t seed = 7;

  /// Optional control handle (cancel/abort/liveness — see RunControl).
  /// Runtime-only: not part of the serialized config.
  std::shared_ptr<RunControl> control;

  /// Optional thread-donation seam (see WorkerLauncher). Not owned; must
  /// outlive the run. Runtime-only: not part of the serialized config.
  WorkerLauncher* launcher = nullptr;
};

/// \brief A complete threaded-run request: which synchronization scheme
/// (the same StrategyOptions the simulator consumes) plus how to run it.
/// Mirrors ExperimentConfig's {strategies, sim} split on the simulator side.
struct RunConfig {
  StrategyOptions strategy;
  ThreadedRunOptions run;
};

/// \brief Outcome of a threaded run.
///
/// Run-level diagnostics (staleness histogram, wasted gradients, stash
/// high-water) live in `metrics` under the shared metric-name convention
/// (see DESIGN.md).
struct ThreadedRunResult {
  /// Display name of the strategy that ran ("CON", "AR", "PS-BSP", ...).
  std::string strategy;
  double wall_seconds = 0.0;
  /// Global synchronizations performed: P-Reduce group reduces, AR/ER/PS
  /// rounds or versions, AD-PSGD pair averages.
  uint64_t group_reduces = 0;
  /// P-Reduce kinds only.
  ControllerStats controller_stats;
  /// Accuracy/loss of the evaluated model on the held-out test set (average
  /// of replicas for decentralized strategies, the global model for
  /// centralized ones).
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  /// Per-worker completed local iterations. Equals iterations_per_worker
  /// for every worker on a fault-free run; a crashed worker shows the count
  /// it actually reached.
  std::vector<size_t> worker_iterations;
  /// Per-worker wall-clock seconds from run start until the worker finished
  /// its last iteration. Under All-Reduce every worker finishes with the
  /// straggler; under P-Reduce fast workers finish early — the primitive's
  /// headline property, observable here on real threads.
  std::vector<double> worker_finish_seconds;
  /// Max pairwise L-inf distance between worker replicas at the end —
  /// a consensus diagnostic.
  double replica_spread = 0.0;
  /// PS family: global model versions produced (BSP/BK: rounds; ASP/HETE:
  /// pushes).
  uint64_t versions = 0;
  /// Per-worker activity record (empty unless record_timeline was set).
  Timeline timeline{1};

  /// Merged counters/gauges/histograms from every thread of the run, under
  /// the metric names shared with the simulator (controller.*, worker.<i>.*,
  /// ps.*, transport.*, run.*).
  MetricsSnapshot metrics;
  /// Structured run events (empty unless trace_capacity was set).
  TraceLog trace;

  /// Final evaluated parameter vector (the same vector final_accuracy /
  /// final_loss were computed on). Restore-determinism tests compare this
  /// bit-for-bit between a resumed run and a never-interrupted one.
  std::vector<float> final_params;

  /// Per-worker idle fractions (`worker.<i>.idle_fraction` gauges): seconds
  /// spent blocked on synchronization divided by the worker's active span.
  std::vector<double> worker_idle_fraction() const;
};

/// \brief Checks cross-field invariants of a run request (worker counts,
/// fault / churn / ckpt support per strategy kind). Aborts on violation.
/// RunThreaded calls this; out-of-process runners (src/launch) call it once
/// before spawning workers so misconfigurations fail in the parent.
void ValidateRunConfig(const RunConfig& config);

/// \brief Runs `config.strategy.kind` end-to-end on real threads.
///
/// Every StrategyKind the simulator covers also runs here: P-Reduce
/// (constant and dynamic weights), ring All-Reduce, Eager-Reduce, AD-PSGD
/// pairwise gossip, and the PS family (BSP, ASP, HETE, BK). All dispatch
/// through the same WorkerRuntime; see runtime/threaded_strategy.h.
ThreadedRunResult RunThreaded(const RunConfig& config);

/// \brief Resumes a threaded run from a checkpoint manifest written by an
/// earlier (possibly killed) run of the same configuration.
///
/// Loads the manifest and every worker shard, seeds each replica and its
/// optimizer momentum from its shard, fast-forwards each worker's batch
/// sampler past the iterations already completed, re-seeds the controller's
/// group-history window and group-id watermark, then runs the remaining
/// `iterations_per_worker - completed` iterations per worker. `config` must
/// match the original run (strategy kind, worker count, model, seed);
/// mismatches fail a check. Metric continuity: worker.<i>.iterations
/// counters start at the restored counts and ckpt.restore_count is 1.
ThreadedRunResult RestoreThreadedRun(const RunConfig& config,
                                     const std::string& manifest_path);

}  // namespace pr
