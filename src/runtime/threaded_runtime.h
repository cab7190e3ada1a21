#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/controller.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/timeline.h"
#include "strategies/run_config.h"

namespace pr {

/// \brief Cross-thread control handle over a live threaded run.
///
/// Created by whoever owns the run (a job service, a signal handler) and
/// passed in through RunOptions::control; the runtime and the
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

/// \brief Outcome of a threaded run (RunThreaded, WorkerRuntime::Run);
/// StartRun and ResumeRun return the RunResult built from it.
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
};

/// \brief Checks cross-field invariants of a run request (worker counts,
/// fault / ckpt support per strategy kind). Aborts on violation.
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

}  // namespace pr
