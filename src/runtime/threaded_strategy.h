#pragma once

#include <memory>
#include <string>
#include <vector>

#include "strategies/strategy.h"

namespace pr {

class ServiceContext;
class WorkerContext;
struct RunOptions;
struct ThreadedRunResult;

/// \brief One synchronization scheme running on real threads.
///
/// The WorkerRuntime owns everything generic about a threaded training run
/// (transport wiring, thread lifecycle, replicas, samplers, heterogeneity
/// delay injection, finish-time / replica-spread accounting, timeline
/// recording); a ThreadedStrategy supplies only the per-thread protocol
/// bodies. RunWorker executes on N concurrent worker threads; RunService
/// (when has_service() is true) executes on one extra thread that owns the
/// strategy's central state — the P-Reduce controller, or the PS / ER
/// server.
///
/// Threading contract: mutable strategy state shared across threads must be
/// confined to the service thread and reached only via transport messages
/// (workers never touch it directly). The runtime calls eval_params() and
/// FillResult() strictly after every thread has joined, so service-thread
/// state is safe to read there without locks.
class ThreadedStrategy {
 public:
  virtual ~ThreadedStrategy() = default;

  /// True when the strategy needs a central service thread. The service
  /// endpoint occupies transport node `num_workers` (workers are 0..N-1).
  virtual bool has_service() const { return false; }

  /// Service thread body (controller / parameter server main loop). Must
  /// return once every worker has permanently left.
  virtual void RunService(ServiceContext* ctx) { (void)ctx; }

  /// Worker thread body: exactly `iterations_per_worker` local iterations,
  /// each synchronized per the strategy's protocol. Must call
  /// ctx->MarkFinished() when its final iteration completes.
  virtual void RunWorker(WorkerContext* ctx) = 0;

  /// Runs on the thread of the last local worker body to return, right
  /// after it returned, in a process that also runs the service.
  virtual void OnWorkersReturned(WorkerContext* last) { (void)last; }

  /// Parameters evaluated for final accuracy/loss. Null (default) selects
  /// the element-wise average of all worker replicas (Alg. 2 line 8);
  /// centralized strategies (PS family, Eager-Reduce) return their global
  /// model instead.
  virtual const std::vector<float>* eval_params() const { return nullptr; }

  /// Copies strategy-specific counters (group reduces, controller stats,
  /// versions, staleness histogram) into the result.
  virtual void FillResult(ThreadedRunResult* result) const { (void)result; }
};

/// \brief Builds the threaded implementation of `options.kind`. Every
/// StrategyKind is supported.
std::unique_ptr<ThreadedStrategy> MakeThreadedStrategy(
    const StrategyOptions& options);

}  // namespace pr
