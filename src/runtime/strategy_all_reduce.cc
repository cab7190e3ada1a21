#include <vector>

#include "ckpt/protocol.h"
#include "comm/collectives.h"
#include "common/check.h"
#include "runtime/threaded_strategies.h"
#include "runtime/worker_runtime.h"

namespace pr {
namespace {

/// Classic all-reduce on real threads: one global ring collective per
/// iteration is the barrier — nobody advances until everyone joined, so
/// every worker runs at the straggler's pace (and worker 0's checkpoint
/// shard stands for every replica).
class ThreadedAllReduce : public ThreadedStrategy {
 public:
  explicit ThreadedAllReduce(const StrategyOptions& options) {
    PR_CHECK(options.kind == StrategyKind::kAllReduce);
  }

  void RunWorker(WorkerContext* ctx) override {
    const RunOptions& run = ctx->run();
    Endpoint* ep = ctx->endpoint();
    MutableSlice params = ctx->params();
    std::vector<float> grad;
    std::vector<NodeId> all;
    for (int i = 0; i < run.num_workers; ++i) all.push_back(i);

    // Resumed run: the restored `completed` count is shared by all workers
    // (the cut was at a barrier), so the loop below continues with globally
    // unique reduce tags.
    if (ctx->start_iteration() >= run.iterations_per_worker) {
      ctx->MarkFinished();
      return;
    }
    for (size_t k = ctx->start_iteration() + 1; k <= run.iterations_per_worker;
         ++k) {
      ctx->ComputeGradient(params.data(), &grad);
      // The ring is the barrier: it averages the gradients of all N
      // workers, and nobody's step happens until everyone contributed.
      const double comm_begin = ctx->Now();
      ctx->trace()->Record(comm_begin, TraceEventKind::kReduceStart,
                           ctx->worker(), static_cast<int64_t>(k));
      // The collective only fails when the fabric was shut down under us
      // (hard abort); unwind instead of crashing the process.
      if (!GroupAverageAllReduce(ep, all, static_cast<size_t>(ctx->worker()),
                                 /*tag=*/k, grad.data(), grad.size(),
                                 ctx->compressor())
               .ok()) {
        return;
      }
      ctx->RecordComm(comm_begin, ctx->Now());
      ctx->trace()->Record(ctx->Now(), TraceEventKind::kReduceEnd,
                           ctx->worker(), static_cast<int64_t>(k));
      ctx->sgd()->Step(grad.data(), params.data(), params.size());
      const uint64_t epoch = CutEpoch(run.ckpt, k, run.iterations_per_worker);
      if (ctx->worker() == 0 && epoch != 0 &&
          SaveCutShard(ctx->metrics(), run.ckpt.dir, epoch, 0, params,
                       ctx->sgd()->velocity())
              .ok()) {
        ctx->ckpt()->ReportAll(epoch, k, {k, ctx->Now(), nullptr});
      }
    }
    ctx->MarkFinished();
    // All workers execute the same count of global reduces; worker 0 records
    // it (reads happen after the join, so this is not a race).
    if (ctx->worker() == 0) {
      global_reduces_ = run.iterations_per_worker - ctx->start_iteration();
    }
  }

  void FillResult(ThreadedRunResult* result) const override {
    result->group_reduces = global_reduces_;
  }

 private:
  uint64_t global_reduces_ = 0;
};

}  // namespace

std::unique_ptr<ThreadedStrategy> MakeThreadedAllReduce(
    const StrategyOptions& options) {
  return std::make_unique<ThreadedAllReduce>(options);
}

}  // namespace pr
