#include <vector>

#include "ckpt/manifest.h"
#include "comm/collectives.h"
#include "common/check.h"
#include "runtime/threaded_strategies.h"
#include "runtime/worker_runtime.h"

namespace pr {
namespace {

/// Classic all-reduce on real threads: one global ring collective per
/// iteration is the barrier — nobody advances until everyone joined, so
/// every worker runs at the straggler's pace.
///
/// Checkpointing exploits the barrier: after the step at iteration k every
/// replica (and its optimizer velocity) is bitwise identical, so worker 0
/// alone cuts one shard and a manifest whose entries all point at it.
class ThreadedAllReduce : public ThreadedStrategy {
 public:
  explicit ThreadedAllReduce(const StrategyOptions& options) {
    PR_CHECK(options.kind == StrategyKind::kAllReduce);
  }

  void RunWorker(WorkerContext* ctx) override {
    const ThreadedRunOptions& run = ctx->run();
    Endpoint* ep = ctx->endpoint();
    MutableSlice params = ctx->params();
    std::vector<float> grad;
    std::vector<NodeId> all;
    for (int i = 0; i < run.num_workers; ++i) all.push_back(i);

    auto maybe_checkpoint = [&](size_t k) {
      const CheckpointConfig& ckpt = run.ckpt;
      if (!ckpt.enabled() || ckpt.every_iterations == 0) return;
      if (ctx->worker() != 0) return;
      if (k % ckpt.every_iterations != 0 || k >= run.iterations_per_worker) {
        return;
      }
      const int64_t epoch = static_cast<int64_t>(k / ckpt.every_iterations);
      if (!ctx->SaveCkptShard(epoch).ok()) return;
      RunManifest m;
      m.engine = EngineKindName(EngineKind::kThreaded);
      m.strategy = StrategyKindName(StrategyKind::kAllReduce);
      m.num_workers = run.num_workers;
      m.num_params = ctx->num_params();
      m.seed = run.seed;
      m.epoch = static_cast<uint64_t>(epoch);
      m.updates_done = k;
      m.saved_at_seconds = ctx->Now();
      for (int w = 0; w < run.num_workers; ++w) {
        ManifestWorker mw;
        mw.worker = w;
        mw.iteration = static_cast<int64_t>(k);
        mw.completed = k;
        // Post-barrier the replicas are identical: every entry shares
        // worker 0's shard.
        mw.shard_file = ShardFileName(static_cast<uint64_t>(epoch), 0);
        m.workers.push_back(mw);
      }
      if (SaveManifest(ckpt.dir, m).ok()) {
        ctx->metrics()->GetCounter("ckpt.manifests_written")->Increment();
        ctx->trace()->Record(ctx->Now(), TraceEventKind::kCkptSaved,
                             ctx->worker(), epoch);
      }
    };

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
      maybe_checkpoint(k);
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
