#include <algorithm>
#include <optional>
#include <vector>

#include "comm/collectives.h"
#include "common/check.h"
#include "optim/sgd.h"
#include "runtime/threaded_strategies.h"
#include "runtime/worker_runtime.h"
#include "tensor/ops.h"

namespace pr {
namespace {

constexpr int kKindErPush = 21;
constexpr int kKindErModel = 22;

/// Eager-Reduce on real threads: the service thread keeps the global model
/// plus every worker's last deposited gradient. A round closes as soon as a
/// quorum of workers is fresh; the update averages *all* N buffers, so
/// stragglers' stale gradients keep being re-applied — ER's failure mode,
/// reproduced faithfully from the simulator.
class ThreadedEagerReduce : public ThreadedStrategy {
 public:
  explicit ThreadedEagerReduce(const StrategyOptions& options)
      : options_(options) {
    PR_CHECK(options.kind == StrategyKind::kEagerReduce);
  }

  std::string Name() const override {
    return StrategyKindName(StrategyKind::kEagerReduce);
  }
  bool has_service() const override { return true; }

  void RunService(ServiceContext* ctx) override;
  void RunWorker(WorkerContext* ctx) override;

  const std::vector<float>* eval_params() const override { return &global_; }

  void FillResult(ThreadedRunResult* result) const override {
    result->group_reduces = rounds_;
  }

 private:
  StrategyOptions options_;
  // Service-thread state; read only after every thread joined.
  std::vector<float> global_;
  uint64_t rounds_ = 0;
};

void ThreadedEagerReduce::RunService(ServiceContext* ctx) {
  const int n = ctx->run().num_workers;
  const int quorum = options_.er_quorum > 0 ? options_.er_quorum : n / 2 + 1;
  PR_CHECK_GE(quorum, 1);
  PR_CHECK_LE(quorum, n);
  Endpoint* ep = ctx->endpoint();
  const size_t num_params = ctx->num_params();

  global_ = ctx->init_params();
  Sgd opt(num_params, ctx->run().sgd);
  // Deposited gradients: adopting a raw push moves its vector out of the
  // payload, a compressed one is decoded once here so the round averaging
  // below reads plain fp32.
  std::vector<std::vector<float>> last_grad(
      static_cast<size_t>(n), std::vector<float>(num_params, 0.0f));
  std::vector<bool> fresh(static_cast<size_t>(n), false);
  int fresh_count = 0;
  std::vector<NodeId> waiting;
  int active = n;

  while (active > 0) {
    std::optional<Envelope> env = ep->RecvAny();
    if (!env.has_value()) break;  // transport shut down
    PR_CHECK_EQ(env->kind, kKindErPush);
    const bool is_last = env->ints[0] != 0;
    PR_CHECK(DecodePayload(&*env, num_params,
                           &last_grad[static_cast<size_t>(env->from)])
                 .ok());
    if (!fresh[static_cast<size_t>(env->from)]) {
      fresh[static_cast<size_t>(env->from)] = true;
      ++fresh_count;
    }
    if (is_last) {
      // The worker exits after this push; its buffer stays and keeps being
      // re-applied, exactly like a straggler's stale gradient.
      --active;
    } else {
      waiting.push_back(env->from);
    }

    // Departures shrink the pool, so the effective quorum is capped by the
    // workers still able to push — otherwise the final rounds would stall.
    const int effective_quorum = std::min(quorum, std::max(active, 1));
    if (fresh_count < effective_quorum) continue;

    std::vector<float> mean(num_params, 0.0f);
    for (const std::vector<float>& g : last_grad) {
      Axpy(1.0f / static_cast<float>(n), g.data(), mean.data(), num_params);
    }
    opt.Step(mean.data(), &global_);
    std::fill(fresh.begin(), fresh.end(), false);
    fresh_count = 0;
    ++rounds_;
    // Round closure is ER's global reduce completing.
    ctx->trace()->Record(ctx->Now(), TraceEventKind::kReduceEnd, -1,
                         static_cast<int64_t>(rounds_));
    // One materialization of the new model, shared by every waiter. Under
    // compression the service compressor encodes the model stream once per
    // round; its error feedback carries the encode loss into next round's
    // broadcast (the server-side model itself stays exact fp32).
    Compressor* comp = ctx->compressor();
    Buffer model = EncodePayload(ep, comp, global_.data(), global_.size());
    const uint8_t enc = PayloadEncoding(comp);
    for (NodeId w : waiting) {
      // Best-effort: a failed send means the fabric was shut down (hard
      // abort); the server's RecvAny loop observes the closure and drains.
      (void)ep->Send(w, 0, kKindErModel, {}, model, enc);
    }
    waiting.clear();
  }
}

void ThreadedEagerReduce::RunWorker(WorkerContext* ctx) {
  const ThreadedRunOptions& run = ctx->run();
  const NodeId server = ctx->service_node();
  Endpoint* ep = ctx->endpoint();
  Compressor* comp = ctx->compressor();
  MutableSlice params = ctx->params();
  std::vector<float> grad;
  std::vector<float> model;

  for (size_t k = 1; k <= run.iterations_per_worker; ++k) {
    ctx->ComputeGradient(params.data(), &grad);
    const bool is_last = k == run.iterations_per_worker;
    if (is_last) ctx->MarkFinished();
    // Compressed pushes run the gradient stream through this worker's
    // error-feedback residual (positions 0..n of its gradient vector).
    if (!ep->Send(server, 0, kKindErPush,
                  {static_cast<int64_t>(is_last ? 1 : 0)},
                  EncodePayload(ep, comp, grad.data(), grad.size()),
                  PayloadEncoding(comp))
             .ok()) {
      return;  // fabric shut down (hard abort) — unwind like Recv-shutdown
    }
    if (is_last) break;
    // Blocked until the round containing our push closes.
    const double wait_begin = ctx->Now();
    std::optional<Envelope> env = ep->RecvFrom(server);
    if (!env.has_value()) return;  // shutdown
    ctx->RecordIdle(wait_begin, ctx->Now());
    PR_CHECK_EQ(env->kind, kKindErModel);
    PR_CHECK(DecodePayload(&*env, params.size(), &model).ok());
    params.CopyFrom(model);
  }
}

}  // namespace

std::unique_ptr<ThreadedStrategy> MakeThreadedEagerReduce(
    const StrategyOptions& options) {
  return std::make_unique<ThreadedEagerReduce>(options);
}

}  // namespace pr
