#include <optional>
#include <vector>

#include "comm/collectives.h"
#include "common/check.h"
#include "runtime/threaded_strategies.h"
#include "runtime/worker_runtime.h"
#include "strategies/server_core.h"

namespace pr {
namespace {

// Message kinds of the server protocol.
constexpr int kKindPull = 11;
constexpr int kKindModel = 12;  // ints: [version]
constexpr int kKindPush = 13;   // ints: [pulled_version, is_last]

/// The centralized baselines on real threads — PS-BSP, PS-ASP, PS-HETE,
/// PS-BK and Eager-Reduce. The service thread pumps envelopes through one
/// ServerCore, which decides every server rule; the worker body (pull ->
/// compute -> push) is the same for all five, so heterogeneity comparisons
/// isolate the server policy.
class ThreadedServer : public ThreadedStrategy {
 public:
  explicit ThreadedServer(const StrategyOptions& options)
      : options_(options) {}

  bool has_service() const override { return true; }

  void RunService(ServiceContext* ctx) override;
  void RunWorker(WorkerContext* ctx) override;

  const std::vector<float>* eval_params() const override {
    return core_.has_value() ? &core_->model() : nullptr;
  }

  void FillResult(ThreadedRunResult* result) const override {
    if (!core_.has_value()) return;
    result->group_reduces = core_->version();
    result->versions = core_->version();
  }

 private:
  StrategyOptions options_;
  // Service-thread state; read only after every thread joined.
  std::optional<ServerCore> core_;
};

void ThreadedServer::RunService(ServiceContext* ctx) {
  const double lr = ctx->run().sgd.learning_rate;
  core_.emplace(options_, ctx->run().num_workers, ctx->init_params(),
                ctx->run().sgd,
                ServerCore::Observers{ctx->metrics(), ctx->trace(),
                                      [ctx] { return ctx->Now(); }});
  Endpoint* ep = ctx->endpoint();

  // The current version's model payload, materialized at most once per
  // version no matter how many replies it serves. Under compression the
  // blob is encoded once by the service compressor (whose error feedback
  // tracks the model stream), then shared by every reply of that version.
  Compressor* comp = ctx->compressor();
  const uint8_t enc = PayloadEncoding(comp);
  Buffer payload;
  std::optional<uint64_t> payload_version;
  auto carry_out = [&](ServerActions actions) {
    for (size_t i = 0; i < actions.size(); ++i) {
      const ServerAction a = actions[i];
      if (a.kind == ServerAction::Kind::kRoundReady) {
        // ER's reduce is this thread's own average: it ends at once.
        ServerActions more = core_->EndRound(lr);
        actions.insert(actions.end(), more.begin(), more.end());
        continue;
      }
      PR_CHECK_EQ(a.version, core_->version());
      if (payload_version != a.version) {
        payload = EncodePayload(ep, comp, core_->model().data(),
                                core_->model().size());
        payload_version = a.version;
      }
      // Best-effort: a failed send means the fabric was shut down (hard
      // abort); the receive loop observes the closure and drains.
      (void)ep->Send(a.worker, 0, kKindModel,
                     {static_cast<int64_t>(a.version)}, payload, enc);
    }
  };

  std::vector<float> grad;  // the push being applied, decoded
  while (core_->active() > 0) {
    std::optional<Envelope> env = ep->RecvAny();
    if (!env.has_value()) break;  // transport shut down
    if (env->kind == kKindPull) {
      carry_out(core_->Pull(env->from));
      continue;
    }
    PR_CHECK_EQ(env->kind, kKindPush) << "server got unexpected kind";
    PR_CHECK(DecodePayload(&*env, ctx->num_params(), &grad).ok());
    carry_out(core_->Push(env->from, static_cast<uint64_t>(env->ints[0]),
                          grad.data(), env->ints[1] != 0, lr));
  }
}

void ThreadedServer::RunWorker(WorkerContext* ctx) {
  const RunOptions& run = ctx->run();
  const NodeId server = ctx->service_node();
  Endpoint* ep = ctx->endpoint();
  Compressor* comp = ctx->compressor();
  MutableSlice params = ctx->params();
  std::vector<float> model;
  std::vector<float> grad;

  for (size_t k = 1; k <= run.iterations_per_worker; ++k) {
    // Failed sends to the server mean the fabric was shut down (hard
    // abort); unwind exactly like the Recv-shutdown path.
    if (!ep->Send(server, 0, kKindPull, {}).ok()) return;
    const double wait_begin = ctx->Now();
    std::optional<Envelope> env = ep->RecvFrom(server);
    if (!env.has_value()) return;  // shutdown
    ctx->RecordIdle(wait_begin, ctx->Now());
    PR_CHECK_EQ(env->kind, kKindModel);
    const int64_t version = env->ints[0];
    PR_CHECK(DecodePayload(&*env, params.size(), &model).ok());
    params.CopyFrom(model);

    ctx->ComputeGradient(params.data(), &grad);
    const bool is_last = k == run.iterations_per_worker;
    if (is_last) ctx->MarkFinished();
    // Compressed pushes run this worker's gradient stream through its
    // error-feedback residual (positions 0..num_params).
    if (!ep->Send(server, 0, kKindPush,
                  {version, static_cast<int64_t>(is_last ? 1 : 0)},
                  EncodePayload(ep, comp, grad.data(), grad.size()),
                  PayloadEncoding(comp))
             .ok()) {
      return;  // shutdown
    }
  }
}

}  // namespace

std::unique_ptr<ThreadedStrategy> MakeThreadedServer(
    const StrategyOptions& options) {
  return std::make_unique<ThreadedServer>(options);
}

}  // namespace pr
