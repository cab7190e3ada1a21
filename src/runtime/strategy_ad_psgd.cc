#include <atomic>
#include <optional>
#include <vector>

#include "comm/collectives.h"
#include "common/check.h"
#include "runtime/threaded_strategies.h"
#include "runtime/worker_runtime.h"
#include "tensor/ops.h"

namespace pr {
namespace {

constexpr int kKindGossipReq = 31;
constexpr int kKindGossipReply = 32;
constexpr int kKindBye = 33;

/// AD-PSGD on real threads: fully decentralized, no service thread. Each
/// iteration a worker computes a gradient, averages models with one uniform
/// random peer over the transport, then applies its (now slightly stale)
/// gradient locally.
///
/// The pair average runs as a request/reply exchange: the initiator ships
/// its model; the peer folds it into its own (0.5/0.5), adopts the average,
/// and replies with it. Because a peer might itself be blocked waiting for
/// its own reply, every waiting initiator *serves* incoming requests — that
/// breaks the circular-wait deadlock. Termination uses a Bye broadcast as a
/// worker's final message; per-pair FIFO ordering guarantees that once Bye
/// from a peer is seen, no reply from it is in flight, so a pending exchange
/// with a departed peer aborts cleanly.
class ThreadedAdPsgd : public ThreadedStrategy {
 public:
  explicit ThreadedAdPsgd(const StrategyOptions& options) {
    PR_CHECK(options.kind == StrategyKind::kAdPsgd);
  }

  void RunWorker(WorkerContext* ctx) override;

  void FillResult(ThreadedRunResult* result) const override {
    result->group_reduces = pair_averages_.load();
  }

 private:
  // Completed pair averages, counted once (on the initiator side).
  std::atomic<uint64_t> pair_averages_{0};
};

void ThreadedAdPsgd::RunWorker(WorkerContext* ctx) {
  const RunOptions& run = ctx->run();
  const int n = run.num_workers;
  const int me = ctx->worker();
  Endpoint* ep = ctx->endpoint();
  MutableSlice params = ctx->params();
  const size_t num_params = ctx->num_params();
  std::vector<float> grad;
  std::vector<bool> alive(static_cast<size_t>(n), true);
  alive[static_cast<size_t>(me)] = false;  // never gossip with ourselves

  // Folds `other` into our model: params = 0.5 * (params + other).
  auto average_in = [&](const float* other) {
    Scale(0.5f, params.data(), num_params);
    Axpy(0.5f, other, params.data(), num_params);
  };

  // Gossip compression: both directions of the pair exchange ship encoded
  // models; each worker's error-feedback residual tracks its own outgoing
  // model stream (positions 0..num_params).
  Compressor* comp = ctx->compressor();
  const uint8_t enc = PayloadEncoding(comp);
  std::vector<float> other;
  auto model_payload = [&]() -> Buffer {
    return EncodePayload(ep, comp, params.data(), num_params);
  };
  auto peer_model = [&](Envelope* env) -> const float* {
    PR_CHECK(DecodePayload(env, num_params, &other).ok());
    return other.data();
  };

  for (size_t k = 1; k <= run.iterations_per_worker; ++k) {
    ctx->ComputeGradient(params.data(), &grad);

    std::vector<NodeId> peers;
    for (int i = 0; i < n; ++i) {
      if (alive[static_cast<size_t>(i)]) peers.push_back(i);
    }
    if (!peers.empty()) {
      const NodeId peer = peers[static_cast<size_t>(
          ctx->rng()->UniformInt(static_cast<uint64_t>(peers.size())))];
      const double comm_begin = ctx->Now();
      ctx->trace()->Record(comm_begin, TraceEventKind::kReduceStart,
                           ctx->worker(), static_cast<int64_t>(k));
      // A failed send means the fabric was shut down (hard abort); unwind
      // exactly like the Recv-shutdown path below.
      if (!ep->Send(peer, k, kKindGossipReq, {}, model_payload(), enc).ok()) {
        return;
      }
      bool served_while_waiting = false;
      while (true) {
        std::optional<Envelope> env = ep->RecvAny();
        if (!env.has_value()) return;  // transport shut down
        if (env->kind == kKindBye) {
          alive[static_cast<size_t>(env->from)] = false;
          // FIFO per pair: Bye is the peer's last message, so our request
          // will never be answered — abort this exchange.
          if (env->from == peer) break;
        } else if (env->kind == kKindGossipReq) {
          // Serve a concurrent initiator so it cannot deadlock on us.
          average_in(peer_model(&*env));
          if (!ep->Send(env->from, env->tag, kKindGossipReply, {},
                        model_payload(), enc)
                   .ok()) {
            return;  // shutdown
          }
          served_while_waiting = true;
        } else {
          PR_CHECK_EQ(env->kind, kKindGossipReply);
          PR_CHECK_EQ(env->from, peer);
          PR_CHECK_EQ(env->tag, k);
          if (served_while_waiting) {
            // Our model moved while the reply was in flight; folding the
            // reply in (instead of adopting it) keeps the served updates.
            average_in(peer_model(&*env));
          } else {
            params.CopyFrom(peer_model(&*env), num_params);
          }
          pair_averages_.fetch_add(1);
          break;
        }
      }
      ctx->RecordComm(comm_begin, ctx->Now());
      ctx->trace()->Record(ctx->Now(), TraceEventKind::kReduceEnd,
                           ctx->worker(), static_cast<int64_t>(k));
    }

    // Apply our gradient (computed before the average — stale by design).
    ctx->sgd()->Step(grad.data(), params.data(), params.size());
  }

  ctx->MarkFinished();
  // Bye must be our final message; peers abort pending exchanges on it.
  // Best-effort: on a shut-down fabric every peer is unwinding anyway.
  for (int i = 0; i < n; ++i) {
    if (i == me) continue;
    (void)ep->Send(i, 0, kKindBye, {});
  }
}

}  // namespace

std::unique_ptr<ThreadedStrategy> MakeThreadedAdPsgd(
    const StrategyOptions& options) {
  return std::make_unique<ThreadedAdPsgd>(options);
}

}  // namespace pr
