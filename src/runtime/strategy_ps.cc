#include <algorithm>
#include <cstring>
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

// Control-plane message kinds for the PS protocol.
constexpr int kKindPull = 11;
constexpr int kKindModel = 12;  // ints: [version]
constexpr int kKindPush = 13;   // ints: [pulled_version, is_last]

/// The parameter-server family on real threads — the paper's §2.2
/// centralized baselines. One server loop covers all four consistency
/// protocols; the worker body (pull -> compute -> push) is identical across
/// them, so heterogeneity comparisons isolate the server policy:
///  - BSP:  one update per N pushes; pulls racing into the next round park.
///  - ASP:  every push applies immediately, 1/N-scaled.
///  - HETE: ASP plus the staleness-aware learning rate (gradients staler
///          than asynchrony implies get damped by ExcessStalenessLrScale).
///  - BK:   synchronous with backup workers: a round closes after the first
///          (N - b) fresh gradients; stale pushes are dropped (wasted).
class ThreadedPs : public ThreadedStrategy {
 public:
  explicit ThreadedPs(const StrategyOptions& options) : options_(options) {
    PR_CHECK(options.kind == StrategyKind::kPsBsp ||
             options.kind == StrategyKind::kPsAsp ||
             options.kind == StrategyKind::kPsHete ||
             options.kind == StrategyKind::kPsBackup);
  }

  std::string Name() const override { return StrategyKindName(options_.kind); }
  bool has_service() const override { return true; }

  void RunService(ServiceContext* ctx) override;
  void RunWorker(WorkerContext* ctx) override;

  const std::vector<float>* eval_params() const override { return &global_; }

  void FillResult(ThreadedRunResult* result) const override {
    result->group_reduces = versions_;
    result->versions = versions_;
  }

 private:
  StrategyOptions options_;
  // Service-thread state; read only after every thread joined. Staleness
  // and drop accounting live in the service shard's ps.* instruments.
  std::vector<float> global_;
  uint64_t versions_ = 0;
};

void ThreadedPs::RunService(ServiceContext* ctx) {
  const StrategyKind kind = options_.kind;
  const int n = ctx->run().num_workers;
  Endpoint* ep = ctx->endpoint();
  const size_t num_params = ctx->num_params();

  int accept_count = n;
  if (kind == StrategyKind::kPsBackup) {
    PR_CHECK_GE(options_.backup_workers, 0);
    PR_CHECK_LT(options_.backup_workers, n);
    accept_count = n - options_.backup_workers;
  }

  global_ = ctx->init_params();
  Sgd opt(num_params, ctx->run().sgd);
  int active = n;

  MetricsShard* metrics = ctx->metrics();
  Histogram* staleness_hist =
      metrics->GetHistogram("ps.push_staleness", StalenessBuckets());
  Counter* wasted_counter = metrics->GetCounter("ps.wasted_gradients");
  Counter* versions_counter = metrics->GetCounter("ps.versions");
  TraceRecorder* trace = ctx->trace();

  // Synchronous-round state (BSP and BK): the open round's gradient sum,
  // which workers contributed, and pulls parked until the round applies. A
  // pull parks only when its sender already contributed this round — a
  // worker that has not is still *in* the round and must be served,
  // otherwise its first pull racing behind a fast worker's push deadlocks.
  std::vector<float> round_sum(num_params, 0.0f);
  std::vector<bool> in_round(static_cast<size_t>(n), false);
  int round_accepted = 0;
  std::vector<NodeId> parked_pulls;

  // The current version's model payload, materialized at most once per
  // version no matter how many pulls it serves (empty = stale). Under
  // compression the blob is the per-version materialization: encoded once
  // by the service compressor (whose error feedback tracks the model
  // stream), then shared by every pull of that version.
  Compressor* comp = ctx->compressor();
  const uint8_t enc = PayloadEncoding(comp);
  Buffer model_payload;
  auto reply_model = [&](NodeId to) {
    trace->Record(ctx->Now(), TraceEventKind::kPsPull, to,
                  static_cast<int64_t>(versions_));
    if (model_payload.empty()) {
      model_payload = EncodePayload(ep, comp, global_.data(), global_.size());
    }
    // Best-effort: a failed send means the fabric was shut down (hard
    // abort); the server's receive loop observes the closure and drains.
    (void)ep->Send(to, 0, kKindModel, {static_cast<int64_t>(versions_)},
                   model_payload, enc);
  };
  auto bump_version = [&] {
    ++versions_;
    versions_counter->Increment();
    model_payload = Buffer();  // global_ changed; re-materialize lazily
  };
  auto close_round = [&] {
    Scale(1.0f / static_cast<float>(round_accepted), round_sum.data(),
          num_params);
    opt.Step(round_sum.data(), &global_);
    std::memset(round_sum.data(), 0, num_params * sizeof(float));
    round_accepted = 0;
    std::fill(in_round.begin(), in_round.end(), false);
    bump_version();
    for (NodeId w : parked_pulls) reply_model(w);
    parked_pulls.clear();
  };

  std::vector<float> grad;  // the push being applied, decoded
  while (active > 0) {
    std::optional<Envelope> env = ep->RecvAny();
    if (!env.has_value()) break;  // transport shut down
    switch (env->kind) {
      case kKindPull:
        if (in_round[static_cast<size_t>(env->from)]) {
          parked_pulls.push_back(env->from);
        } else {
          reply_model(env->from);
        }
        break;
      case kKindPush: {
        PR_CHECK(DecodePayload(&*env, num_params, &grad).ok());
        const uint64_t pulled = static_cast<uint64_t>(env->ints[0]);
        const uint64_t staleness = versions_ - pulled;
        staleness_hist->Observe(static_cast<double>(staleness));
        const bool dropped = kind == StrategyKind::kPsBackup && staleness > 0;
        trace->Record(ctx->Now(), TraceEventKind::kPsPush, env->from,
                      static_cast<int64_t>(staleness), dropped ? 1 : 0);
        if (env->ints[1] != 0) --active;

        if (kind == StrategyKind::kPsAsp ||
            kind == StrategyKind::kPsHete) {
          // Each push applies one worker's gradient (BSP applies the mean
          // of N per round), so per-push steps carry 1/N of the base rate.
          double scale = 1.0 / static_cast<double>(n);
          if (kind == StrategyKind::kPsHete) {
            scale *= ExcessStalenessLrScale(staleness,
                                            static_cast<size_t>(n));
          }
          opt.Step(grad.data(), &global_, scale);
          bump_version();
          break;
        }

        if (dropped) {
          // Straggler: its gradient targets an old version — dropped (the
          // "backup workers do not contribute" behaviour). Its next pull is
          // served immediately so it rejoins the current round.
          wasted_counter->Increment();
        } else {
          Axpy(1.0f, grad.data(), round_sum.data(), num_params);
          in_round[static_cast<size_t>(env->from)] = true;
          ++round_accepted;
        }
        break;
      }
      default:
        PR_CHECK(false) << "server got unexpected kind " << env->kind;
    }

    // Synchronous round closure, re-evaluated after every message. BSP is
    // lockstep with equal budgets, so every round (including the last) gets
    // exactly N pushes. BK rounds are genuinely partial at the end —
    // departures shrink the pool, so the close threshold is capped by the
    // workers still able to push, otherwise the final rounds would stall.
    if (kind == StrategyKind::kPsBsp && round_accepted == n) {
      close_round();
    } else if (kind == StrategyKind::kPsBackup && round_accepted > 0 &&
               round_accepted >=
                   std::min(accept_count, std::max(active, 1))) {
      close_round();
    }
  }
}

void ThreadedPs::RunWorker(WorkerContext* ctx) {
  const ThreadedRunOptions& run = ctx->run();
  const NodeId server = ctx->service_node();
  Endpoint* ep = ctx->endpoint();
  Compressor* comp = ctx->compressor();
  std::vector<float> params;
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
    PR_CHECK(DecodePayload(&*env, ctx->num_params(), &params).ok());

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
    // Keep the replica in sync with the last pulled model so run-level
    // diagnostics (replica spread) stay meaningful for the PS family too.
    ctx->params().CopyFrom(params);
  }
}

}  // namespace

std::unique_ptr<ThreadedStrategy> MakeThreadedPs(
    const StrategyOptions& options) {
  return std::make_unique<ThreadedPs>(options);
}

}  // namespace pr
