#include "strategies/server_strategy.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pr {

ServerStrategy::ServerStrategy(SimTraining* ctx,
                               const StrategyOptions& options)
    : ctx_(ctx),
      collective_(options.kind == StrategyKind::kEagerReduce),
      core_(options, ctx->num_workers(), ctx->params(0), ctx->run().sgd,
            {ctx->metrics(), ctx->trace(),
             [ctx] { return ctx->engine()->now(); }}),
      envs_(static_cast<size_t>(ctx->num_workers())),
      grads_(static_cast<size_t>(ctx->num_workers())) {
  ctx_->SetEvalProvider([this] { return core_.model().data(); });
  if (options.compression == CompressionKind::kNone) return;
  for (int w = 0; w < ctx->num_workers(); ++w) {
    compressors_.push_back(std::make_unique<Compressor>(options.compression));
    compressors_.back()->AttachMetrics(ctx->metrics());
  }
  server_compressor_ = std::make_unique<Compressor>(options.compression);
  server_compressor_->AttachMetrics(ctx->metrics());
}

void ServerStrategy::Start() {
  for (int w = 0; w < ctx_->num_workers(); ++w) SendPull(w);
}

void ServerStrategy::SendPull(int worker) {
  const bool parks = core_.InRound(worker);
  if (parks || collective_) {
    Apply(core_.Pull(worker));
    if (parks) {
      envs_[static_cast<size_t>(worker)].waiting = true;
      ctx_->MarkWaitStart(worker);
    }
    return;
  }
  const double now = ctx_->engine()->now();
  const double start = std::max(now, link_.busy_until());
  envs_[static_cast<size_t>(worker)].slot =
      link_.Acquire(now, ctx_->cost().PsTransferSeconds());
  ctx_->engine()->ScheduleAt(
      start, [this, worker] { Apply(core_.Pull(worker)); });
}

void ServerStrategy::Apply(const ServerActions& actions) {
  if (core_.version() != recorded_version_) {
    recorded_version_ = core_.version();
    ctx_->RecordUpdate();
  }
  if (ctx_->stopped()) return;
  for (const ServerAction& a : actions) {
    if (a.kind == ServerAction::Kind::kRoundReady) {
      if (!collective_) {
        // BSP/BK: the server's own average ends at once.
        Apply(core_.EndRound(ctx_->CurrentLr()));
        continue;
      }
      const double reduce = ctx_->cost().ExposedGradientCommSeconds(
          ctx_->cost().RingAllReduceSeconds(ctx_->num_workers()));
      ctx_->engine()->ScheduleAfter(reduce, [this] {
        Apply(core_.EndRound(ctx_->CurrentLr()));
      });
      continue;
    }
    PR_CHECK_EQ(a.version, core_.version());
    WorkerEnv& env = envs_[static_cast<size_t>(a.worker)];
    if (env.waiting) {
      env.waiting = false;
      ctx_->MarkWaitEnd(a.worker);
    }
    env.version = a.version;
    // The reply carries the model as the server holds it now.
    ctx_->params(a.worker) = Published();
    if (collective_) {
      OnModel(a.worker);
      continue;
    }
    const double done =
        env.slot.has_value()
            ? *std::exchange(env.slot, std::nullopt)
            : link_.Acquire(ctx_->engine()->now(),
                            ctx_->cost().PsTransferSeconds());
    const int w = a.worker;
    ctx_->engine()->ScheduleAt(done, [this, w] { OnModel(w); });
  }
}

void ServerStrategy::OnModel(int worker) {
  WorkerEnv& env = envs_[static_cast<size_t>(worker)];
  if (core_.Superseded(env.version)) {
    SendPull(worker);
    return;
  }
  env.computing = true;
  const uint64_t epoch = env.epoch;
  const double d = ctx_->SampleComputeSeconds(worker);
  ctx_->engine()->ScheduleAfter(
      d, [this, worker, epoch] { OnComputeDone(worker, epoch); });
}

void ServerStrategy::OnComputeDone(int worker, uint64_t epoch) {
  WorkerEnv& env = envs_[static_cast<size_t>(worker)];
  if (epoch != env.epoch) return;  // cancelled; the worker re-pulled
  env.computing = false;
  std::vector<float>& grad = grads_[static_cast<size_t>(worker)];
  ctx_->GradientAt(worker, ctx_->params(worker).data(), &grad);
  if (!compressors_.empty()) {
    (void)compressors_[static_cast<size_t>(worker)]->EncodeRangePublish(
        grad.data(), 0, grad.size());
  }
  if (collective_) {
    OnPushArrived(worker);
    return;
  }
  // Gradient push: bucketed overlap (when configured) hides part of it.
  const double done =
      link_.Acquire(ctx_->engine()->now(),
                    ctx_->cost().ExposedGradientCommSeconds(
                        ctx_->cost().PsTransferSeconds()));
  ctx_->engine()->ScheduleAt(done, [this, worker] { OnPushArrived(worker); });
}

void ServerStrategy::OnPushArrived(int worker) {
  ctx_->increment_iteration(worker);
  const size_t w = static_cast<size_t>(worker);
  const ServerActions actions =
      core_.Push(worker, envs_[w].version, grads_[w].data(),
                 /*last=*/false, ctx_->CurrentLr());
  // The next pull leaves with the push, so a pusher that completed a round
  // parks in it and is answered in worker order with the others.
  SendPull(worker);
  Apply(actions);
  if (ctx_->stopped()) return;
  // A BK round close dooms the computes still running on the old version:
  // they stop and re-pull rather than finish a gradient the server drops.
  for (int i = 0; i < ctx_->num_workers(); ++i) {
    WorkerEnv& env = envs_[static_cast<size_t>(i)];
    if (!env.computing || !core_.Superseded(env.version)) continue;
    ++env.epoch;
    env.computing = false;
    SendPull(i);
  }
}

const std::vector<float>& ServerStrategy::Published() {
  if (server_compressor_ == nullptr) return core_.model();
  if (published_version_ != core_.version()) {
    published_ = core_.model();
    (void)server_compressor_->EncodeRangePublish(published_.data(), 0,
                                                 published_.size());
    published_version_ = core_.version();
  }
  return published_;
}

}  // namespace pr
