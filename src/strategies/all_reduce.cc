#include "strategies/all_reduce.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace pr {

AllReduceStrategy::AllReduceStrategy(SimTraining* ctx,
                                     CompressionKind compression)
    : ctx_(ctx), compression_(compression) {
  PR_CHECK(ctx != nullptr);
  grads_.resize(static_cast<size_t>(ctx->num_workers()));
  if (compression != CompressionKind::kNone) {
    // No AttachMetrics here: RecordReduceTraffic models the compress.*
    // instruments analytically (attaching too would double-count).
    compressors_.reserve(static_cast<size_t>(ctx->num_workers()));
    for (int w = 0; w < ctx->num_workers(); ++w) {
      compressors_.push_back(std::make_unique<Compressor>(compression));
    }
  }
}

void AllReduceStrategy::Start() {
  for (int w = 0; w < ctx_->num_workers(); ++w) BeginCompute(w);
}

void AllReduceStrategy::BeginCompute(int worker) {
  ctx_->TakeSnapshot(worker);
  const double d = ctx_->SampleComputeSeconds(worker);
  ctx_->RecordActivity(worker, WorkerActivity::kCompute,
                       ctx_->engine()->now(), ctx_->engine()->now() + d);
  ctx_->engine()->ScheduleAfter(d, [this, worker] {
    OnGradientReady(worker);
  });
}

void AllReduceStrategy::OnGradientReady(int worker) {
  ctx_->GradientAtSnapshot(worker, &grads_[static_cast<size_t>(worker)]);
  // Wait at the barrier until the slowest worker arrives.
  ctx_->MarkWaitStart(worker);
  if (++ready_count_ < ctx_->num_workers()) return;

  // Barrier released: the collective runs now. AR aggregates gradients, so
  // bucketed overlap with backward computation (when configured) hides part
  // of the cost.
  ready_count_ = 0;
  for (int w = 0; w < ctx_->num_workers(); ++w) ctx_->MarkWaitEnd(w);
  const double reduce = ctx_->cost().ExposedGradientCommSeconds(
      ctx_->cost().RingAllReduceSeconds(ctx_->num_workers()));
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    ctx_->RecordActivity(w, WorkerActivity::kComm, ctx_->engine()->now(),
                         ctx_->engine()->now() + reduce);
  }
  ctx_->engine()->ScheduleAfter(reduce, [this] { OnReduceDone(); });
}

void AllReduceStrategy::OnReduceDone() {
  // Average gradients; every replica applies the identical step, so all
  // replicas (and their momentum buffers) stay bitwise equal.
  const size_t n = ctx_->num_params();
  if (!compressors_.empty()) {
    // Compression emulation: each worker's gradient passes through its own
    // lossy codec + error feedback before the average.
    for (size_t i = 0; i < grads_.size(); ++i) {
      (void)compressors_[i]->EncodeRangePublish(grads_[i].data(), 0, n);
    }
  }
  std::vector<float> avg(n, 0.0f);
  const float w = 1.0f / static_cast<float>(ctx_->num_workers());
  for (const auto& g : grads_) Axpy(w, g.data(), avg.data(), n);
  for (int i = 0; i < ctx_->num_workers(); ++i) {
    ctx_->LocalStep(i, avg.data());
    ctx_->increment_iteration(i);
  }
  ctx_->RecordReduceTraffic(static_cast<size_t>(ctx_->num_workers()),
                            compression_);
  ctx_->RecordUpdate();
  if (ctx_->stopped()) return;
  const size_t k = static_cast<size_t>(ctx_->iteration(0));
  ctx_->CutCheckpoint(0, ctx_->iteration(0), k, nullptr, /*barrier=*/true);
  for (int i = 0; i < ctx_->num_workers(); ++i) BeginCompute(i);
}

}  // namespace pr
