#include "strategies/ad_psgd.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "tensor/ops.h"

namespace pr {

AdPsgdStrategy::AdPsgdStrategy(SimTraining* ctx, CompressionKind compression)
    : ctx_(ctx) {
  PR_CHECK(ctx != nullptr);
  PR_CHECK_GE(ctx->num_workers(), 2);
  comm_busy_.assign(static_cast<size_t>(ctx->num_workers()), 0.0);
  if (compression == CompressionKind::kNone) return;
  for (int w = 0; w < ctx->num_workers(); ++w) {
    compressors_.push_back(std::make_unique<Compressor>(compression));
    compressors_.back()->AttachMetrics(ctx->metrics());
  }
}

void AdPsgdStrategy::Start() {
  for (int w = 0; w < ctx_->num_workers(); ++w) BeginCompute(w);
}

void AdPsgdStrategy::BeginCompute(int worker) {
  ctx_->TakeSnapshot(worker);
  const double d = ctx_->SampleComputeSeconds(worker);
  ctx_->engine()->ScheduleAfter(d, [this, worker] {
    OnGradientReady(worker);
  });
}

void AdPsgdStrategy::OnGradientReady(int worker) {
  // Gradient at the snapshot taken before the (possibly concurrent)
  // averages peers performed on our model.
  auto grad = std::make_shared<std::vector<float>>();
  ctx_->GradientAtSnapshot(worker, grad.get());

  // Uniform random peer, independent of its state.
  int peer = worker;
  while (peer == worker) {
    peer = static_cast<int>(ctx_->rng()->UniformInt(
        static_cast<uint64_t>(ctx_->num_workers())));
  }

  // The atomic average is CPU-staged (host-memory model copies) under the
  // global atomicity lock, and additionally holds both endpoints' channels;
  // conflicting averages queue behind each other.
  const double now = ctx_->engine()->now();
  const double start = std::max(
      {now, atomic_lock_busy_, comm_busy_[static_cast<size_t>(worker)],
       comm_busy_[static_cast<size_t>(peer)]});
  const double done = start + ctx_->cost().AtomicPairAverageSeconds();
  atomic_lock_busy_ = done;
  comm_busy_[static_cast<size_t>(worker)] = done;
  comm_busy_[static_cast<size_t>(peer)] = done;
  ctx_->MarkWaitStart(worker);
  ctx_->engine()->ScheduleAt(done, [this, worker, peer, grad] {
    ctx_->MarkWaitEnd(worker);
    // Atomic average of the two current models (peer may be mid-compute;
    // its in-flight gradient becomes inconsistent — by design), exchanged
    // as on the threaded wire: our model reaches the peer through our
    // codec, the peer folds it in and replies through its own, and we adopt
    // the reply. Without a codec both end at the exact pair average.
    const size_t n = ctx_->num_params();
    auto send = [&](int from, std::vector<float>* model) {
      if (compressors_.empty()) return;
      (void)compressors_[static_cast<size_t>(from)]->EncodeRangePublish(
          model->data(), 0, n);
    };
    std::vector<float>& mine = ctx_->params(worker);
    std::vector<float>& theirs = ctx_->params(peer);
    std::vector<float> request = mine;
    send(worker, &request);
    Scale(0.5f, theirs.data(), n);
    Axpy(0.5f, request.data(), theirs.data(), n);
    mine = theirs;
    send(peer, &mine);
    // Apply our (now slightly stale) gradient to our averaged model.
    ctx_->LocalStep(worker, grad->data());
    ctx_->increment_iteration(worker);
    ctx_->RecordUpdate();
    if (ctx_->stopped()) return;
    BeginCompute(worker);
  });
}

}  // namespace pr
