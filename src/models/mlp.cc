#include "models/mlp.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tensor/ops.h"

namespace pr {

Mlp::Mlp(size_t input_dim, std::vector<size_t> hidden, int num_classes)
    : input_dim_(input_dim), num_classes_(num_classes) {
  PR_CHECK_GE(input_dim, 1u);
  PR_CHECK_GE(num_classes, 2);
  widths_.push_back(input_dim);
  for (size_t h : hidden) {
    PR_CHECK_GE(h, 1u);
    widths_.push_back(h);
  }
  widths_.push_back(static_cast<size_t>(num_classes));

  size_t offset = 0;
  for (size_t l = 0; l + 1 < widths_.size(); ++l) {
    LayerOffsets lo;
    lo.in = widths_[l];
    lo.out = widths_[l + 1];
    lo.w = offset;
    offset += lo.in * lo.out;
    lo.b = offset;
    offset += lo.out;
    layers_.push_back(lo);
  }
  num_params_ = offset;
}

std::string Mlp::Name() const {
  std::ostringstream out;
  if (widths_.size() == 2) {
    out << "softmax-" << input_dim_ << "x" << num_classes_;
    return out.str();
  }
  out << "mlp-" << input_dim_;
  for (size_t l = 1; l + 1 < widths_.size(); ++l) out << "x" << widths_[l];
  out << "x" << num_classes_;
  return out.str();
}

std::vector<LayerExtent> Mlp::LayerLayout() const {
  std::vector<LayerExtent> extents;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const LayerOffsets& lo = layers_[l];
    const std::string idx = std::to_string(l);
    extents.push_back({"W_" + idx, lo.w, lo.in * lo.out});
    extents.push_back({"b_" + idx, lo.b, lo.out});
  }
  return extents;
}

void Mlp::InitParams(std::vector<float>* params, Rng* rng) const {
  PR_CHECK(params != nullptr);
  PR_CHECK(rng != nullptr);
  params->assign(num_params_, 0.0f);
  for (const LayerOffsets& lo : layers_) {
    // He initialization, appropriate for ReLU layers.
    const float stddev = std::sqrt(2.0f / static_cast<float>(lo.in));
    for (size_t i = 0; i < lo.in * lo.out; ++i) {
      (*params)[lo.w + i] = static_cast<float>(rng->Normal(0.0, stddev));
    }
    // Biases start at zero (already assigned).
  }
}

void Mlp::Forward(const float* params, const Tensor& x,
                  std::vector<Tensor>* acts) const {
  PR_CHECK_EQ(x.cols(), input_dim_);
  acts->resize(layers_.size());
  const Tensor* input = &x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const LayerOffsets& lo = layers_[l];
    // Weights are read straight out of the flat parameter span — no Tensor
    // copies of W or b on the hot path.
    MatMulSpan(*input, params + lo.w, lo.in, lo.out, &(*acts)[l]);
    AddBiasRowsSpan(params + lo.b, lo.out, &(*acts)[l]);
    if (l + 1 < layers_.size()) ReluForward(&(*acts)[l]);
    input = &(*acts)[l];
  }
}

float Mlp::LossAndGradient(const float* params, const Tensor& x,
                           const std::vector<int>& y, float* grad) const {
  PR_CHECK(params != nullptr);
  PR_CHECK(grad != nullptr);
  PR_CHECK_EQ(x.rows(), y.size());

  std::vector<Tensor> acts;
  Forward(params, x, &acts);

  Tensor probs;
  SoftmaxRows(acts.back(), &probs);
  Tensor delta;  // gradient w.r.t. current layer's pre-activation output
  const float loss = CrossEntropyFromProbs(probs, y, &delta);

  // Backward pass, last layer to first. Each layer overwrites its own W and
  // b slots, and the slots tile `grad`, so it needs no clearing first.
  for (size_t l = layers_.size(); l-- > 0;) {
    const LayerOffsets& lo = layers_[l];
    const Tensor& input = (l == 0) ? x : acts[l - 1];

    // dW = input^T * delta; db = column sums of delta.
    MatMulTransAInto(input, delta, grad + lo.w);
    std::fill_n(grad + lo.b, lo.out, 0.0f);
    for (size_t r = 0; r < delta.rows(); ++r) {
      Axpy(1.0f, delta.Row(r), grad + lo.b, lo.out);
    }

    if (l > 0) {
      // delta_prev = delta * W^T, masked by ReLU'(acts[l-1]).
      Tensor prev_delta;
      MatMulTransBSpan(delta, params + lo.w, /*n=*/lo.in, /*k=*/lo.out,
                       &prev_delta);
      ReluBackward(acts[l - 1], &prev_delta);
      delta = std::move(prev_delta);
    }
  }
  return loss;
}

void Mlp::Scores(const float* params, const Tensor& x, Tensor* scores) const {
  PR_CHECK(scores != nullptr);
  std::vector<Tensor> acts;
  Forward(params, x, &acts);
  *scores = std::move(acts.back());
}

std::unique_ptr<Mlp> Mlp::SoftmaxRegression(size_t input_dim,
                                            int num_classes) {
  return std::make_unique<Mlp>(input_dim, std::vector<size_t>{}, num_classes);
}

}  // namespace pr
