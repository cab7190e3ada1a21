#include "models/convnet.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "tensor/ops.h"

namespace pr {
namespace {

constexpr int kKernel = 3;
constexpr int kPad = 1;  // same padding for a 3x3 kernel

}  // namespace

ConvNet::ConvNet(size_t channels, size_t height, size_t width,
                 size_t filters, int num_classes)
    : channels_(channels), height_(height), width_(width),
      filters_(filters), num_classes_(num_classes) {
  PR_CHECK_GE(channels, 1u);
  PR_CHECK_GE(height, static_cast<size_t>(kKernel));
  PR_CHECK_GE(width, static_cast<size_t>(kKernel));
  PR_CHECK_GE(filters, 1u);
  PR_CHECK_GE(num_classes, 2);

  conv_w_off_ = 0;
  conv_b_off_ = conv_w_off_ + filters_ * channels_ * kKernel * kKernel;
  dense_w_off_ = conv_b_off_ + filters_;
  dense_b_off_ = dense_w_off_ + filters_ * height_ * width_ *
                                    static_cast<size_t>(num_classes_);
  num_params_ = dense_b_off_ + static_cast<size_t>(num_classes_);
}

std::string ConvNet::Name() const {
  std::ostringstream out;
  out << "convnet-" << channels_ << "x" << height_ << "x" << width_ << "-f"
      << filters_ << "-" << num_classes_;
  return out.str();
}

std::vector<LayerExtent> ConvNet::LayerLayout() const {
  return {
      {"conv_w", conv_w_off_, conv_b_off_ - conv_w_off_},
      {"conv_b", conv_b_off_, dense_w_off_ - conv_b_off_},
      {"dense_w", dense_w_off_, dense_b_off_ - dense_w_off_},
      {"dense_b", dense_b_off_, num_params_ - dense_b_off_},
  };
}

void ConvNet::InitParams(std::vector<float>* params, Rng* rng) const {
  PR_CHECK(params != nullptr);
  PR_CHECK(rng != nullptr);
  params->assign(num_params_, 0.0f);
  // He init for the conv kernel (fan-in = C * 3 * 3) and the dense head.
  const float conv_std =
      std::sqrt(2.0f / static_cast<float>(channels_ * kKernel * kKernel));
  for (size_t i = conv_w_off_; i < conv_b_off_; ++i) {
    (*params)[i] = static_cast<float>(rng->Normal(0.0, conv_std));
  }
  const float dense_std =
      std::sqrt(2.0f / static_cast<float>(filters_ * height_ * width_));
  for (size_t i = dense_w_off_; i < dense_b_off_; ++i) {
    (*params)[i] = static_cast<float>(rng->Normal(0.0, dense_std));
  }
}

void ConvNet::Forward(const float* params, const Tensor& x, Tensor* features,
                      Tensor* logits) const {
  PR_CHECK_EQ(x.cols(), input_dim());
  const size_t batch = x.rows();
  const size_t hw = height_ * width_;
  const size_t feat_dim = filters_ * hw;
  *features = Tensor(batch, feat_dim);

  const float* cw = params + conv_w_off_;
  const float* cb = params + conv_b_off_;

  const int ih = static_cast<int>(height_);
  const int iw = static_cast<int>(width_);
  for (size_t b = 0; b < batch; ++b) {
    const float* in = x.Row(b);
    float* out = features->Row(b);
    for (size_t f = 0; f < filters_; ++f) {
      for (int y = 0; y < ih; ++y) {
        for (int xo = 0; xo < iw; ++xo) {
          float acc = cb[f];
          for (size_t c = 0; c < channels_; ++c) {
            const float* w = cw + (f * channels_ + c) * kKernel * kKernel;
            const float* plane = in + c * hw;
            for (int dy = 0; dy < kKernel; ++dy) {
              const int sy = y + dy - kPad;
              if (sy < 0 || sy >= ih) continue;
              for (int dx = 0; dx < kKernel; ++dx) {
                const int sx = xo + dx - kPad;
                if (sx < 0 || sx >= iw) continue;
                acc += w[dy * kKernel + dx] * plane[sy * iw + sx];
              }
            }
          }
          // ReLU fused into the feature map.
          out[f * hw + static_cast<size_t>(y * iw + xo)] =
              acc > 0.0f ? acc : 0.0f;
        }
      }
    }
  }

  // Dense head over the flattened feature maps, reading W and b straight
  // from the flat parameter span.
  MatMulSpan(*features, params + dense_w_off_, feat_dim,
             static_cast<size_t>(num_classes_), logits);
  AddBiasRowsSpan(params + dense_b_off_, static_cast<size_t>(num_classes_),
                  logits);
}

float ConvNet::LossAndGradient(const float* params, const Tensor& x,
                               const std::vector<int>& y,
                               float* grad) const {
  PR_CHECK(params != nullptr);
  PR_CHECK(grad != nullptr);
  PR_CHECK_EQ(x.rows(), y.size());

  Tensor features, logits;
  Forward(params, x, &features, &logits);

  Tensor probs;
  SoftmaxRows(logits, &probs);
  Tensor dlogits;
  const float loss = CrossEntropyFromProbs(probs, y, &dlogits);

  std::memset(grad, 0, num_params_ * sizeof(float));
  const size_t batch = x.rows();
  const size_t hw = height_ * width_;
  const size_t feat_dim = filters_ * hw;

  // Dense head gradients: dW = features^T * dlogits, db = col sums.
  MatMulTransAInto(features, dlogits, grad + dense_w_off_);
  for (size_t r = 0; r < batch; ++r) {
    Axpy(1.0f, dlogits.Row(r), grad + dense_b_off_,
         static_cast<size_t>(num_classes_));
  }

  // Back through the dense layer into the feature maps, masked by ReLU.
  Tensor dfeat;
  MatMulTransBSpan(dlogits, params + dense_w_off_, /*n=*/feat_dim,
                   /*k=*/static_cast<size_t>(num_classes_), &dfeat);
  ReluBackward(features, &dfeat);

  // Conv gradients.
  const int ih = static_cast<int>(height_);
  const int iw = static_cast<int>(width_);
  float* gcw = grad + conv_w_off_;
  float* gcb = grad + conv_b_off_;
  for (size_t b = 0; b < batch; ++b) {
    const float* in = x.Row(b);
    const float* df = dfeat.Row(b);
    for (size_t f = 0; f < filters_; ++f) {
      for (int y = 0; y < ih; ++y) {
        for (int xo = 0; xo < iw; ++xo) {
          const float g = df[f * hw + static_cast<size_t>(y * iw + xo)];
          if (g == 0.0f) continue;
          gcb[f] += g;
          for (size_t c = 0; c < channels_; ++c) {
            float* gw = gcw + (f * channels_ + c) * kKernel * kKernel;
            const float* plane = in + c * hw;
            for (int dy = 0; dy < kKernel; ++dy) {
              const int sy = y + dy - kPad;
              if (sy < 0 || sy >= ih) continue;
              for (int dx = 0; dx < kKernel; ++dx) {
                const int sx = xo + dx - kPad;
                if (sx < 0 || sx >= iw) continue;
                gw[dy * kKernel + dx] += g * plane[sy * iw + sx];
              }
            }
          }
        }
      }
    }
  }
  return loss;
}

void ConvNet::Scores(const float* params, const Tensor& x,
                     Tensor* scores) const {
  PR_CHECK(scores != nullptr);
  Tensor features;
  Forward(params, x, &features, scores);
}

}  // namespace pr
