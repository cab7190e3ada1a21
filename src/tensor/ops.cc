#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"

namespace pr {
namespace {

// Row-major storage of an [rows, cols] matrix, read as is or transposed.
gemm::StridedMatrix RowMajor(const float* data, size_t cols) {
  return {data, cols, 1};
}
gemm::StridedMatrix Transposed(const float* data, size_t cols) {
  return {data, 1, cols};
}

}  // namespace

void MatMul(const Tensor& a, const Tensor& b, Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK_EQ(a.rank(), 2u);
  PR_CHECK_EQ(b.rank(), 2u);
  PR_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  *out = Tensor(m, n);
  gemm::Gemm(m, n, k, RowMajor(a.data(), k), RowMajor(b.data(), n),
             out->data());
}

void MatMulTransB(const Tensor& a, const Tensor& b, Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK_EQ(a.rank(), 2u);
  PR_CHECK_EQ(b.rank(), 2u);
  PR_CHECK_EQ(a.cols(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  *out = Tensor(m, n);
  gemm::Gemm(m, n, k, RowMajor(a.data(), k), Transposed(b.data(), k),
             out->data());
}

void MatMulTransA(const Tensor& a, const Tensor& b, Tensor* out) {
  PR_CHECK(out != nullptr);
  *out = Tensor(a.cols(), b.cols());
  MatMulTransAInto(a, b, out->data());
}

void MatMulTransAInto(const Tensor& a, const Tensor& b, float* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK_EQ(a.rank(), 2u);
  PR_CHECK_EQ(b.rank(), 2u);
  PR_CHECK_EQ(a.rows(), b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  gemm::Gemm(m, n, k, Transposed(a.data(), m), RowMajor(b.data(), n), out);
}

void MatMulSpan(const Tensor& a, const float* b, size_t k, size_t n,
                Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK(b != nullptr);
  PR_CHECK_EQ(a.rank(), 2u);
  PR_CHECK_EQ(a.cols(), k);
  const size_t m = a.rows();
  *out = Tensor(m, n);
  gemm::Gemm(m, n, k, RowMajor(a.data(), k), RowMajor(b, n), out->data());
}

void MatMulTransBSpan(const Tensor& a, const float* b, size_t n, size_t k,
                      Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK(b != nullptr);
  PR_CHECK_EQ(a.rank(), 2u);
  PR_CHECK_EQ(a.cols(), k);
  const size_t m = a.rows();
  *out = Tensor(m, n);
  gemm::Gemm(m, n, k, RowMajor(a.data(), k), Transposed(b, k), out->data());
}

void AddBiasRowsSpan(const float* bias, size_t n, Tensor* m) {
  PR_CHECK(m != nullptr);
  PR_CHECK(bias != nullptr);
  PR_CHECK_EQ(m->rank(), 2u);
  PR_CHECK_EQ(m->cols(), n);
  for (size_t r = 0; r < m->rows(); ++r) {
    Axpy(1.0f, bias, m->Row(r), n);
  }
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

float Dot(const float* x, const float* y, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

float Norm2(const float* x, size_t n) {
  // Accumulate in double: gradient norms feed convergence diagnostics and
  // float accumulation loses precision past ~1e7 elements.
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
  return static_cast<float>(std::sqrt(s));
}

void AddBiasRows(const Tensor& bias, Tensor* m) {
  PR_CHECK(m != nullptr);
  PR_CHECK_EQ(bias.rank(), 1u);
  PR_CHECK_EQ(m->rank(), 2u);
  PR_CHECK_EQ(bias.size(), m->cols());
  for (size_t r = 0; r < m->rows(); ++r) {
    Axpy(1.0f, bias.data(), m->Row(r), m->cols());
  }
}

void ReluForward(Tensor* t) {
  PR_CHECK(t != nullptr);
  float* p = t->data();
  for (size_t i = 0; i < t->size(); ++i) p[i] = std::max(p[i], 0.0f);
}

void ReluBackward(const Tensor& activation, Tensor* grad) {
  PR_CHECK(grad != nullptr);
  PR_CHECK(activation.SameShape(*grad));
  const float* a = activation.data();
  float* g = grad->data();
  for (size_t i = 0; i < grad->size(); ++i) {
    if (a[i] <= 0.0f) g[i] = 0.0f;
  }
}

void SoftmaxRows(const Tensor& logits, Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK_EQ(logits.rank(), 2u);
  *out = Tensor(logits.rows(), logits.cols());
  const size_t n = logits.cols();
  for (size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.Row(r);
    float* o = out->Row(r);
    float mx = in[0];
    for (size_t j = 1; j < n; ++j) mx = std::max(mx, in[j]);
    float sum = 0.0f;
    for (size_t j = 0; j < n; ++j) {
      o[j] = std::exp(in[j] - mx);
      sum += o[j];
    }
    const float inv = 1.0f / sum;
    for (size_t j = 0; j < n; ++j) o[j] *= inv;
  }
}

float CrossEntropyFromProbs(const Tensor& probs,
                            const std::vector<int>& labels,
                            Tensor* grad_logits) {
  PR_CHECK_EQ(probs.rank(), 2u);
  PR_CHECK_EQ(probs.rows(), labels.size());
  const size_t batch = probs.rows();
  const size_t classes = probs.cols();
  constexpr float kEps = 1e-12f;
  double loss = 0.0;
  if (grad_logits != nullptr) *grad_logits = Tensor(batch, classes);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (size_t r = 0; r < batch; ++r) {
    const int label = labels[r];
    PR_CHECK_GE(label, 0);
    PR_CHECK_LT(static_cast<size_t>(label), classes);
    const float* p = probs.Row(r);
    loss -= std::log(static_cast<double>(p[label]) + kEps);
    if (grad_logits != nullptr) {
      float* g = grad_logits->Row(r);
      for (size_t j = 0; j < classes; ++j) g[j] = p[j] * inv_batch;
      g[label] -= inv_batch;
    }
  }
  return static_cast<float>(loss / static_cast<double>(batch));
}

std::vector<int> ArgmaxRows(const Tensor& scores) {
  PR_CHECK_EQ(scores.rank(), 2u);
  std::vector<int> out(scores.rows());
  for (size_t r = 0; r < scores.rows(); ++r) {
    const float* row = scores.Row(r);
    int best = 0;
    for (size_t j = 1; j < scores.cols(); ++j) {
      if (row[j] > row[best]) best = static_cast<int>(j);
    }
    out[r] = best;
  }
  return out;
}

}  // namespace pr
