// Bitwise contract of the matrix products: every output element is the sum
// over p, in ascending order, of A(i,p)·B(p,j) in one float accumulator, a
// multiply then an add. The reference below is that loop written out, and
// the comparison is on bytes, so any reordering, blocking of p, fused
// multiply-add or skipped term shows up as a failure.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace pr {
namespace {

constexpr size_t kDepths[] = {1, 7, 64, 256};

// Normal draws with about half the entries exactly zero.
Tensor HalfZeros(size_t rows, size_t cols, Rng* rng) {
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng->Uniform() < 0.5 ? 0.0f
                                       : static_cast<float>(rng->Normal());
  }
  return t;
}

Tensor Normals(size_t rows, size_t cols, Rng* rng) {
  Tensor t(rows, cols);
  t.FillNormal(rng, 1.0f);
  return t;
}

// C[i,j] = Σ_p A(i,p)·B(p,j), p ascending, one accumulator. `a_t` and `b_t`
// say the operand is stored transposed: A as [k,m], B as [n,k].
Tensor Reference(const Tensor& a, bool a_t, const Tensor& b, bool b_t,
                 size_t m, size_t n, size_t k) {
  Tensor c(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float av = a_t ? a.At(p, i) : a.At(i, p);
        const float bv = b_t ? b.At(j, p) : b.At(p, j);
        acc += av * bv;
      }
      c.At(i, j) = acc;
    }
  }
  return c;
}

void ExpectSameBytes(const Tensor& want, const Tensor& got, const char* what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(want.data() + i, got.data() + i, sizeof(float)), 0)
        << what << ": element " << i << " is " << got.data()[i]
        << ", reference " << want.data()[i];
  }
}

class GemmContractTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(GemmContractTest, PublicProductsMatchReferenceBitwise) {
  const auto [m, n] = GetParam();
  for (size_t k : kDepths) {
    SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
    Rng rng(1000 * m + 10 * n + k);
    const Tensor a = HalfZeros(m, k, &rng);      // [m,k]
    const Tensor a_t = HalfZeros(k, m, &rng);    // [k,m]
    const Tensor b = Normals(k, n, &rng);        // [k,n]
    const Tensor b_t = Normals(n, k, &rng);      // [n,k]
    const Tensor nn = Reference(a, false, b, false, m, n, k);
    const Tensor nt = Reference(a, false, b_t, true, m, n, k);
    const Tensor tn = Reference(a_t, true, b, false, m, n, k);

    Tensor out;
    MatMul(a, b, &out);
    ExpectSameBytes(nn, out, "MatMul");
    MatMulSpan(a, b.data(), k, n, &out);
    ExpectSameBytes(nn, out, "MatMulSpan");
    MatMulTransB(a, b_t, &out);
    ExpectSameBytes(nt, out, "MatMulTransB");
    MatMulTransBSpan(a, b_t.data(), n, k, &out);
    ExpectSameBytes(nt, out, "MatMulTransBSpan");
    MatMulTransA(a_t, b, &out);
    ExpectSameBytes(tn, out, "MatMulTransA");
    out = Tensor(m, n);
    out.Fill(-1.0f);  // every element must be overwritten
    MatMulTransAInto(a_t, b, out.data());
    ExpectSameBytes(tn, out, "MatMulTransAInto");
  }
}

using Kernel = void (*)(size_t, size_t, size_t, gemm::StridedMatrix,
                        gemm::StridedMatrix, float*);

// Runs `kernel` on the NN, NT and TN layouts against the reference.
void ExpectKernelMatchesReference(Kernel kernel, size_t m, size_t n) {
  for (size_t k : kDepths) {
    SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
    Rng rng(7000 * m + 30 * n + k);
    const Tensor a = HalfZeros(m, k, &rng);
    const Tensor a_t = HalfZeros(k, m, &rng);
    const Tensor b = Normals(k, n, &rng);
    const Tensor b_t = Normals(n, k, &rng);
    Tensor out(m, n);
    out.Fill(-1.0f);
    kernel(m, n, k, {a.data(), k, 1}, {b.data(), n, 1}, out.data());
    ExpectSameBytes(Reference(a, false, b, false, m, n, k), out, "NN");
    out.Fill(-1.0f);
    kernel(m, n, k, {a.data(), k, 1}, {b_t.data(), 1, k}, out.data());
    ExpectSameBytes(Reference(a, false, b_t, true, m, n, k), out, "NT");
    out.Fill(-1.0f);
    kernel(m, n, k, {a_t.data(), 1, m}, {b.data(), n, 1}, out.data());
    ExpectSameBytes(Reference(a_t, true, b, false, m, n, k), out, "TN");
  }
}

TEST_P(GemmContractTest, FourWideKernelMatchesReferenceBitwise) {
  const auto [m, n] = GetParam();
  ExpectKernelMatchesReference(&gemm::GemmFourWide, m, n);
}

TEST_P(GemmContractTest, EightWideKernelMatchesReferenceBitwise) {
  if (!gemm::HasEightWide()) GTEST_SKIP() << "CPU has no AVX2";
  const auto [m, n] = GetParam();
  ExpectKernelMatchesReference(&gemm::GemmEightWide, m, n);
}

INSTANTIATE_TEST_SUITE_P(
    TileRemainders, GemmContractTest,
    ::testing::Combine(::testing::Values<size_t>(1, 3, 4, 5, 17, 64),
                       ::testing::Values<size_t>(1, 10, 15, 16, 17, 33, 256)));

}  // namespace
}  // namespace pr
