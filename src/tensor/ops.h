#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace pr {

/// Free-function kernels over Tensors and raw float spans. These are the
/// only numeric primitives the model zoo uses, so correctness tests here
/// cover the whole math substrate.
///
/// The matrix products share one kernel (tensor/gemm.h): each output
/// element sums A(i,p)*B(p,j) over ascending p in one float accumulator,
/// rounding every product before its add, so the results are the same bits
/// on every CPU the library runs on.

/// out = A * B for matrices A [m,k] and B [k,n]. `out` is resized/overwritten.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out);

/// out = A * B^T for matrices A [m,k] and B [n,k].
void MatMulTransB(const Tensor& a, const Tensor& b, Tensor* out);

/// out = A^T * B for matrices A [k,m] and B [k,n].
void MatMulTransA(const Tensor& a, const Tensor& b, Tensor* out);

/// MatMulTransA written into a raw row-major span [m, n], such as a weight's
/// slot in a flat gradient vector. Every element is overwritten; `out` must
/// not overlap A or B.
void MatMulTransAInto(const Tensor& a, const Tensor& b, float* out);

/// out = A * B where B is a raw row-major span [k, n]. This is the
/// zero-copy path for weights living inside a flat parameter arena: the
/// model never materializes a Tensor copy of the matrix it multiplies by.
void MatMulSpan(const Tensor& a, const float* b, size_t k, size_t n,
                Tensor* out);

/// out = A * B^T where B is a raw row-major span [n, k].
void MatMulTransBSpan(const Tensor& a, const float* b, size_t n, size_t k,
                      Tensor* out);

/// Adds a raw bias span [n] to every row of matrix `m` [rows, n].
void AddBiasRowsSpan(const float* bias, size_t n, Tensor* m);

/// y += alpha * x over raw spans of length n.
void Axpy(float alpha, const float* x, float* y, size_t n);

/// x *= alpha over a raw span of length n.
void Scale(float alpha, float* x, size_t n);

/// Returns the dot product of two spans of length n.
float Dot(const float* x, const float* y, size_t n);

/// Returns the L2 norm of a span of length n.
float Norm2(const float* x, size_t n);

/// Adds row vector `bias` [n] to every row of matrix `m` [rows, n].
void AddBiasRows(const Tensor& bias, Tensor* m);

/// In-place ReLU over all elements.
void ReluForward(Tensor* t);

/// grad *= 1[activation > 0], elementwise; backward of ReLU where
/// `activation` holds the *post*-activation values.
void ReluBackward(const Tensor& activation, Tensor* grad);

/// Row-wise softmax of logits [batch, classes], written into `out`.
void SoftmaxRows(const Tensor& logits, Tensor* out);

/// Mean cross-entropy loss of row-softmax `probs` [batch, classes] against
/// integer labels, and (optionally) the gradient w.r.t. logits
/// (= (probs - onehot)/batch) into `grad_logits`.
float CrossEntropyFromProbs(const Tensor& probs,
                            const std::vector<int>& labels,
                            Tensor* grad_logits);

/// Returns the argmax class per row of `scores` [batch, classes].
std::vector<int> ArgmaxRows(const Tensor& scores);

}  // namespace pr
