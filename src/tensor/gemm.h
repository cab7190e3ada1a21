#pragma once

// The one matrix-product kernel behind the products in tensor/ops.h.
// Internal to pr_tensor: callers use ops.h; tests include this header to run
// each vector width directly.

#include <cstddef>

namespace pr::gemm {

/// A read-only matrix view: element (r, c) is
/// `data[r * row_stride + c * col_stride]`. Row-major storage has
/// col_stride 1; swapping the strides reads the same storage transposed.
struct StridedMatrix {
  const float* data;
  size_t row_stride;
  size_t col_stride;
};

/// c = A·B into dense row-major c [m, n], for A [m, k] and B [k, n].
/// Every element of c is written. c must not overlap A or B.
///
/// Bitwise contract: c[i, j] is the sum over p = 0..k-1, in ascending order,
/// of A(i, p)·B(p, j) in one float accumulator that starts at zero, with each
/// product rounded before its add (no fused multiply-add). For finite inputs
/// the result is identical for every width and every shape blocking.
///
/// Gemm runs the widest kernel this CPU supports, chosen once per process.
void Gemm(size_t m, size_t n, size_t k, StridedMatrix a, StridedMatrix b,
          float* c);

/// The 4-float-wide kernel: baseline x86-64 (SSE2) and every other target.
void GemmFourWide(size_t m, size_t n, size_t k, StridedMatrix a,
                  StridedMatrix b, float* c);

/// True when this CPU can run GemmEightWide (x86 with AVX2).
bool HasEightWide();

/// The 8-float-wide kernel, compiled for AVX2. Requires HasEightWide().
void GemmEightWide(size_t m, size_t n, size_t k, StridedMatrix a,
                   StridedMatrix b, float* c);

}  // namespace pr::gemm
