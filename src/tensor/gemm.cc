#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"

// The kernel is one template instantiated at two vector widths. It packs a
// k × 2W panel of B (W floats per vector) into a per-thread buffer, so every
// layout of B is read contiguously, then sweeps A four rows at a time with a
// 4 × 2-vector register tile: each step over p loads two panel vectors,
// broadcasts four entries of A and does eight multiplies and eight adds.
//
// Each accumulator lane belongs to one output element and adds its products
// in ascending p, so the result does not depend on the width or the tiling.
// The library compiles this file with -ffp-contract=off and the 8-wide
// target enables AVX2 but not FMA, so no multiply and add are ever fused.
//
// The accumulators are named scalars of concrete vector types, not arrays
// and not a vector_size computed from a template argument: GCC keeps the
// former in registers and may silently turn the latter into scalar code.
// Vectors move through memory with std::memcpy, which compiles to unaligned
// vector loads and stores.

#if defined(__x86_64__) || defined(__i386__)
#define PR_GEMM_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define PR_GEMM_TARGET_AVX2
#endif

// Every helper is always inlined, so the 8-wide instantiation is compiled
// inside GemmAvx2 under its AVX2 target, at every optimization level.
#define PR_GEMM_INLINE inline __attribute__((always_inline))

namespace pr::gemm {
namespace {

typedef float Vec4 __attribute__((vector_size(16)));
typedef float Vec8 __attribute__((vector_size(32)));

// Reused across calls; each thread packs into its own.
std::vector<float>& PackBuffer() {
  thread_local std::vector<float> buffer;
  return buffer;
}

// Copies columns [j0, j0 + cols) of B, rows 0..k-1, into `panel` as k rows of
// kPanel floats, zero-filling the columns past `cols`.
template <size_t kPanel>
PR_GEMM_INLINE void PackPanel(StridedMatrix b, size_t k, size_t j0,
                              size_t cols, float* panel) {
  for (size_t p = 0; p < k; ++p) {
    const float* src = b.data + p * b.row_stride + j0 * b.col_stride;
    float* dst = panel + p * kPanel;
    for (size_t j = 0; j < kPanel; ++j) {
      dst[j] = j < cols ? src[j * b.col_stride] : 0.0f;
    }
  }
}

// Writes the first `cols` lanes of lo:hi to c.
template <typename V>
PR_GEMM_INLINE void StoreRow(const V& lo, const V& hi, size_t cols, float* c) {
  constexpr size_t kW = sizeof(V) / sizeof(float);
  if (cols == 2 * kW) {
    std::memcpy(c, &lo, sizeof(V));
    std::memcpy(c + kW, &hi, sizeof(V));
    return;
  }
  // Lane by lane with constant indices, so the lanes are extracted from the
  // registers rather than spilled and reloaded.
#pragma GCC unroll 16
  for (size_t j = 0; j < kW; ++j) {
    if (j < cols) c[j] = lo[j];
  }
#pragma GCC unroll 16
  for (size_t j = 0; j < kW; ++j) {
    if (kW + j < cols) c[kW + j] = hi[j];
  }
}

// c[0..kRows, 0..cols) = A[0..kRows, 0..k) · panel, for the kRows rows of A
// starting at `a` and a packed panel of k rows of 2W floats.
template <typename V, int kRows>
PR_GEMM_INLINE void Tile(const float* a, size_t a_rs, size_t a_cs,
                         const float* panel, size_t k, float* c, size_t ldc,
                         size_t cols) {
  constexpr size_t kW = sizeof(V) / sizeof(float);
  V c00 = {}, c01 = {}, c10 = {}, c11 = {};
  V c20 = {}, c21 = {}, c30 = {}, c31 = {};
  for (size_t p = 0; p < k; ++p) {
    V b0, b1;
    std::memcpy(&b0, panel + p * 2 * kW, sizeof(V));
    std::memcpy(&b1, panel + p * 2 * kW + kW, sizeof(V));
    const float* ap = a + p * a_cs;
    const float a0 = ap[0];
    c00 += a0 * b0;
    c01 += a0 * b1;
    if constexpr (kRows > 1) {
      const float a1 = ap[a_rs];
      c10 += a1 * b0;
      c11 += a1 * b1;
    }
    if constexpr (kRows > 2) {
      const float a2 = ap[2 * a_rs];
      c20 += a2 * b0;
      c21 += a2 * b1;
    }
    if constexpr (kRows > 3) {
      const float a3 = ap[3 * a_rs];
      c30 += a3 * b0;
      c31 += a3 * b1;
    }
  }
  StoreRow(c00, c01, cols, c);
  if constexpr (kRows > 1) StoreRow(c10, c11, cols, c + ldc);
  if constexpr (kRows > 2) StoreRow(c20, c21, cols, c + 2 * ldc);
  if constexpr (kRows > 3) StoreRow(c30, c31, cols, c + 3 * ldc);
}

template <typename V>
PR_GEMM_INLINE void GemmBody(size_t m, size_t n, size_t k, StridedMatrix a,
                             StridedMatrix b, float* c) {
  constexpr size_t kPanel = 2 * (sizeof(V) / sizeof(float));
  std::vector<float>& buffer = PackBuffer();
  // Only grow: resizing down and back up would zero-fill the regrown part.
  if (buffer.size() < k * kPanel) buffer.resize(k * kPanel);
  const float* panel = buffer.data();
  for (size_t j0 = 0; j0 < n; j0 += kPanel) {
    const size_t cols = std::min(kPanel, n - j0);
    PackPanel<kPanel>(b, k, j0, cols, buffer.data());
    float* cj = c + j0;
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      Tile<V, 4>(a.data + i * a.row_stride, a.row_stride, a.col_stride, panel,
                 k, cj + i * n, n, cols);
    }
    const float* ai = a.data + i * a.row_stride;
    switch (m - i) {
      case 3:
        Tile<V, 3>(ai, a.row_stride, a.col_stride, panel, k, cj + i * n, n,
                   cols);
        break;
      case 2:
        Tile<V, 2>(ai, a.row_stride, a.col_stride, panel, k, cj + i * n, n,
                   cols);
        break;
      case 1:
        Tile<V, 1>(ai, a.row_stride, a.col_stride, panel, k, cj + i * n, n,
                   cols);
        break;
      default:
        break;
    }
  }
}

PR_GEMM_TARGET_AVX2 void GemmAvx2(size_t m, size_t n, size_t k,
                                  StridedMatrix a, StridedMatrix b, float* c) {
  GemmBody<Vec8>(m, n, k, a, b, c);
}

}  // namespace

void GemmFourWide(size_t m, size_t n, size_t k, StridedMatrix a,
                  StridedMatrix b, float* c) {
  GemmBody<Vec4>(m, n, k, a, b, c);
}

void GemmEightWide(size_t m, size_t n, size_t k, StridedMatrix a,
                   StridedMatrix b, float* c) {
  // Checked outside the AVX2 function, whose own code may not run here.
  PR_CHECK(HasEightWide());
  GemmAvx2(m, n, k, a, b, c);
}

bool HasEightWide() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has_avx2 = __builtin_cpu_supports("avx2");
  return has_avx2;
#else
  return false;
#endif
}

void Gemm(size_t m, size_t n, size_t k, StridedMatrix a, StridedMatrix b,
          float* c) {
  if (HasEightWide()) {
    GemmAvx2(m, n, k, a, b, c);
  } else {
    GemmFourWide(m, n, k, a, b, c);
  }
}

}  // namespace pr::gemm
