// The NumericsOnly fast path: C = A x B in the kernels' exact rounding
// model, with the cycle simulator bypassed entirely.
//
// Why this is bit-identical to the simulated kernels:
//   * Every KAMI kernel accumulates each C element as a single sequential
//     chain in accumulator precision over ascending k (1D stripes, 2D
//     stages, and each 3D layer all cover k in order), then narrows once
//     at writeback. Shared-memory and fragment transits copy bits
//     unchanged, so only the arithmetic chain matters.
//   * KAMI-3D re-associates across its `c` depth layers: layer l computes
//     the partial sum over its k-segment, and layers are reduced in order
//     ((S0 + S1) + S2)... in accumulator precision. `layers` replicates
//     exactly that association; 1D/2D use layers = 1.
//   * Both the simulated mma and this loop accumulate with the same
//     `acc += to_acc(a) * to_acc(b)` expression, rounded as a separate
//     multiply and add. That holds only because the build pins
//     -ffp-contract=off (src/util/CMakeLists.txt, inherited by every
//     consumer): contraction is a per-expression compiler choice, so with
//     FMA available (-march=x86-64-v3, aarch64) GCC's default
//     -ffp-contract=fast fuses some chains and not others, and the host
//     reference, the simulated kernels, and this loop stop agreeing bit for
//     bit.
//
// Why the SIMD kernel is bit-identical to the scalar one (KAMI_NO_SIMD):
//   * The inner product is vectorized over j — C columns — and each vector
//     lane carries exactly one (i, j) accumulator through the k extent in
//     ascending order. Lanes never exchange or re-associate values, so each
//     lane performs the same single-rounded multiply-add sequence the scalar
//     loop performs, and the j-tail that doesn't fill a vector runs the same
//     chain in scalar registers. Vector width, register blocking, and tail
//     handling therefore cannot change any bit of any C element (the
//     differential harness and the KAMI_NO_SIMD CI job pin this).
//
// Host cost: m*k + k*n table-driven decodes (instead of 2*m*n*k scalar
// conversions), a vectorized ikj product, and one narrowing per C element.
// Scratch comes from the thread's Arena (core/arena.hpp): one bump
// allocation per buffer, rewound after every call, capacity capped by the
// arena's retain limit — the old thread_local vectors pinned the high-water
// shape forever on long-lived serving threads.
#pragma once

#include <algorithm>
#include <cstring>

#include "core/arena.hpp"
#include "core/vector_kernels.hpp"
#include "types/decode_tables.hpp"
#include "types/matrix.hpp"

namespace kami::core {

// The SIMD machinery itself (SimdVec, accumulate_row_tile, kNumericKTile,
// numeric_simd_lanes/name) lives in core/vector_kernels.hpp so the Full-mode
// simulator data plane (sim/warp.hpp) runs the exact same kernels.

/// C = A x B into a caller-provided row-major buffer (no allocation beyond
/// arena scratch). `a` is m x k, `b` is k x n, `c` is m x n.
template <Scalar T>
void numeric_gemm_into(const T* a, const T* b, T* c, std::size_t m, std::size_t n,
                       std::size_t k, std::size_t layers = 1) {
  using Acc = typename num_traits<T>::acc_t;
  KAMI_REQUIRE(layers >= 1 && k % layers == 0, "layers must evenly split k");

  Arena& arena = Arena::tls();
  ArenaScope scope(arena);
  Acc* Af = arena.alloc<Acc>(m * k);
  Acc* Bf = arena.alloc<Acc>(k * n);
  Acc* Cacc = arena.alloc<Acc>(m * n);
  Acc* Pacc = layers > 1 ? arena.alloc<Acc>(m * n) : nullptr;

  types::decode_span(a, Af, m * k);
  types::decode_span(b, Bf, k * n);
  std::fill_n(Cacc, m * n, Acc{});

  const std::size_t kb = k / layers;
  for (std::size_t l = 0; l < layers; ++l) {
    Acc* dst = l == 0 ? Cacc : Pacc;
    if (l > 0) std::fill_n(Pacc, m * n, Acc{});
    const std::size_t k0 = l * kb;
    for (std::size_t kt = k0; kt < k0 + kb; kt += kNumericKTile) {
      const std::size_t kend = std::min(kt + kNumericKTile, k0 + kb);
      for (std::size_t i = 0; i < m; ++i)
        detail::accumulate_row_tile(dst + i * n, Af + i * k, Bf, kt, kend, n);
    }
    if (l > 0)
      for (std::size_t e = 0; e < m * n; ++e) Cacc[e] += Pacc[e];
  }

  types::encode_span(Cacc, c, m * n);
}

template <Scalar T>
Matrix<T> numeric_gemm(const Matrix<T>& A, const Matrix<T>& B, std::size_t layers = 1) {
  const std::size_t m = A.rows(), k = A.cols(), n = B.cols();
  KAMI_REQUIRE(B.rows() == k, "inner dimensions must agree");
  Matrix<T> C(m, n);
  numeric_gemm_into(A.data(), B.data(), C.data(), m, n, k, layers);
  return C;
}

}  // namespace kami::core
