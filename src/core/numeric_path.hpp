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
// Why the SIMD kernel is bit-identical to the scalar one (KAMI_NO_SIMD), at
// every ISA level: see core/vector_kernels.hpp. The product runs one
// dispatched accumulate_tile call per k-tile over all rows of C.
//
// Host cost: m*k + k*n table-driven decodes (instead of 2*m*n*k scalar
// conversions), a vectorized ikj product, and one narrowing per C element;
// fp32/fp64, whose codec is the identity, skip the decode and narrowing and
// work in the caller's buffers. Scratch comes from the thread's Arena
// (core/arena.hpp): one bump allocation per buffer, rewound after every
// call, capacity capped by the arena's retain limit — the old thread_local
// vectors pinned the high-water shape forever on long-lived serving threads.
//
// The serving ladder's reference rung runs numeric_gemm too (layers = 1).
// baselines::reference_gemm is the independent oracle it is tested against,
// never a serving path: the system under test and its oracle must not be the
// same code.
#pragma once

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "core/arena.hpp"
#include "core/vector_kernels.hpp"
#include "types/decode_tables.hpp"
#include "types/matrix.hpp"

namespace kami::core {

// The SIMD kernels (accumulate_tile, add_span, kNumericKTile, the ISA
// dispatch) live in core/vector_kernels.hpp so the Full-mode simulator data
// plane (sim/warp.hpp) runs the exact same kernels.

/// C = A x B into a caller-provided row-major buffer (no allocation beyond
/// arena scratch). `a` is m x k, `b` is k x n, `c` is m x n; `c` must not
/// overlap `a` or `b`.
template <Scalar T>
void numeric_gemm_into(const T* a, const T* b, T* c, std::size_t m, std::size_t n,
                       std::size_t k, std::size_t layers = 1) {
  using Acc = typename num_traits<T>::acc_t;
  KAMI_REQUIRE(layers >= 1 && k % layers == 0, "layers must evenly split k");

  Arena& arena = Arena::tls();
  ArenaScope scope(arena);
  // Identity codecs (fp32, fp64) accumulate in their storage type: the
  // operands are read in place and C accumulates straight into `c`, so only
  // the 3D layer partials take scratch. Other formats decode into scratch.
  constexpr bool identity = std::is_same_v<T, Acc>;
  const Acc* Af = nullptr;
  const Acc* Bf = nullptr;
  Acc* Cacc = nullptr;
  if constexpr (identity) {
    Af = a;
    Bf = b;
    Cacc = c;
  } else {
    Acc* af = arena.alloc<Acc>(m * k);
    Acc* bf = arena.alloc<Acc>(k * n);
    types::decode_span(a, af, m * k);
    types::decode_span(b, bf, k * n);
    Af = af;
    Bf = bf;
    Cacc = arena.alloc<Acc>(m * n);
  }
  Acc* Pacc = layers > 1 ? arena.alloc<Acc>(m * n) : nullptr;
  std::fill_n(Cacc, m * n, Acc{});

  const NumericKernels<Acc>& kernels = numeric_kernels<Acc>();
  const std::size_t kb = k / layers;
  for (std::size_t l = 0; l < layers; ++l) {
    Acc* dst = l == 0 ? Cacc : Pacc;
    if (l > 0) std::fill_n(Pacc, m * n, Acc{});
    const std::size_t k0 = l * kb;
    for (std::size_t kt = k0; kt < k0 + kb; kt += kNumericKTile) {
      const std::size_t kend = std::min(kt + kNumericKTile, k0 + kb);
      kernels.accumulate_tile(dst, n, Af, k, Bf, m, n, kt, kend);
    }
    if (l > 0) kernels.add_span(Cacc, Pacc, m * n);
  }

  if constexpr (!identity) types::encode_span(Cacc, c, m * n);
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
