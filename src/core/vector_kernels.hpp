// The accumulate kernels shared by every numeric data plane: the
// NumericsOnly fast path (core/numeric_path.hpp) and the Full-mode simulator
// fragment ops (sim/warp.hpp) both call these, so "Full is bit-identical to
// NumericsOnly" holds by construction — the two paths run the same
// multiply-add chains through the same functions.
//
// Bit-identity contract (the reason the kernel body looks the way it does):
//   * accumulate_tile vectorizes over j — C columns — and each vector lane
//     carries exactly one (i, j) accumulator through the k extent in
//     ascending order. Lanes never exchange or re-associate values, so each
//     lane performs the same single-rounded multiply-add sequence the scalar
//     loop performs, and the j-tail that doesn't fill a vector runs the same
//     chain in scalar registers. Vector width, ISA level, register blocking
//     and tail handling therefore cannot change any bit of any C element
//     (the IsaDispatch suite, the differential harness and the KAMI_NO_SIMD
//     CI job pin this).
//   * add_span is element-wise (c[i] += p[i]): no reduction tree, no
//     re-association, so the SIMD and scalar forms agree bit-for-bit.
//
// ISA dispatch. The one kernel body (core/vector_kernels_body.inc) is
// compiled by core/vector_kernels.cpp once per SimdLevel: Baseline (the
// build's own flags) and, on x86-64 with SIMD enabled, Avx2
// (target("avx2") — AVX2 only, not FMA, so no multiply-add can be
// contracted even by accident). The level is picked once per process from
// the CPU's feature bits; every call is one indirect call per rows x k-tile,
// not per row. Each level's copy lives in its own namespace inside an
// anonymous one (internal linkage, distinct names), so the linker can never
// fold an AVX2 instantiation into a baseline caller (the ODR trap of
// compiling one inline template under two targets). Non-x86 and KAMI_NO_SIMD
// builds have the single Baseline level.
#pragma once

#include <cstddef>

namespace kami::core {

/// k-tile width for the accumulate loops: a tile of B rows
/// (kNumericKTile x n accumulators) stays cache-resident while every row of
/// C sweeps it, instead of streaming the whole k extent per C row. Tiling
/// only regroups the i/k loop nest — each (i, j) element still accumulates
/// over ascending k, so results are bit-identical (differential-tested).
inline constexpr std::size_t kNumericKTile = 64;

/// The instruction-set levels the kernel body is compiled for.
enum class SimdLevel { Baseline, Avx2 };

/// One level's compiled kernels for accumulator type Acc (float or double).
template <typename Acc>
struct NumericKernels {
  /// c[i*ldc + j] += sum_{kk in [kt, kend)} a[i*lda + kk] * b[kk*n + j] for
  /// every i < rows and j < n, each (i, j) accumulated in ascending kk.
  /// c must not overlap a or b.
  void (*accumulate_tile)(Acc* c, std::size_t ldc, const Acc* a, std::size_t lda,
                          const Acc* b, std::size_t rows, std::size_t n, std::size_t kt,
                          std::size_t kend);
  /// dst[i] += src[i] for i < n. dst and src are disjoint or identical.
  void (*add_span)(Acc* dst, const Acc* src, std::size_t n);
};

/// True when `level` is compiled into this build and the host CPU runs it.
bool simd_level_supported(SimdLevel level) noexcept;

/// The level in use: the highest supported one, chosen once per process.
SimdLevel numeric_simd_level() noexcept;

/// Display name of a level ("scalar" for the KAMI_NO_SIMD baseline).
const char* simd_level_name(SimdLevel level) noexcept;

/// The kernels compiled for `level`, or nullptr when the build has no such
/// copy. Tests call every supported level directly through this.
template <typename Acc>
const NumericKernels<Acc>* numeric_kernels_at(SimdLevel level) noexcept;

/// The kernels of numeric_simd_level().
template <typename Acc>
const NumericKernels<Acc>& numeric_kernels() noexcept;

/// Width (in accumulator lanes) of the explicit SIMD kernel, 1 when the
/// scalar fallback is compiled in. Every level uses 32-byte vectors.
/// Exported so benchmarks can stamp the SIMD configuration into their
/// run-report meta.
template <typename Acc>
inline constexpr std::size_t numeric_simd_lanes =
#if !defined(KAMI_NO_SIMD) && (defined(__GNUC__) || defined(__clang__))
    32 / sizeof(Acc);
#else
    1;
#endif

/// Name of the level in use.
inline const char* numeric_simd_name() noexcept {
  return simd_level_name(numeric_simd_level());
}

}  // namespace kami::core
