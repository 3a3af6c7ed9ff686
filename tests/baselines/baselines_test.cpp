// The comparator kernels: numerical correctness (they are real simulated
// algorithms, not stubs) and the cost structure the paper attributes to each.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>

#include "baselines/cublas_like.hpp"
#include "core/batched.hpp"
#include "baselines/cublasdx_like.hpp"
#include "baselines/cutlass_like.hpp"
#include "baselines/magma_like.hpp"
#include "baselines/reference.hpp"
#include "baselines/syclbench_like.hpp"
#include "core/kami.hpp"
#include "sim/throughput.hpp"

namespace kami::baselines {
namespace {

const sim::DeviceSpec& nv() { return sim::gh200(); }

// ---------------------------------------------------------------------------
// Host reference oracle
// ---------------------------------------------------------------------------

/// The oracle as it was written first: every multiply-add widens both
/// operands again. Widening once must not change a bit.
template <Scalar T>
void expect_widen_once_matches_per_mac(std::size_t m, std::size_t n, std::size_t k) {
  using Acc = typename num_traits<T>::acc_t;
  SCOPED_TRACE(std::string(precision_name(num_traits<T>::precision)) + " " +
               std::to_string(m) + "x" + std::to_string(n) + "x" + std::to_string(k));
  Rng rng(m * 31 + n * 7 + k);
  const auto A = random_matrix<T>(m, k, rng, -4.0, 4.0);
  const auto B = random_matrix<T>(k, n, rng, -4.0, 4.0);
  const Matrix<T> C = reference_gemm(A, B);
  const Matrix<double> C64 = reference_gemm_fp64(A, B);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      Acc acc{};
      double acc64 = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += num_traits<T>::to_acc(A(i, kk)) * num_traits<T>::to_acc(B(kk, j));
        acc64 += static_cast<double>(num_traits<T>::to_acc(A(i, kk))) *
                 static_cast<double>(num_traits<T>::to_acc(B(kk, j)));
      }
      const Acc want = num_traits<T>::to_acc(num_traits<T>::from_acc(acc));
      const Acc got = num_traits<T>::to_acc(C(i, j));
      ASSERT_EQ(std::memcmp(&want, &got, sizeof(Acc)), 0) << i << "," << j;
      ASSERT_EQ(std::memcmp(&acc64, &C64(i, j), sizeof(double)), 0) << i << "," << j;
    }
}

TEST(ReferenceOracle, WideningOnceMatchesThePerMacFormOnEveryPrecision) {
  for (const auto [m, n, k] : {std::array<std::size_t, 3>{1, 1, 1},
                               std::array<std::size_t, 3>{17, 67, 130},
                               std::array<std::size_t, 3>{32, 16, 48}}) {
    expect_widen_once_matches_per_mac<double>(m, n, k);
    expect_widen_once_matches_per_mac<float>(m, n, k);
    expect_widen_once_matches_per_mac<tf32_t>(m, n, k);
    expect_widen_once_matches_per_mac<fp16_t>(m, n, k);
    expect_widen_once_matches_per_mac<bf16_t>(m, n, k);
    expect_widen_once_matches_per_mac<fp8_e4m3_t>(m, n, k);
  }
}

// ---------------------------------------------------------------------------
// cuBLASDx-like
// ---------------------------------------------------------------------------

TEST(CublasdxLike, MatchesReferenceBitwiseFp16) {
  for (std::size_t n : {16u, 32u, 64u, 128u}) {
    Rng rng(n);
    const auto A = random_matrix<fp16_t>(n, n, rng);
    const auto B = random_matrix<fp16_t>(n, n, rng);
    const auto r = cublasdx_gemm(nv(), A, B);
    ASSERT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(max_abs_diff(r.C, reference_gemm(A, B)), 0.0) << n;
  }
}

TEST(CublasdxLike, MatchesReferenceBitwiseFp64) {
  Rng rng(9);
  const auto A = random_matrix<double>(64, 64, rng);
  const auto B = random_matrix<double>(64, 64, rng);
  const auto r = cublasdx_gemm(nv(), A, B);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C, reference_gemm(A, B)), 0.0);
}

TEST(CublasdxLike, Fp64Order98IsTheSharedMemoryCeiling) {
  // Fig 3's caption: cuBLASDx "could not be larger [than 98] due to the
  // limitation of shared memory capacity" — 3 * n^2 * 8 B vs 227 KB.
  Rng rng(1);
  const auto a96 = random_matrix<double>(96, 96, rng);
  EXPECT_TRUE(cublasdx_gemm(nv(), a96, a96).feasible);
  const auto a104 = random_matrix<double>(104, 104, rng);
  EXPECT_FALSE(cublasdx_gemm(nv(), a104, a104).feasible);
}

TEST(CublasdxLike, Order192Fp16InfeasibleOn5090) {
  Rng rng(2);
  const auto a = random_matrix<fp16_t>(192, 192, rng);
  EXPECT_FALSE(cublasdx_gemm(sim::rtx5090(), a, a).feasible);
  EXPECT_TRUE(cublasdx_gemm(nv(), a, a).feasible);  // 221 KB < 227 KB
}

TEST(CublasdxLike, UsesFarMoreSharedMemoryThanKami) {
  Rng rng(3);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto base = cublasdx_gemm(nv(), A, B);
  const auto kami = kami::gemm(Algo::OneD, nv(), A, B);
  // §5.6.1: 27 KB (cuBLASDx) vs 2-8 KB (KAMI) at 64x64 FP16.
  EXPECT_GT(base.profile.smem_bytes, 20u * 1024u);
  EXPECT_LT(kami.profile.smem_bytes, 8u * 1024u);
}

TEST(CublasdxLike, KamiOutperformsAtBlockLevel) {
  // The paper's headline comparison (Fig 8): at block level KAMI-1D beats
  // the smem-staged pipeline.
  for (std::size_t n : {16u, 32u, 64u, 128u}) {
    Rng rng(n + 100);
    const auto A = random_matrix<fp16_t>(n, n, rng);
    const auto B = random_matrix<fp16_t>(n, n, rng);
    const auto base = cublasdx_gemm(nv(), A, B);
    const auto kami = kami::gemm(Algo::OneD, nv(), A, B);
    const double t_base = sim::throughput_tflops(nv(), base.profile, 16384);
    const double t_kami = sim::throughput_tflops(nv(), kami.profile, 16384);
    EXPECT_GT(t_kami, t_base) << "order " << n;
  }
}

// ---------------------------------------------------------------------------
// CUTLASS-like
// ---------------------------------------------------------------------------

TEST(CutlassLike, MatchesReferenceBitwiseFp16) {
  for (std::size_t n : {16u, 64u, 128u}) {
    Rng rng(n + 7);
    const auto A = random_matrix<fp16_t>(n, n, rng);
    const auto B = random_matrix<fp16_t>(n, n, rng);
    const auto r = cutlass_gemm(nv(), A, B);
    ASSERT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(max_abs_diff(r.C, reference_gemm(A, B)), 0.0) << n;
  }
}

TEST(CutlassLike, MultiTileProblemsSweepTiles) {
  Rng rng(11);
  const auto A = random_matrix<fp8_e4m3_t>(256, 256, rng);
  const auto B = random_matrix<fp8_e4m3_t>(256, 256, rng);
  const auto r = cutlass_gemm(nv(), A, B);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C, reference_gemm(A, B)), 0.0);
}

TEST(CutlassLike, PaddingWasteDominatesSmallSizes) {
  Rng rng(12);
  const auto A = random_matrix<fp16_t>(16, 16, rng);
  const auto B = random_matrix<fp16_t>(16, 16, rng);
  const auto r = cutlass_gemm(nv(), A, B);
  // Issued tensor-core work is the full 128x128x32 tile: 1024x the useful
  // 2*16^3 flops.
  const double issued = r.profile.tc_busy * nv().ops_per_cycle_per_tc(Precision::FP16);
  EXPECT_NEAR(issued, 2.0 * 128 * 128 * 32, 1.0);
  // Padding factor (128/16)^2 * (32/16) = 128x wasted tensor-core work.
  EXPECT_NEAR(issued / r.profile.useful_flops, 128.0, 1.0);
}

TEST(CutlassLike, KamiSpeedupLargestAtSmallestSize) {
  // Fig 8's CUTLASS series: the speedup shrinks as the problem approaches
  // the native tile.
  auto ratio = [&](std::size_t n) {
    Rng rng(n + 200);
    const auto A = random_matrix<fp16_t>(n, n, rng);
    const auto B = random_matrix<fp16_t>(n, n, rng);
    const auto base = cutlass_gemm(nv(), A, B);
    const auto kami = kami::gemm(Algo::OneD, nv(), A, B);
    return sim::throughput_tflops(nv(), kami.profile, 16384) /
           sim::throughput_tflops(nv(), base.profile, 16384);
  };
  const double r16 = ratio(16), r64 = ratio(64), r128 = ratio(128);
  EXPECT_GT(r16, r64);
  EXPECT_GT(r64, r128);
  // GH200-band speedups (§5.2.1: FP16 avg 4.5x, up to 10.3x); the paper's
  // 74x outlier is 5090-specific (see EXPERIMENTS.md).
  EXPECT_GT(r16, 4.0);
  EXPECT_GT(r128, 1.0);  // still ahead at the native tile size
}

// ---------------------------------------------------------------------------
// SYCL-Bench-like (Intel)
// ---------------------------------------------------------------------------

TEST(SyclBenchLike, MatchesReferenceBitwise) {
  Rng rng(13);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto r = syclbench_gemm(sim::intel_max1100(), A, B);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(max_abs_diff(r.C, reference_gemm(A, B)), 0.0);
}

TEST(SyclBenchLike, NeverTouchesTensorCores) {
  Rng rng(14);
  const auto A = random_matrix<fp16_t>(32, 32, rng);
  const auto B = random_matrix<fp16_t>(32, 32, rng);
  const auto r = syclbench_gemm(sim::intel_max1100(), A, B);
  EXPECT_DOUBLE_EQ(r.profile.tc_busy, 0.0);
  EXPECT_GT(r.profile.vector_busy, 0.0);
}

TEST(SyclBenchLike, KamiSeveralTimesFasterOnIntel) {
  // §5.2.3: KAMI-1D averages ~5x over SYCL-Bench on the Max 1100.
  Rng rng(15);
  const auto A = random_matrix<fp16_t>(64, 64, rng);
  const auto B = random_matrix<fp16_t>(64, 64, rng);
  const auto& dev = sim::intel_max1100();
  const auto base = syclbench_gemm(dev, A, B);
  const auto kami = kami::gemm(Algo::OneD, dev, A, B);
  const double ratio = sim::throughput_tflops(dev, kami.profile, 16384) /
                       sim::throughput_tflops(dev, base.profile, 16384);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 20.0);
}

// ---------------------------------------------------------------------------
// cuBLAS-like host drivers
// ---------------------------------------------------------------------------

TEST(CublasLike, LargeGemmApproachesRoofline) {
  const auto perf = cublas_square_gemm_perf<double>(nv(), 8192);
  ASSERT_TRUE(perf.feasible);
  EXPECT_GT(perf.tflops, 0.55 * nv().peak_fp64_tflops);
}

TEST(CublasLike, SmallGemmCollapses) {
  // Fig 3: "when m = 64, the performance drops to only 28 GFLOPS".
  const auto perf = cublas_square_gemm_perf<double>(nv(), 64);
  ASSERT_TRUE(perf.feasible);
  EXPECT_LT(perf.tflops, 0.5);  // well under 1% of peak
}

TEST(CublasLike, MonotonePerformanceClimb) {
  double prev = 0.0;
  for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
    const auto perf = cublas_square_gemm_perf<double>(nv(), n);
    EXPECT_GT(perf.tflops, prev) << n;
    prev = perf.tflops;
  }
}

TEST(BatchedBaselines, KamiBeatsMagmaBeatsCublas) {
  // Fig 12's ordering at FP64, batch 1000.
  for (std::size_t n : {16u, 32u, 64u}) {
    const auto cublas = cublas_batched_fp64_perf(nv(), n, 1000);
    const auto magma = magma_batched_fp64_perf(nv(), n, 1000);
    const auto kami = core::kami_batched_perf<double>(nv(), n, n, n, 1000);
    ASSERT_TRUE(cublas.feasible && magma.feasible);
    EXPECT_GT(magma.tflops, cublas.tflops) << n;
    EXPECT_GT(kami.tflops, magma.tflops) << n;
  }
}

TEST(BatchedBaselines, LargerBatchesAmortizeSetup) {
  // §5.4: the speedups over both libraries shrink from batch 1000 to 10000
  // because their host setup amortizes.
  const auto small = cublas_batched_fp64_perf(nv(), 32, 1000);
  const auto large = cublas_batched_fp64_perf(nv(), 32, 10000);
  EXPECT_GT(large.tflops, small.tflops);
}

}  // namespace
}  // namespace kami::baselines
