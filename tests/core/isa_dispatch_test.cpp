// IsaDispatch: every compiled ISA level of the accumulate kernels
// (core/vector_kernels.hpp) is exact. Each level the host runs is called
// directly and compared bit for bit against a naive ascending-k loop, on
// shapes whose n is not a multiple of the vector width, whose k is not a
// multiple of kNumericKTile, single-row tiles, strided tiles, and operands
// holding ±0.0, ±inf, NaN and subnormals. numeric_gemm, which runs the
// level in use, is checked against the independent oracle on all six
// precisions. NaN results are compared as a class: which NaN payload an
// instruction propagates is not part of the rounding model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "core/numeric_path.hpp"
#include "core/vector_kernels.hpp"
#include "util/rng.hpp"

namespace kami {
namespace {

using core::SimdLevel;

struct TileShape {
  std::size_t rows, n, k;
};

// n covers below one vector, one vector plus a tail, two-vector blocks plus
// a tail, and exact multiples; k covers below, at, and across kNumericKTile.
constexpr TileShape kShapes[] = {{1, 1, 1},   {1, 13, 70},  {5, 17, 130}, {3, 8, 64},
                                 {4, 3, 65},  {2, 20, 128}, {17, 67, 130}, {7, 33, 5},
                                 {1, 64, 200}};

template <typename Acc>
bool same_value(Acc a, Acc b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(Acc)) == 0;
}

/// Operands with the special values placed so they reach some C elements and
/// leave the rest finite: A row 0 is all -0.0 (with C row 0 starting at
/// -0.0 and B column 0 positive, C[0][0] must stay -0.0), A row 1 holds an
/// inf, B column 2 holds -inf and NaN, and A row 2 / B column 3 are scaled
/// so their products are subnormal. Every seventh remaining element of A is
/// a subnormal.
template <typename Acc>
struct Operands {
  std::vector<Acc> a, b, c;  // a: rows x lda, b: k x n, c: rows x ldc
  std::size_t lda, ldc;
};

template <typename Acc>
Operands<Acc> make_operands(const TileShape& s, std::size_t pad, std::uint64_t seed) {
  Rng rng(seed);
  Operands<Acc> o;
  o.lda = s.k + pad;
  o.ldc = s.n + pad;
  const auto draw = [&] { return static_cast<Acc>(rng.uniform(-1.0, 1.0)); };
  o.a.resize(s.rows * o.lda);
  o.b.resize(s.k * s.n);
  o.c.resize(s.rows * o.ldc);
  for (auto& v : o.a) v = draw();
  for (auto& v : o.b) v = draw();
  for (auto& v : o.c) v = draw();
  const Acc tiny = std::sqrt(std::numeric_limits<Acc>::min()) / Acc{8};
  const Acc inf = std::numeric_limits<Acc>::infinity();
  for (std::size_t i = 0; i < s.rows; ++i)
    for (std::size_t kk = 0; kk < s.k; ++kk) {
      Acc& v = o.a[i * o.lda + kk];
      if (i == 0 && s.rows > 1) v = Acc{-0.0};
      else if (i == 2) v *= tiny;
      else if (kk % 7 == 3) v = std::numeric_limits<Acc>::denorm_min() * Acc{5};
    }
  if (s.rows > 1) o.c[0] = Acc{-0.0};
  if (s.rows > 1 && s.k > 3) o.a[1 * o.lda + 3] = inf;
  for (std::size_t kk = 0; kk < s.k; ++kk) {
    o.b[kk * s.n] = std::abs(o.b[kk * s.n]);
    if (s.n > 3) o.b[kk * s.n + 3] *= tiny;
  }
  if (s.n > 2 && s.k > 9) {
    o.b[7 * s.n + 2] = -inf;
    o.b[9 * s.n + 2] = std::numeric_limits<Acc>::quiet_NaN();
  }
  return o;
}

/// The rounding model: one ascending-k chain per element, a separate
/// multiply and add per step.
template <typename Acc>
void naive_tile(Acc* c, std::size_t ldc, const Acc* a, std::size_t lda, const Acc* b,
                std::size_t rows, std::size_t n, std::size_t kt, std::size_t kend) {
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      Acc acc = c[i * ldc + j];
      for (std::size_t kk = kt; kk < kend; ++kk) acc += a[i * lda + kk] * b[kk * n + j];
      c[i * ldc + j] = acc;
    }
}

template <typename Acc>
void expect_same(const std::vector<Acc>& want, const std::vector<Acc>& got) {
  ASSERT_EQ(want.size(), got.size());
  std::size_t bad = 0;
  for (std::size_t e = 0; e < want.size(); ++e)
    if (!same_value(want[e], got[e]) && bad++ < 3)
      ADD_FAILURE() << "element " << e << ": want " << want[e] << ", got " << got[e];
  EXPECT_EQ(bad, 0u);
}

template <typename Acc>
void check_level(SimdLevel level) {
  const core::NumericKernels<Acc>* kernels = core::numeric_kernels_at<Acc>(level);
  ASSERT_NE(kernels, nullptr);
  for (const TileShape& s : kShapes) {
    for (const std::size_t pad : {std::size_t{0}, std::size_t{3}}) {
      SCOPED_TRACE("rows=" + std::to_string(s.rows) + " n=" + std::to_string(s.n) +
                   " k=" + std::to_string(s.k) + " pad=" + std::to_string(pad));
      const Operands<Acc> o = make_operands<Acc>(s, pad, s.rows * 131 + s.n * 7 + s.k);
      // The k-tiled sweep numeric_gemm_into runs, one call per tile ...
      std::vector<Acc> want = o.c, got = o.c;
      for (std::size_t kt = 0; kt < s.k; kt += core::kNumericKTile) {
        const std::size_t kend = std::min(kt + core::kNumericKTile, s.k);
        naive_tile(want.data(), o.ldc, o.a.data(), o.lda, o.b.data(), s.rows, s.n, kt, kend);
        kernels->accumulate_tile(got.data(), o.ldc, o.a.data(), o.lda, o.b.data(), s.rows,
                                 s.n, kt, kend);
      }
      expect_same(want, got);
      // ... and one tile starting mid-k.
      if (s.k > 2) {
        want = o.c;
        got = o.c;
        naive_tile(want.data(), o.ldc, o.a.data(), o.lda, o.b.data(), s.rows, s.n, 1, s.k - 1);
        kernels->accumulate_tile(got.data(), o.ldc, o.a.data(), o.lda, o.b.data(), s.rows,
                                 s.n, 1, s.k - 1);
        expect_same(want, got);
      }
      // add_span, disjoint and in place.
      std::vector<Acc> sum_want = o.b, sum_got = o.b;
      for (std::size_t e = 0; e < sum_want.size(); ++e) sum_want[e] += o.a[e % o.a.size()];
      std::vector<Acc> src(sum_got.size());
      for (std::size_t e = 0; e < src.size(); ++e) src[e] = o.a[e % o.a.size()];
      kernels->add_span(sum_got.data(), src.data(), sum_got.size());
      expect_same(sum_want, sum_got);
      std::vector<Acc> twice = o.b, twice_want = o.b;
      for (auto& v : twice_want) v += v;
      kernels->add_span(twice.data(), twice.data(), twice.size());
      expect_same(twice_want, twice);
    }
  }
}

void run_level(SimdLevel level) {
  if (!core::simd_level_supported(level))
    GTEST_SKIP() << core::simd_level_name(level) << " is not compiled in or not supported";
  check_level<float>(level);
  check_level<double>(level);
}

TEST(IsaDispatch, BaselineLevelIsExact) { run_level(SimdLevel::Baseline); }

TEST(IsaDispatch, Avx2LevelIsExact) { run_level(SimdLevel::Avx2); }

TEST(IsaDispatch, ActiveLevelIsTheHighestSupported) {
  const SimdLevel want = core::simd_level_supported(SimdLevel::Avx2) ? SimdLevel::Avx2
                                                                     : SimdLevel::Baseline;
  EXPECT_EQ(core::numeric_simd_level(), want);
  EXPECT_STREQ(core::numeric_simd_name(), core::simd_level_name(want));
  EXPECT_EQ(&core::numeric_kernels<float>(), core::numeric_kernels_at<float>(want));
  EXPECT_EQ(&core::numeric_kernels<double>(), core::numeric_kernels_at<double>(want));
  // Every level the host runs has kernels.
  for (const SimdLevel level : {SimdLevel::Baseline, SimdLevel::Avx2}) {
    if (core::simd_level_supported(level)) {
      EXPECT_NE(core::numeric_kernels_at<double>(level), nullptr);
    }
  }
}

/// numeric_gemm on the level in use against the oracle, with the same
/// special-value placement widened through each storage format.
template <Scalar T>
void check_numeric_gemm() {
  using Acc = typename num_traits<T>::acc_t;
  for (const TileShape& s : kShapes) {
    SCOPED_TRACE(std::string(precision_name(num_traits<T>::precision)) +
                 " m=" + std::to_string(s.rows) + " n=" + std::to_string(s.n) +
                 " k=" + std::to_string(s.k));
    const Operands<Acc> o = make_operands<Acc>(s, 0, s.rows * 17 + s.n * 5 + s.k);
    Matrix<T> A(s.rows, s.k), B(s.k, s.n);
    for (std::size_t e = 0; e < A.size(); ++e) A.data()[e] = num_traits<T>::from_acc(o.a[e]);
    for (std::size_t e = 0; e < B.size(); ++e) B.data()[e] = num_traits<T>::from_acc(o.b[e]);
    const Matrix<T> got = core::numeric_gemm(A, B);
    const Matrix<T> want = baselines::reference_gemm(A, B);
    std::size_t bad = 0;
    for (std::size_t e = 0; e < want.size(); ++e)
      if (!same_value(num_traits<T>::to_acc(want.data()[e]),
                      num_traits<T>::to_acc(got.data()[e])) &&
          bad++ < 3)
        ADD_FAILURE() << "element " << e;
    EXPECT_EQ(bad, 0u);
  }
}

TEST(IsaDispatch, NumericGemmMatchesTheOracleOnEveryPrecision) {
  check_numeric_gemm<double>();
  check_numeric_gemm<float>();
  check_numeric_gemm<tf32_t>();
  check_numeric_gemm<fp16_t>();
  check_numeric_gemm<bf16_t>();
  check_numeric_gemm<fp8_e4m3_t>();
}

}  // namespace
}  // namespace kami
