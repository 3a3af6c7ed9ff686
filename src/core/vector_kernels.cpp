// The per-ISA copies of the accumulate kernels and the dispatch that picks
// one (see the notes in core/vector_kernels.hpp). The body itself is
// core/vector_kernels_body.inc, compiled here once per level.
#include "core/vector_kernels.hpp"

#include <cstring>
#include <utility>

#if !defined(KAMI_NO_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define KAMI_NUMERIC_SIMD 1
#if defined(__x86_64__)
#define KAMI_NUMERIC_AVX2 1
#endif
#endif

namespace kami::core {
namespace {

#ifdef KAMI_NUMERIC_SIMD
template <typename Acc>
struct SimdVec;
template <>
struct SimdVec<float> {
  typedef float type __attribute__((vector_size(32)));
};
template <>
struct SimdVec<double> {
  typedef double type __attribute__((vector_size(32)));
};

template <typename Acc>
inline constexpr std::size_t kSimdWidth = sizeof(typename SimdVec<Acc>::type) / sizeof(Acc);
#endif

namespace baseline {
#define KAMI_KERNEL_TARGET
#include "core/vector_kernels_body.inc"
#undef KAMI_KERNEL_TARGET
}  // namespace baseline

template <typename Acc>
constexpr NumericKernels<Acc> kBaseline{&baseline::accumulate_tile<Acc>,
                                        &baseline::add_span<Acc>};

#ifdef KAMI_NUMERIC_AVX2
namespace avx2 {
#define KAMI_KERNEL_TARGET [[gnu::target("avx2")]]
#include "core/vector_kernels_body.inc"
#undef KAMI_KERNEL_TARGET
}  // namespace avx2

template <typename Acc>
constexpr NumericKernels<Acc> kAvx2{&avx2::accumulate_tile<Acc>, &avx2::add_span<Acc>};
#endif

}  // namespace

bool simd_level_supported(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Baseline: return true;
    case SimdLevel::Avx2:
#ifdef KAMI_NUMERIC_AVX2
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel numeric_simd_level() noexcept {
  static const SimdLevel level =
      simd_level_supported(SimdLevel::Avx2) ? SimdLevel::Avx2 : SimdLevel::Baseline;
  return level;
}

const char* simd_level_name(SimdLevel level) noexcept {
#ifdef KAMI_NUMERIC_SIMD
  return level == SimdLevel::Avx2 ? "vector-ext-32B-avx2" : "vector-ext-32B";
#else
  (void)level;
  return "scalar";
#endif
}

template <typename Acc>
const NumericKernels<Acc>* numeric_kernels_at(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::Baseline: return &kBaseline<Acc>;
    case SimdLevel::Avx2:
#ifdef KAMI_NUMERIC_AVX2
      return &kAvx2<Acc>;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

template <typename Acc>
const NumericKernels<Acc>& numeric_kernels() noexcept {
  static const NumericKernels<Acc>& active = *numeric_kernels_at<Acc>(numeric_simd_level());
  return active;
}

template const NumericKernels<float>* numeric_kernels_at<float>(SimdLevel) noexcept;
template const NumericKernels<double>* numeric_kernels_at<double>(SimdLevel) noexcept;
template const NumericKernels<float>& numeric_kernels<float>() noexcept;
template const NumericKernels<double>& numeric_kernels<double>() noexcept;

}  // namespace kami::core
