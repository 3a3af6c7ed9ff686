// Host reference GEMM in the exact rounding model of the simulated tensor
// cores: inputs widen to the accumulator type, the k-reduction runs
// sequentially in accumulator precision, and the result narrows once at the
// end. KAMI-1D/2D cover k in sequential stage order and therefore match this
// reference bit-for-bit; KAMI-3D re-associates across layers and is compared
// with a tolerance.
//
// Each operand element is widened once, with the scalar num_traits::to_acc
// and not the decode LUTs (types/decode_tables), so this oracle shares no
// code with the kernels it judges. B is widened into column order so the
// naive ascending-k loop reads both operands contiguously.
#pragma once

#include <vector>

#include "types/matrix.hpp"

namespace kami::baselines {

namespace detail {

/// A widened to W, row-major: element (i, k) at i*K + k.
template <typename W, Scalar T>
std::vector<W> widen_rows(const Matrix<T>& A) {
  std::vector<W> out(A.size());
  for (std::size_t i = 0; i < A.rows(); ++i)
    for (std::size_t k = 0; k < A.cols(); ++k)
      out[i * A.cols() + k] = static_cast<W>(num_traits<T>::to_acc(A(i, k)));
  return out;
}

/// B widened to W, column-major: element (k, j) at j*K + k.
template <typename W, Scalar T>
std::vector<W> widen_cols(const Matrix<T>& B) {
  std::vector<W> out(B.size());
  for (std::size_t k = 0; k < B.rows(); ++k)
    for (std::size_t j = 0; j < B.cols(); ++j)
      out[j * B.rows() + k] = static_cast<W>(num_traits<T>::to_acc(B(k, j)));
  return out;
}

}  // namespace detail

/// C = A x B with accumulator-width arithmetic, narrowed to T.
template <Scalar T>
Matrix<T> reference_gemm(const Matrix<T>& A, const Matrix<T>& B) {
  using Acc = typename num_traits<T>::acc_t;
  KAMI_REQUIRE(A.cols() == B.rows(), "inner dimensions must agree");
  const std::size_t K = A.cols();
  const std::vector<Acc> a = detail::widen_rows<Acc>(A);
  const std::vector<Acc> bt = detail::widen_cols<Acc>(B);
  Matrix<T> C(A.rows(), B.cols());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j < B.cols(); ++j) {
      Acc acc{};
      for (std::size_t k = 0; k < K; ++k) acc += a[i * K + k] * bt[j * K + k];
      C(i, j) = num_traits<T>::from_acc(acc);
    }
  }
  return C;
}

/// Reference in full double precision (for error-bound property tests).
template <Scalar T>
Matrix<double> reference_gemm_fp64(const Matrix<T>& A, const Matrix<T>& B) {
  KAMI_REQUIRE(A.cols() == B.rows());
  const std::size_t K = A.cols();
  const std::vector<double> a = detail::widen_rows<double>(A);
  const std::vector<double> bt = detail::widen_cols<double>(B);
  Matrix<double> C(A.rows(), B.cols());
  for (std::size_t i = 0; i < A.rows(); ++i)
    for (std::size_t j = 0; j < B.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) acc += a[i * K + k] * bt[j * K + k];
      C(i, j) = acc;
    }
  return C;
}

}  // namespace kami::baselines
