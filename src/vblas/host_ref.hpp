// Plain serial reference implementations (no device, no cost accounting).
//
// Used by the test suite as an independent oracle for the device kernels and
// by untimed preprocessing code paths.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "support/error.hpp"
#include "vblas/containers.hpp"

namespace gs::vblas::ref {

template <typename T>
[[nodiscard]] T dot(std::span<const T> x, std::span<const T> y) {
  GS_CHECK(x.size() == y.size());
  T acc{0};
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

template <typename T>
void axpy(T alpha, std::span<const T> x, std::span<T> y) {
  GS_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

template <typename T>
[[nodiscard]] std::vector<T> gemv(const Matrix<T>& a, std::span<const T> x) {
  GS_CHECK(a.cols() == x.size());
  std::vector<T> y(a.rows(), T{0});
  for (std::size_t r = 0; r < a.rows(); ++r) {
    T acc{0};
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

template <typename T>
[[nodiscard]] std::vector<T> gemv_t(const Matrix<T>& a, std::span<const T> x) {
  GS_CHECK(a.rows() == x.size());
  std::vector<T> y(a.cols(), T{0});
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += a(r, c) * x[r];
  }
  return y;
}

template <typename T>
[[nodiscard]] Matrix<T> gemm(const Matrix<T>& a, const Matrix<T>& b) {
  GS_CHECK(a.cols() == b.rows());
  Matrix<T> c(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const T av = a(r, p);
      if (av == T{0}) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(r, j) += av * b(p, j);
    }
  }
  return c;
}

/// Dense Gauss-Jordan inverse with partial pivoting. Throws gs::Error on a
/// singular matrix: when a pivot column's largest remaining magnitude is at
/// most `pivot_floor` (by default, exactly zero). Reference path for basis
/// reinversion.
template <typename T>
[[nodiscard]] Matrix<T> invert(Matrix<T> a, T pivot_floor = T{0}) {
  GS_CHECK_MSG(a.rows() == a.cols(), "invert: matrix must be square");
  const std::size_t n = a.rows();
  Matrix<T> inv = Matrix<T>::identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    GS_CHECK_MSG(std::abs(a(pivot, col)) > pivot_floor,
                 "invert: singular matrix");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a(col, j), a(pivot, j));
        std::swap(inv(col, j), inv(pivot, j));
      }
    }
    const T d = a(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      a(col, j) /= d;
      inv(col, j) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const T f = a(r, col);
      if (f == T{0}) continue;
      for (std::size_t j = 0; j < n; ++j) {
        a(r, j) -= f * a(col, j);
        inv(r, j) -= f * inv(col, j);
      }
    }
  }
  return inv;
}

}  // namespace gs::vblas::ref
