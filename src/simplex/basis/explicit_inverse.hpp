// ExplicitInverseOracle: the paper's dense basis representation, moved
// behind the BasisOracle seam unchanged.
//
// B^-1 is held as a dense m x m matrix; BTRAN/FTRAN are O(m^2) row-wise
// products and each pivot is an O(m^2) Gauss-Jordan rank-1 update. The
// arithmetic order and the CostMeter charge names/formulas are exactly
// the ones the host engine carried before the extraction, so solves via
// this oracle are bit-identical to the pre-oracle engine (the recorder
// and bench baselines depend on that).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simplex/basis/basis_oracle.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/types.hpp"
#include "support/error.hpp"
#include "vblas/containers.hpp"
#include "vblas/host_ref.hpp"

namespace gs::simplex::basis {

class ExplicitInverseOracle final : public BasisOracle {
 public:
  /// `binv_diag` seeds the crash-basis inverse (+/-1 per row); `cols`
  /// must outlive the oracle (it is read on warm_start/refactorize). The
  /// explicit inverse reads no option; it takes the options argument so
  /// both oracles construct alike.
  ExplicitInverseOracle(std::size_t m, std::span<const double> binv_diag,
                        const ColumnSource& cols, CostMeter& meter,
                        const SolverOptions& /*opt*/)
      : m_(m), cols_(&cols), meter_(&meter), binv_(m, m) {
    for (std::size_t i = 0; i < m_; ++i) binv_(i, i) = binv_diag[i];
  }

  [[nodiscard]] std::size_t dim() const noexcept override { return m_; }

  void btran(std::span<const double> cb, std::span<double> pi) override {
    btran_raw(cb, pi);
    meter_->charge("price_btran", 2.0 * double(m_) * double(m_),
                   double((m_ * m_ + 2 * m_) * sizeof(double)));
  }

  void ftran(std::span<const double> col, std::span<double> alpha) override {
    ftran_raw(col, alpha);
    meter_->charge("ftran", 2.0 * double(m_) * double(m_),
                   double((m_ * m_ + 2 * m_) * sizeof(double)));
  }

  /// Gauss-Jordan rank-1 update of the explicit inverse.
  void update(std::size_t p, std::span<const double> alpha) override {
    const double alpha_p = alpha[p];
    std::vector<double> prow(binv_.row(p).begin(), binv_.row(p).end());
    for (std::size_t i = 0; i < m_; ++i) {
      auto row = binv_.row(i);
      if (i == p) {
        for (std::size_t j = 0; j < m_; ++j) row[j] = prow[j] / alpha_p;
      } else {
        const double f = alpha[i] / alpha_p;
        if (f == 0.0) continue;
        for (std::size_t j = 0; j < m_; ++j) row[j] -= f * prow[j];
      }
    }
    meter_->charge("update_binv", 2.0 * double(m_) * double(m_),
                   double((2 * m_ * m_ + 2 * m_) * sizeof(double)));
  }

  [[nodiscard]] bool warm_start(std::span<const std::uint32_t> basis,
                                std::span<const double> b,
                                std::vector<double>& beta_out) override {
    vblas::Matrix<double> binv;
    if (!invert_basis(basis, binv)) {
      // Singular basis (a stale snapshot of a different family): the
      // elimination stopped at a data-dependent column, so the full
      // inversion's formula would overcharge it. It stays uncharged.
      return false;
    }
    std::vector<double> beta(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < m_; ++j) acc += binv(i, j) * b[j];
      beta[i] = acc;
    }
    // One dense m x m inversion + the B^-1 b product, on the host
    // roofline: both ran, whether or not the basis is accepted below.
    charge_reinvert();
    for (const double v : beta) {
      if (v < -1e-9) return false;  // primal infeasible here: cold solve
    }
    for (double& v : beta) {
      if (v < 0.0) v = 0.0;
    }
    binv_ = std::move(binv);
    beta_out = std::move(beta);
    return true;
  }

  [[nodiscard]] bool refactorize(
      std::span<const std::uint32_t> basis) override {
    vblas::Matrix<double> binv;
    if (!invert_basis(basis, binv)) return false;
    binv_ = std::move(binv);
    ++refactors_;
    charge_reinvert();
    return true;
  }

  void ftran_raw(std::span<const double> col,
                 std::span<double> out) const override {
    for (std::size_t i = 0; i < m_; ++i) {
      const auto row = binv_.row(i);
      double acc = 0.0;
      for (std::size_t k = 0; k < m_; ++k) acc += row[k] * col[k];
      out[i] = acc;
    }
  }

  /// out = (B^-1)^T c_B, accumulated row-wise for cache-friendly access.
  void btran_raw(std::span<const double> cb,
                 std::span<double> out) const override {
    for (std::size_t j = 0; j < m_; ++j) out[j] = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double cbi = cb[i];
      if (cbi == 0.0) continue;
      const auto row = binv_.row(i);
      for (std::size_t j = 0; j < m_; ++j) out[j] += cbi * row[j];
    }
  }

  void binv_row(std::size_t i, std::span<double> out) const override {
    const auto row = binv_.row(i);
    for (std::size_t j = 0; j < m_; ++j) out[j] = row[j];
  }

  void binv_col(std::size_t j, std::span<double> out) const override {
    for (std::size_t i = 0; i < m_; ++i) out[i] = binv_(i, j);
  }

  [[nodiscard]] std::size_t refactor_count() const noexcept override {
    return refactors_;
  }

 private:
  [[nodiscard]] bool invert_basis(std::span<const std::uint32_t> basis,
                                  vblas::Matrix<double>& out) const {
    vblas::Matrix<double> b_mat(m_, m_);
    std::vector<double> colbuf(m_);
    for (std::size_t j = 0; j < m_; ++j) {
      std::fill(colbuf.begin(), colbuf.end(), 0.0);
      cols_->gather(basis[j], colbuf);
      for (std::size_t i = 0; i < m_; ++i) b_mat(i, j) = colbuf[i];
    }
    try {
      out = vblas::ref::invert(std::move(b_mat), kSingularTol);
    } catch (const gs::Error&) {
      return false;
    }
    return true;
  }

  void charge_reinvert() {
    meter_->charge("warm_init",
                   2.0 * double(m_) * double(m_) * double(m_) +
                       2.0 * double(m_) * double(m_),
                   double((3 * m_ * m_ + 2 * m_) * sizeof(double)));
  }

  std::size_t m_;
  const ColumnSource* cols_;
  CostMeter* meter_;
  vblas::Matrix<double> binv_;
  std::size_t refactors_ = 0;
};

}  // namespace gs::simplex::basis
