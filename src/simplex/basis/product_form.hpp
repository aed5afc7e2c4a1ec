// ProductFormOracle: eta-file basis representation over a sparse LU.
//
//   B_k^-1 = E_k ... E_1 B_0^-1
//
// B_0 is held as a sparse LU (SparseLu, threshold-Markowitz); each pivot
// appends one sparse eta vector instead of touching an O(m^2) inverse.
// FTRAN solves through the factors then applies etas oldest-first; BTRAN
// applies eta transposes newest-first then solves the transposed
// factors. Per-pivot cost is O(nnz of the eta file) — the product-form
// payoff that opens the m >= 4k regime (Huangfu & Hall; see PAPERS.md).
//
// Refactorization folds the eta file back into a fresh B_0 and is
// triggered two ways, mirroring the device engine's policy:
//   - interval: every `reinversion_period` etas (0 means every m), and
//   - growth:   when any eta multiplier exceeds kGrowthLimit (the
//     eta-file conditioning guard from the GPU-simplex literature).
// The engine emits the recorder's refactor event when either fires.
//
// CostMeter step names match the vgpu base-solve kernels (`sparse_ftran`,
// `sparse_btran`); the host charges its eta applications as `eta_apply`
// where the device walks the file in one `eta_ftran_chain` /
// `eta_btran_chain` launch per direction.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "simplex/basis/basis_oracle.hpp"
#include "simplex/basis/sparse_lu.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/types.hpp"
#include "support/error.hpp"

namespace gs::simplex::basis {

class ProductFormOracle final : public BasisOracle {
 public:
  static constexpr double kGrowthLimit = kEtaGrowthLimit;

  /// `cols` and `basis0` describe the initial (crash) basis; `cols` must
  /// outlive the oracle. The crash basis is diagonal (+/-1 slacks and
  /// artificials), so the initial factorization always succeeds.
  ProductFormOracle(std::size_t m, std::span<const std::uint32_t> basis0,
                    const ColumnSource& cols, CostMeter& meter,
                    const SolverOptions& opt)
      : m_(m), cols_(&cols), meter_(&meter), opt_(&opt) {
    const bool ok = lu_.factorize(cols, basis0);
    GS_CHECK_MSG(ok, "product-form: singular crash basis");
  }

  [[nodiscard]] const char* name() const noexcept override {
    return "product-form";
  }
  [[nodiscard]] std::size_t dim() const noexcept override { return m_; }

  void btran(std::span<const double> cb, std::span<double> pi) override {
    for (std::size_t i = 0; i < m_; ++i) pi[i] = cb[i];
    apply_etas_transposed(pi);
    lu_.btran(pi);
    charge_solve("sparse_btran");
  }

  void ftran(std::span<const double> col, std::span<double> alpha) override {
    for (std::size_t i = 0; i < m_; ++i) alpha[i] = col[i];
    lu_.ftran(alpha);
    apply_etas(alpha);
    charge_solve("sparse_ftran");
  }

  /// Append one eta built from the FTRAN'd pivot column.
  void update(std::size_t p, std::span<const double> alpha) override {
    Eta eta;
    eta.p = static_cast<std::uint32_t>(p);
    eta.pval = alpha[p];
    for (std::size_t i = 0; i < m_; ++i) {
      if (i != p && alpha[i] != 0.0) {
        eta.entries.push_back({static_cast<std::uint32_t>(i), alpha[i]});
      }
    }
    const double inv_p = std::abs(1.0 / eta.pval);
    growth_ = std::max(growth_, inv_p);
    for (const auto& e : eta.entries) {
      growth_ = std::max(growth_, std::abs(e.val * inv_p));
    }
    eta_nnz_ += eta.entries.size() + 1;
    const auto nnz = double(eta.entries.size() + 1);
    etas_.push_back(std::move(eta));
    meter_->charge("eta_append", nnz, 2.0 * nnz * sizeof(double));
  }

  [[nodiscard]] bool warm_start(std::span<const std::uint32_t> basis,
                                std::span<const double> b,
                                std::vector<double>& beta_out) override {
    SparseLu lu;
    if (!lu.factorize(*cols_, basis)) return false;
    std::vector<double> beta(b.begin(), b.end());
    lu.ftran(beta);
    for (const double v : beta) {
      if (v < -1e-9) return false;  // primal infeasible here: cold solve
    }
    for (double& v : beta) {
      if (v < 0.0) v = 0.0;
    }
    install(std::move(lu));
    beta_out = std::move(beta);
    return true;
  }

  [[nodiscard]] bool refactorize(
      std::span<const std::uint32_t> basis) override {
    SparseLu lu;
    if (!lu.factorize(*cols_, basis)) return false;
    install(std::move(lu));
    ++refactors_;
    return true;
  }

  [[nodiscard]] bool wants_refactor() const noexcept override {
    const std::size_t interval =
        opt_->reinversion_period > 0 ? opt_->reinversion_period : m_;
    return etas_.size() >= interval || growth_ > kGrowthLimit;
  }

  void ftran_raw(std::span<const double> col,
                 std::span<double> out) const override {
    for (std::size_t i = 0; i < m_; ++i) out[i] = col[i];
    lu_.ftran(out);
    apply_etas(out);
  }

  void btran_raw(std::span<const double> cb,
                 std::span<double> out) const override {
    for (std::size_t i = 0; i < m_; ++i) out[i] = cb[i];
    apply_etas_transposed(out);
    lu_.btran(out);
  }

  void binv_row(std::size_t i, std::span<double> out) const override {
    std::vector<double> e(m_, 0.0);
    e[i] = 1.0;
    btran_raw(e, out);
  }

  void binv_col(std::size_t j, std::span<double> out) const override {
    std::vector<double> e(m_, 0.0);
    e[j] = 1.0;
    ftran_raw(e, out);
  }

  [[nodiscard]] std::size_t eta_count() const noexcept override {
    return etas_.size();
  }
  [[nodiscard]] std::size_t refactor_count() const noexcept override {
    return refactors_;
  }
  [[nodiscard]] std::size_t factor_nnz() const noexcept { return lu_.nnz(); }
  [[nodiscard]] std::size_t eta_nnz() const noexcept { return eta_nnz_; }

 private:
  struct EtaEntry {
    std::uint32_t row;
    double val;
  };
  struct Eta {
    std::uint32_t p = 0;   ///< pivot row (basis position)
    double pval = 1.0;     ///< alpha_p
    std::vector<EtaEntry> entries;  ///< off-pivot alpha_i != 0
  };

  void install(SparseLu&& lu) {
    lu_ = std::move(lu);
    etas_.clear();
    eta_nnz_ = 0;
    growth_ = 0.0;
    // One sparse refactorization: ~2 flops per LU nonzero per eliminated
    // column plus the gather sweep, far below the dense 2m^3.
    const auto nnz = double(lu_.nnz());
    meter_->charge("sparse_refactor", 4.0 * nnz + 2.0 * double(m_),
                   double((2 * lu_.nnz() + 2 * m_) * sizeof(double)));
  }

  /// x := E_k ... E_1 x (FTRAN order).
  void apply_etas(std::span<double> x) const {
    for (const Eta& eta : etas_) {
      const double t = x[eta.p] / eta.pval;
      if (t != 0.0) {
        for (const EtaEntry& e : eta.entries) x[e.row] -= e.val * t;
      }
      x[eta.p] = t;
    }
  }

  /// x := E_1^T ... E_k^T x (BTRAN order: newest eta first).
  void apply_etas_transposed(std::span<double> x) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double acc = x[it->p];
      for (const EtaEntry& e : it->entries) acc -= e.val * x[e.row];
      x[it->p] = acc / it->pval;
    }
  }

  void charge_solve(const char* step) {
    const auto lu_nnz = double(lu_.nnz());
    meter_->charge(step, 2.0 * lu_nnz + double(m_),
                   double((2 * lu_.nnz() + 2 * m_) * sizeof(double)));
    if (!etas_.empty()) {
      const auto nnz = double(eta_nnz_);
      meter_->charge("eta_apply", 2.0 * nnz,
                     double((2 * eta_nnz_ + etas_.size()) * sizeof(double)));
    }
  }

  std::size_t m_;
  const ColumnSource* cols_;
  CostMeter* meter_;
  const SolverOptions* opt_;
  SparseLu lu_;
  std::vector<Eta> etas_;
  std::size_t eta_nnz_ = 0;
  std::size_t refactors_ = 0;
  double growth_ = 0.0;
};

}  // namespace gs::simplex::basis
