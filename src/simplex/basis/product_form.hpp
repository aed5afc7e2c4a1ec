// ProductFormOracle: the product form behind the BasisOracle seam.
//
//   B_k^-1 = E_k ... E_1 B_0^-1
//
// The oracle holds one EtaFile: B_0's sparse LU (SparseLu,
// threshold-Markowitz) as position etas, then one update eta per pivot
// instead of an O(m^2) inverse update. Per-pivot cost is O(nnz of the eta
// file), the product-form payoff that opens the m >= 4k regime (Huangfu &
// Hall; see PAPERS.md). The file also decides when to refactor (an
// interval of `reinversion_period` updates, or an update multiplier past
// kEtaGrowthLimit); the engine emits the recorder's refactor event.
//
// The device engines' product form holds the same EtaFile, factored by the
// same SparseLu, and walks it with the same loops on device. The host
// charges its solves as `sparse_ftran` / `sparse_btran` (through B_0) plus
// `eta_apply` (through the updates).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "simplex/basis/basis_oracle.hpp"
#include "simplex/basis/eta_file.hpp"
#include "simplex/basis/sparse_lu.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/types.hpp"
#include "support/error.hpp"

namespace gs::simplex::basis {

class ProductFormOracle final : public BasisOracle {
 public:
  /// `cols` and `basis0` describe the initial (crash) basis; `cols` must
  /// outlive the oracle. The crash basis is diagonal (+/-1 slacks and
  /// artificials), so the initial factorization always succeeds.
  ProductFormOracle(std::size_t m, std::span<const std::uint32_t> basis0,
                    const ColumnSource& cols, CostMeter& meter,
                    const SolverOptions& opt)
      : m_(m), cols_(&cols), meter_(&meter), opt_(&opt) {
    std::optional<EtaFile> file = SparseLu::factorize(cols, basis0);
    GS_CHECK_MSG(file.has_value(), "product-form: singular crash basis");
    file_ = *std::move(file);
  }

  [[nodiscard]] std::size_t dim() const noexcept override { return m_; }

  void btran(std::span<const double> cb, std::span<double> pi) override {
    btran_raw(cb, pi);
    charge_solve("sparse_btran");
  }

  void ftran(std::span<const double> col, std::span<double> alpha) override {
    ftran_raw(col, alpha);
    charge_solve("sparse_ftran");
  }

  /// Append one eta built from the FTRAN'd pivot column.
  void update(std::size_t p, std::span<const double> alpha) override {
    const auto nnz = double(file_.append(p, alpha) + 1);
    meter_->charge("eta_append", nnz, 2.0 * nnz * sizeof(double));
  }

  [[nodiscard]] bool warm_start(std::span<const std::uint32_t> basis,
                                std::span<const double> b,
                                std::vector<double>& beta_out) override {
    // A singular basis aborts the factorization at a data-dependent
    // column, which the refactor formula would overcharge: uncharged.
    std::optional<EtaFile> file = SparseLu::factorize(*cols_, basis);
    if (!file.has_value()) return false;
    std::vector<double> beta(m_);
    file->ftran(b, beta);
    // The factorization and the beta FTRAN ran whether or not the basis
    // is accepted below.
    charge_factorize(*file);
    charge_lu_solve("sparse_ftran", file->factor_nnz());
    for (const double v : beta) {
      if (v < -1e-9) return false;  // primal infeasible here: cold solve
    }
    for (double& v : beta) {
      if (v < 0.0) v = 0.0;
    }
    file_ = *std::move(file);
    beta_out = std::move(beta);
    return true;
  }

  [[nodiscard]] bool refactorize(
      std::span<const std::uint32_t> basis) override {
    std::optional<EtaFile> file = SparseLu::factorize(*cols_, basis);
    if (!file.has_value()) return false;
    charge_factorize(*file);
    file_ = *std::move(file);
    ++refactors_;
    return true;
  }

  [[nodiscard]] bool wants_refactor() const noexcept override {
    return file_.refactor_due(opt_->reinversion_period);
  }

  void ftran_raw(std::span<const double> col,
                 std::span<double> out) const override {
    file_.ftran(col, out);
  }

  void btran_raw(std::span<const double> cb,
                 std::span<double> out) const override {
    file_.btran(cb, out);
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
    return file_.updates();
  }
  [[nodiscard]] std::size_t refactor_count() const noexcept override {
    return refactors_;
  }

 private:
  void charge_factorize(const EtaFile& file) {
    const vgpu::KernelCost cost = file.factor_cost(sizeof(double));
    meter_->charge("sparse_refactor", cost.flops, cost.bytes);
  }

  /// One solve through LU factors holding `lu_nnz` nonzeros.
  void charge_lu_solve(const char* step, std::size_t lu_nnz) {
    meter_->charge(step, 2.0 * double(lu_nnz) + double(m_),
                   double((2 * lu_nnz + 2 * m_) * sizeof(double)));
  }

  void charge_solve(const char* step) {
    charge_lu_solve(step, file_.factor_nnz());
    if (file_.updates() > 0) {
      const std::size_t nnz = file_.update_nnz();
      meter_->charge("eta_apply", 2.0 * double(nnz),
                     double((2 * nnz + file_.updates()) * sizeof(double)));
    }
  }

  std::size_t m_;
  const ColumnSource* cols_;
  CostMeter* meter_;
  const SolverOptions* opt_;
  EtaFile file_;
  std::size_t refactors_ = 0;
};

}  // namespace gs::simplex::basis
