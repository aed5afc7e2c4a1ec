// BasisOracle: the basis-representation seam of the simplex engines.
//
// Every revised-simplex iteration needs exactly four linear-algebra
// services from the basis matrix B: BTRAN (pi^T = c_B^T B^-1), FTRAN
// (alpha = B^-1 a_q), the post-pivot update, and a from-scratch
// (re)factorization. The paper's engines answer them with an explicit
// dense B^-1 and an O(m^2) Gauss-Jordan rank-1 update per pivot — the
// hard cap on problem size. Huangfu & Hall's product-form/eta scheme
// answers the same four questions in O(nnz) of a sparse LU plus an eta
// file, with periodic refactorization bounding the eta growth.
//
// This interface makes the choice a runtime knob (SolverOptions::basis)
// instead of an engine rewrite: ExplicitInverseOracle preserves the
// original dense path bit-for-bit (same arithmetic order, same CostMeter
// charges), ProductFormOracle supplies the sparse path. Engines own the
// simplex logic (pricing, ratio tests, beta updates); oracles own B.
#pragma once

#include <cstdint>
#include <span>

#include "sparse/csr.hpp"
#include "vblas/containers.hpp"

namespace gs::simplex::basis {

/// Eta-file conditioning guard shared by the host ProductFormOracle and the
/// device engines' product form: refactorize as soon as an eta multiplier
/// (|1/alpha_p| or |alpha_i/alpha_p|) exceeds it — a huge multiplier means
/// the represented inverse is drifting.
inline constexpr double kEtaGrowthLimit = 1e8;

/// Read-only access to columns of the augmented constraint matrix A
/// (the source from which basis columns are gathered for factorization).
/// `gather` writes column `col` (length m) into `out`; the caller
/// pre-zeroes `out`, so sparse sources need only write their nonzeros.
class ColumnSource {
 public:
  virtual ~ColumnSource() = default;
  virtual void gather(std::uint32_t col, std::span<double> out) const = 0;
};

/// Dense A^T source (n_aug x m): row j of A^T is column j of A.
class DenseColumnSource final : public ColumnSource {
 public:
  explicit DenseColumnSource(const vblas::Matrix<double>& at) : at_(&at) {}
  void gather(std::uint32_t col, std::span<double> out) const override {
    const auto row = at_->row(col);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = row[i];
  }

 private:
  const vblas::Matrix<double>* at_;
};

/// CSR A^T source (n_aug x m): row j of A^T holds the nonzeros of
/// column j of A — the scalable source for sparse instances.
class CsrColumnSource final : public ColumnSource {
 public:
  explicit CsrColumnSource(const sparse::CsrMatrix<double>& at) : at_(&at) {}
  void gather(std::uint32_t col, std::span<double> out) const override {
    const auto& offs = at_->row_offsets();
    const auto& idx = at_->col_indices();
    const auto& val = at_->values();
    for (std::uint32_t k = offs[col]; k < offs[col + 1]; ++k) {
      out[idx[k]] = val[k];
    }
  }

 private:
  const sparse::CsrMatrix<double>* at_;
};

/// Abstract basis representation. All vectors indexed by basis position
/// (tableau row) unless noted; `m` is the basis dimension throughout.
class BasisOracle {
 public:
  virtual ~BasisOracle() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual std::size_t dim() const noexcept = 0;

  /// pi^T = c_B^T B^-1. `cb[i]` is the cost of the variable basic in row
  /// i; `pi` (length m, original-row space) is overwritten. Charged.
  virtual void btran(std::span<const double> cb, std::span<double> pi) = 0;

  /// alpha = B^-1 col, where `col` is a dense length-m constraint column
  /// (original-row space). Charged.
  virtual void ftran(std::span<const double> col, std::span<double> alpha) = 0;

  /// Fold the pivot on row `p` with FTRAN'd column `alpha` into the
  /// representation (Gauss-Jordan rank-1 for the explicit inverse, one
  /// eta for the product form). Charged.
  virtual void update(std::size_t p, std::span<const double> alpha) = 0;

  /// Warm-start attempt: factorize the basis given by `basis` (columns of
  /// A, one per row), compute beta = B^-1 b, and accept iff beta >= -1e-9
  /// (clamping small negatives to zero). On rejection — singular B or
  /// primal-infeasible beta — the prior representation is untouched and
  /// nothing is charged. Charged once on acceptance.
  [[nodiscard]] virtual bool warm_start(std::span<const std::uint32_t> basis,
                                        std::span<const double> b,
                                        std::vector<double>& beta_out) = 0;

  /// Rebuild the representation from scratch for `basis` with no
  /// feasibility gate (refactorization; also the dual engine's entry
  /// point, which tolerates primal-infeasible bases). Returns false and
  /// leaves the prior representation untouched when B is singular.
  /// Charged on success.
  [[nodiscard]] virtual bool refactorize(
      std::span<const std::uint32_t> basis) = 0;

  /// Refactorization policy: true when the engine should refactorize
  /// after the pivot it just applied (interval- or growth-triggered).
  [[nodiscard]] virtual bool wants_refactor() const noexcept { return false; }

  /// Uncharged solves for bookkeeping paths (health probes, ranging,
  /// artificial drive-out, warm-start beta). Same arithmetic as the
  /// charged entry points, no meter traffic.
  virtual void ftran_raw(std::span<const double> col,
                         std::span<double> out) const = 0;
  virtual void btran_raw(std::span<const double> cb,
                         std::span<double> out) const = 0;

  /// Row i of B^-1 (e_i^T B^-1) and column j of B^-1 (B^-1 e_j),
  /// uncharged. The explicit oracle copies; the product form solves.
  virtual void binv_row(std::size_t i, std::span<double> out) const = 0;
  virtual void binv_col(std::size_t j, std::span<double> out) const = 0;

  /// Non-null only for the explicit-inverse oracle: direct access to the
  /// dense B^-1 for probe-style readers (health sampling).
  [[nodiscard]] virtual const vblas::Matrix<double>* dense_inverse()
      const noexcept {
    return nullptr;
  }

  /// Product-form bookkeeping (0 / 0 for the explicit inverse).
  [[nodiscard]] virtual std::size_t eta_count() const noexcept { return 0; }
  [[nodiscard]] virtual std::size_t refactor_count() const noexcept {
    return 0;
  }
};

}  // namespace gs::simplex::basis
