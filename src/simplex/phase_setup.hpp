// Shared pre-solve scaffolding: artificial-variable augmentation and the
// slack crash basis. Every engine consumes this so phase handling is
// identical across the device solver and the CPU baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/standard_form.hpp"
#include "sparse/csr.hpp"
#include "vblas/containers.hpp"

namespace gs::simplex {

/// Standard form + artificial columns + the crash basis.
///
/// Columns [0, n) are the standard-form columns; columns [n, n_aug) are
/// artificial unit columns, appended only for rows whose slack cannot seed
/// the initial basis ('>=' and '=' rows). Artificial columns never re-enter
/// the basis once they leave (they are permanently masked from pricing).
struct AugmentedLp {
  std::size_t m = 0;      ///< rows
  std::size_t n = 0;      ///< standard-form columns
  std::size_t n_aug = 0;  ///< n + num_artificial

  std::vector<double> c_phase1;  ///< 1 on artificials, 0 elsewhere
  std::vector<double> c_phase2;  ///< standard-form c, 0 on artificials
  std::vector<double> b;

  /// Initial basis: basic[i] is the basic column of row i (a slack or an
  /// artificial). The initial basis matrix is diagonal; its inverse is
  /// diag(binv_diag), and beta = B^-1 b is beta_init.
  std::vector<std::uint32_t> basic;
  std::vector<double> binv_diag;
  std::vector<double> beta_init;

  std::vector<bool> is_artificial;       ///< per column
  std::size_t num_artificial = 0;
  /// Row covered by each artificial: column n + k is the unit column of
  /// row artificial_rows[k].
  std::vector<std::uint32_t> artificial_rows;

  const lp::StandardFormLp* source = nullptr;

  /// Augmented A^T, dense (n_aug x m): row j is column j of A. Transposed
  /// storage gives contiguous column reads, the layout the paper uses.
  [[nodiscard]] vblas::Matrix<double> dense_at() const;

  /// Start of the trailing run of columns with exactly one entry. The
  /// standard form appends its slack and surplus columns after the
  /// structural ones and augment() the artificials after those, so the run
  /// holds every logical column (and any single-entry structural columns
  /// just before them).
  [[nodiscard]] std::size_t single_entry_tail() const;

  /// Augmented A^T in the device's two parts, built in one pass like
  /// dense_at(): columns [0, n_dense) as dense rows of m entries, then one
  /// (row, value) pair per column of [n_dense, n_aug), its row stored as a
  /// value (exact up to 2^24, as the pivot descriptor's indices).
  /// n_dense >= single_entry_tail(); a larger n_dense stores the columns
  /// in between densely (the batch engine's common split).
  template <typename Real>
  [[nodiscard]] std::vector<Real> two_part_at(std::size_t n_dense) const;

  /// Augmented A^T in CSR (for the sparse engine).
  [[nodiscard]] sparse::CsrMatrix<double> csr_at() const;

  /// Augmented A, dense (m x n_aug): the tableau baseline's layout.
  [[nodiscard]] vblas::Matrix<double> dense_a() const;
};

/// Build the augmentation + crash basis. Requires a valid standard form
/// (b >= 0, each slack column with a single positive entry).
[[nodiscard]] AugmentedLp augment(const lp::StandardFormLp& sf);

/// Content digest of the decision-relevant problem data (shape, constraint
/// coefficients, rhs, phase-2 costs). Stamped into recording headers so
/// replay/diff can refuse to compare logs of different instances. FNV-1a
/// over the exact double bit patterns: engine- and precision-independent.
[[nodiscard]] std::uint64_t decision_digest(const AugmentedLp& lp);

}  // namespace gs::simplex
