// Unit tests for the standard-form conversion pipeline and the augmentation
// / crash-basis setup: every bound kind, rhs flipping, slack/surplus
// columns, objective offsets, and solution recovery.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/problem.hpp"
#include "lp/standard_form.hpp"
#include "simplex/phase_setup.hpp"

namespace gs::lp {
namespace {

/// Evaluate A y for a standard form (dense walk over sparse rows).
[[nodiscard]] std::vector<double> apply_rows(const StandardFormLp& sf,
                                             std::span<const double> y) {
  std::vector<double> out(sf.num_rows(), 0.0);
  for (std::size_t i = 0; i < sf.num_rows(); ++i) {
    for (const Term& t : sf.rows[i]) out[i] += t.coef * y[t.var];
  }
  return out;
}

TEST(StandardForm, DirectVariablePassesThrough) {
  LpProblem p;
  const auto x = p.add_variable("x", 2.0);
  p.add_constraint("c", {{x, 3.0}}, RowSense::kLe, 6.0);
  const auto sf = to_standard_form(p);
  EXPECT_EQ(sf.num_rows(), 1u);
  EXPECT_EQ(sf.num_cols(), 2u);  // x + slack
  EXPECT_DOUBLE_EQ(sf.c[0], 2.0);
  EXPECT_DOUBLE_EQ(sf.b[0], 6.0);
  EXPECT_EQ(sf.slack_col[0], 1);
  EXPECT_DOUBLE_EQ(sf.objective_offset, 0.0);
  const auto x_back = sf.recover(std::vector<double>{1.5, 0.0});
  EXPECT_DOUBLE_EQ(x_back[0], 1.5);
}

TEST(StandardForm, ShiftedLowerBound) {
  // x >= 2, minimize x subject to x <= 5 -> optimum x = 2.
  LpProblem p;
  const auto x = p.add_variable("x", 1.0, 2.0, kInf);
  p.add_constraint("c", {{x, 1.0}}, RowSense::kLe, 5.0);
  const auto sf = to_standard_form(p);
  // substitution y = x - 2 makes the row y <= 3.
  EXPECT_DOUBLE_EQ(sf.b[0], 3.0);
  EXPECT_DOUBLE_EQ(sf.objective_offset, 2.0);
  const auto x_back = sf.recover(std::vector<double>{0.0, 3.0});
  EXPECT_DOUBLE_EQ(x_back[0], 2.0);  // y = 0 -> x = 2
  EXPECT_DOUBLE_EQ(sf.original_objective(0.0), 2.0);
}

TEST(StandardForm, NegatedUpperBoundOnly) {
  // x <= -1 with no lower bound: y = -1 - x >= 0, x = -1 - y.
  LpProblem p;
  const auto x = p.add_variable("x", 1.0, -kInf, -1.0);
  p.add_constraint("c", {{x, 1.0}}, RowSense::kGe, -4.0);
  const auto sf = to_standard_form(p);
  // x = u - y with u = -1: recover from y.
  const auto x1 = sf.recover(std::vector<double>(sf.num_cols(), 0.0));
  EXPECT_DOUBLE_EQ(x1[0], -1.0);
  std::vector<double> y(sf.num_cols(), 0.0);
  y[0] = 2.0;
  EXPECT_DOUBLE_EQ(sf.recover(y)[0], -3.0);
  // objective offset: c*u = -1.
  EXPECT_DOUBLE_EQ(sf.objective_offset, -1.0);
}

TEST(StandardForm, DoubleBoundAddsUpperRow) {
  LpProblem p;
  const auto x = p.add_variable("x", 1.0, -3.0, 3.0);
  p.add_constraint("c", {{x, 1.0}}, RowSense::kLe, 2.0);
  const auto sf = to_standard_form(p);
  // Rows: original constraint + bound row y <= 6.
  EXPECT_EQ(sf.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(sf.b[1], 6.0);
  // original row: y - 3 <= 2 -> y <= 5.
  EXPECT_DOUBLE_EQ(sf.b[0], 5.0);
}

TEST(StandardForm, FixedVariableBecomesZeroRange) {
  LpProblem p;
  (void)p.add_variable("x", 1.0, 4.0, 4.0);
  const auto sf = to_standard_form(p);
  // y in [0, 0]: bound row rhs is 0.
  EXPECT_DOUBLE_EQ(sf.b.back(), 0.0);
  EXPECT_DOUBLE_EQ(sf.recover(std::vector<double>(sf.num_cols(), 0.0))[0],
                   4.0);
}

TEST(StandardForm, FreeVariableSplits) {
  LpProblem p;
  const auto x = p.add_variable("x", 5.0, -kInf, kInf);
  p.add_constraint("c", {{x, 2.0}}, RowSense::kEq, -6.0);
  const auto sf = to_standard_form(p);
  // Two structural columns with opposite costs.
  EXPECT_DOUBLE_EQ(sf.c[0], 5.0);
  EXPECT_DOUBLE_EQ(sf.c[1], -5.0);
  std::vector<double> y(sf.num_cols(), 0.0);
  y[0] = 1.0;
  y[1] = 4.0;
  EXPECT_DOUBLE_EQ(sf.recover(y)[0], -3.0);
  // Equality row with negative rhs must have been flipped to b >= 0.
  EXPECT_DOUBLE_EQ(sf.b[0], 6.0);
  // coefficient signs flipped accordingly: -2 y0 + 2 y1 = 6.
  const auto ay = apply_rows(sf, y);
  EXPECT_DOUBLE_EQ(ay[0], 6.0);
}

TEST(StandardForm, NegativeRhsFlipsSense) {
  LpProblem p;
  const auto x = p.add_variable("x", 1.0);
  p.add_constraint("le", {{x, 1.0}}, RowSense::kLe, -2.0);  // -> >= with b=2
  const auto sf = to_standard_form(p);
  EXPECT_DOUBLE_EQ(sf.b[0], 2.0);
  // A '>=' row gets a surplus (-1) column, not a crash slack.
  EXPECT_EQ(sf.slack_col[0], -1);
  bool has_minus_one = false;
  for (const Term& t : sf.rows[0]) has_minus_one |= t.coef == -1.0;
  EXPECT_TRUE(has_minus_one);
}

TEST(StandardForm, MaximizeIsNegated) {
  LpProblem p(Objective::kMaximize);
  const auto x = p.add_variable("x", 3.0);
  p.add_constraint("c", {{x, 1.0}}, RowSense::kLe, 2.0);
  const auto sf = to_standard_form(p);
  EXPECT_TRUE(sf.negated);
  EXPECT_DOUBLE_EQ(sf.c[0], -3.0);
  // standard-form z_min = -6 at y = 2 -> original max objective 6.
  EXPECT_DOUBLE_EQ(sf.original_objective(-6.0), 6.0);
}

TEST(StandardForm, SurplusForGeRows) {
  LpProblem p;
  const auto x = p.add_variable("x", 1.0);
  p.add_constraint("c", {{x, 1.0}}, RowSense::kGe, 3.0);
  const auto sf = to_standard_form(p);
  EXPECT_EQ(sf.slack_col[0], -1);
  EXPECT_EQ(sf.num_cols(), 2u);
  // Check equality holds with surplus: x - s = 3 at x=5, s=2.
  const auto ay = apply_rows(sf, std::vector<double>{5.0, 2.0});
  EXPECT_DOUBLE_EQ(ay[0], 3.0);
}

TEST(StandardForm, EqualityRowsGetNoAuxiliaryColumn) {
  LpProblem p;
  const auto x = p.add_variable("x", 1.0);
  p.add_constraint("c", {{x, 1.0}}, RowSense::kEq, 3.0);
  const auto sf = to_standard_form(p);
  EXPECT_EQ(sf.num_cols(), 1u);
  EXPECT_EQ(sf.slack_col[0], -1);
}

TEST(StandardForm, DenseAndCsrAgree) {
  LpProblem p(Objective::kMaximize);
  const auto x = p.add_variable("x", 1.0, 1.0, 4.0);
  const auto y = p.add_variable("y", 2.0, -kInf, kInf);
  p.add_constraint("c1", {{x, 2.0}, {y, -1.0}}, RowSense::kLe, 5.0);
  p.add_constraint("c2", {{x, 1.0}, {y, 1.0}}, RowSense::kGe, -1.0);
  const auto sf = to_standard_form(p);
  const auto dense = sf.dense_a();
  const auto csr = sf.csr_a();
  ASSERT_EQ(dense.rows(), csr.rows());
  ASSERT_EQ(dense.cols(), csr.cols());
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      EXPECT_DOUBLE_EQ(dense(i, j), csr.at(i, j));
    }
  }
  EXPECT_EQ(sf.num_nonzeros(), csr.nnz());
}

TEST(StandardForm, ColumnNamesCoverAllColumns) {
  LpProblem p;
  const auto x = p.add_variable("x", 1.0, -kInf, kInf);
  p.add_constraint("c", {{x, 1.0}}, RowSense::kLe, 1.0);
  const auto sf = to_standard_form(p);
  EXPECT_EQ(sf.col_names.size(), sf.num_cols());
  EXPECT_EQ(sf.col_names[0], "x_pos");
  EXPECT_EQ(sf.col_names[1], "x_neg");
}

// ------------------------------------------------------------ augmentation

TEST(Augment, PureLeProblemNeedsNoArtificials) {
  LpProblem p;
  const auto x = p.add_variable("x", -1.0);
  p.add_constraint("c1", {{x, 1.0}}, RowSense::kLe, 4.0);
  p.add_constraint("c2", {{x, 2.0}}, RowSense::kLe, 6.0);
  const auto sf = to_standard_form(p);
  const auto aug = simplex::augment(sf);
  EXPECT_EQ(aug.num_artificial, 0u);
  EXPECT_EQ(aug.n_aug, aug.n);
  // slack crash basis: beta = b, identity B^-1.
  EXPECT_DOUBLE_EQ(aug.beta_init[0], 4.0);
  EXPECT_DOUBLE_EQ(aug.binv_diag[1], 1.0);
  EXPECT_TRUE(aug.c_phase1.empty() ||
              *std::max_element(aug.c_phase1.begin(), aug.c_phase1.end()) ==
                  0.0);
}

TEST(Augment, GeAndEqRowsGetArtificials) {
  LpProblem p;
  const auto x = p.add_variable("x", 1.0);
  p.add_constraint("le", {{x, 1.0}}, RowSense::kLe, 4.0);
  p.add_constraint("ge", {{x, 1.0}}, RowSense::kGe, 1.0);
  p.add_constraint("eq", {{x, 1.0}}, RowSense::kEq, 2.0);
  const auto sf = to_standard_form(p);
  const auto aug = simplex::augment(sf);
  EXPECT_EQ(aug.num_artificial, 2u);
  EXPECT_EQ(aug.artificial_rows.size(), 2u);
  EXPECT_EQ(aug.artificial_rows[0], 1u);
  EXPECT_EQ(aug.artificial_rows[1], 2u);
  // phase-1 costs: 1 exactly on artificial columns.
  for (std::size_t j = 0; j < aug.n_aug; ++j) {
    EXPECT_DOUBLE_EQ(aug.c_phase1[j], aug.is_artificial[j] ? 1.0 : 0.0);
    EXPECT_DOUBLE_EQ(aug.c_phase2[j],
                     aug.is_artificial[j] ? 0.0 : sf.c[j]);
  }
}

TEST(Augment, MatrixFormsAgree) {
  LpProblem p;
  const auto x = p.add_variable("x", 1.0);
  const auto y = p.add_variable("y", -1.0);
  p.add_constraint("c1", {{x, 1.0}, {y, 2.0}}, RowSense::kGe, 1.0);
  p.add_constraint("c2", {{x, 3.0}}, RowSense::kLe, 9.0);
  const auto sf = to_standard_form(p);
  const auto aug = simplex::augment(sf);
  const auto at = aug.dense_at();
  const auto a = aug.dense_a();
  const auto csr_at = aug.csr_at();
  ASSERT_EQ(at.rows(), aug.n_aug);
  ASSERT_EQ(at.cols(), aug.m);
  for (std::size_t j = 0; j < aug.n_aug; ++j) {
    for (std::size_t i = 0; i < aug.m; ++i) {
      EXPECT_DOUBLE_EQ(at(j, i), a(i, j));
      EXPECT_DOUBLE_EQ(at(j, i), csr_at.at(j, i));
    }
  }
  // The device's two parts: x dense, then y (a structural single-entry
  // column just before the logical ones) and every logical column as a
  // (row, value) pair; a later split (the batch engine's common one)
  // stores the columns in between densely.
  EXPECT_EQ(aug.single_entry_tail(), 1u);
  for (const std::size_t n_dense : {aug.single_entry_tail(), aug.n}) {
    const std::vector<double> two = aug.two_part_at<double>(n_dense);
    ASSERT_EQ(two.size(), n_dense * aug.m + 2 * (aug.n_aug - n_dense));
    for (std::size_t j = 0; j < aug.n_aug; ++j) {
      for (std::size_t i = 0; i < aug.m; ++i) {
        double stored = 0.0;
        if (j < n_dense) {
          stored = two[j * aug.m + i];
        } else if (const std::size_t k = n_dense * aug.m + 2 * (j - n_dense);
                   two[k] == double(i)) {
          stored = two[k + 1];
        }
        EXPECT_DOUBLE_EQ(at(j, i), stored) << "column " << j;
      }
    }
  }
}

TEST(Augment, CrashBasisRespectsScaledSlackCoefficient) {
  LpProblem p;
  const auto x = p.add_variable("x", 1.0);
  p.add_constraint("c", {{x, 4.0}}, RowSense::kLe, 8.0);
  auto sf = to_standard_form(p);
  // Manually scale the row by 0.5 (slack coefficient becomes 0.5).
  for (Term& t : sf.rows[0]) t.coef *= 0.5;
  sf.b[0] *= 0.5;
  const auto aug = simplex::augment(sf);
  EXPECT_DOUBLE_EQ(aug.binv_diag[0], 2.0);   // 1 / 0.5
  EXPECT_DOUBLE_EQ(aug.beta_init[0], 8.0);   // 4.0 / 0.5
}

}  // namespace
}  // namespace gs::lp
