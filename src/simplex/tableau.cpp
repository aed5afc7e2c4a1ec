#include "simplex/tableau.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "simplex/cost_meter.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/solve_frame.hpp"
#include "vblas/containers.hpp"

namespace gs::simplex {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Full tableau: body is B^-1 A (m x n_aug), rhs is B^-1 b, and reduced
/// costs are maintained in `drow` by the same eliminations.
struct Tableau {
  Tableau(const AugmentedLp& aug_in, const SolverOptions& opt_in,
          CostMeter& meter_in)
      : aug(aug_in),
        m(aug_in.m),
        n_aug(aug_in.n_aug),
        body(aug_in.dense_a()),
        rhs(aug_in.b),
        drow(aug_in.n_aug, 0.0),
        basic(aug_in.basic),
        in_basis(aug_in.n_aug, false),
        opt(opt_in),
        meter(meter_in) {
    // Normalize each row by its crash-basis pivot so the basis columns are
    // unit columns (the crash basis is diagonal, so this is a row scale).
    for (std::size_t i = 0; i < m; ++i) {
      const double s = aug.binv_diag[i];
      if (s != 1.0) {
        auto row = body.row(i);
        for (std::size_t j = 0; j < n_aug; ++j) row[j] *= s;
        rhs[i] *= s;
      }
    }
    for (std::uint32_t col : basic) in_basis[col] = true;
  }

  /// Install phase costs: drow = c - c_B^T (B^-1 A), z = c_B^T rhs.
  void price_from_scratch(const std::vector<double>& c) {
    for (std::size_t j = 0; j < n_aug; ++j) drow[j] = c[j];
    z = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double cbi = c[basic[i]];
      if (cbi == 0.0) continue;
      const auto row = body.row(i);
      for (std::size_t j = 0; j < n_aug; ++j) drow[j] -= cbi * row[j];
      z += cbi * rhs[i];
    }
    meter.charge("reprice", 2.0 * double(m) * double(n_aug),
                 double((m * n_aug + n_aug) * sizeof(double)));
  }

  [[nodiscard]] bool may_enter(std::size_t j) const {
    return !in_basis[j] && !aug.is_artificial[j];
  }

  const AugmentedLp& aug;
  std::size_t m, n_aug;
  vblas::Matrix<double> body;
  std::vector<double> rhs;
  std::vector<double> drow;
  double z = 0.0;  ///< c_B^T rhs as installed (each loop tracks it on)
  std::vector<std::uint32_t> basic;
  std::vector<bool> in_basis;
  const SolverOptions& opt;
  CostMeter& meter;
};

[[nodiscard]] std::optional<std::size_t> select_entering(const Tableau& t,
                                                         bool bland) {
  const double tol = PivotRule::kOptTol;
  if (bland) {
    for (std::size_t j = 0; j < t.n_aug; ++j) {
      if (t.may_enter(j) && t.drow[j] < -tol) return j;
    }
    return std::nullopt;
  }
  std::size_t best = t.n_aug;
  double best_d = -tol;
  for (std::size_t j = 0; j < t.n_aug; ++j) {
    if (t.may_enter(j) && t.drow[j] < best_d) {
      best_d = t.drow[j];
      best = j;
    }
  }
  if (best == t.n_aug) return std::nullopt;
  return best;
}

/// Gauss-Jordan elimination around pivot (p, q) over the whole tableau.
void eliminate(Tableau& t, std::size_t p, std::size_t q) {
  auto prow = t.body.row(p);
  const double pivot = prow[q];
  for (std::size_t j = 0; j < t.n_aug; ++j) prow[j] /= pivot;
  t.rhs[p] /= pivot;
  for (std::size_t i = 0; i < t.m; ++i) {
    if (i == p) continue;
    auto row = t.body.row(i);
    const double f = row[q];
    if (f == 0.0) continue;
    for (std::size_t j = 0; j < t.n_aug; ++j) row[j] -= f * prow[j];
    t.rhs[i] = std::max(0.0, t.rhs[i] - f * t.rhs[p]);
  }
  const double fd = t.drow[q];
  if (fd != 0.0) {
    for (std::size_t j = 0; j < t.n_aug; ++j) t.drow[j] -= fd * prow[j];
  }
  t.meter.charge("eliminate", 2.0 * double(t.m + 1) * double(t.n_aug),
                 double((2 * (t.m + 1) * t.n_aug) * sizeof(double)));
  const std::uint32_t leaving = t.basic[p];
  t.basic[p] = static_cast<std::uint32_t>(q);
  t.in_basis[leaving] = false;
  t.in_basis[q] = true;
}

/// Rows tied at the winning ratio in column q (recorder bookkeeping only).
[[nodiscard]] std::uint32_t count_ratio_ties(const Tableau& t, std::size_t q,
                                             double theta) {
  std::uint32_t ties = 0;
  for (std::size_t i = 0; i < t.m; ++i) {
    const double a = t.body(i, q);
    if (a > PivotRule::kPivotTol && t.rhs[i] / a == theta) ++ties;
  }
  return ties;
}

/// The primal loop over the tableau. The full tableau maintains no B^-1
/// to probe for residual drift and never refactors; its health signals
/// are the pivot stream (magnitude, degeneracy, Bland activations) and
/// the iteration tally.
LoopExit run_loop(Tableau& t, SolveFrame& frame, std::size_t budget,
                  SolverStats& stats, std::uint8_t phase) {
  SolveFrame::Loop loop = frame.primal_loop(stats, phase, t.z);
  for (std::size_t iter = 0; iter < budget; ++iter) {
    const auto span = loop.iteration(iter);
    const auto entering = select_entering(t, loop.bland());
    if (!entering.has_value()) return LoopExit::kOptimal;
    const std::size_t q = *entering;
    // Ratio test on column q of the tableau body.
    std::size_t p = t.m;
    double theta = kInf;
    for (std::size_t i = 0; i < t.m; ++i) {
      const double a = t.body(i, q);
      if (a > PivotRule::kPivotTol) {
        const double r = t.rhs[i] / a;
        if (r < theta) {
          theta = r;
          p = i;
        }
      }
    }
    t.meter.charge("ratio", double(t.m), double(2 * t.m * sizeof(double)));
    if (p == t.m) return LoopExit::kUnbounded;
    const double alpha_p = t.body(p, q);
    const double d_q = t.drow[q];
    loop.record({.q = q, .p = p, .leaving = t.basic[p], .d_q = d_q,
                 .alpha_p = alpha_p, .theta = theta},
                [&] { return count_ratio_ties(t, q, theta); });
    eliminate(t, p, q);
    loop.pivoted(alpha_p, theta, d_q, t);
  }
  return LoopExit::kIterationLimit;
}

[[nodiscard]] double objective_of(const Tableau& t,
                                  const std::vector<double>& c) {
  double z = 0.0;
  for (std::size_t i = 0; i < t.m; ++i) z += c[t.basic[i]] * t.rhs[i];
  return z;
}

/// Pivot lingering zero-level artificials out where possible. `iteration`
/// is the pivot ordinal stamped on recorded drive-out pivots.
void drive_out_artificials(Tableau& t, const SolveFrame& frame,
                           std::uint64_t iteration) {
  for (std::size_t i = 0; i < t.m; ++i) {
    if (!t.aug.is_artificial[t.basic[i]]) continue;
    for (std::size_t j = 0; j < t.aug.n; ++j) {
      if (!t.in_basis[j] && std::abs(t.body(i, j)) > 1e-7) {
        frame.record_pivot({.phase = 1, .iteration = iteration, .q = j,
                            .p = i, .leaving = t.basic[i],
                            .alpha_p = t.body(i, j)});
        eliminate(t, i, j);
        break;
      }
    }
  }
}

}  // namespace

SolveResult TableauSimplex::solve(const lp::LpProblem& problem) const {
  const lp::StandardFormLp sf = lp::to_standard_form(problem);
  return solve_standard(sf);
}

SolveResult TableauSimplex::solve_standard(
    const lp::StandardFormLp& sf) const {
  const AugmentedLp aug = augment(sf);
  SolveFrame frame(options_, model_, "tableau", aug.m, aug.n_aug,
                   decision_digest(aug));
  Tableau tab(aug, options_, frame.meter());
  return frame.two_phase(
      aug, tab.basic,
      {.load_costs =
           [&](const std::vector<double>& c) { tab.price_from_scratch(c); },
       .loop =
           [&](std::size_t budget, SolverStats& stats, std::uint8_t phase) {
             return run_loop(tab, frame, budget, stats, phase);
           },
       .objective = [&] { return objective_of(tab, aug.c_phase1); },
       .drive_out =
           [&](std::uint64_t iteration) {
             drive_out_artificials(tab, frame, iteration);
           },
       .recover =
           [&](SolveResult& optimal) {
             // Duals from the reduced costs of each row's identity column
             // (its slack, or its artificial where no slack exists): d_col
             // = -y_i at optimality.
             std::vector<double> pi(aug.m, 0.0);
             std::size_t k = 0;
             for (std::size_t i = 0; i < aug.m; ++i) {
               const std::size_t col =
                   sf.slack_col[i] >= 0
                       ? static_cast<std::size_t>(sf.slack_col[i])
                       : aug.n + k++;
               pi[i] = -tab.drow[col];
             }
             recover_optimum<double>(sf, tab.basic, tab.rhs, pi, optimal);
           }});
}

}  // namespace gs::simplex
