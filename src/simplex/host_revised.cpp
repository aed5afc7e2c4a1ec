#include "simplex/host_revised.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "simplex/basis/basis_oracle.hpp"
#include "simplex/basis/explicit_inverse.hpp"
#include "simplex/basis/product_form.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/host_loop.hpp"
#include "simplex/phase_setup.hpp"
#include "vblas/containers.hpp"
#include "vblas/host_ref.hpp"

namespace gs::simplex {

namespace host {

State::State(const AugmentedLp& aug_in, const SolverOptions& opt_in,
             SolveFrame& frame_in)
    : aug(aug_in),
      m(aug_in.m),
      n_aug(aug_in.n_aug),
      at(aug_in.dense_at()),
      cols(at),
      beta(aug_in.beta_init),
      pi(m),
      d(n_aug),
      alpha(m),
      colbuf(m),
      cb(m),
      basic(aug_in.basic),
      in_basis(n_aug, false),
      opt(opt_in),
      frame(frame_in),
      meter(frame_in.meter()) {
  if (opt.basis == BasisScheme::kExplicitInverse) {
    oracle = std::make_unique<basis::ExplicitInverseOracle>(
        m, aug.binv_diag, cols, meter, opt);
  } else {
    // Product form: sparse LU factors plus an eta file.
    oracle = std::make_unique<basis::ProductFormOracle>(m, basic, cols,
                                                        meter, opt);
  }
  for (std::uint32_t col : basic) in_basis[col] = true;
}

void btran(State& s) {
  for (std::size_t i = 0; i < s.m; ++i) s.cb[i] = s.c[s.basic[i]];
  s.oracle->btran(s.cb, s.pi);
}

void price(State& s) {
  for (std::size_t j = 0; j < s.n_aug; ++j) {
    if (!s.may_enter(j)) {
      s.d[j] = 0.0;
      continue;
    }
    const auto col = s.at.row(j);
    double acc = 0.0;
    for (std::size_t i = 0; i < s.m; ++i) acc += col[i] * s.pi[i];
    s.d[j] = s.c[j] - acc;
  }
  s.meter.charge("price_reduced", 2.0 * double(s.n_aug) * double(s.m),
                 double((s.n_aug * s.m + 3 * s.n_aug) * sizeof(double)));
}

void ftran(State& s, std::size_t q) {
  for (std::size_t k = 0; k < s.m; ++k) s.colbuf[k] = s.at(q, k);
  s.oracle->ftran(s.colbuf, s.alpha);
}

/// Column k of B is the constraint column of basic[k], so one probe of
/// B·B⁻¹ − I is an O(m) dot product over the dense A^T. Pure reads;
/// charges nothing to the meter.
HealthSample State::probe(std::size_t iter, std::size_t probes) const {
  const std::size_t step = std::max<std::size_t>(1, m / probes);
  HealthSample out;
  std::vector<double> bcol(m), brow(m);
  for (std::size_t t = 0; t < probes; ++t) {
    const std::size_t i = (iter + t * step) % m;
    const std::size_t j = (t % 2 == 0) ? i : (i + 1) % m;
    oracle->binv_col(j, bcol);
    double acc = 0.0;
    for (std::size_t k = 0; k < m; ++k) acc += at(basic[k], i) * bcol[k];
    out.residual = std::max(out.residual, std::abs(acc - (i == j ? 1.0 : 0.0)));
    oracle->binv_row(i, brow);
    for (std::size_t col = 0; col < m; ++col) {
      out.growth = std::max(out.growth, std::abs(brow[col]));
    }
  }
  return out;
}

bool State::accepts_warm_basis(std::span<const std::uint32_t> basis) const {
  if (basis.size() != m) return false;
  std::vector<bool> used(n_aug, false);
  for (const std::uint32_t col : basis) {
    if (col >= n_aug || aug.is_artificial[col] || used[col]) return false;
    used[col] = true;
  }
  return true;
}

void State::install_basis(std::span<const std::uint32_t> basis) {
  basic.assign(basis.begin(), basis.end());
  std::fill(in_basis.begin(), in_basis.end(), false);
  for (const std::uint32_t col : basic) in_basis[col] = true;
}

}  // namespace host

namespace {

using host::State;

constexpr double kInf = std::numeric_limits<double>::infinity();

[[nodiscard]] std::optional<std::size_t> select_entering(const State& s,
                                                         bool bland) {
  const double tol = PivotRule::kOptTol;
  if (bland) {
    for (std::size_t j = 0; j < s.n_aug; ++j) {
      if (s.d[j] < -tol) return j;
    }
    return std::nullopt;
  }
  std::size_t best = s.n_aug;
  double best_d = -tol;
  for (std::size_t j = 0; j < s.n_aug; ++j) {
    if (s.d[j] < best_d) {
      best_d = s.d[j];
      best = j;
    }
  }
  if (best == s.n_aug) return std::nullopt;
  return best;
}

/// Returns (row p, theta) or nullopt when unbounded. Ties break to the
/// lowest row index (deterministic, Bland-compatible).
[[nodiscard]] std::optional<std::pair<std::size_t, double>> ratio_test(
    const State& s) {
  std::size_t p = s.m;
  double theta = kInf;
  for (std::size_t i = 0; i < s.m; ++i) {
    if (s.alpha[i] > PivotRule::kPivotTol) {
      const double r = s.beta[i] / s.alpha[i];
      if (r < theta) {
        theta = r;
        p = i;
      }
    }
  }
  s.meter.charge("ratio", double(s.m), double(3 * s.m * sizeof(double)));
  if (p == s.m) return std::nullopt;
  return std::make_pair(p, theta);
}

void pivot(State& s, std::size_t q, std::size_t p, double theta) {
  for (std::size_t i = 0; i < s.m; ++i) {
    s.beta[i] = std::max(0.0, s.beta[i] - theta * s.alpha[i]);
  }
  s.beta[p] = theta;
  // Rank-1 update (explicit inverse) or eta append (product form).
  s.oracle->update(p, s.alpha);
  s.meter.charge("update_beta", 2.0 * double(s.m),
                 double(3 * s.m * sizeof(double)));
  const std::uint32_t leaving = s.basic[p];
  s.basic[p] = static_cast<std::uint32_t>(q);
  s.in_basis[leaving] = false;
  s.in_basis[q] = true;
}

/// Post-optimal sensitivity analysis (classical ranging): how far each rhs
/// and each objective coefficient can move before the optimal basis (rhs)
/// or the optimal point (cost) changes. Uses the final B^-1, beta and
/// reduced costs; O(n*m) per basic variable.
[[nodiscard]] RangingInfo compute_ranging(const State& s,
                                          const lp::StandardFormLp& sf) {
  constexpr double tol = 1e-9;
  RangingInfo out;
  const std::size_t m = s.m;

  // ---- rhs ranging: beta + delta * B^-1 e_i >= 0. ----
  out.rhs_lower.assign(sf.num_original_rows, -kInf);
  out.rhs_upper.assign(sf.num_original_rows, kInf);
  std::vector<double> bcol(m);
  for (std::size_t i = 0; i < sf.num_original_rows; ++i) {
    s.oracle->binv_col(i, bcol);
    double dlo = -kInf, dhi = kInf;
    for (std::size_t r = 0; r < m; ++r) {
      const double v = bcol[r];
      if (v > tol) {
        dlo = std::max(dlo, -s.beta[r] / v);
      } else if (v < -tol) {
        dhi = std::min(dhi, -s.beta[r] / v);
      }
    }
    const double rhs = sf.original_rhs[i];
    if (sf.row_flipped[i]) {
      // The stored row is the negated original: delta_orig = -delta_std.
      out.rhs_lower[i] = rhs - dhi;
      out.rhs_upper[i] = rhs - dlo;
    } else {
      out.rhs_lower[i] = rhs + dlo;
      out.rhs_upper[i] = rhs + dhi;
    }
  }

  // ---- cost ranging: reduced costs stay nonnegative. ----
  const std::size_t nvars = sf.var_maps.size();
  out.cost_lower.assign(nvars, -kInf);
  out.cost_upper.assign(nvars, kInf);
  const double sign_obj = sf.negated ? -1.0 : 1.0;
  std::vector<std::int64_t> row_of(s.n_aug, -1);
  for (std::size_t r = 0; r < m; ++r) row_of[s.basic[r]] = std::int64_t(r);
  for (std::size_t j = 0; j < nvars; ++j) {
    const auto& vm = sf.var_maps[j];
    if (vm.kind == lp::StandardFormLp::VarMap::Kind::kFree) {
      // A split variable's cost appears in two columns with opposite signs;
      // ranging is not supported for it.
      out.cost_lower[j] = out.cost_upper[j] =
          std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    const double sgn =
        sign_obj *
        (vm.kind == lp::StandardFormLp::VarMap::Kind::kNegated ? -1.0 : 1.0);
    double dlo, dhi;
    if (row_of[vm.col] < 0) {
      // Nonbasic: its own reduced cost may shrink to zero.
      dlo = -s.d[vm.col];
      dhi = kInf;
    } else {
      // Basic at row r: every admissible reduced cost d_k moves by
      // -delta * (B^-1 A)_{r,k}.
      const auto r = static_cast<std::size_t>(row_of[vm.col]);
      std::vector<double> brow(m);
      s.oracle->binv_row(r, brow);
      dlo = -kInf;
      dhi = kInf;
      for (std::size_t k = 0; k < s.n_aug; ++k) {
        if (!s.may_enter(k)) continue;
        const auto col = s.at.row(k);
        double w = 0.0;
        for (std::size_t t = 0; t < m; ++t) w += col[t] * brow[t];
        if (w > tol) {
          dhi = std::min(dhi, s.d[k] / w);
        } else if (w < -tol) {
          dlo = std::max(dlo, s.d[k] / w);
        }
      }
    }
    const double c_orig = sgn * s.c[vm.col];
    if (sgn > 0) {
      out.cost_lower[j] = c_orig + dlo;
      out.cost_upper[j] = c_orig + dhi;
    } else {
      out.cost_lower[j] = c_orig - dhi;
      out.cost_upper[j] = c_orig - dlo;
    }
  }
  return out;
}

/// Rows tied at the winning ratio, using the exact ratio-test expression
/// (recorder bookkeeping only; never runs when no recorder is attached).
[[nodiscard]] std::uint32_t count_ratio_ties(const State& s, double theta) {
  std::uint32_t ties = 0;
  for (std::size_t i = 0; i < s.m; ++i) {
    if (s.alpha[i] > PivotRule::kPivotTol && s.beta[i] / s.alpha[i] == theta) {
      ++ties;
    }
  }
  return ties;
}

/// Install a caller-provided warm-start basis: gather the basis columns
/// from A, invert B (Gauss-Jordan, charged as one `warm_init` step), and
/// accept iff the basis is valid and primal feasible (B⁻¹b ≥ 0). On any
/// failure the crash basis stays installed and the solve proceeds cold.
[[nodiscard]] bool try_warm_start(State& s,
                                  const std::vector<std::uint32_t>& basis) {
  std::vector<double> beta;
  if (!s.accepts_warm_basis(basis) ||
      !s.oracle->warm_start(basis, s.aug.b, beta)) {
    return false;
  }
  s.beta = std::move(beta);
  s.install_basis(basis);
  return true;
}

/// Post-phase-1 cleanup: replace zero-level basic artificials where a
/// non-artificial pivot exists; redundant rows keep theirs at level zero.
/// `iteration` is the pivot ordinal stamped on recorded drive-out pivots.
void drive_out_artificials(State& s, std::uint64_t iteration) {
  for (std::size_t i = 0; i < s.m; ++i) {
    if (!s.aug.is_artificial[s.basic[i]]) continue;
    std::size_t q = s.n_aug;
    std::vector<double> brow(s.m);
    s.oracle->binv_row(i, brow);
    for (std::size_t j = 0; j < s.aug.n; ++j) {
      if (s.in_basis[j]) continue;
      const auto col = s.at.row(j);
      double acc = 0.0;
      for (std::size_t r = 0; r < s.m; ++r) acc += col[r] * brow[r];
      if (std::abs(acc) > 1e-7) {
        q = j;
        break;
      }
    }
    s.meter.charge("driveout_row", 2.0 * double(s.aug.n) * double(s.m),
                   double((s.aug.n * s.m) * sizeof(double)));
    if (q == s.n_aug) continue;
    ftran(s, q);
    if (std::abs(s.alpha[i]) <= PivotRule::kPivotTol) continue;
    s.frame.record_pivot({.phase = 1, .iteration = iteration, .q = q, .p = i,
                          .leaving = s.basic[i], .alpha_p = s.alpha[i]});
    pivot(s, q, i, 0.0);
  }
}

}  // namespace

namespace host {

LoopExit run_loop(State& s, std::size_t budget, SolverStats& stats,
                  std::uint8_t phase) {
  using metrics::SimplexOp;
  SolveFrame::Loop loop = s.frame.primal_loop(stats, phase, s.objective());
  for (std::size_t iter = 0; iter < budget; ++iter) {
    const auto span = loop.iteration(iter);
    const std::optional<std::size_t> entering =
        loop.op(SimplexOp::kPrice, [&] {
          btran(s);
          price(s);
          return select_entering(s, loop.bland());
        });
    if (!entering.has_value()) return LoopExit::kOptimal;
    const std::size_t q = *entering;
    const double d_q = s.d[q];
    loop.op(SimplexOp::kFtran, [&] { ftran(s, q); });
    const std::optional<std::pair<std::size_t, double>> leave =
        loop.op(SimplexOp::kRatio, [&] { return ratio_test(s); });
    if (!leave.has_value()) return LoopExit::kUnbounded;
    const auto [p, theta] = *leave;
    const double alpha_p = s.alpha[p];
    loop.record({.q = q, .p = p, .leaving = s.basic[p], .d_q = d_q,
                 .alpha_p = alpha_p, .theta = theta},
                [&] { return count_ratio_ties(s, theta); });
    loop.op(SimplexOp::kUpdate, [&] { pivot(s, q, p, theta); });
    loop.pivoted(alpha_p, theta, d_q, s);
  }
  return LoopExit::kIterationLimit;
}

}  // namespace host

SolveResult HostRevisedSimplex::solve(const lp::LpProblem& problem) const {
  const lp::StandardFormLp sf = lp::to_standard_form(problem);
  return solve_standard(sf);
}

SolveResult HostRevisedSimplex::solve_standard(
    const lp::StandardFormLp& sf) const {
  const AugmentedLp aug = augment(sf);
  SolveFrame frame(options_, model_, "host-revised", aug.m, aug.n_aug,
                   decision_digest(aug));
  host::State state(aug, options_, frame);
  SolveResult result;

  // Warm start: a feasible caller-provided basis replaces the crash basis
  // and skips phase 1 outright (feasibility is what phase 1 buys).
  if (options_.warm_basis != nullptr) {
    const auto warm_span = frame.phase("warm_init");
    result.stats.warm_started = try_warm_start(state, *options_.warm_basis);
  }

  return frame.two_phase(
      aug, state.basic,
      {.load_costs = [&](const std::vector<double>& c) { state.c = c; },
       .loop =
           [&](std::size_t budget, SolverStats& stats, std::uint8_t phase) {
             return host::run_loop(state, budget, stats, phase);
           },
       .objective = [&] { return state.objective(); },
       .drive_out =
           [&](std::uint64_t iteration) {
             drive_out_artificials(state, iteration);
           },
       .recover =
           [&](SolveResult& optimal) {
             // state.pi still holds the multipliers of the last pricing
             // pass.
             recover_optimum<double>(sf, state.basic, state.beta, state.pi,
                                     optimal);
             if (options_.ranging) {
               optimal.ranging = compute_ranging(state, sf);
             }
           }},
      std::move(result));
}

}  // namespace gs::simplex
