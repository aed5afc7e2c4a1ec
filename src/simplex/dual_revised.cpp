#include "simplex/dual_revised.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "metrics/health.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/host_loop.hpp"
#include "simplex/host_revised.hpp"
#include "simplex/phase_setup.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"
#include "vblas/containers.hpp"

namespace gs::simplex {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dual-solve state: the host engine's, plus the pivot row `arow`
/// (a_j^T rho over nonbasic j) and the dual-Devex-lite reference weights
/// `w`. The working costs s.c may carry dual-feasibility shifts.
struct DualState : host::State {
  DualState(const AugmentedLp& aug_in, const SolverOptions& opt_in,
            SolveFrame& frame_in)
      : host::State(aug_in, opt_in, frame_in), arow(n_aug), w(m, 1.0) {}

  std::vector<double> arow, w;
};

enum class DualExit {
  kPrimalFeasible,   ///< all beta >= -tol: the dual method's optimum
  kPrimalInfeasible, ///< dual ratio test found no pivot: no feasible point
  kIterationLimit,
  kNumericalTrouble,
};

/// The dual loop: walk dual-feasible bases until primal feasibility.
/// Leaving row by dual-Devex-lite (max beta_r^2 / w_r among beta_r < -tol)
/// with a Bland fallback (lowest infeasible row) during degeneracy
/// streaks; entering column by the dual ratio test min d_j / -alpha_rj
/// over alpha_rj < -pivot_tol, ties to the lowest column index.
DualExit dual_loop(DualState& s, std::size_t budget, SolverStats& stats) {
  metrics::SimplexOpMetrics& om = s.frame.op_metrics();
  metrics::HealthMonitor& health = s.frame.health();
  const trace::Track& tr = s.meter.trace();
  const auto clock = [&s] { return s.meter.sim_seconds(); };
  const double tol = s.opt.opt_tol;
  std::size_t since_improve = 0;
  for (std::size_t iter = 0; iter < budget; ++iter) {
    const bool bland =
        s.opt.pricing == PricingRule::kBland ||
        (s.opt.pricing != PricingRule::kBland &&
         since_improve >= s.opt.degeneracy_window);
    trace::ScopedSpan iter_span(tr, "dual_iteration", clock, "iteration",
                                {{"iter", static_cast<double>(iter)}});
    // ---- leaving row ----
    std::size_t r = s.m;
    double best_score = 0.0;
    for (std::size_t i = 0; i < s.m; ++i) {
      if (s.beta[i] >= -tol) continue;
      if (bland) {
        r = i;
        break;
      }
      const double score = s.beta[i] * s.beta[i] / s.w[i];
      if (score > best_score) {
        best_score = score;
        r = i;
      }
    }
    s.meter.charge("dual_pricing", 2.0 * double(s.m),
                   double(3 * s.m * sizeof(double)));
    if (r == s.m) return DualExit::kPrimalFeasible;
    // ---- rho = B^-T e_r, then the pivot row alpha_r = A^T rho ----
    std::fill(s.cb.begin(), s.cb.end(), 0.0);
    s.cb[r] = 1.0;
    s.oracle->btran(s.cb, s.pi);
    for (std::size_t j = 0; j < s.n_aug; ++j) {
      if (!s.may_enter(j)) {
        s.arow[j] = 0.0;
        continue;
      }
      const auto col = s.at.row(j);
      double acc = 0.0;
      for (std::size_t i = 0; i < s.m; ++i) acc += col[i] * s.pi[i];
      s.arow[j] = acc;
    }
    s.meter.charge("dual_pivot_row", 2.0 * double(s.n_aug) * double(s.m),
                   double((s.n_aug * s.m + 2 * s.n_aug) * sizeof(double)));
    // ---- dual ratio test ----
    std::size_t q = s.n_aug;
    double best_ratio = kInf;
    std::uint32_t ties = 0;
    for (std::size_t j = 0; j < s.n_aug; ++j) {
      if (s.arow[j] >= -s.opt.pivot_tol || !s.may_enter(j)) continue;
      const double ratio = s.d[j] / (-s.arow[j]);
      if (ratio < best_ratio) {
        best_ratio = ratio;
        q = j;
        ties = 1;
      } else if (ratio == best_ratio) {
        ++ties;
      }
    }
    s.meter.charge("dual_ratio", double(s.n_aug),
                   double(3 * s.n_aug * sizeof(double)));
    if (q == s.n_aug) return DualExit::kPrimalInfeasible;
    const double theta_d = best_ratio;
    // ---- FTRAN the entering column ----
    host::ftran(s, q);
    const double alpha_r = s.alpha[r];
    if (std::abs(alpha_r) <= s.opt.pivot_tol) {
      return DualExit::kNumericalTrouble;  // rho/alpha disagree: bail out
    }
    const double beta_r = s.beta[r];
    const double theta_p = beta_r / alpha_r;
    s.frame.record_pivot({.bland = bland, .iteration = stats.iterations,
                          .q = q, .p = r, .leaving = s.basic[r], .d_q = s.d[q],
                          .alpha_p = alpha_r, .theta = theta_p},
                         [ties] { return ties; });
    // ---- updates: beta, reduced costs, reference weights ----
    for (std::size_t i = 0; i < s.m; ++i) {
      s.beta[i] -= theta_p * s.alpha[i];
    }
    s.beta[r] = theta_p;
    const std::uint32_t leaving = s.basic[r];
    for (std::size_t j = 0; j < s.n_aug; ++j) {
      if (s.may_enter(j)) s.d[j] += theta_d * s.arow[j];
    }
    s.d[q] = 0.0;
    s.d[leaving] = theta_d;
    const double arq2 = s.arow[q] * s.arow[q];
    const double wr = s.w[r];
    for (std::size_t i = 0; i < s.m; ++i) {
      if (i == r || s.alpha[i] == 0.0) continue;
      s.w[i] = std::max(s.w[i], s.alpha[i] * s.alpha[i] / arq2 * wr);
    }
    s.w[r] = std::max(wr / arq2, 1.0);
    s.meter.charge("dual_update", 4.0 * double(s.m) + 2.0 * double(s.n_aug),
                   double((3 * s.m + 2 * s.n_aug) * sizeof(double)));
    s.oracle->update(r, s.alpha);
    s.basic[r] = static_cast<std::uint32_t>(q);
    s.in_basis[leaving] = false;
    s.in_basis[q] = true;
    ++stats.iterations;
    host::maybe_refactor(s, stats);
    om.count_iteration();
    health.record_pivot(alpha_r, theta_p, bland, iter);
    // Progress = dual-objective gain theta_d * |beta_r|; a degenerate
    // streak (theta_d == 0) trips the Bland fallback above.
    if (theta_d * -beta_r > 1e-12) {
      since_improve = 0;
    } else {
      ++since_improve;
    }
    if (tr.enabled()) {
      tr.counter("primal_infeasibility", s.meter.sim_seconds(), [&] {
        double inf = 0.0;
        for (const double v : s.beta) inf += v < 0.0 ? -v : 0.0;
        return inf;
      }());
    }
  }
  return DualExit::kIterationLimit;
}

/// Install a caller-provided basis with NO primal-feasibility gate — the
/// whole point of the dual method is to accept primal-infeasible (but
/// factorizable) bases and repair them. Returns false on shape/column
/// problems or a singular basis; the crash basis then stays installed.
[[nodiscard]] bool try_warm_start(DualState& s,
                                  const std::vector<std::uint32_t>& basis) {
  if (basis.size() != s.m) return false;
  std::vector<bool> used(s.n_aug, false);
  for (std::uint32_t col : basis) {
    if (col >= s.n_aug || s.aug.is_artificial[col] || used[col]) return false;
    used[col] = true;
  }
  std::vector<std::uint32_t> b(basis.begin(), basis.end());
  if (!s.oracle->refactorize(b)) return false;
  s.basic = std::move(b);
  std::fill(s.in_basis.begin(), s.in_basis.end(), false);
  for (const std::uint32_t col : s.basic) s.in_basis[col] = true;
  s.oracle->ftran_raw(s.aug.b, s.beta);
  return true;
}

/// Shift working costs up so every reduced cost is positive (the
/// "big-M-free" dual start): d_j < -tol becomes d_j = delta_j =
/// 10 tol (1 + |c_j|)(1 + u_j) by raising c_j, with u_j in [0, 1) from
/// SplitMix64(j). Shifted to exactly 0, every shifted column would tie at
/// ratio 0 in the dual ratio test and every dual pivot would be
/// degenerate (theta_d = 0); distinct positive deltas break those ties,
/// as in Huangfu & Hall's dual codes. u_j depends on j alone, so solves
/// stay deterministic. The true costs are restored before the primal
/// cleanup.
bool shift_to_dual_feasible(DualState& s) {
  bool shifted = false;
  for (std::size_t j = 0; j < s.n_aug; ++j) {
    if (s.may_enter(j) && s.d[j] < -s.opt.opt_tol) {
      const double u =
          static_cast<double>(SplitMix64(j).next() >> 11) * 0x1.0p-53;
      const double delta =
          10.0 * s.opt.opt_tol * (1.0 + std::abs(s.c[j])) * (1.0 + u);
      s.c[j] += delta - s.d[j];
      s.d[j] = delta;
      shifted = true;
    }
  }
  return shifted;
}

}  // namespace

SolveResult DualRevisedSimplex::solve(const lp::LpProblem& problem) const {
  const lp::StandardFormLp sf = lp::to_standard_form(problem);
  return solve_standard(sf);
}

SolveResult DualRevisedSimplex::solve_standard(
    const lp::StandardFormLp& sf) const {
  // The dual method cannot price a crash basis that needs artificial
  // columns ('>=' / '=' rows) and has no warm basis to start from; those
  // cold solves delegate to the primal host engine (same options, same
  // oracle choice) so every instance the primal engines accept still
  // solves under Engine::kDualRevised.
  const AugmentedLp aug = augment(sf);
  if (aug.num_artificial > 0 && options_.warm_basis == nullptr) {
    return HostRevisedSimplex(options_, model_).solve_standard(sf);
  }
  double rejected_at = 0.0;
  if (std::optional<SolveResult> result = solve_dual(sf, aug, rejected_at)) {
    return *std::move(result);
  }
  // Rejected warm basis on an artificial-needing instance: the cold path
  // is the primal engine's, which must not try the same basis again. It
  // starts once the dual's frame has closed, as a later stage on the host
  // timeline, and keeps the recorder: the decision log is the primal
  // engine's.
  detail::LaterStage cold(options_, rejected_at, trace::kHostPid, model_,
                          /*records=*/true);
  cold.options.warm_basis = nullptr;
  return HostRevisedSimplex(cold.options, model_).solve_standard(sf);
}

std::optional<SolveResult> DualRevisedSimplex::solve_dual(
    const lp::StandardFormLp& sf, const AugmentedLp& aug,
    double& rejected_at) const {
  SolveFrame frame(options_, model_, "dual-revised", aug.m, aug.n_aug,
                   decision_digest(aug));
  DualState state(aug, options_, frame);
  SolveResult result;
  const auto finish = [&](SolveStatus status) {
    return frame.close(std::move(result), status, state.basic);
  };

  if (options_.warm_basis != nullptr) {
    const auto warm_span = frame.phase("warm_init");
    result.stats.warm_started = try_warm_start(state, *options_.warm_basis);
    if (!result.stats.warm_started && aug.num_artificial > 0) {
      rejected_at = frame.now();
      return std::nullopt;
    }
  }

  std::size_t budget = options_.max_iterations;
  state.c = aug.c_phase2;
  host::btran(state);
  host::price(state);
  const bool shifted = shift_to_dual_feasible(state);

  DualExit dexit;
  {
    const auto phase_span = frame.phase("dual", 2);
    dexit = dual_loop(state, budget, result.stats);
  }
  if (dexit == DualExit::kIterationLimit) {
    return finish(SolveStatus::kIterationLimit);
  }
  if (dexit == DualExit::kNumericalTrouble) {
    return finish(SolveStatus::kNumericalTrouble);
  }
  if (dexit == DualExit::kPrimalInfeasible) {
    return finish(SolveStatus::kInfeasible);
  }
  budget -= std::min(budget, result.stats.iterations);
  for (double& v : state.beta) {
    if (v < 0.0) v = 0.0;  // the dual loop left only sub-tolerance dust
  }

  // Primal cleanup: once primal feasible, the host engine's primal loop
  // finishes the solve under the true costs. This is also where a cold
  // start on an already-primal-feasible crash basis does all its work.
  host::LoopExit pexit;
  {
    const auto phase_span = frame.phase("primal_cleanup");
    // Restore true costs (only needed when the dual start shifted them;
    // the pricing pass inside the loop recomputes every reduced cost).
    if (shifted) state.c = aug.c_phase2;
    pexit = host::run_loop(state, budget, result.stats, 2);
  }
  if (pexit == host::LoopExit::kUnbounded) {
    return finish(SolveStatus::kUnbounded);
  }
  if (pexit == host::LoopExit::kIterationLimit) {
    return finish(SolveStatus::kIterationLimit);
  }
  recover_optimum<double>(sf, state.basic, state.beta, state.pi, result);
  return finish(SolveStatus::kOptimal);
}

}  // namespace gs::simplex
