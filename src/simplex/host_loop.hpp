// The host revised simplex engine's solve state and primal loop, internal
// to the host engines: HostRevisedSimplex runs both of its phases through
// run_loop, and DualRevisedSimplex runs its primal cleanup phase through
// it (its dual loop works on the same State).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "simplex/basis/basis_oracle.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/solve_frame.hpp"
#include "simplex/types.hpp"
#include "vblas/containers.hpp"

namespace gs::simplex::host {

/// Mutable solver state for one solve (all host memory). The basis
/// representation lives behind the BasisOracle seam: SolverOptions::basis
/// selects the explicit dense inverse (the default, bit-identical to the
/// pre-oracle engine) or the product-form/eta scheme. Work is charged to
/// the frame's meter.
struct State {
  State(const AugmentedLp& aug_in, const SolverOptions& opt_in,
        SolveFrame& frame_in);

  [[nodiscard]] bool may_enter(std::size_t j) const {
    return !in_basis[j] && !aug.is_artificial[j];
  }

  [[nodiscard]] double objective() const {
    double z = 0.0;
    for (std::size_t i = 0; i < m; ++i) z += c[basic[i]] * beta[i];
    return z;
  }

  // The basis as SolveFrame::Loop's per-iteration step sees it.
  /// True when the oracle asks to fold its updates back into fresh
  /// factors (the product form's interval or growth trigger).
  [[nodiscard]] bool refactor_due() const { return oracle->wants_refactor(); }
  /// Refactor the basis; a singular one keeps the eta file, and the
  /// representation stays exact either way.
  [[nodiscard]] bool refactor() { return oracle->refactorize(basic); }
  /// The health probe: `probes` entries of B·B⁻¹ − I and max |B⁻¹| over
  /// the probed rows, rotating with `iter`.
  [[nodiscard]] HealthSample probe(std::size_t iter, std::size_t probes) const;

  /// True when a caller's warm basis can stand here: m columns, each below
  /// n_aug, none artificial and none repeated.
  [[nodiscard]] bool accepts_warm_basis(
      std::span<const std::uint32_t> basis) const;
  /// Make `basis` the current basis (basic and in_basis).
  void install_basis(std::span<const std::uint32_t> basis);

  const AugmentedLp& aug;
  std::size_t m, n_aug;
  vblas::Matrix<double> at;  ///< A^T augmented (n_aug x m)
  basis::DenseColumnSource cols;
  std::unique_ptr<basis::BasisOracle> oracle;
  std::vector<double> beta, pi, d, alpha;
  std::vector<double> colbuf, cb;  ///< oracle call scratch
  std::vector<std::uint32_t> basic;
  std::vector<bool> in_basis;
  /// Current phase costs (the dual engine's may carry feasibility shifts).
  std::vector<double> c;
  const SolverOptions& opt;
  SolveFrame& frame;
  CostMeter& meter;
};

/// pi = (B^-1)^T c_B via the oracle's BTRAN.
void btran(State& s);
/// d_j = c_j - a_j . pi for admissible columns, 0 otherwise.
void price(State& s);
/// alpha = B^-1 a_q via the oracle's FTRAN.
void ftran(State& s, std::size_t q);

/// Primal revised simplex from the current (primal-feasible) basis under
/// the costs in s.c: Dantzig pricing, or Bland's rule where the frame's
/// PivotRule says so.
LoopExit run_loop(State& s, std::size_t budget, SolverStats& stats,
                  std::uint8_t phase);

}  // namespace gs::simplex::host
