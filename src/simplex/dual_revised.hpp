// Dual revised simplex engine (host): the warm-start workhorse.
//
// The primal engines must re-earn feasibility (phase 1) whenever a
// cached basis stops being primal feasible. The dual method inverts the
// deal: it walks DUAL-feasible bases (all reduced costs >= 0) toward
// primal feasibility, so a re-solve can start from any factorizable
// cached basis — in particular the optimum of a perturbed neighbour,
// which stays dual feasible under rhs changes — and repair it in a
// handful of pivots with no phase 1 at all. This is the engine
// SolveService dispatches warm-startable re-solves to. A basis that is
// not dual feasible (say, the optimum of an unrelated same-shape LP) is
// made so by a small, deterministic cost perturbation that the primal
// cleanup removes again.
//
// Pricing is dual-Devex-lite (reference weights beta_r^2 / w_r) with a
// Bland fallback (lowest infeasible row) after a degeneracy streak, and
// the ratio test breaks ties on the lowest column index, so termination
// is guaranteed on cycling instances. Cold starts on problems whose
// crash basis needs artificial columns ('>=' or '=' rows) delegate to
// HostRevisedSimplex — the dual method has no native story for a basis
// it cannot price — and pure-'<=' instances run natively.
//
// The engine shares the host engine's state (simplex/host_loop.hpp): the
// basis lives behind the same BasisOracle seam (SolverOptions::basis
// picks the explicit inverse or the product form), and once the dual loop
// reaches primal feasibility the primal cleanup phase is the host
// engine's run_loop.
#pragma once

#include <optional>

#include "lp/problem.hpp"
#include "lp/standard_form.hpp"
#include "simplex/types.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::simplex {

struct AugmentedLp;

class DualRevisedSimplex {
 public:
  explicit DualRevisedSimplex(const SolverOptions& options = {},
                              const vgpu::MachineModel& model =
                                  vgpu::cpu2009_model())
      : options_(options), model_(model) {}

  [[nodiscard]] SolveResult solve(const lp::LpProblem& problem) const;
  [[nodiscard]] SolveResult solve_standard(const lp::StandardFormLp& sf) const;

 private:
  /// The dual solve in its own frame, or nullopt when the warm basis is
  /// rejected on an instance that needs artificials; `rejected_at` is
  /// then the frame's modeled time at the rejection.
  [[nodiscard]] std::optional<SolveResult> solve_dual(
      const lp::StandardFormLp& sf, const AugmentedLp& aug,
      double& rejected_at) const;

  SolverOptions options_;
  vgpu::MachineModel model_;
};

}  // namespace gs::simplex
