// Tab. 2 — correctness and iteration-count agreement across all engines.
//
// A suite spanning the workload families (dense, sparse, exponential
// Klee-Minty, the Beale cycling instance, two-phase transportation,
// infeasible and unbounded instances). Expected shape: every engine
// reports the same status as the first and, where optimal, the same
// objective to the precision of its arithmetic. Cold dual-revised rows
// start primal feasible, so the dual loop never pivots there; the two
// dense cases add a "dual-revised (warm)" row that starts from the
// optimal basis of another same-shape instance, which the dual loop must
// repair. The "float→double" row is the service's device route: float
// device iterations finished in double by the host dual engine, held to
// the double engines' 1e-6. Exits nonzero on any mismatch.
#include <cmath>
#include <optional>

#include "bench/common.hpp"

int main(int, char**) {
  using namespace gs;
  using simplex::Engine;
  bench::print_header(
      "Tab.2: cross-engine status/objective agreement",
      "identical statuses; objectives agree to arithmetic precision");

  struct Case {
    std::string name;
    lp::LpProblem problem;
    /// Same-shape instance whose optimal basis seeds the warm dual row.
    std::optional<lp::LpProblem> warm_donor = std::nullopt;
  };
  std::vector<Case> cases;
  cases.push_back({"dense_64",
                   lp::random_dense_lp({.rows = 64, .cols = 64, .seed = 4}),
                   lp::random_dense_lp({.rows = 64, .cols = 64, .seed = 104})});
  cases.push_back(
      {"dense_wide_32x128",
       lp::random_dense_lp({.rows = 32, .cols = 128, .seed = 5}),
       lp::random_dense_lp({.rows = 32, .cols = 128, .seed = 104})});
  cases.push_back(
      {"sparse_64x256",
       lp::random_sparse_lp(
           {.rows = 64, .cols = 256, .density = 0.05, .seed = 6})});
  cases.push_back({"klee_minty_8", lp::klee_minty(8)});
  cases.push_back({"beale", lp::beale_cycling()});
  cases.push_back({"transport_6x8", lp::transportation(6, 8, 7)});
  cases.push_back({"infeasible", lp::infeasible_example()});
  cases.push_back({"unbounded", lp::unbounded_example()});

  constexpr Engine kEngines[] = {Engine::kDeviceRevised,
                                 Engine::kDeviceRevisedFloat,
                                 Engine::kHostRevised, Engine::kTableau,
                                 Engine::kSparseRevised,
                                 Engine::kDualRevised};

  Table table({"problem", "engine", "status", "objective", "iters",
               "phase1", "sim [ms]"});
  int mismatches = 0;
  for (const Case& c : cases) {
    std::optional<simplex::SolveResult> first;
    const auto add = [&](std::string engine, const simplex::SolveResult& r,
                         double tol) {
      table.new_row()
          .add(c.name)
          .add(std::move(engine))
          .add(std::string(to_string(r.status)))
          .add(r.optimal() ? r.objective : 0.0)
          .add(r.stats.iterations)
          .add(r.stats.phase1_iterations)
          .add(r.stats.sim_seconds * 1e3);
      if (!first) {
        first = r;
      } else if (r.status != first->status ||
                 (r.optimal() && std::abs(r.objective - first->objective) >
                                     tol * (1.0 + std::abs(first->objective)))) {
        ++mismatches;
      }
    };
    for (const Engine e : kEngines) {
      add(std::string(to_string(e)), simplex::solve(c.problem, e),
          e == Engine::kDeviceRevisedFloat ? 2e-3 : 1e-6);
    }
    add("float→double", simplex::solve_float_then_double(c.problem), 1e-6);
    if (c.warm_donor) {
      const auto basis =
          simplex::solve(*c.warm_donor, Engine::kHostRevised).basis;
      simplex::SolverOptions opt;
      opt.warm_basis = &basis;
      add(std::string(to_string(Engine::kDualRevised)) + " (warm)",
          simplex::solve(c.problem, Engine::kDualRevised, opt), 1e-6);
    }
  }
  table.print(std::cout);
  std::cout << "status or objective mismatches: " << mismatches << "\n";
  bench::write_csv("tab2_agreement", table);
  return mismatches == 0 ? 0 : 1;
}
