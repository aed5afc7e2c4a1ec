// The service's device route (DESIGN.md, "Float iterations, double
// answer"): float device iterations finished in double by the host dual
// engine. Every corpus case must reach the host engine's status and, when
// optimal, its objective to 1e-9 with a feasible x; infeasible and
// unbounded cases take the cold double fallback. The two m=512 instances
// whose float basis is one pivot short of optimal in double must take
// exactly that pivot, with its telemetry after the float stage's, and a
// float basis doctored off the optimum must be repaired. The raw float
// engine keeps its float error (Fig. 3 reports it unrefined).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "lp/lp_text.hpp"
#include "simplex/solver.hpp"
#include "telemetry/telemetry.hpp"

namespace gs::simplex {
namespace {

[[nodiscard]] double rel_error(double got, double ref) {
  return std::abs(got - ref) / (1.0 + std::abs(ref));
}

struct Case {
  std::string name;
  lp::LpProblem problem;
  /// Pivots the double continuation must take, when pinned.
  std::optional<std::size_t> continuation_pivots = std::nullopt;
  /// The raw float objective must miss the host optimum by more than 1e-9.
  bool raw_float_misses = false;
};

std::vector<Case> corpus() {
  const std::string data = std::string(GS_SOURCE_DIR) + "/data/";
  std::vector<Case> cases;
  for (const char* file : {"wyndor", "beale", "precision_tie"}) {
    cases.push_back({file, lp::read_lp_file(data + file + ".lp")});
  }
  cases.push_back({"refinery", lp::read_lp_file(data + "refinery.lp"),
                   std::nullopt, true});
  cases.push_back({"klee_minty_8", lp::klee_minty(8)});
  cases.push_back({"transport_5x6", lp::transportation(5, 6, 17)});
  cases.push_back({"transport_8x12", lp::transportation(8, 12, 3)});
  cases.push_back({"infeasible", lp::infeasible_example()});
  cases.push_back({"unbounded", lp::unbounded_example()});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back(
        {"dense_96x104_s" + std::to_string(seed),
         lp::random_dense_lp({.rows = 96, .cols = 104, .seed = seed}),
         std::nullopt, seed == 3});
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    cases.push_back({"sparse_128x512_s" + std::to_string(seed),
                     lp::random_sparse_lp({.rows = 128,
                                           .cols = 512,
                                           .density = 0.02,
                                           .seed = seed})});
  }
  cases.push_back(
      {"dense_512x530",
       lp::random_dense_lp(
           {.rows = 512, .cols = 530, .seed = 3502497278603240513ULL}),
       1});
  cases.push_back(
      {"dense_512x521",
       lp::random_dense_lp(
           {.rows = 512, .cols = 521, .seed = 12442611574738835549ULL}),
       1});
  return cases;
}

TEST(FloatThenDouble, AgreesWithHostEngine) {
  for (const Case& c : corpus()) {
    const SolveResult ref = solve(c.problem, Engine::kHostRevised);
    const SolveResult raw = solve(c.problem, Engine::kDeviceRevisedFloat);
    const SolveResult got = solve_float_then_double(c.problem);
    ASSERT_EQ(to_string(got.status), to_string(ref.status)) << c.name;
    // The float stage's counts, plus the later stage's work.
    EXPECT_EQ(got.stats.phase1_iterations, raw.stats.phase1_iterations)
        << c.name;
    EXPECT_EQ(got.stats.device_stats.kernel_launches,
              raw.stats.device_stats.kernel_launches)
        << c.name;
    EXPECT_GT(got.stats.sim_seconds, raw.stats.sim_seconds) << c.name;
    ASSERT_GE(got.stats.iterations, raw.stats.iterations) << c.name;
    if (c.continuation_pivots) {
      EXPECT_EQ(got.stats.iterations - raw.stats.iterations,
                *c.continuation_pivots)
          << c.name;
    }
    if (!ref.optimal()) continue;
    EXPECT_LE(rel_error(got.objective, ref.objective), 1e-9) << c.name;
    EXPECT_TRUE(c.problem.is_feasible(got.x, 1e-9)) << c.name;
    EXPECT_EQ(got.y.size(), c.problem.num_constraints()) << c.name;
    if (c.raw_float_misses) {
      ASSERT_TRUE(raw.optimal()) << c.name;
      EXPECT_GT(rel_error(raw.objective, ref.objective), 1e-9) << c.name;
    }
  }
}

// The continuation's telemetry lands after the float stage on one clock:
// on this instance its one pivot is a primal cleanup pivot, which records
// an `engine.objective` point. The sink's time offset is restored after.
TEST(FloatThenDouble, ContinuationTelemetryFollowsTheFloatStage) {
  const lp::LpProblem p = lp::random_dense_lp(
      {.rows = 512, .cols = 521, .seed = 12442611574738835549ULL});
  telemetry::Telemetry tel;
  SolverOptions o;
  o.telemetry = &tel;
  const SolveResult raw = solve(p, Engine::kDeviceRevisedFloat);
  const SolveResult got = solve_float_then_double(p, o);
  ASSERT_EQ(got.stats.iterations, raw.stats.iterations + 1);
  const auto& points = tel.series().at("engine.objective").points();
  ASSERT_FALSE(points.empty());
  EXPECT_GT(points.back().t, raw.stats.sim_seconds);
  EXPECT_LE(points.back().t, got.stats.sim_seconds);
  EXPECT_EQ(tel.time_offset(), 0.0);
}

// Swap the float basis's first basic structural column for the first
// nonbasic one and run the continuation as the two-stage solve does: the
// dual engine must repair the basis to the host optimum.
TEST(FloatThenDouble, ContinuationRepairsADoctoredFloatBasis) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const lp::LpProblem p =
        lp::random_dense_lp({.rows = 96, .cols = 104, .seed = seed});
    std::vector<std::uint32_t> basis =
        solve(p, Engine::kDeviceRevisedFloat).basis;
    const auto n = static_cast<std::uint32_t>(p.num_variables());
    const auto basic = std::find_if(basis.begin(), basis.end(),
                                    [n](std::uint32_t col) { return col < n; });
    ASSERT_NE(basic, basis.end()) << "seed " << seed;
    std::uint32_t entering = 0;
    while (std::find(basis.begin(), basis.end(), entering) != basis.end()) {
      ++entering;
    }
    ASSERT_LT(entering, n) << "seed " << seed;
    *basic = entering;

    SolverOptions o;
    o.warm_basis = &basis;
    o.basis = BasisScheme::kProductForm;
    const SolveResult got = DualRevisedSimplex(o).solve(p);
    const SolveResult ref = solve(p, Engine::kHostRevised);
    ASSERT_TRUE(got.optimal()) << "seed " << seed;
    EXPECT_TRUE(got.stats.warm_started) << "seed " << seed;
    EXPECT_GE(got.stats.iterations, 1u) << "seed " << seed;
    EXPECT_LE(rel_error(got.objective, ref.objective), 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace gs::simplex
