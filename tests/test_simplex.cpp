// Solver test suite: every engine against textbook fixtures with known
// optima, cross-engine agreement on random instances, pricing-rule and
// basis-scheme behavior (cycling, Klee-Minty exponentiality), statuses,
// and statistics plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lp/generators.hpp"
#include "lp/problem.hpp"
#include "record/record.hpp"
#include "simplex/solver.hpp"

namespace gs::simplex {
namespace {

using lp::kInf;
using lp::LpProblem;
using lp::Objective;
using lp::RowSense;

constexpr Engine kAllEngines[] = {
    Engine::kDeviceRevised, Engine::kDeviceRevisedFloat, Engine::kHostRevised,
    Engine::kTableau, Engine::kSparseRevised};

[[nodiscard]] double tolerance_for(Engine e) {
  return e == Engine::kDeviceRevisedFloat ? 2e-3 : 1e-6;
}

/// A fixture LP with its hand-verified optimal objective.
struct Fixture {
  const char* name;
  double optimum;
  LpProblem (*build)();
};

LpProblem wyndor() {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Hillier-Lieberman).
  LpProblem p(Objective::kMaximize, "wyndor");
  const auto x = p.add_variable("x", 3.0);
  const auto y = p.add_variable("y", 5.0);
  p.add_constraint("plant1", {{x, 1.0}}, RowSense::kLe, 4.0);
  p.add_constraint("plant2", {{y, 2.0}}, RowSense::kLe, 12.0);
  p.add_constraint("plant3", {{x, 3.0}, {y, 2.0}}, RowSense::kLe, 18.0);
  return p;
}

LpProblem two_corner() {
  // min -2x - 3y s.t. x + y <= 4, x + 3y <= 6; optimum -9 at (3, 1).
  LpProblem p(Objective::kMinimize, "two_corner");
  const auto x = p.add_variable("x", -2.0);
  const auto y = p.add_variable("y", -3.0);
  p.add_constraint("c1", {{x, 1.0}, {y, 1.0}}, RowSense::kLe, 4.0);
  p.add_constraint("c2", {{x, 1.0}, {y, 3.0}}, RowSense::kLe, 6.0);
  return p;
}

LpProblem cover_ge() {
  // min 2x + 3y s.t. x + y >= 10, x <= 8, y <= 8; optimum 22 at (8, 2).
  LpProblem p(Objective::kMinimize, "cover_ge");
  const auto x = p.add_variable("x", 2.0);
  const auto y = p.add_variable("y", 3.0);
  p.add_constraint("cover", {{x, 1.0}, {y, 1.0}}, RowSense::kGe, 10.0);
  p.add_constraint("cx", {{x, 1.0}}, RowSense::kLe, 8.0);
  p.add_constraint("cy", {{y, 1.0}}, RowSense::kLe, 8.0);
  return p;
}

LpProblem equality_mix() {
  // min x + 2y s.t. x + y = 5, x <= 3; optimum 7 at (3, 2).
  LpProblem p(Objective::kMinimize, "equality_mix");
  const auto x = p.add_variable("x", 1.0);
  const auto y = p.add_variable("y", 2.0);
  p.add_constraint("sum", {{x, 1.0}, {y, 1.0}}, RowSense::kEq, 5.0);
  p.add_constraint("cap", {{x, 1.0}}, RowSense::kLe, 3.0);
  return p;
}

LpProblem bounded_vars() {
  // max x + y s.t. x + y <= 4, 1 <= x <= 3, y >= -1; optimum 4.
  LpProblem p(Objective::kMaximize, "bounded_vars");
  const auto x = p.add_variable("x", 1.0, 1.0, 3.0);
  const auto y = p.add_variable("y", 1.0, -1.0, kInf);
  p.add_constraint("c", {{x, 1.0}, {y, 1.0}}, RowSense::kLe, 4.0);
  return p;
}

LpProblem free_var_floor() {
  // min x with x free and x >= -5; optimum -5.
  LpProblem p(Objective::kMinimize, "free_var_floor");
  const auto x = p.add_variable("x", 1.0, -kInf, kInf);
  p.add_constraint("floor", {{x, 1.0}}, RowSense::kGe, -5.0);
  return p;
}

LpProblem degenerate_vertex() {
  // min -x - y with a redundant constraint through the optimum (1/2, 1/2)?
  // Use: x + y <= 1, x <= 1, y <= 1, 2x + y <= 2 (redundant). Optimum -1.
  LpProblem p(Objective::kMinimize, "degenerate_vertex");
  const auto x = p.add_variable("x", -1.0);
  const auto y = p.add_variable("y", -1.0);
  p.add_constraint("c1", {{x, 1.0}, {y, 1.0}}, RowSense::kLe, 1.0);
  p.add_constraint("c2", {{x, 1.0}}, RowSense::kLe, 1.0);
  p.add_constraint("c3", {{y, 1.0}}, RowSense::kLe, 1.0);
  p.add_constraint("c4", {{x, 2.0}, {y, 1.0}}, RowSense::kLe, 2.0);
  return p;
}

LpProblem negated_bound_var() {
  // max -x with x <= -1 (no lower bound) and -x <= 10 (i.e. x >= -10);
  // optimum 10 at x = -10.
  LpProblem p(Objective::kMaximize, "negated_bound_var");
  const auto x = p.add_variable("x", -1.0, -kInf, -1.0);
  p.add_constraint("floor", {{x, -1.0}}, RowSense::kLe, 10.0);
  return p;
}

const Fixture kFixtures[] = {
    {"wyndor", 36.0, wyndor},
    {"two_corner", -9.0, two_corner},
    {"cover_ge", 22.0, cover_ge},
    {"equality_mix", 7.0, equality_mix},
    {"bounded_vars", 4.0, bounded_vars},
    {"free_var_floor", -5.0, free_var_floor},
    {"degenerate_vertex", -1.0, degenerate_vertex},
    {"negated_bound_var", 10.0, negated_bound_var},
};

// -------------------------------------------------- fixtures x engines

class EngineFixture
    : public ::testing::TestWithParam<std::tuple<Engine, std::size_t>> {};

TEST_P(EngineFixture, ReachesKnownOptimum) {
  const auto [engine, idx] = GetParam();
  const Fixture& fx = kFixtures[idx];
  const LpProblem problem = fx.build();
  const SolveResult r = solve(problem, engine);
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << fx.name;
  const double tol = tolerance_for(engine) * (1.0 + std::abs(fx.optimum));
  EXPECT_NEAR(r.objective, fx.optimum, tol) << fx.name;
  ASSERT_EQ(r.x.size(), problem.num_variables());
  EXPECT_TRUE(problem.is_feasible(r.x, 1e-4)) << fx.name;
  // Reported objective must match the point it reports.
  EXPECT_NEAR(problem.objective_value(r.x), r.objective, tol) << fx.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesAllFixtures, EngineFixture,
    ::testing::Combine(::testing::ValuesIn(kAllEngines),
                       ::testing::Range<std::size_t>(0, std::size(kFixtures))),
    [](const auto& info) {
      std::string n = std::string(to_string(std::get<0>(info.param))) + "_" +
                      kFixtures[std::get<1>(info.param)].name;
      for (char& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

// ------------------------------------------- cross-engine agreement

class RandomAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(RandomAgreement, AllEnginesAgreeOnRandomDense) {
  const auto [size, seed] = GetParam();
  const auto problem = lp::random_dense_lp(
      {.rows = size, .cols = size, .seed = seed});
  const SolveResult reference = solve(problem, Engine::kHostRevised);
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);
  for (Engine e : kAllEngines) {
    const SolveResult r = solve(problem, e);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << to_string(e);
    EXPECT_NEAR(r.objective, reference.objective,
                tolerance_for(e) * (1.0 + std::abs(reference.objective)))
        << to_string(e);
    EXPECT_TRUE(problem.is_feasible(r.x, 1e-4)) << to_string(e);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, RandomAgreement,
    ::testing::Combine(::testing::Values<std::size_t>(5, 12, 25, 40),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(RandomAgreement, TwoPhaseTransportationAcrossEngines) {
  const auto problem = lp::transportation(5, 6, 17);
  const SolveResult reference = solve(problem, Engine::kHostRevised);
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);
  EXPECT_GT(reference.stats.phase1_iterations, 0u);
  for (Engine e : kAllEngines) {
    const SolveResult r = solve(problem, e);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << to_string(e);
    EXPECT_NEAR(r.objective, reference.objective,
                tolerance_for(e) * (1.0 + std::abs(reference.objective)))
        << to_string(e);
  }
}

TEST(RandomAgreement, SparseProblemsAcrossEngines) {
  const auto problem = lp::random_sparse_lp(
      {.rows = 30, .cols = 120, .density = 0.1, .seed = 9});
  const SolveResult reference = solve(problem, Engine::kHostRevised);
  ASSERT_EQ(reference.status, SolveStatus::kOptimal);
  const SolveResult sparse = solve(problem, Engine::kSparseRevised);
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sparse.objective, reference.objective,
              1e-6 * (1.0 + std::abs(reference.objective)));
}

// ----------------------------------------------------------- statuses

class EngineStatus : public ::testing::TestWithParam<Engine> {};

TEST_P(EngineStatus, DetectsInfeasible) {
  const SolveResult r = solve(lp::infeasible_example(), GetParam());
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
}

TEST_P(EngineStatus, DetectsUnbounded) {
  const SolveResult r = solve(lp::unbounded_example(), GetParam());
  EXPECT_EQ(r.status, SolveStatus::kUnbounded);
}

TEST_P(EngineStatus, HonorsIterationLimit) {
  SolverOptions opt;
  opt.max_iterations = 2;
  const auto problem = lp::random_dense_lp({.rows = 30, .cols = 30, .seed = 4});
  const SolveResult r = solve(problem, GetParam(), opt);
  EXPECT_EQ(r.status, SolveStatus::kIterationLimit);
  EXPECT_LE(r.stats.iterations, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineStatus,
                         ::testing::ValuesIn(kAllEngines),
                         [](const auto& info) {
                           std::string n{to_string(info.param)};
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// ------------------------------------------------------ pricing rules

TEST(Pricing, DantzigCyclesOnBeale) {
  // Beale's example with most-negative pricing and lowest-index ratio
  // tie-breaking cycles forever: the iteration limit must trip.
  SolverOptions opt;
  opt.pricing = PricingRule::kDantzig;
  opt.max_iterations = 300;
  const SolveResult r = solve(lp::beale_cycling(), Engine::kHostRevised, opt);
  EXPECT_EQ(r.status, SolveStatus::kIterationLimit);
}

TEST(Pricing, BlandTerminatesOnBeale) {
  SolverOptions opt;
  opt.pricing = PricingRule::kBland;
  const SolveResult r = solve(lp::beale_cycling(), Engine::kHostRevised, opt);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -0.05, 1e-9);
}

TEST(Pricing, HybridEscapesBealeCycle) {
  SolverOptions opt;
  opt.pricing = PricingRule::kHybrid;
  for (Engine e : {Engine::kHostRevised, Engine::kDeviceRevised,
                   Engine::kTableau}) {
    const SolveResult r = solve(lp::beale_cycling(), e, opt);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << to_string(e);
    EXPECT_NEAR(r.objective, -0.05, 1e-9) << to_string(e);
  }
}

// Beale's cycle behind one improving pivot: x8 <= 1 at cost -100 enters
// first (theta = 1), then the degenerate cycle runs until the hybrid
// rule's stall switch hands pricing to Bland after 40 pivots without
// progress. Each primal loop's streak starts from its own objective, so
// the improving pivot resets it on every engine, and the first Bland
// pivot comes at the same pivot ordinal everywhere.
TEST(Pricing, HybridSwitchesToBlandAtTheSamePivotOnEveryPrimalEngine) {
  LpProblem p = lp::beale_cycling();
  const auto x8 = p.add_variable("x8", -100.0);
  p.add_constraint("b4", {{x8, 1.0}}, RowSense::kLe, 1.0);
  for (Engine e : {Engine::kHostRevised, Engine::kDeviceRevised,
                   Engine::kTableau}) {
    record::Recorder rec;
    SolverOptions opt;
    opt.pricing = PricingRule::kHybrid;
    opt.recorder = &rec;
    const SolveResult r = solve(p, e, opt);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << to_string(e);
    EXPECT_NEAR(r.objective, -100.05, 1e-9) << to_string(e);
    const auto& records = rec.recording().records;
    const auto first_bland =
        std::find_if(records.begin(), records.end(), [](const auto& d) {
          return d.kind == record::RecordKind::kPivot && d.bland != 0;
        });
    ASSERT_NE(first_bland, records.end()) << to_string(e);
    EXPECT_EQ(first_bland->iteration, 41u) << to_string(e);
  }
}

class KleeMintyDims : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KleeMintyDims, DantzigVisitsEveryVertex) {
  const std::size_t d = GetParam();
  SolverOptions opt;
  opt.pricing = PricingRule::kDantzig;
  const SolveResult r =
      solve(lp::klee_minty(d), Engine::kDeviceRevised, opt);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, std::pow(5.0, double(d)));
  EXPECT_EQ(r.stats.iterations, (std::size_t{1} << d) - 1);
}

INSTANTIATE_TEST_SUITE_P(Dims, KleeMintyDims, ::testing::Values(3, 4, 5, 6, 8));

TEST(Pricing, AllRulesReachSameOptimumOnDense) {
  const auto problem = lp::random_dense_lp({.rows = 25, .cols = 25, .seed = 8});
  const double expect = solve(problem, Engine::kHostRevised).objective;
  for (PricingRule rule : {PricingRule::kDantzig, PricingRule::kBland,
                           PricingRule::kHybrid, PricingRule::kDevex}) {
    SolverOptions opt;
    opt.pricing = rule;
    const SolveResult r = solve(problem, Engine::kDeviceRevised, opt);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << to_string(rule);
    EXPECT_NEAR(r.objective, expect, 1e-6 * (1.0 + std::abs(expect)))
        << to_string(rule);
  }
}

TEST(Pricing, BlandNeedsMoreIterationsThanDantzigOnDense) {
  // Not a theorem, but robustly true on this instance family; guards the
  // rule wiring (a swapped rule would flip it).
  const auto problem = lp::random_dense_lp({.rows = 40, .cols = 40, .seed = 6});
  SolverOptions dantzig;
  dantzig.pricing = PricingRule::kDantzig;
  SolverOptions bland;
  bland.pricing = PricingRule::kBland;
  const auto rd = solve(problem, Engine::kHostRevised, dantzig);
  const auto rb = solve(problem, Engine::kHostRevised, bland);
  ASSERT_EQ(rd.status, SolveStatus::kOptimal);
  ASSERT_EQ(rb.status, SolveStatus::kOptimal);
  EXPECT_GE(rb.stats.iterations, rd.stats.iterations);
}

// ------------------------------------------------------ basis schemes

class ReinversionPeriods : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReinversionPeriods, ProductFormMatchesExplicitInverse) {
  const auto problem = lp::random_dense_lp({.rows = 20, .cols = 20, .seed = 3});
  const double expect = solve(problem, Engine::kDeviceRevised).objective;
  SolverOptions opt;
  opt.basis = BasisScheme::kProductForm;
  opt.reinversion_period = GetParam();
  const SolveResult r = solve(problem, Engine::kDeviceRevised, opt);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, expect, 1e-6 * (1.0 + std::abs(expect)));
}

INSTANTIATE_TEST_SUITE_P(Periods, ReinversionPeriods,
                         ::testing::Values(1, 4, 16, 0 /* default: m */));

TEST(BasisSchemes, DevexUnderProductFormIsCorrect) {
  // Devex needs a true row of B^-1; under the eta file that is a BTRAN,
  // not a row of the (stale) B0^-1.
  const auto problem = lp::random_dense_lp({.rows = 30, .cols = 30, .seed = 2});
  const double expect = solve(problem, Engine::kHostRevised).objective;
  SolverOptions opt;
  opt.basis = BasisScheme::kProductForm;
  opt.pricing = PricingRule::kDevex;
  const SolveResult r = solve(problem, Engine::kDeviceRevised, opt);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, expect, 1e-6 * (1.0 + std::abs(expect)));
}

TEST(BasisSchemes, ProductFormHandlesTwoPhase) {
  SolverOptions opt;
  opt.basis = BasisScheme::kProductForm;
  opt.reinversion_period = 8;
  const auto problem = lp::transportation(4, 5, 21);
  const double expect = solve(problem, Engine::kHostRevised).objective;
  const SolveResult r = solve(problem, Engine::kDeviceRevised, opt);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, expect, 1e-6 * (1.0 + std::abs(expect)));
}

// -------------------------------------------------------------- precision

TEST(Precision, FloatTracksDoubleWithinTolerance) {
  const auto problem = lp::random_dense_lp({.rows = 32, .cols = 32, .seed = 5});
  const SolveResult rd = solve(problem, Engine::kDeviceRevised);
  const SolveResult rf = solve(problem, Engine::kDeviceRevisedFloat);
  ASSERT_EQ(rd.status, SolveStatus::kOptimal);
  ASSERT_EQ(rf.status, SolveStatus::kOptimal);
  EXPECT_NEAR(rf.objective, rd.objective,
              1e-3 * (1.0 + std::abs(rd.objective)));
}

TEST(Precision, FloatSolveIsModeledFasterOnComputeHeavyWork) {
  // Same iteration path -> same kernels; SP peak is ~10x DP on GT200.
  const auto problem = lp::random_dense_lp({.rows = 48, .cols = 48, .seed = 7});
  const SolveResult rd = solve(problem, Engine::kDeviceRevised);
  const SolveResult rf = solve(problem, Engine::kDeviceRevisedFloat);
  ASSERT_EQ(rd.stats.iterations, rf.stats.iterations);
  EXPECT_LT(rf.stats.sim_seconds, rd.stats.sim_seconds);
}

// ------------------------------------------------------------------ stats

TEST(Stats, DeviceEngineReportsKernelBreakdown) {
  const auto problem = lp::random_dense_lp({.rows = 16, .cols = 16, .seed = 1});
  const SolveResult r = solve(problem, Engine::kDeviceRevised);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  const auto& ds = r.stats.device_stats;
  EXPECT_GT(ds.kernel_launches, 0u);
  EXPECT_GT(ds.h2d_bytes, 0u);   // initial uploads
  EXPECT_GT(ds.d2h_count, 0u);   // per-iteration descriptor readbacks
  // The pricing chain, the FTRAN + ratio chain and the pivot each appear
  // as ONE kernel.
  for (const char* kernel :
       {"binv_init", "price_btran", "price_select", "ftran_ratio",
        "pivot_apply"}) {
    EXPECT_TRUE(ds.per_kernel.contains(kernel)) << kernel;
  }
  // No selection or combine step is a launch of its own.
  for (const char* gone :
       {"price_reduced", "ftran", "ratio", "update_beta", "update_binv",
        "pivot_stage", "price_select_final", "ftran_ratio_final",
        "ratio_select", "batch_select_entering", "batch_ratio_select"}) {
    EXPECT_FALSE(ds.per_kernel.contains(gone)) << gone;
  }
  // pivot_apply sums the next iteration's pi, so a slack-startable solve
  // (one loop, no refactor) runs its BTRAN exactly once, at loop entry.
  EXPECT_EQ(ds.per_kernel.at("price_btran").launches, 1u);
  EXPECT_GT(r.stats.sim_seconds, 0.0);
  EXPECT_GT(r.stats.wall_seconds, 0.0);
  EXPECT_NEAR(r.stats.sim_seconds, ds.sim_seconds(), 1e-12);
}

TEST(Stats, HostEngineMetersItsSteps) {
  const auto problem = lp::random_dense_lp({.rows = 16, .cols = 16, .seed = 1});
  const SolveResult r = solve(problem, Engine::kHostRevised);
  const auto& ds = r.stats.device_stats;
  EXPECT_TRUE(ds.per_kernel.contains("price_reduced"));
  EXPECT_TRUE(ds.per_kernel.contains("update_binv"));
  EXPECT_EQ(ds.h2d_bytes, 0u);  // host model: no PCIe
  EXPECT_GT(r.stats.sim_seconds, 0.0);
}

TEST(Stats, PhaseOneIterationsAreCounted) {
  const SolveResult r = solve(lp::transportation(4, 4, 2),
                              Engine::kDeviceRevised);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_GT(r.stats.phase1_iterations, 0u);
  EXPECT_GE(r.stats.iterations, r.stats.phase1_iterations);
}

TEST(Stats, PureLeProblemSkipsPhaseOne) {
  const SolveResult r = solve(
      lp::random_dense_lp({.rows = 10, .cols = 10, .seed = 1}),
      Engine::kDeviceRevised);
  EXPECT_EQ(r.stats.phase1_iterations, 0u);
}

// ----------------------------------------------------------- degeneracy

TEST(Degeneracy, RedundantEqualityRowsAreHandled) {
  // x + y = 2 stated twice: one artificial can never leave the basis.
  LpProblem p(Objective::kMinimize, "redundant");
  const auto x = p.add_variable("x", 1.0);
  const auto y = p.add_variable("y", 3.0);
  p.add_constraint("e1", {{x, 1.0}, {y, 1.0}}, RowSense::kEq, 2.0);
  p.add_constraint("e2", {{x, 1.0}, {y, 1.0}}, RowSense::kEq, 2.0);
  for (Engine e : kAllEngines) {
    const SolveResult r = solve(p, e);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << to_string(e);
    EXPECT_NEAR(r.objective, 2.0, tolerance_for(e) * 3.0) << to_string(e);
    EXPECT_TRUE(p.is_feasible(r.x, 1e-4)) << to_string(e);
  }
}

TEST(Degeneracy, ZeroRhsRowsSolve) {
  // Constraints through the origin force degenerate pivots immediately.
  LpProblem p(Objective::kMinimize, "origin");
  const auto x = p.add_variable("x", -1.0);
  const auto y = p.add_variable("y", -2.0);
  p.add_constraint("z1", {{x, 1.0}, {y, -1.0}}, RowSense::kLe, 0.0);
  p.add_constraint("z2", {{x, -1.0}, {y, 1.0}}, RowSense::kLe, 0.0);
  p.add_constraint("cap", {{x, 1.0}, {y, 1.0}}, RowSense::kLe, 2.0);
  for (Engine e : {Engine::kDeviceRevised, Engine::kHostRevised,
                   Engine::kTableau}) {
    const SolveResult r = solve(p, e);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << to_string(e);
    EXPECT_NEAR(r.objective, -3.0, 1e-6) << to_string(e);  // x = y = 1
  }
}

}  // namespace
}  // namespace gs::simplex
