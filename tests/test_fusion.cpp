// Fused-vs-reference equivalence for the device engine
// (SolverOptions::fused_iteration, see DESIGN/OBSERVABILITY docs).
//
// The fused path collapses the pricing chain, the FTRAN/ratio chain and
// the rank-1 B^-1 update into single launches and replaces the scalar
// PCIe ping-pong with one packed descriptor readback; on the sparse
// product form it also moves the pivot bookkeeping on device. None of that
// may change the algorithm: these tests record both paths with the
// decision recorder and require the pivot streams to align with ZERO
// divergence — pivot for pivot, in both precisions, under every pricing
// rule — and the launch/transfer budget the fusion exists to buy.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/generators.hpp"
#include "lp/problem.hpp"
#include "record/record.hpp"
#include "simplex/device_revised.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::simplex {
namespace {

struct Run {
  SolveResult result;
  record::Recording recording;
};

template <typename Real, template <typename> class At = DenseAt>
Run run_recorded(const lp::LpProblem& problem, bool fused, SolverOptions opt) {
  vgpu::Device dev(vgpu::gtx280_model());
  record::Recorder rec;
  opt.fused_iteration = fused;
  opt.recorder = &rec;
  DeviceRevisedSimplex<Real, At> solver(dev, opt);
  Run out;
  out.result = solver.solve(problem);
  out.recording = rec.recording();
  return out;
}

SolverOptions rule_options(PricingRule rule,
                           std::size_t max_iterations = 50000) {
  SolverOptions opt;
  opt.pricing = rule;
  opt.max_iterations = max_iterations;
  return opt;
}

/// Sparse product form: the CSR engine walking its eta file with the
/// chain kernels, every `period` pivots reinverted (0 = every m).
SolverOptions product_form(PricingRule rule, std::size_t period = 0,
                           std::size_t max_iterations = 50000) {
  SolverOptions opt = rule_options(rule, max_iterations);
  opt.basis = BasisScheme::kProductForm;
  opt.reinversion_period = period;
  return opt;
}

std::size_t count_kind(const record::Recording& rec, record::RecordKind k) {
  std::size_t n = 0;
  for (const auto& r : rec.records) n += r.kind == k ? 1 : 0;
  return n;
}

template <typename Real, template <typename> class At = DenseAt>
void expect_identical_decisions(const lp::LpProblem& problem,
                                const SolverOptions& opt) {
  const Run fused = run_recorded<Real, At>(problem, true, opt);
  const Run ref = run_recorded<Real, At>(problem, false, opt);
  const record::DiffResult d = record::diff(fused.recording, ref.recording);
  ASSERT_TRUE(d.comparable) << d.describe();
  EXPECT_FALSE(d.diverged) << d.describe();
  EXPECT_EQ(fused.recording.records.size(), ref.recording.records.size());
  EXPECT_EQ(d.common, count_kind(ref.recording, record::RecordKind::kPivot));
  EXPECT_EQ(count_kind(fused.recording, record::RecordKind::kRefactor),
            count_kind(ref.recording, record::RecordKind::kRefactor));
  // Same values, not just the same pivots: any rounding drift in the
  // fused kernels (the folded BTRAN included) shows up in d_q or theta.
  EXPECT_EQ(d.max_reduced_cost_delta, 0.0) << d.describe();
  EXPECT_EQ(d.max_theta_delta, 0.0) << d.describe();
  EXPECT_EQ(fused.result.status, ref.result.status);
  EXPECT_EQ(fused.result.stats.iterations, ref.result.stats.iterations);
  if (fused.result.optimal()) {
    // Same pivot path in the same precision: bit-identical optimum.
    EXPECT_EQ(fused.result.objective, ref.result.objective);
    EXPECT_EQ(fused.result.x, ref.result.x);
    EXPECT_EQ(fused.result.y, ref.result.y);
  }
}

template <typename Real, template <typename> class At = DenseAt>
void expect_identical_decisions(const lp::LpProblem& problem,
                                PricingRule rule,
                                std::size_t max_iterations = 50000) {
  expect_identical_decisions<Real, At>(problem,
                                       rule_options(rule, max_iterations));
}

constexpr PricingRule kAllRules[] = {PricingRule::kHybrid,
                                     PricingRule::kDantzig,
                                     PricingRule::kBland, PricingRule::kDevex};

TEST(Fusion, PivotStreamsIdenticalAcrossRulesDouble) {
  for (const std::uint64_t seed : {1ull, 5ull, 11ull}) {
    const auto problem =
        lp::random_dense_lp({.rows = 24, .cols = 24, .seed = seed});
    for (const PricingRule rule : kAllRules) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " rule "
                                      << to_string(rule));
      expect_identical_decisions<double>(problem, rule);
    }
  }
}

TEST(Fusion, PivotStreamsIdenticalAcrossRulesFloat) {
  for (const std::uint64_t seed : {1ull, 5ull, 11ull}) {
    const auto problem =
        lp::random_dense_lp({.rows = 24, .cols = 24, .seed = seed});
    for (const PricingRule rule : kAllRules) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " rule "
                                      << to_string(rule));
      expect_identical_decisions<float>(problem, rule);
    }
  }
}

TEST(Fusion, PivotStreamsIdenticalWithPhaseOne) {
  // Equality rows force artificials: covers phase 1, the drive-out path
  // (which stays on the reference kernels) and the phase transition.
  const auto problem = lp::transportation(5, 6, 17);
  expect_identical_decisions<double>(problem, PricingRule::kHybrid);
  expect_identical_decisions<float>(problem, PricingRule::kHybrid);
}

TEST(Fusion, PivotStreamsIdenticalOnMultiBlockSweep) {
  // n_aug = 300 + 150 > one 256-lane block: exercises the fused pricing's
  // cross-block combine launch against the primitives' two-pass argmin.
  const auto problem =
      lp::random_dense_lp({.rows = 150, .cols = 300, .seed = 3});
  expect_identical_decisions<double>(problem, PricingRule::kDantzig, 12);
  expect_identical_decisions<double>(problem, PricingRule::kBland, 12);
}

TEST(Fusion, PivotStreamsIdenticalSparsePolicy) {
  const auto problem =
      lp::random_sparse_lp({.rows = 32, .cols = 64, .density = 0.2,
                            .seed = 7});
  expect_identical_decisions<double, SparseAt>(problem, PricingRule::kHybrid);
  expect_identical_decisions<float, SparseAt>(problem, PricingRule::kDevex);
}

TEST(Fusion, RefactorPeriodKeptIdentical) {
  // Periodic reinversion interleaves with fused iterations; the refactor
  // events must land on the same iterations in both paths.
  const auto problem =
      lp::random_dense_lp({.rows = 32, .cols = 32, .seed = 9});
  vgpu::Device dev_a(vgpu::gtx280_model()), dev_b(vgpu::gtx280_model());
  record::Recorder rec_a, rec_b;
  SolverOptions opt;
  opt.refactor_period = 4;
  opt.recorder = &rec_a;
  DeviceRevisedSimplex<double> fused(dev_a, opt);
  const SolveResult ra = fused.solve(problem);
  opt.fused_iteration = false;
  opt.recorder = &rec_b;
  DeviceRevisedSimplex<double> reference(dev_b, opt);
  const SolveResult rb = reference.solve(problem);
  ASSERT_EQ(ra.status, SolveStatus::kOptimal);
  ASSERT_EQ(rb.status, SolveStatus::kOptimal);
  const record::DiffResult d = record::diff(rec_a.recording(),
                                            rec_b.recording());
  ASSERT_TRUE(d.comparable) << d.describe();
  EXPECT_FALSE(d.diverged) << d.describe();
}

TEST(Fusion, SparseProductFormStreamsIdenticalAcrossRules) {
  const auto problem = lp::random_sparse_lp(
      {.rows = 40, .cols = 160, .density = 0.08, .seed = 12});
  for (const PricingRule rule : kAllRules) {
    SCOPED_TRACE(testing::Message() << "rule " << to_string(rule));
    expect_identical_decisions<double, SparseAt>(problem, product_form(rule));
    expect_identical_decisions<float, SparseAt>(problem, product_form(rule));
  }
}

TEST(Fusion, SparseProductFormStreamsIdenticalWithPhaseOneAndShortPeriod) {
  // Phase 1, the artificial drive-out (which shares the chain kernels) and
  // the phase transition, with the eta file folded back every 4 pivots.
  const auto transport = lp::transportation(5, 6, 17);
  for (const std::size_t period : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "period " << period);
    expect_identical_decisions<double, SparseAt>(
        transport, product_form(PricingRule::kHybrid, period));
    expect_identical_decisions<float, SparseAt>(
        transport, product_form(PricingRule::kDevex, period));
  }
  const auto problem = lp::random_sparse_lp(
      {.rows = 32, .cols = 128, .density = 0.08, .seed = 4});
  const auto fused = run_recorded<double, SparseAt>(
      problem, true, product_form(PricingRule::kDantzig, 4));
  EXPECT_GE(count_kind(fused.recording, record::RecordKind::kRefactor), 2u);
  expect_identical_decisions<double, SparseAt>(
      problem, product_form(PricingRule::kDantzig, 4));
  expect_identical_decisions<float, SparseAt>(
      problem, product_form(PricingRule::kBland, 4));
}

TEST(Fusion, SparseProductFormStreamsIdenticalOnMultiBlockSweeps) {
  // m = 300 rows and n_aug = 600 columns: both fused selections (pricing
  // and ratio) span several blocks and take their combine launches.
  const auto problem = lp::random_sparse_lp(
      {.rows = 300, .cols = 300, .density = 0.02, .seed = 6});
  expect_identical_decisions<double, SparseAt>(
      problem, product_form(PricingRule::kDantzig, 0, 40));
  expect_identical_decisions<double, SparseAt>(
      problem, product_form(PricingRule::kBland, 0, 40));
}

TEST(Fusion, SparseProductFormBudgetIndependentOfEtaFile) {
  // The eta file grows to ~m etas between reinversions at period 0 and
  // stays <= 8 at period 8; either way each iteration issues the same
  // launches (one chain per direction, never one kernel per eta, and no
  // separate base solve against B0), one descriptor d2h and at most one
  // eta-support h2d.
  const auto problem = lp::random_sparse_lp(
      {.rows = 96, .cols = 384, .density = 0.03, .seed = 5});
  for (const std::size_t period : {std::size_t{8}, std::size_t{0}}) {
    SCOPED_TRACE(testing::Message() << "period " << period);
    vgpu::Device dev(vgpu::gtx280_model());
    SparseRevisedSimplex<double> solver(
        dev, product_form(PricingRule::kHybrid, period));
    const SolveResult r = solver.solve(problem);
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    ASSERT_GT(r.stats.iterations, 50u);
    const auto& ds = r.stats.device_stats;
    const double iters = static_cast<double>(r.stats.iterations);
    EXPECT_LE(static_cast<double>(ds.kernel_launches), 7.0 * iters + 16.0);
    EXPECT_LE(ds.d2h_count, r.stats.iterations + 8);
    EXPECT_LE(ds.h2d_count, r.stats.iterations + 16);
    // At most one chain per direction per iteration (plus the final
    // pricing pass that finds no entering column).
    EXPECT_LE(ds.per_kernel.at("eta_btran_chain").launches,
              r.stats.iterations + 1);
    EXPECT_LE(ds.per_kernel.at("eta_ftran_chain").launches,
              r.stats.iterations + 1);
  }
}

TEST(Fusion, LaunchAndTransferBudgetHeld) {
  // A seeded m = 96 solve launches 3 kernels per iteration (price_select,
  // ftran_ratio, pivot_apply — the pivot folds in the next BTRAN, so
  // price_btran runs once per loop entry) plus a small solve-constant,
  // and exactly one d2h per iteration plus a small solve-constant
  // (descriptor fetch; objective/extraction reads at the phase
  // boundaries).
  const auto problem = lp::random_dense_lp({.rows = 96, .cols = 96, .seed = 3});
  vgpu::Device dev(vgpu::gtx280_model());
  DeviceRevisedSimplex<double> solver(dev);
  const SolveResult r = solver.solve(problem);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  ASSERT_GT(r.stats.iterations, 0u);
  const auto& ds = r.stats.device_stats;
  EXPECT_LE(static_cast<double>(ds.kernel_launches),
            3.0 * static_cast<double>(r.stats.iterations) + 8.0);
  EXPECT_LE(ds.d2h_count, r.stats.iterations + 8);
  // Device-resident pivot state: the iteration loop uploads NOTHING (all
  // H2D happens during workspace setup, before the first launch).
  const std::size_t setup_h2d =
      (96 /*diag*/ + 96 /*beta*/ + 96 /*b*/ + 96 /*cb*/) * sizeof(double) *
          2 /*two phases reload c/cb at most*/ +
      (96 * 192 + 4 * 192) * sizeof(double) /*A^T, c, mask, scores*/;
  EXPECT_LT(ds.h2d_bytes, setup_h2d);
}

}  // namespace
}  // namespace gs::simplex
