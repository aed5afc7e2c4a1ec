// Guards on the device engine's iteration loop (DESIGN.md, "Basis
// oracles"). The loop collapses pricing, FTRAN + ratio and the basis
// update into a few launches and replaces the scalar PCIe ping-pong with
// one packed descriptor readback. Golden recordings (tests/golden/, the
// recorder's gs-record-v1 format) pin its decision stream bit for bit —
// in both precisions, under every pricing rule, on both A^T layouts and
// both basis schemes — and the budget tests hold the launches and
// transfers the collapse exists to buy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "drive_out_lp.hpp"
#include "lp/generators.hpp"
#include "lp/problem.hpp"
#include "record/record.hpp"
#include "simplex/device_revised.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::simplex {
namespace {

SolverOptions rule_options(PricingRule rule,
                           std::size_t max_iterations = 50000) {
  SolverOptions opt;
  opt.pricing = rule;
  opt.max_iterations = max_iterations;
  return opt;
}

/// Product form: the eta file walked by the chain kernels, refactored
/// every `period` etas (0 = every m).
SolverOptions product_form(PricingRule rule, std::size_t period = 0,
                           std::size_t max_iterations = 50000) {
  SolverOptions opt = rule_options(rule, max_iterations);
  opt.basis = BasisScheme::kProductForm;
  opt.reinversion_period = period;
  return opt;
}

/// One golden solve: a named instance, engine and options, run with the
/// given recorder attached.
struct Golden {
  std::string name;
  std::function<SolveResult(record::Recorder&)> run;
};

template <typename Real, template <typename> class At = DenseAt>
Golden golden(std::string name, lp::LpProblem problem, SolverOptions opt) {
  return {std::move(name), [problem = std::move(problem),
                            opt](record::Recorder& rec) {
            vgpu::Device dev(vgpu::gtx280_model());
            SolverOptions o = opt;
            o.recorder = &rec;
            DeviceRevisedSimplex<Real, At> solver(dev, o);
            return solver.solve(problem);
          }};
}

/// The device decision streams no host-vs-device identity test covers:
/// float under every pricing rule (the hybrid on Beale's cycling LP, where
/// its stall switch to Bland fires), Devex in both precisions, the CSR
/// explicit inverse in float, phase 1 with the artificial drive-out (and
/// under Devex, whose weights the drive-out pivots leave alone), the
/// periodic reinversion, multi-block selections on both layouts, and the
/// product form at reinversion periods 0 and 4.
std::vector<Golden> golden_corpus() {
  const auto dense64 = lp::random_dense_lp({.rows = 64, .cols = 64, .seed = 5});
  const auto transport = lp::transportation(5, 6, 17);
  const auto drive_out = test_lps::degenerate_drive_out();
  const auto devex_drive_out = test_lps::devex_drive_out();
  const auto sparse32 = lp::random_sparse_lp(
      {.rows = 32, .cols = 64, .density = 0.2, .seed = 7});
  const auto sparse40 = lp::random_sparse_lp(
      {.rows = 40, .cols = 160, .density = 0.08, .seed = 12});
  const auto sparse32x128 = lp::random_sparse_lp(
      {.rows = 32, .cols = 128, .density = 0.08, .seed = 4});
  const auto dense150 =
      lp::random_dense_lp({.rows = 150, .cols = 300, .seed = 3});
  const auto sparse300 = lp::random_sparse_lp(
      {.rows = 300, .cols = 300, .density = 0.02, .seed = 6});
  SolverOptions period4 = rule_options(PricingRule::kHybrid);
  period4.refactor_period = 4;
  return {
      golden<float>("beale_f32_hybrid", lp::beale_cycling(),
                    rule_options(PricingRule::kHybrid)),
      golden<float>("dense_f32_dantzig", dense64,
                    rule_options(PricingRule::kDantzig)),
      golden<float>("dense_f32_bland", dense64,
                    rule_options(PricingRule::kBland)),
      golden<float>("dense_f32_devex", dense64,
                    rule_options(PricingRule::kDevex)),
      golden<double>("dense_f64_devex", dense64,
                     rule_options(PricingRule::kDevex)),
      golden<double>("dense_f64_devex_24x24",
                     lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 11}),
                     rule_options(PricingRule::kDevex)),
      golden<float, SparseAt>("csr_f32_devex", sparse32,
                              rule_options(PricingRule::kDevex)),
      golden<double>("transport_f64", transport,
                     rule_options(PricingRule::kHybrid)),
      golden<float>("transport_f32", transport,
                    rule_options(PricingRule::kHybrid)),
      golden<double>("drive_out_f64", drive_out,
                     rule_options(PricingRule::kHybrid)),
      golden<float>("drive_out_f32", drive_out,
                    rule_options(PricingRule::kHybrid)),
      golden<double, SparseAt>("drive_out_csr_f64", drive_out,
                               rule_options(PricingRule::kHybrid)),
      golden<float, SparseAt>("drive_out_csr_pf_f32", drive_out,
                              product_form(PricingRule::kDevex, 4)),
      golden<double>("drive_out_devex_f64", devex_drive_out,
                     rule_options(PricingRule::kDevex)),
      golden<double, SparseAt>("drive_out_devex_csr_pf_f64", devex_drive_out,
                               product_form(PricingRule::kDevex)),
      golden<double>("refactor4_f64",
                     lp::random_dense_lp({.rows = 32, .cols = 32, .seed = 9}),
                     period4),
      golden<double>("multiblock_dense_dantzig", dense150,
                     rule_options(PricingRule::kDantzig, 12)),
      golden<double>("multiblock_dense_bland", dense150,
                     rule_options(PricingRule::kBland, 12)),
      golden<double, SparseAt>("multiblock_csr_pf_dantzig", sparse300,
                               product_form(PricingRule::kDantzig, 0, 40)),
      golden<double, SparseAt>("multiblock_csr_pf_bland", sparse300,
                               product_form(PricingRule::kBland, 0, 40)),
      golden<double, SparseAt>("csr_pf_f64_devex", sparse40,
                               product_form(PricingRule::kDevex)),
      golden<float, SparseAt>("csr_pf_f32_hybrid", sparse40,
                              product_form(PricingRule::kHybrid)),
      golden<float, SparseAt>("transport_csr_pf_f32_p0", transport,
                              product_form(PricingRule::kDevex, 0)),
      golden<float, SparseAt>("transport_csr_pf_f32_p4", transport,
                              product_form(PricingRule::kDevex, 4)),
      golden<float, SparseAt>("csr_pf_f32_bland_p4", sparse32x128,
                              product_form(PricingRule::kBland, 4)),
  };
}

// Every golden recording under tests/golden/ replays bit for bit: the
// first decision whose entering column, leaving row, d_q, alpha_p, theta
// or tie count differs in any bit fails, as does a missing or extra
// decision and a different final basis. Set GS_GOLDEN_REWRITE=1 to
// re-record the files after a deliberate change of the decision stream.
TEST(Fusion, GoldenRecordingsReplayBitForBit) {
  const bool rewrite = std::getenv("GS_GOLDEN_REWRITE") != nullptr;
  for (const Golden& g : golden_corpus()) {
    SCOPED_TRACE(g.name);
    const std::string path =
        std::string(GS_GOLDEN_DIR) + "/" + g.name + ".gsrec";
    if (rewrite) {
      record::Recorder rec;
      (void)g.run(rec);
      rec.recording().write_file(path);
      continue;
    }
    const record::Recording ref = record::Recording::read_file(path);
    ASSERT_GT(ref.records.size(), 0u);
    record::Recorder rec = record::Recorder::replaying(ref);
    const SolveResult r = g.run(rec);
    EXPECT_FALSE(rec.mismatched()) << rec.mismatch().describe();
    EXPECT_EQ(rec.verified(), ref.records.size());
    EXPECT_EQ(to_string(r.status), ref.header.status);
    EXPECT_EQ(r.basis, ref.basis);
  }
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
