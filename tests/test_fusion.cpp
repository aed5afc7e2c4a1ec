// Guards on the device engine's iteration loop (DESIGN.md, "Basis
// oracles"). The loop collapses pricing, FTRAN + ratio and the basis
// update into a few launches and replaces the scalar PCIe ping-pong with
// one packed descriptor readback. Golden recordings (tests/golden/, the
// recorder's gs-record-v1 format) pin its decision stream bit for bit —
// in both precisions, under every pricing rule, on both A^T layouts and
// both basis schemes — and the budget tests hold the launches and
// transfers the collapse exists to buy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "drive_out_lp.hpp"
#include "lp/generators.hpp"
#include "lp/problem.hpp"
#include "lp/standard_form.hpp"
#include "record/record.hpp"
#include "simplex/device_revised.hpp"
#include "vgpu/machine_model.hpp"
#include "vgpu/primitives.hpp"

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
/// under Devex, whose weights the drive-out pivots leave alone),
/// multi-block selections on both layouts, and the product form at
/// reinversion periods 0 and 4.
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

/// minimize c.x subject to A x <= b, x >= 0, with every column of A equal
/// to `alpha`. The crash basis is the slack basis (B = I, pi = 0), so the
/// first iteration prices d = c over the structural columns and, whichever
/// column enters, ratio-tests beta = b against alpha_q = alpha.
lp::LpProblem first_pivot_lp(const std::vector<double>& c,
                             const std::vector<double>& alpha,
                             const std::vector<double>& b) {
  lp::LpProblem p;
  for (std::size_t j = 0; j < c.size(); ++j) {
    p.add_variable("x" + std::to_string(j), c[j]);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    std::vector<lp::Term> terms;
    for (std::size_t j = 0; j < c.size(); ++j) {
      terms.push_back({static_cast<std::uint32_t>(j), alpha[i]});
    }
    p.add_constraint("r" + std::to_string(i), std::move(terms),
                     lp::RowSense::kLe, b[i]);
  }
  return p;
}

// The first pivot over crafted vectors that span 5 pricing blocks
// (n_aug = 1200) and 3 ratio blocks (m = 600), with the winning values
// tied across block boundaries: the loop's entering column under Dantzig,
// Bland and Devex and its leaving row (the reduction of the per-block
// ratio winners) are the ones vgpu::argmin and vgpu::find_first_below
// pick over the whole vector, on both basis schemes.
TEST(Fusion, MultiBlockSelectionsMatchPrimitives) {
  constexpr std::size_t kN = 600, kM = 600;
  // Entering designs: a Dantzig/Devex tie straddling 255|256 with Bland's
  // first hit on a block's last lane; a tie straddling 511|512 behind
  // tiny negatives that are no candidates; Bland's first hit on block
  // 2's first lane with the steepest column elsewhere.
  std::vector<std::vector<double>> costs(3, std::vector<double>(kN));
  for (std::size_t j = 0; j < kN; ++j) {
    costs[0][j] = j < 255 ? 0.5 : -1.0 - 0.25 * double(j % 5);
    costs[1][j] = j < 300 ? 0.5 : (j < 511 ? -1e-12 : -2.0);
    costs[2][j] = j < 512 ? double(j % 2) : -1.0;
  }
  costs[0][255] = costs[0][256] = costs[0][512] = -7.0;
  costs[1][511] = costs[1][512] = -5.0;
  costs[2][599] = -9.0;
  // Leaving designs: theta tied at rows 255|256 and 512 with alpha = 1;
  // an all-ineligible first block and a theta tie straddling 511|512
  // between rows of different alpha.
  std::vector<std::vector<double>> alphas(2, std::vector<double>(kM, 1.0));
  std::vector<std::vector<double>> rhs(2, std::vector<double>(kM));
  for (std::size_t i = 0; i < kM; ++i) {
    rhs[0][i] = 10.0 + double(i % 7);
    alphas[1][i] = i < 256 || i % 2 == 0 ? -1.0 : 2.0;
    rhs[1][i] = 20.0;
  }
  rhs[0][255] = rhs[0][256] = rhs[0][512] = 2.0;
  alphas[1][512] = 1.0;
  rhs[1][511] = 6.0;
  rhs[1][512] = 3.0;

  const SolverOptions defaults;
  for (std::size_t s = 0; s < costs.size(); ++s) {
    const std::vector<double>& alpha = alphas[s % 2];
    const lp::LpProblem problem = first_pivot_lp(costs[s], alpha, rhs[s % 2]);
    const AugmentedLp aug = augment(lp::to_standard_form(problem));
    ASSERT_EQ(aug.m, kM);
    ASSERT_EQ(aug.n_aug, kN + kM);
    // What the first iteration sees: d (zero on the basic slacks), the
    // Devex scores at unit weights, and the ratios.
    std::vector<double> d(aug.n_aug, 0.0), score(aug.n_aug, 0.0);
    for (std::size_t j = 0; j < kN; ++j) {
      d[j] = aug.c_phase2[j];
      if (d[j] < -defaults.opt_tol) score[j] = -(d[j] * d[j]);
    }
    std::vector<double> ratio(kM, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < kM; ++i) {
      if (alpha[i] > defaults.pivot_tol) ratio[i] = aug.beta_init[i] / alpha[i];
    }
    vgpu::Device ref_dev(vgpu::gtx280_model());
    const vgpu::DeviceBuffer<double> d_dev(ref_dev, std::span<const double>(d));
    const vgpu::DeviceBuffer<double> s_dev(ref_dev,
                                           std::span<const double>(score));
    const vgpu::DeviceBuffer<double> r_dev(ref_dev,
                                           std::span<const double>(ratio));
    const auto leaving = vgpu::argmin(r_dev);
    ASSERT_TRUE(leaving.found());
    ASSERT_LT(leaving.value, std::numeric_limits<double>::infinity());

    for (const PricingRule rule :
         {PricingRule::kDantzig, PricingRule::kBland, PricingRule::kDevex}) {
      const auto entering =
          rule == PricingRule::kBland
              ? vgpu::find_first_below(d_dev, -defaults.opt_tol)
              : vgpu::argmin(rule == PricingRule::kDevex ? s_dev : d_dev);
      ASSERT_TRUE(entering.found());
      for (const BasisScheme basis :
           {BasisScheme::kExplicitInverse, BasisScheme::kProductForm}) {
        SCOPED_TRACE(testing::Message()
                     << "design " << s << " " << to_string(rule) << " "
                     << to_string(basis));
        record::Recorder rec;
        SolverOptions opt = rule_options(rule, 1);
        opt.basis = basis;
        opt.recorder = &rec;
        vgpu::Device dev(vgpu::gtx280_model());
        (void)DeviceRevisedSimplex<double>(dev, opt).solve(problem);
        const auto& records = rec.recording().records;
        const auto pivot = std::find_if(
            records.begin(), records.end(), [](const auto& r) {
              return r.kind == record::RecordKind::kPivot;
            });
        ASSERT_NE(pivot, records.end());
        const record::DecisionRecord& r = *pivot;
        EXPECT_EQ(r.entering, entering.index);
        EXPECT_EQ(r.reduced_cost, d[entering.index]);
        EXPECT_EQ(r.leaving_row, leaving.index);
        EXPECT_EQ(r.theta, leaving.value);
        EXPECT_EQ(r.pivot_value, alpha[leaving.index]);
      }
    }
  }
}

TEST(Fusion, SparseProductFormBudgetIndependentOfEtaFile) {
  // The eta file grows to ~m etas between reinversions at period 0 and
  // stays <= 8 at period 8; either way each iteration issues the same
  // five launches at most (eta_btran_chain, price_select, eta_ftran_chain
  // with the ratio test, pivot_beta, make_eta: one chain per direction,
  // never one kernel per eta, no separate base solve against B0), one
  // descriptor d2h and at most one eta-support h2d.
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
    EXPECT_LE(static_cast<double>(ds.kernel_launches), 5.0 * iters + 16.0);
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

  // The same 3 launches per iteration when every selection spans several
  // blocks (m = 300, n_aug = 600): the pricing blocks' winners are
  // combined inside ftran_ratio and the ratio blocks' on the host, so no
  // combine launch is added.
  const SolveResult wide = DeviceRevisedSimplex<double>(dev).solve(
      lp::random_dense_lp({.rows = 300, .cols = 300, .seed = 3}));
  ASSERT_EQ(wide.status, SolveStatus::kOptimal);
  ASSERT_GT(wide.stats.iterations, 0u);
  EXPECT_LE(static_cast<double>(wide.stats.device_stats.kernel_launches),
            3.0 * static_cast<double>(wide.stats.iterations) + 8.0);
  EXPECT_LE(wide.stats.device_stats.d2h_count, wide.stats.iterations + 8);
}

}  // namespace
}  // namespace gs::simplex
