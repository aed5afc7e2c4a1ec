// Property tests for the BasisOracle seam (src/simplex/basis/): the
// explicit-inverse and product-form oracles must answer the same four
// linear-algebra questions, the sparse LU must invert what it factored,
// and whole solves must take the same pivot path under either oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/generators.hpp"
#include "record/record.hpp"
#include "simplex/basis/explicit_inverse.hpp"
#include "simplex/basis/product_form.hpp"
#include "simplex/basis/sparse_lu.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/solver.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace gs {
namespace {

using simplex::basis::BasisOracle;
using simplex::basis::CsrColumnSource;
using simplex::basis::ExplicitInverseOracle;
using simplex::basis::ProductFormOracle;

/// Random strictly diagonally dominant sparse basis in A^T layout
/// (row j = basis column j), guaranteed factorizable by both oracles.
sparse::CsrMatrix<double> random_basis_at(std::size_t m, std::size_t per_col,
                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> offs{0};
  std::vector<std::uint32_t> idx;
  std::vector<double> val;
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<std::pair<std::uint32_t, double>> entries;
    double offsum = 0.0;
    for (std::size_t k = 0; k < per_col; ++k) {
      const auto r = static_cast<std::uint32_t>(rng.next() % m);
      if (r == j) continue;
      const double v =
          (double(rng.next() >> 11) / double(1ULL << 53)) * 2.0 - 1.0;
      entries.emplace_back(r, v);
      offsum += std::abs(v);
    }
    entries.emplace_back(static_cast<std::uint32_t>(j), offsum + 1.5);
    std::sort(entries.begin(), entries.end());
    for (const auto& [r, v] : entries) {
      idx.push_back(r);
      val.push_back(v);
    }
    offs.push_back(static_cast<std::uint32_t>(idx.size()));
  }
  return sparse::CsrMatrix<double>(m, m, std::move(offs), std::move(idx),
                                   std::move(val));
}

std::vector<double> random_vec(std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(m);
  for (double& x : v) {
    x = (double(rng.next() >> 11) / double(1ULL << 53)) * 4.0 - 2.0;
  }
  return v;
}

std::vector<std::uint32_t> identity_basis(std::size_t m) {
  std::vector<std::uint32_t> b(m);
  for (std::size_t i = 0; i < m; ++i) b[i] = static_cast<std::uint32_t>(i);
  return b;
}

// --------------------------------------------------------- LU vs inverse

// Property: on random sparse bases, the product-form solves agree with
// the explicit dense inverse to solver tolerance (the two factorizations
// round differently, so agreement is relative, not bitwise).
TEST(BasisOracles, SparseSolvesMatchDenseInverseOnRandomBases) {
  for (const std::uint64_t seed : {1u, 7u, 23u, 91u}) {
    const std::size_t m = 48;
    const auto at = random_basis_at(m, 6, seed);
    const CsrColumnSource cols(at);
    const auto basis = identity_basis(m);
    simplex::SolverOptions opt;
    simplex::CostMeter meter_a(vgpu::cpu2009_model());
    simplex::CostMeter meter_b(vgpu::cpu2009_model());
    std::vector<double> diag(m, 1.0);
    ExplicitInverseOracle dense(m, diag, cols, meter_a, opt);
    ProductFormOracle sparse_o(m, basis, cols, meter_b, opt);
    ASSERT_TRUE(dense.refactorize(basis));
    ASSERT_TRUE(sparse_o.refactorize(basis));

    const auto x = random_vec(m, seed * 101 + 5);
    std::vector<double> fa(m), fb(m), ba(m), bb(m);
    dense.ftran_raw(x, fa);
    sparse_o.ftran_raw(x, fb);
    dense.btran_raw(x, ba);
    sparse_o.btran_raw(x, bb);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(fa[i], fb[i], 1e-9 * (1.0 + std::abs(fa[i])))
          << "ftran seed=" << seed << " i=" << i;
      EXPECT_NEAR(ba[i], bb[i], 1e-9 * (1.0 + std::abs(ba[i])))
          << "btran seed=" << seed << " i=" << i;
    }
  }
}

// Property: on a +/-1 diagonal basis (the slack crash shape) both
// representations are exact, so FTRAN and BTRAN agree BIT-FOR-BIT.
TEST(BasisOracles, UnitDiagonalBasesAgreeBitwise) {
  const std::size_t m = 33;
  std::vector<std::uint32_t> offs(m + 1);
  std::vector<std::uint32_t> idx(m);
  std::vector<double> val(m);
  for (std::size_t j = 0; j < m; ++j) {
    offs[j + 1] = static_cast<std::uint32_t>(j + 1);
    idx[j] = static_cast<std::uint32_t>(j);
    val[j] = (j % 3 == 0) ? -1.0 : 1.0;
  }
  const sparse::CsrMatrix<double> at(m, m, offs, idx, val);
  const CsrColumnSource cols(at);
  const auto basis = identity_basis(m);
  simplex::SolverOptions opt;
  simplex::CostMeter meter_a(vgpu::cpu2009_model());
  simplex::CostMeter meter_b(vgpu::cpu2009_model());
  std::vector<double> diag(m, 1.0);
  ExplicitInverseOracle dense(m, diag, cols, meter_a, opt);
  ProductFormOracle sparse_o(m, basis, cols, meter_b, opt);
  ASSERT_TRUE(dense.refactorize(basis));
  ASSERT_TRUE(sparse_o.refactorize(basis));

  const auto x = random_vec(m, 77);
  std::vector<double> fa(m), fb(m), ba(m), bb(m);
  dense.ftran_raw(x, fa);
  sparse_o.ftran_raw(x, fb);
  dense.btran_raw(x, ba);
  sparse_o.btran_raw(x, bb);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(fa[i], fb[i]) << i;
    EXPECT_EQ(ba[i], bb[i]) << i;
  }
}

// Property: the sparse LU actually inverts what it factored — FTRAN then
// multiplying by B recovers the input, and likewise for BTRAN.
TEST(SparseLuRoundTrip, FtranBtranInvertTheFactoredBasis) {
  for (const std::uint64_t seed : {3u, 19u}) {
    const std::size_t m = 64;
    const auto at = random_basis_at(m, 8, seed);
    const CsrColumnSource cols(at);
    simplex::basis::SparseLu lu;
    ASSERT_TRUE(lu.factorize(cols, identity_basis(m)));

    const auto x = random_vec(m, seed + 1000);
    // alpha = B^-1 x, check B alpha == x.
    std::vector<double> alpha = x;
    lu.ftran(alpha);
    std::vector<double> recon(m, 0.0), colbuf(m);
    for (std::size_t j = 0; j < m; ++j) {
      std::fill(colbuf.begin(), colbuf.end(), 0.0);
      cols.gather(static_cast<std::uint32_t>(j), colbuf);
      for (std::size_t i = 0; i < m; ++i) recon[i] += colbuf[i] * alpha[j];
    }
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(recon[i], x[i], 1e-9 * (1.0 + std::abs(x[i]))) << i;
    }
    // y = B^-T x, check B^T y == x  (i.e. y . b_j == x_j for each column).
    std::vector<double> y = x;
    lu.btran(y);
    for (std::size_t j = 0; j < m; ++j) {
      std::fill(colbuf.begin(), colbuf.end(), 0.0);
      cols.gather(static_cast<std::uint32_t>(j), colbuf);
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) acc += colbuf[i] * y[i];
      EXPECT_NEAR(acc, x[j], 1e-9 * (1.0 + std::abs(x[j]))) << j;
    }
  }
}

// Property: after pivots, the eta file keeps the representation exact:
// update() then ftran of the pivoted column returns the unit vector e_p.
TEST(BasisOracles, EtaFileTracksPivotsExactly) {
  const std::size_t m = 40;
  const auto at = random_basis_at(m, 5, 11);
  const CsrColumnSource cols(at);
  const auto basis = identity_basis(m);
  simplex::SolverOptions opt;
  simplex::CostMeter meter(vgpu::cpu2009_model());
  ProductFormOracle oracle(m, basis, cols, meter, opt);
  ASSERT_TRUE(oracle.refactorize(basis));

  std::vector<double> colbuf(m), alpha(m);
  for (std::size_t k = 0; k < 6; ++k) {
    const auto q = static_cast<std::uint32_t>((k * 13 + 2) % m);
    std::fill(colbuf.begin(), colbuf.end(), 0.0);
    cols.gather(q, colbuf);
    oracle.ftran(colbuf, alpha);
    std::size_t p = 0;
    for (std::size_t i = 1; i < m; ++i) {
      if (std::abs(alpha[i]) > std::abs(alpha[p])) p = i;
    }
    ASSERT_GT(std::abs(alpha[p]), 1e-9);
    oracle.update(p, alpha);
    // The column just pivoted in must now FTRAN to e_p.
    std::vector<double> check(m);
    oracle.ftran_raw(colbuf, check);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(check[i], i == p ? 1.0 : 0.0, 1e-8)
          << "pivot " << k << " row " << i;
    }
  }
  EXPECT_EQ(oracle.eta_count(), 6u);
}

// ---------------------------------------------------- whole-solve paths

// Decision-path property: a primal host solve takes the SAME pivot
// sequence under the explicit inverse and the product form (the oracles
// answer with different rounding, but the decisions are tolerance-
// separated on these seeds), and the product-form run emits refactor
// events when the interval policy triggers.
TEST(BasisOracles, HostSolvesTakeIdenticalPivotPathsUnderBothOracles) {
  for (const std::uint64_t seed : {2u, 9u}) {
    const auto problem = lp::random_sparse_lp(
        {.rows = 24, .cols = 96, .density = 0.1, .seed = seed});
    record::Recorder rec_dense;
    record::Recorder rec_pf;
    simplex::SolverOptions opt;
    opt.recorder = &rec_dense;
    opt.basis = simplex::BasisScheme::kExplicitInverse;
    const auto a =
        simplex::solve(problem, simplex::Engine::kHostRevised, opt);
    opt.recorder = &rec_pf;
    opt.basis = simplex::BasisScheme::kProductForm;
    const auto b =
        simplex::solve(problem, simplex::Engine::kHostRevised, opt);
    ASSERT_EQ(a.status, b.status) << "seed " << seed;
    ASSERT_TRUE(a.optimal());
    EXPECT_NEAR(a.objective, b.objective, 1e-9 * (1.0 + std::abs(a.objective)));
    const auto d = record::diff(rec_dense.recording(), rec_pf.recording());
    EXPECT_TRUE(d.comparable);
    EXPECT_FALSE(d.diverged) << "seed " << seed << ": " << d.describe();
  }
}

TEST(BasisOracles, ProductFormEmitsRefactorEvents) {
  const auto problem = lp::random_sparse_lp(
      {.rows = 32, .cols = 128, .density = 0.08, .seed = 4});
  record::Recorder rec;
  simplex::SolverOptions opt;
  opt.recorder = &rec;
  opt.basis = simplex::BasisScheme::kProductForm;
  opt.reinversion_period = 4;  // force interval-triggered refactorization
  const auto r = simplex::solve(problem, simplex::Engine::kHostRevised, opt);
  ASSERT_TRUE(r.optimal());
  std::size_t refactors = 0;
  for (const auto& e : rec.recording().records) {
    if (e.kind == record::RecordKind::kRefactor) ++refactors;
  }
  EXPECT_GE(refactors, 1u);
}

// Dual-vs-primal agreement: the dual engine reaches the same optimum on
// the workload families (dense, sparse, Klee-Minty) under both oracles.
// These cold inputs are slack-startable, so the dual loop has nothing to
// repair and the primal cleanup — the host engine's loop — does every
// pivot: the decision logs match the host engine's pivot for pivot and
// the objectives bit for bit.
TEST(DualEngine, AgreesWithPrimalOnOptimalValue) {
  const std::vector<lp::LpProblem> problems = {
      lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 3}),
      lp::random_sparse_lp(
          {.rows = 32, .cols = 128, .density = 0.06, .seed = 8}),
      lp::klee_minty(6),
  };
  for (std::size_t k = 0; k < problems.size(); ++k) {
    const double ref =
        simplex::solve(problems[k], simplex::Engine::kHostRevised).objective;
    for (const simplex::BasisScheme scheme :
         {simplex::BasisScheme::kExplicitInverse,
          simplex::BasisScheme::kProductForm}) {
      record::Recorder host_rec, dual_rec;
      simplex::SolverOptions opt;
      opt.basis = scheme;
      opt.recorder = &host_rec;
      const auto h =
          simplex::solve(problems[k], simplex::Engine::kHostRevised, opt);
      opt.recorder = &dual_rec;
      const auto r =
          simplex::solve(problems[k], simplex::Engine::kDualRevised, opt);
      ASSERT_EQ(r.status, simplex::SolveStatus::kOptimal)
          << "case " << k << " scheme " << to_string(scheme);
      EXPECT_NEAR(r.objective, ref, 1e-7 * (1.0 + std::abs(ref)))
          << "case " << k << " scheme " << to_string(scheme);
      ASSERT_TRUE(h.optimal());
      EXPECT_EQ(r.objective, h.objective)
          << "case " << k << " scheme " << to_string(scheme);
      EXPECT_EQ(r.stats.iterations, h.stats.iterations);
      const auto d = record::diff(host_rec.recording(), dual_rec.recording());
      EXPECT_TRUE(d.comparable);
      EXPECT_FALSE(d.diverged) << "case " << k << " scheme "
                               << to_string(scheme) << ": " << d.describe();
    }
  }
}

// Device sparse kernel variants: the CSR engine's product-form path
// (sparse_ftran / sparse_btran bases, eta file walked by one chain launch
// per direction) reaches the host optimum in both precisions and its
// kernel stream carries the variant names.
TEST(DeviceSparseBasis, ProductFormSparseKernelsSolveAndAreNamed) {
  const auto problem = lp::random_sparse_lp(
      {.rows = 40, .cols = 160, .density = 0.08, .seed = 12});
  const double ref =
      simplex::solve(problem, simplex::Engine::kHostRevised).objective;
  simplex::SolverOptions opt;
  opt.basis = simplex::BasisScheme::kProductForm;
  {
    vgpu::Device dev(vgpu::gtx280_model());
    simplex::SparseRevisedSimplex<double> solver(dev, opt);
    const auto r = solver.solve(problem);
    ASSERT_EQ(r.status, simplex::SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, ref, 1e-7 * (1.0 + std::abs(ref)));
    const auto& pk = r.stats.device_stats.per_kernel;
    EXPECT_TRUE(pk.contains("sparse_ftran"));
    EXPECT_TRUE(pk.contains("sparse_btran"));
    EXPECT_TRUE(pk.contains("eta_ftran_chain"));
    EXPECT_TRUE(pk.contains("eta_btran_chain"));
    // Neither the per-eta kernels nor the dense-path eta kernels appear
    // on the sparse variant.
    EXPECT_FALSE(pk.contains("eta_apply"));
    EXPECT_FALSE(pk.contains("eta_snapshot"));
    EXPECT_FALSE(pk.contains("eta_btran_write"));
    EXPECT_FALSE(pk.contains("eta_ftran"));
    EXPECT_FALSE(pk.contains("eta_btran_dot"));
  }
  {
    vgpu::Device dev(vgpu::gtx280_model());
    simplex::DeviceRevisedSimplex<float, simplex::SparseAt> solver(dev, opt);
    const auto r = solver.solve(problem);
    ASSERT_EQ(r.status, simplex::SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, ref, 1e-3 * (1.0 + std::abs(ref)));
  }
}

// The sparse eta chains only touch each eta's support: the modeled byte
// traffic of the sparse product-form path must come in under the
// dense-eta device path on the same instance (both sides counting their
// BTRAN seed copies).
TEST(DeviceSparseBasis, SparseEtaKernelsCostLessThanDenseEtas) {
  const auto problem = lp::random_sparse_lp(
      {.rows = 48, .cols = 192, .density = 0.05, .seed = 21});
  simplex::SolverOptions opt;
  opt.basis = simplex::BasisScheme::kProductForm;
  vgpu::Device dev_sparse(vgpu::gtx280_model());
  simplex::SparseRevisedSimplex<double> sparse_solver(dev_sparse, opt);
  const auto rs = sparse_solver.solve(problem);
  ASSERT_EQ(rs.status, simplex::SolveStatus::kOptimal);
  const auto& pk = rs.stats.device_stats.per_kernel;
  ASSERT_TRUE(pk.contains("eta_ftran_chain"));
  ASSERT_TRUE(pk.contains("eta_btran_chain"));
  // Dense-path eta applies on the same problem via the dense At engine.
  vgpu::Device dev_dense(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<double> dense_solver(dev_dense, opt);
  const auto rd = dense_solver.solve(problem);
  ASSERT_EQ(rd.status, simplex::SolveStatus::kOptimal);
  const auto& pkd = rd.stats.device_stats.per_kernel;
  ASSERT_TRUE(pkd.contains("eta_ftran"));
  const double dense_eta_bytes =
      pkd.at("eta_ftran").bytes + pkd.at("eta_btran_dot").bytes +
      pkd.at("price_btran_seed").bytes;
  const double sparse_eta_bytes =
      pk.at("eta_ftran_chain").bytes + pk.at("eta_btran_chain").bytes;
  EXPECT_LT(sparse_eta_bytes, dense_eta_bytes);
  // One launch per direction per iteration instead of two per eta.
  EXPECT_LT(pk.at("eta_ftran_chain").launches +
                pk.at("eta_btran_chain").launches,
            pkd.at("eta_ftran").launches + pkd.at("eta_btran_dot").launches);
}

// Growth trigger (DESIGN.md "Refactorization policy"): the first pivot of
//   max x1  s.t.  3e-9 x1 <= 0,  x1 <= 1
// is alpha_p = 3e-9, so the eta multiplier 1/alpha_p ~ 3.3e8 exceeds the
// 1e8 growth limit long before the interval trigger (m = 2 etas). Every
// product-form engine, host and device, must refactorize right there and
// record it.
TEST(BasisOracles, GrowthTriggerRefactorsOnHostAndDevice) {
  lp::LpProblem p(lp::Objective::kMaximize, "tiny_pivot");
  const auto x1 = p.add_variable("x1", 1.0);
  p.add_constraint("tiny", {{x1, 3e-9}}, lp::RowSense::kLe, 0.0);
  p.add_constraint("cap", {{x1, 1.0}}, lp::RowSense::kLe, 1.0);
  for (const simplex::Engine engine :
       {simplex::Engine::kHostRevised, simplex::Engine::kDeviceRevised,
        simplex::Engine::kSparseRevised}) {
    for (const bool fused : {true, false}) {
      record::Recorder rec;
      simplex::SolverOptions opt;
      opt.basis = simplex::BasisScheme::kProductForm;
      opt.fused_iteration = fused;
      opt.recorder = &rec;
      const auto r = simplex::solve(p, engine, opt);
      ASSERT_TRUE(r.optimal()) << to_string(engine);
      EXPECT_NEAR(r.objective, 0.0, 1e-12) << to_string(engine);
      const auto& records = rec.recording().records;
      const auto first = std::find_if(
          records.begin(), records.end(), [](const auto& d) {
            return d.kind == record::RecordKind::kPivot;
          });
      ASSERT_NE(first, records.end()) << to_string(engine);
      EXPECT_LT(std::abs(first->pivot_value), 1e-8);
      ASSERT_NE(first + 1, records.end()) << to_string(engine);
      EXPECT_EQ((first + 1)->kind, record::RecordKind::kRefactor)
          << to_string(engine) << (fused ? " fused" : " reference");
    }
  }
}

}  // namespace
}  // namespace gs
