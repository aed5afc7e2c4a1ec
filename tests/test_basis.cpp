// Property tests for the BasisOracle seam (src/simplex/basis/): the
// explicit-inverse and product-form oracles must answer the same four
// linear-algebra questions, the sparse LU must invert what it factored,
// and whole solves must take the same pivot path under either oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "drive_out_lp.hpp"
#include "lp/generators.hpp"
#include "record/record.hpp"
#include "simplex/basis/explicit_inverse.hpp"
#include "simplex/basis/product_form.hpp"
#include "simplex/basis/sparse_lu.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/solver.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"
#include "trace/ring_sink.hpp"
#include "vgpu/analyze/analyze.hpp"

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

// Property: the position-eta export repeats the LU's own solves bit for
// bit — FTRAN of x[sigma[r]] = a[r] through the etas in order, and BTRAN
// through them in reverse followed by the gather out[r] = y[sigma[r]] —
// on dense and on mostly-zero right-hand sides.
TEST(SparseLuRoundTrip, PositionEtasRepeatTheSolvesExactly) {
  for (const std::uint64_t seed : {3u, 19u}) {
    const std::size_t m = 64;
    const auto at = random_basis_at(m, 8, seed);
    simplex::basis::SparseLu lu;
    ASSERT_TRUE(lu.factorize(CsrColumnSource(at), identity_basis(m)));
    const auto f = lu.position_etas();
    ASSERT_EQ(f.sigma.size(), m);
    ASSERT_EQ(f.offsets.size(), f.p.size() + 1);
    auto x = random_vec(m, seed + 7);
    for (const bool sparse_rhs : {false, true}) {
      if (sparse_rhs) {
        for (std::size_t i = 0; i < m; ++i) x[i] = i % 9 == 4 ? x[i] : 0.0;
      }
      std::vector<double> want = x;
      lu.ftran(want);
      std::vector<double> got(m);
      for (std::size_t r = 0; r < m; ++r) got[f.sigma[r]] = x[r];
      for (std::size_t e = 0; e < f.p.size(); ++e) {
        const double t = got[f.p[e]] / f.pval[e];
        if (t != 0.0) {
          for (std::size_t k = f.offsets[e]; k < f.offsets[e + 1]; ++k) {
            got[f.idx[k]] -= f.val[k] * t;
          }
        }
        got[f.p[e]] = t;
      }
      EXPECT_EQ(got, want);

      want = x;
      lu.btran(want);
      std::vector<double> y = x;
      for (std::size_t e = f.p.size(); e-- > 0;) {
        double acc = y[f.p[e]];
        for (std::size_t k = f.offsets[e]; k < f.offsets[e + 1]; ++k) {
          acc -= f.val[k] * y[f.idx[k]];
        }
        y[f.p[e]] = acc / f.pval[e];
      }
      for (std::size_t r = 0; r < m; ++r) got[r] = y[f.sigma[r]];
      EXPECT_EQ(got, want);
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

// Warm starts from an unrelated same-shape basis (a stale warm-start
// cache entry): the dual loop has real repairing to do, and it must reach
// the host engine's verdict, not stall or stop at a wrong "optimum". The
// corpus is the solve service's family warm starts, a pair that a zero
// cost shift ended at an infeasible x, two donors whose bases are
// numerically singular on the family instance (an oracle that accepts
// one pivots on a garbage inverse), and a seeded dense/sparse sweep. A
// budget of 20 m pivots makes a stall fail fast.
TEST(DualEngine, WarmStartFromUnrelatedBasisAgreesWithHost) {
  struct Pair {
    lp::LpProblem donor, family;
  };
  const auto dense = [](std::size_t m, std::size_t n, std::uint64_t donor,
                        std::uint64_t family) {
    return Pair{lp::random_dense_lp({.rows = m, .cols = n, .seed = donor}),
                lp::random_dense_lp({.rows = m, .cols = n, .seed = family})};
  };
  const auto sparse = [](std::size_t m, std::size_t n, std::uint64_t donor,
                         std::uint64_t family) {
    return Pair{lp::random_sparse_lp(
                    {.rows = m, .cols = n, .density = 0.08, .seed = donor}),
                lp::random_sparse_lp(
                    {.rows = m, .cols = n, .density = 0.08, .seed = family})};
  };
  std::vector<Pair> pairs;
  for (std::uint64_t w = 1; w <= 18; ++w) {
    pairs.push_back(dense(48, 48 + w, 66017 + w - 1, 63453 + w - 1));
  }
  pairs.push_back(dense(48, 50, 0xFA12, 0xF00E));
  pairs.push_back(sparse(32, 128, 32000269, 224000206));
  pairs.push_back(sparse(48, 192, 48000183, 336000088));
  for (const std::uint64_t m : {12u, 24u, 48u}) {
    for (std::uint64_t s = 0; s < 20; ++s) {
      pairs.push_back(dense(m, m + 1 + s % 9, 1000003 * m + 2 * s,
                            7000001 * m + 2 * s + 1));
      pairs.push_back(sparse(m, 4 * m, 1000003 * m + 2 * s + 17,
                             7000001 * m + 2 * s + 18));
    }
  }
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto& [donor, family] = pairs[k];
    const auto seed =
        simplex::solve(donor, simplex::Engine::kHostRevised).basis;
    const auto ref = simplex::solve(family, simplex::Engine::kHostRevised);
    for (const simplex::BasisScheme scheme :
         {simplex::BasisScheme::kExplicitInverse,
          simplex::BasisScheme::kProductForm}) {
      simplex::SolverOptions opt;
      opt.basis = scheme;
      opt.warm_basis = &seed;
      opt.max_iterations = 20 * family.num_constraints();
      const auto r = simplex::solve(family, simplex::Engine::kDualRevised, opt);
      EXPECT_EQ(to_string(r.status), to_string(ref.status))
          << "pair " << k << " scheme " << to_string(scheme);
      if (r.status != ref.status || !r.optimal()) continue;
      EXPECT_TRUE(family.is_feasible(r.x, 1e-6))
          << "pair " << k << " scheme " << to_string(scheme);
      EXPECT_NEAR(r.objective, ref.objective,
                  1e-9 * (1.0 + std::abs(ref.objective)))
          << "pair " << k << " scheme " << to_string(scheme);
    }
  }
}

// A warm basis the dual engine rejects on an instance that needs
// artificials hands the solve to a cold host engine. That solve starts
// once the dual's frame has closed, as a later stage on the host track:
// the track's timestamps never step back, the stage opens at the dual
// frame's closing time, the decision log is the host engine's, and the
// answer is the cold host solve's, bit for bit. Both a basis of the wrong
// shape and a full-size singular one are covered.
TEST(DualEngine, RejectedWarmBasisRunsAColdHostStageAfterTheDualFrame) {
  const lp::LpProblem problem = test_lps::degenerate_drive_out();
  const auto cold = simplex::solve(problem, simplex::Engine::kHostRevised);
  // Columns x0, x1, x2 and x4 are all zero in row r0.
  const std::vector<std::uint32_t> short_basis = {0};
  const std::vector<std::uint32_t> singular_basis = {0, 1, 2, 4};
  for (const auto* warm : {&short_basis, &singular_basis}) {
    SCOPED_TRACE(warm == &singular_basis ? "singular basis"
                                         : "one-entry basis");
    trace::RingBufferSink sink(1 << 16);
    record::Recorder recorder;
    simplex::SolverOptions opt;
    opt.warm_basis = warm;
    opt.trace_sink = &sink;
    opt.recorder = &recorder;
    const auto r = simplex::solve(problem, simplex::Engine::kDualRevised, opt);

    EXPECT_EQ(r.status, cold.status);
    EXPECT_EQ(r.objective, cold.objective);
    EXPECT_EQ(r.x, cold.x);
    EXPECT_EQ(r.y, cold.y);
    EXPECT_EQ(r.basis, cold.basis);
    EXPECT_EQ(r.stats.iterations, cold.stats.iterations);
    EXPECT_EQ(r.stats.sim_seconds, cold.stats.sim_seconds);
    EXPECT_FALSE(r.stats.warm_started);
    EXPECT_EQ(recorder.recording().header.engine, "host-revised");

    // The dual frame's "solve" span, then the stage's.
    double last = 0.0;
    std::vector<double> solve_begins, closed_before;
    for (const trace::TraceEvent& e : sink.events()) {
      if (e.pid != trace::kHostPid ||
          e.phase == trace::EventPhase::kMetadata) {
        continue;
      }
      EXPECT_GE(e.ts, last) << e.name;
      if (e.phase == trace::EventPhase::kBegin && e.name == "solve") {
        solve_begins.push_back(e.ts);
        closed_before.push_back(last);
      }
      last = std::max(last, e.ts);
    }
    ASSERT_EQ(solve_begins.size(), 2u);
    EXPECT_EQ(solve_begins[1], closed_before[1]);
  }
}

// A warm start that is rejected for primal infeasibility still ran its
// factorization and its beta = B^-1 b solve: the host engine must charge
// them on top of the cold solve it falls back to (a singular basis aborts
// part way and stays uncharged). Every other step matches the cold solve
// launch for launch and second for second.
TEST(BasisOracles, RejectedWarmStartChargesWhatRan) {
  const lp::LpProblem donor =
      lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 104});
  const lp::LpProblem family =
      lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 4});
  const auto seed = simplex::solve(donor, simplex::Engine::kHostRevised).basis;
  struct Scheme {
    simplex::BasisScheme scheme;
    std::vector<std::string> extra;  ///< steps the rejected attempt ran
  };
  for (const Scheme& sc :
       {Scheme{simplex::BasisScheme::kExplicitInverse, {"warm_init"}},
        Scheme{simplex::BasisScheme::kProductForm,
               {"sparse_refactor", "sparse_ftran"}}}) {
    simplex::SolverOptions opt;
    opt.basis = sc.scheme;
    const auto cold =
        simplex::solve(family, simplex::Engine::kHostRevised, opt);
    opt.warm_basis = &seed;
    const auto warm =
        simplex::solve(family, simplex::Engine::kHostRevised, opt);
    const std::string what(to_string(sc.scheme));
    ASSERT_FALSE(warm.stats.warm_started) << what;
    EXPECT_EQ(warm.objective, cold.objective) << what;
    const auto& w = warm.stats.device_stats.per_kernel;
    const auto& c = cold.stats.device_stats.per_kernel;
    double extra_seconds = 0.0;
    for (const auto& [step, rec] : w) {
      const bool extra = std::find(sc.extra.begin(), sc.extra.end(), step) !=
                         sc.extra.end();
      const auto it = c.find(step);
      const std::size_t cold_launches = it == c.end() ? 0 : it->second.launches;
      EXPECT_EQ(rec.launches, cold_launches + (extra ? 1 : 0))
          << what << " " << step;
      if (extra) {
        extra_seconds +=
            rec.sim_seconds - (it == c.end() ? 0.0 : it->second.sim_seconds);
      } else if (it != c.end()) {
        EXPECT_EQ(rec.sim_seconds, it->second.sim_seconds)
            << what << " " << step;
      }
    }
    for (const auto& [step, rec] : c) {
      EXPECT_TRUE(w.contains(step)) << what << " " << step;
    }
    EXPECT_GT(extra_seconds, 0.0) << what;
    EXPECT_NEAR(warm.stats.sim_seconds, cold.stats.sim_seconds + extra_seconds,
                1e-12 * cold.stats.sim_seconds)
        << what;
  }
}

// The device product form on either A^T layout (the host oracle's sparse
// LU loaded by `sparse_refactor` and walked with the eta file by one
// chain launch per direction) reaches the host optimum in both
// precisions, its kernel stream carries the chain names, no
// explicit-inverse kernel runs, no base solve against B0 (sparse_ftran /
// sparse_btran) or per-eta kernel (eta_apply) comes back, and the ratio
// test and both selections run inside other launches.
template <typename Real, template <typename> class At>
void expect_product_form_chains(const lp::LpProblem& problem, double ref,
                                double tol) {
  simplex::SolverOptions opt;
  opt.basis = simplex::BasisScheme::kProductForm;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<Real, At> solver(dev, opt);
  const auto r = solver.solve(problem);
  ASSERT_EQ(r.status, simplex::SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, ref, tol * (1.0 + std::abs(ref)));
  const auto& pk = r.stats.device_stats.per_kernel;
  EXPECT_TRUE(pk.contains("sparse_refactor"));
  EXPECT_TRUE(pk.contains("eta_ftran_chain"));
  EXPECT_TRUE(pk.contains("eta_btran_chain"));
  for (const char* gone :
       {"price_btran", "ftran", "ftran_ratio", "pivot_apply", "reinvert",
        "refresh_beta", "binv_init", "sparse_ftran", "sparse_btran",
        "eta_apply", "ratio_select", "price_select_final",
        "ftran_ratio_final"}) {
    EXPECT_FALSE(pk.contains(gone)) << gone;
  }
}

TEST(DeviceSparseBasis, ProductFormSparseKernelsSolveAndAreNamed) {
  const auto problem = lp::random_sparse_lp(
      {.rows = 40, .cols = 160, .density = 0.08, .seed = 12});
  const double ref =
      simplex::solve(problem, simplex::Engine::kHostRevised).objective;
  expect_product_form_chains<double, simplex::SparseAt>(problem, ref, 1e-7);
  expect_product_form_chains<float, simplex::SparseAt>(problem, ref, 1e-3);
  expect_product_form_chains<double, simplex::DenseAt>(problem, ref, 1e-7);
  expect_product_form_chains<float, simplex::DenseAt>(problem, ref, 1e-3);
}

std::size_t count_refactors(const record::Recorder& rec) {
  std::size_t n = 0;
  for (const auto& e : rec.recording().records) {
    n += e.kind == record::RecordKind::kRefactor ? 1 : 0;
  }
  return n;
}

using test_lps::degenerate_drive_out;

// The device product form holds B0 as the host oracle's own SparseLu and
// walks it with the eta file in the host oracle's arithmetic, so in double
// it is bit-identical to the host engine's product form on either A^T
// layout: same status, pivots, refactor events, values and basis
// (DESIGN.md "Basis oracles"). The corpus is Tab. 2's plus the sparse
// product-form test instances and a drive-out, under both refactor
// intervals and the host engine's three pricing rules. Beale under
// Dantzig cycles to the iteration limit in both.
TEST(DeviceSparseBasis, BitIdenticalToHostProductForm) {
  const std::vector<lp::LpProblem> corpus = {
      lp::random_dense_lp({.rows = 64, .cols = 64, .seed = 4}),
      lp::random_dense_lp({.rows = 32, .cols = 128, .seed = 5}),
      lp::random_sparse_lp(
          {.rows = 64, .cols = 256, .density = 0.05, .seed = 6}),
      lp::klee_minty(8),
      lp::beale_cycling(),
      lp::transportation(6, 8, 7),
      lp::infeasible_example(),
      lp::unbounded_example(),
      lp::random_sparse_lp(
          {.rows = 40, .cols = 160, .density = 0.08, .seed = 12}),
      lp::random_sparse_lp(
          {.rows = 96, .cols = 384, .density = 0.03, .seed = 5}),
      lp::transportation(5, 6, 17),
      degenerate_drive_out(),
  };
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    for (const std::size_t period : {std::size_t{0}, std::size_t{8}}) {
      for (const simplex::PricingRule rule :
           {simplex::PricingRule::kHybrid, simplex::PricingRule::kDantzig,
            simplex::PricingRule::kBland}) {
        simplex::SolverOptions opt;
        opt.basis = simplex::BasisScheme::kProductForm;
        opt.reinversion_period = period;
        opt.pricing = rule;
        record::Recorder host_rec;
        opt.recorder = &host_rec;
        const auto h =
            simplex::solve(corpus[k], simplex::Engine::kHostRevised, opt);
        for (const simplex::Engine engine : {simplex::Engine::kSparseRevised,
                                             simplex::Engine::kDeviceRevised}) {
          SCOPED_TRACE(testing::Message()
                       << "case " << k << " period " << period << " rule "
                       << to_string(rule) << " " << to_string(engine));
          record::Recorder dev_rec;
          opt.recorder = &dev_rec;
          const auto d = simplex::solve(corpus[k], engine, opt);
          ASSERT_EQ(to_string(d.status), to_string(h.status));
          EXPECT_EQ(d.stats.iterations, h.stats.iterations);
          EXPECT_EQ(count_refactors(dev_rec), count_refactors(host_rec));
          EXPECT_EQ(d.objective, h.objective);
          EXPECT_EQ(d.x, h.x);
          EXPECT_EQ(d.y, h.y);
          EXPECT_EQ(d.basis, h.basis);
          const auto diff =
              record::diff(host_rec.recording(), dev_rec.recording());
          ASSERT_TRUE(diff.comparable) << diff.describe();
          EXPECT_FALSE(diff.diverged) << diff.describe();
          EXPECT_EQ(diff.max_reduced_cost_delta, 0.0) << diff.describe();
          EXPECT_EQ(diff.max_theta_delta, 0.0) << diff.describe();
        }
      }
    }
  }
}

// The sparse product form keeps no dense inverse in device memory: on a
// sparse_pf-shaped LP (256 x 1024, density 0.005) the peak of live device
// bytes stays below the m^2 doubles a dense B0^-1 alone would take.
TEST(DeviceSparseBasis, ProductFormHoldsNoDenseInverse) {
  constexpr std::size_t m = 256;
  const auto problem = lp::random_sparse_lp(
      {.rows = m, .cols = 4 * m, .density = 0.005, .seed = 7});
  vgpu::analyze::CaptureLog capture;
  simplex::SolverOptions opt;
  opt.basis = simplex::BasisScheme::kProductForm;
  opt.analyzer = &capture;
  const auto r =
      simplex::solve(problem, simplex::Engine::kSparseRevised, opt);
  ASSERT_TRUE(r.optimal());
  const auto report = vgpu::analyze::analyze(capture);
  EXPECT_LT(report.peak_live_bytes, m * m * sizeof(double));
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
    record::Recorder rec;
    simplex::SolverOptions opt;
    opt.basis = simplex::BasisScheme::kProductForm;
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
        << to_string(engine);
  }
}

}  // namespace
}  // namespace gs
