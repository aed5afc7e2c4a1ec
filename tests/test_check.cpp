// Kernel-safety checker tests (CHECKING.md).
//
// Two halves: seeded-defect kernels that the checker MUST flag (race,
// out-of-bounds, NaN introduction, cost under-declaration — each reported
// with the kernel name), and the whole-solver negative test: every
// simplex engine solves dense instances under checked mode with zero
// findings, and checked mode perturbs neither results nor kernel stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "lp/generators.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/solver.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/check/check.hpp"
#include "vgpu/device.hpp"
#include "vgpu/machine_model.hpp"
#include "vgpu/primitives.hpp"

namespace gs {
namespace {

using vgpu::Device;
using vgpu::DeviceBuffer;
using vgpu::KernelCost;
using vgpu::analyze::CaptureLog;
using vgpu::check::Checker;
using vgpu::check::FindingKind;

/// Feed `chk` from `dev`'s access stream, captured into `cap`.
void feed(Device& dev, CaptureLog& cap, Checker& chk) {
  cap.set_checker(&chk);
  dev.set_capture(&cap);
}

bool has_finding(const Checker& chk, FindingKind kind, const char* kernel) {
  for (const auto& f : chk.findings()) {
    if (f.kind == kind && f.kernel == kernel) return true;
  }
  return false;
}

// -------------------------------------------------- seeded-defect kernels

TEST(Checker, DetectsCrossBlockWriteWriteRace) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> buf(dev, 64);
  auto sp = buf.device_span();
  // Every block writes element 0: a textbook cross-block race.
  dev.launch_blocks("racy_accumulate", 64, 8, KernelCost{0.0, 64.0 * 8.0},
                    [&](std::size_t b, std::size_t, std::size_t) {
                      sp[0] = static_cast<double>(b);
                    });
  ASSERT_FALSE(chk.clean());
  EXPECT_TRUE(has_finding(chk, FindingKind::kRace, "racy_accumulate"));
  EXPECT_NE(chk.report().find("racy_accumulate"), std::string::npos);
}

TEST(Checker, DetectsCrossBlockReadWriteRace) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> buf(dev, 64);
  auto sp = buf.device_span();
  // Block 0 writes element 0 while every other block reads it — unordered
  // blocks make the read's value undefined.
  dev.launch_blocks("racy_broadcast", 64, 8, KernelCost{0.0, 64.0 * 8.0},
                    [&](std::size_t b, std::size_t, std::size_t) {
                      if (b == 0) {
                        sp[0] = 1.0;
                      } else {
                        const double v = sp[0];
                        (void)v;
                      }
                    });
  ASSERT_FALSE(chk.clean());
  EXPECT_TRUE(has_finding(chk, FindingKind::kRace, "racy_broadcast"));
}

TEST(Checker, DisjointFootprintsAreClean) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> in(dev, 1024), out(dev, 1024);
  auto is = in.device_span();
  auto os = out.device_span();
  dev.parallel_for("stream_copy", 1024, KernelCost{0.0, 2.0 * 1024 * 8},
                   [&](std::size_t i) { os[i] = is[i] + 1.0; });
  EXPECT_TRUE(chk.clean()) << chk.report();
  EXPECT_EQ(chk.launches_checked(), 1u);
}

TEST(Checker, SameBlockOverlapIsNotARace) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> buf(dev, 8);
  auto sp = buf.device_span();
  // One block re-writes its own elements: serial within a block, legal.
  dev.launch_blocks("intra_block", 8, 8, KernelCost{0.0, 128.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) sp[i] = 1.0;
                      for (std::size_t i = lo; i < hi; ++i) sp[i] += 1.0;
                    });
  EXPECT_TRUE(chk.clean()) << chk.report();
  EXPECT_EQ(buf.to_host()[3], 2.0);
}

TEST(Checker, DetectsOutOfBoundsReadWithoutCrashing) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> buf(dev, 16);
  auto sp = buf.device_span();
  dev.parallel_for("oob_read", 16, KernelCost{0.0, 16.0 * 8.0},
                   [&](std::size_t i) {
                     // Classic off-by-one: reads sp[16] at i == 15.
                     const double v = (i + 1 < 17) ? sp[i + 1] : 0.0;
                     (void)v;
                   });
  ASSERT_FALSE(chk.clean());
  EXPECT_TRUE(has_finding(chk, FindingKind::kOutOfBounds, "oob_read"));
  EXPECT_NE(chk.report().find("index 16"), std::string::npos);
}

TEST(Checker, DetectsOutOfBoundsWriteAndRedirectsIt) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> buf(dev, 8);
  auto sp = buf.device_span();
  dev.parallel_for("oob_write", 1, KernelCost{0.0, 8.0},
                   [&](std::size_t) { sp[8] = 7.0; });
  ASSERT_FALSE(chk.clean());
  EXPECT_TRUE(has_finding(chk, FindingKind::kOutOfBounds, "oob_write"));
  // The write was redirected to a scratch cell — storage is untouched.
  for (double v : buf.to_host()) EXPECT_EQ(v, 0.0);
}

TEST(Checker, OutOfBoundsCaughtEvenOutsideLaunches) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> buf(dev, 4);
  auto sp = buf.device_span();
  const double v = sp[9];  // host-side slip: still bounds-checked
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(has_finding(chk, FindingKind::kOutOfBounds, "<host>"));
}

TEST(Checker, DetectsNaNIntroduction) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  std::vector<double> host(32, 1.5);
  DeviceBuffer<double> in(dev, std::span<const double>(host));
  DeviceBuffer<double> out(dev, 32);
  auto is = in.device_span();
  auto os = out.device_span();
  dev.parallel_for("nan_maker", 32, KernelCost{32.0, 2.0 * 32 * 8},
                   [&](std::size_t i) {
                     os[i] = i == 7 ? std::numeric_limits<double>::quiet_NaN()
                                    : static_cast<double>(is[i]);
                   });
  ASSERT_FALSE(chk.clean());
  EXPECT_TRUE(has_finding(chk, FindingKind::kNonFinite, "nan_maker"));
  EXPECT_NE(chk.report().find("element 7"), std::string::npos);
}

TEST(Checker, NaNPropagationIsNotFlagged) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  std::vector<double> host(32, 1.5);
  host[3] = std::numeric_limits<double>::quiet_NaN();
  DeviceBuffer<double> in(dev, std::span<const double>(host));
  DeviceBuffer<double> out(dev, 32);
  auto is = in.device_span();
  auto os = out.device_span();
  // The kernel merely copies a NaN already present in its input: that is
  // propagation (the producer is at fault), not introduction.
  dev.parallel_for("nan_copier", 32, KernelCost{0.0, 2.0 * 32 * 8},
                   [&](std::size_t i) { os[i] = static_cast<double>(is[i]); });
  EXPECT_TRUE(chk.clean()) << chk.report();
}

TEST(Checker, InfiniteIsAllowed) {
  // The ratio-test kernel legitimately writes +inf for ineligible rows,
  // so Inf is not a finding.
  Checker chk;
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> out(dev, 8);
  auto os = out.device_span();
  dev.parallel_for("inf_writer", 8, KernelCost{0.0, 64.0},
                   [&](std::size_t i) {
                     os[i] = std::numeric_limits<double>::infinity();
                   });
  EXPECT_TRUE(chk.clean()) << chk.report();
}

TEST(Checker, DetectsCostUnderdeclaration) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> buf(dev, 4096);
  auto sp = buf.device_span();
  // Streams 32 KiB of element traffic but declares 64 bytes: the roofline
  // charge (the basis of the Tab.1 breakdown) would be fiction.
  dev.parallel_for("underdeclared_stream", 4096, KernelCost{0.0, 64.0},
                   [&](std::size_t i) { sp[i] = static_cast<double>(i); });
  ASSERT_FALSE(chk.clean());
  EXPECT_TRUE(
      has_finding(chk, FindingKind::kCostMismatch, "underdeclared_stream"));
}

TEST(Checker, AccurateDeclarationPassesCostLint) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> in(dev, 4096), out(dev, 4096);
  auto is = in.device_span();
  auto os = out.device_span();
  dev.parallel_for("declared_stream", 4096, KernelCost{4096.0, 2.0 * 4096 * 8},
                   [&](std::size_t i) { os[i] = 2.0 * is[i]; });
  EXPECT_TRUE(chk.clean()) << chk.report();
}

TEST(Checker, ResetClearsFindings) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  DeviceBuffer<double> buf(dev, 8);
  auto sp = buf.device_span();
  dev.parallel_for("oob_once", 1, KernelCost{0.0, 8.0},
                   [&](std::size_t) { sp[8] = 1.0; });
  ASSERT_FALSE(chk.clean());
  chk.reset();
  EXPECT_TRUE(chk.clean());
  EXPECT_EQ(chk.launches_checked(), 0u);
}

// ------------------------------------------------- substrate under check

TEST(Checker, PrimitivesRunCleanUnderCheckedMode) {
  Device dev(vgpu::gtx280_model());
  Checker chk;
  CaptureLog cap;
  feed(dev, cap, chk);
  std::vector<double> host(777);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<double>((i * 37) % 101) - 50.0;
  }
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  EXPECT_EQ(vgpu::argmin(buf).index,
            static_cast<std::size_t>(
                std::min_element(host.begin(), host.end()) - host.begin()));
  (void)vgpu::reduce_sum(buf);
  DeviceBuffer<double> scanned(dev, host.size());
  vgpu::inclusive_scan(buf, scanned);
  vgpu::fill(scanned, 3.0);
  vgpu::iota(scanned);
  EXPECT_TRUE(chk.clean()) << chk.report();
  EXPECT_GT(chk.launches_checked(), 0u);
}

// --------------------------------------------------- engines under check

simplex::SolverOptions checked_options(Checker& chk) {
  simplex::SolverOptions opt;
  opt.checker = &chk;
  return opt;
}

TEST(CheckedEngines, AllEnginesSolveCleanUnderCheck) {
  const lp::LpProblem problem = lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 11});
  const double reference =
      simplex::solve(problem, simplex::Engine::kHostRevised).objective;
  for (simplex::Engine engine :
       {simplex::Engine::kDeviceRevised, simplex::Engine::kDeviceRevisedFloat,
        simplex::Engine::kHostRevised, simplex::Engine::kTableau,
        simplex::Engine::kSparseRevised}) {
    Checker chk;
    const auto result =
        simplex::solve(problem, engine, checked_options(chk));
    EXPECT_EQ(result.status, simplex::SolveStatus::kOptimal)
        << to_string(engine);
    const double tol = engine == simplex::Engine::kDeviceRevisedFloat ? 1e-3
                                                                      : 1e-7;
    EXPECT_NEAR(result.objective, reference, tol) << to_string(engine);
    EXPECT_TRUE(chk.clean())
        << "engine " << to_string(engine) << ":\n" << chk.report();
  }
}

// Both A^T formats under both bases: the CSR engine's product form runs
// the sparse basis kernels (sparse_refactor and the two eta chains that
// walk the LU factors with the eta file), whose declared costs the lint
// checks too. The 300 x 300 instance spans several blocks in every
// n-wide and m-wide kernel, so a lane that writes what other blocks read
// (the Devex reference weight, the selections' block winners) shows up
// as a race.
TEST(CheckedEngines, PricingAndBasisVariantsSolveCleanUnderCheck) {
  for (const lp::LpProblem& problem :
       {lp::random_dense_lp({.rows = 20, .cols = 20, .seed = 5}),
        lp::random_dense_lp({.rows = 300, .cols = 300, .seed = 3})}) {
    const double reference =
        simplex::solve(problem, simplex::Engine::kHostRevised).objective;
    for (simplex::Engine engine :
         {simplex::Engine::kDeviceRevised, simplex::Engine::kSparseRevised}) {
      for (simplex::PricingRule pricing :
           {simplex::PricingRule::kDantzig, simplex::PricingRule::kDevex}) {
        for (simplex::BasisScheme basis :
             {simplex::BasisScheme::kExplicitInverse,
              simplex::BasisScheme::kProductForm}) {
          Checker chk;
          simplex::SolverOptions opt = checked_options(chk);
          opt.pricing = pricing;
          opt.basis = basis;
          const auto result = simplex::solve(problem, engine, opt);
          const std::string label =
              std::to_string(problem.num_constraints()) + " rows " +
              std::string(simplex::to_string(engine)) + " " +
              std::string(to_string(pricing)) + " " +
              std::string(to_string(basis));
          EXPECT_EQ(result.status, simplex::SolveStatus::kOptimal) << label;
          EXPECT_NEAR(result.objective, reference, 1e-7) << label;
          EXPECT_TRUE(chk.clean()) << label << "\n" << chk.report();
        }
      }
    }
  }
}

TEST(CheckedEngines, BatchEngineSolvesCleanUnderCheck) {
  std::vector<lp::LpProblem> problems;
  for (std::uint64_t s = 1; s <= 24; ++s) {
    problems.push_back(lp::random_dense_lp({.rows = 12, .cols = 12, .seed = s}));
  }
  Device dev(vgpu::gtx280_model());
  Checker chk;
  // Every problem is one block of the fused kernels (12 or 24 lanes), so
  // a lane that touched another problem's state would show up as a
  // cross-block race.
  simplex::BatchRevisedSimplex<double> batch(dev, checked_options(chk));
  const auto results = batch.solve(problems);
  for (std::size_t k = 0; k < problems.size(); ++k) {
    EXPECT_EQ(results[k].status, simplex::SolveStatus::kOptimal) << k;
    const double ref =
        simplex::solve(problems[k], simplex::Engine::kHostRevised).objective;
    EXPECT_NEAR(results[k].objective, ref, 1e-7) << k;
  }
  EXPECT_TRUE(chk.clean()) << chk.report();
}

TEST(CheckedEngines, MultiBlockSolveRunsCleanUnderCheck) {
  // m = 300 > one 256-thread block, so every m-wide kernel really spans
  // block boundaries. A few iterations suffice to sweep every kernel.
  const lp::LpProblem problem = lp::random_dense_lp({.rows = 300, .cols = 300, .seed = 3});
  Checker chk;
  simplex::SolverOptions opt = checked_options(chk);
  opt.max_iterations = 5;
  Device dev(vgpu::gtx280_model(), 4);
  simplex::DeviceRevisedSimplex<double> solver(dev, opt);
  (void)solver.solve(problem);
  EXPECT_TRUE(chk.clean()) << chk.report();
  EXPECT_GT(chk.launches_checked(), 10u);
}

TEST(CheckedEngines, MultiWorkerCheckedSolveMatchesSingleWorker) {
  const lp::LpProblem problem = lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 2});
  simplex::SolverOptions opt;
  Device dev1(vgpu::gtx280_model(), 1);
  const auto r1 =
      simplex::DeviceRevisedSimplex<double>(dev1, opt).solve(problem);
  Checker chk;
  Device dev4(vgpu::gtx280_model(), 4);
  simplex::SolverOptions opt4 = checked_options(chk);
  const auto r4 =
      simplex::DeviceRevisedSimplex<double>(dev4, opt4).solve(problem);
  EXPECT_TRUE(chk.clean()) << chk.report();
  EXPECT_EQ(r1.objective, r4.objective);
  EXPECT_EQ(r1.stats.iterations, r4.stats.iterations);
}

}  // namespace
}  // namespace gs
