// Metrics-layer tests: counter/gauge/histogram semantics, the JSON export
// schema, solver instrumentation coverage (device, host, dual and batch
// engines), the HealthMonitor's warning machinery, and the off-by-default
// bit-identity guarantee. These exercise exactly the API documented in
// OBSERVABILITY.md ("Metrics") — if a documented name stops compiling, it
// fails here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "lp/generators.hpp"
#include "metrics/health.hpp"
#include "metrics/metrics.hpp"
#include "record/record.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/solver.hpp"

namespace {

using namespace gs;

lp::LpProblem tiny_lp() {
  return lp::random_dense_lp({.rows = 8, .cols = 8, .seed = 7});
}

simplex::SolveResult solve_device_metered(metrics::MetricsRegistry* registry,
                                          const lp::LpProblem& problem,
                                          simplex::SolverOptions opt = {}) {
  opt.metrics = registry;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<double> solver(dev, opt);
  return solver.solve(problem);
}

// ---------------------------------------------------------------------
// Primitive semantics.
// ---------------------------------------------------------------------

TEST(MetricsCore, CounterAccumulates) {
  metrics::Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(MetricsCore, GaugeTracksLastMinMax) {
  metrics::Gauge g;
  EXPECT_FALSE(g.has_value());
  g.set(3.0);
  g.set(-1.0);
  g.set(2.0);
  EXPECT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.min(), -1.0);
  EXPECT_DOUBLE_EQ(g.max(), 3.0);
}

TEST(MetricsCore, HistogramBucketsAndOverflow) {
  metrics::Histogram h({1.0, 10.0, 100.0});
  ASSERT_EQ(h.counts().size(), 4u) << "bounds + one overflow bucket";
  h.observe(0.5);    // bucket 0 (v <= 1)
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(7.0);    // bucket 1
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(MetricsCore, SharedBucketLaddersAreSorted) {
  for (const auto ladder : {metrics::seconds_buckets(),
                            metrics::bytes_buckets(),
                            metrics::magnitude_buckets()}) {
    ASSERT_FALSE(ladder.empty());
    for (std::size_t k = 1; k < ladder.size(); ++k) {
      EXPECT_LT(ladder[k - 1], ladder[k]);
    }
  }
}

TEST(MetricsCore, RegistryReturnsStableLazilyCreatedRefs) {
  metrics::MetricsRegistry reg;
  metrics::Counter& a = reg.counter("x");
  a.inc();
  // Creating more metrics must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) {
    (void)reg.counter("c" + std::to_string(i));
  }
  metrics::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
  // Histogram bounds are fixed by the first creation.
  auto& h1 = reg.histogram("h", std::array{1.0, 2.0});
  auto& h2 = reg.histogram("h", std::array{9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(MetricsCore, WarnBumpsCountersAndCapsStorage) {
  metrics::MetricsRegistry reg;
  const std::size_t n = metrics::MetricsRegistry::kMaxStoredWarnings + 10;
  for (std::size_t i = 0; i < n; ++i) {
    reg.warn({"tiny-pivot", "msg", 1e-9, 1e-7, i});
  }
  reg.warn({"stall", "msg", 25.0, 25.0, 0});
  EXPECT_EQ(reg.warnings_total(), n + 1);
  EXPECT_EQ(reg.warnings().size(), metrics::MetricsRegistry::kMaxStoredWarnings);
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings").value(), double(n + 1));
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.tiny-pivot").value(),
                   double(n));
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.stall").value(), 1.0);
  reg.clear();
  EXPECT_EQ(reg.warnings_total(), 0u);
  EXPECT_TRUE(reg.counters().empty());
}

// ---------------------------------------------------------------------
// JSON export.
// ---------------------------------------------------------------------

/// Minimal JSON well-formedness scan: balanced {} / [] outside strings.
void expect_balanced_json(const std::string& text) {
  ASSERT_FALSE(text.empty());
  int depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    ASSERT_GE(depth_obj, 0);
    ASSERT_GE(depth_arr, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
}

TEST(MetricsJson, SnapshotSchemaIsStable) {
  metrics::MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("g").set(0.5);
  reg.histogram("h", std::array{1.0}).observe(3.0);
  reg.warn({"residual-drift", "quote \" and \\ and\nnewline", 2e-6, 1e-6, 4});

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.warnings_total, 1u);
  const std::string json = snap.to_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\": \"gs-metrics-v1\""), std::string::npos);
  // Top-level sections in documented order.
  const auto p_counters = json.find("\"counters\"");
  const auto p_gauges = json.find("\"gauges\"");
  const auto p_hist = json.find("\"histograms\"");
  const auto p_total = json.find("\"warnings_total\"");
  const auto p_warn = json.find("\"warnings\":");
  ASSERT_NE(p_counters, std::string::npos);
  EXPECT_LT(p_counters, p_gauges);
  EXPECT_LT(p_gauges, p_hist);
  EXPECT_LT(p_hist, p_total);
  EXPECT_LT(p_total, p_warn);
  // Names sorted lexicographically within a section.
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));
  // String escaping round-trips hostile characters.
  EXPECT_NE(json.find("quote \\\" and \\\\ and\\nnewline"), std::string::npos);
  // Histogram payload carries bounds + overflow-extended counts.
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

TEST(MetricsJson, NonFiniteValuesBecomeNull) {
  metrics::MetricsRegistry reg;
  reg.gauge("bad").set(std::numeric_limits<double>::quiet_NaN());
  const std::string json = reg.snapshot().to_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(MetricsJson, WriteFileRoundTrip) {
  metrics::MetricsRegistry reg;
  (void)solve_device_metered(&reg, tiny_lp());
  const auto path =
      std::filesystem::temp_directory_path() / "gs_metrics_test.json";
  reg.snapshot().write_file(path.string());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  expect_balanced_json(buf.str());
  EXPECT_NE(buf.str().find("vgpu.kernel.launches"), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Solver instrumentation: metric values reconcile with DeviceStats.
// ---------------------------------------------------------------------

TEST(MetricsSolve, DeviceEngineCountersMatchDeviceStats) {
  metrics::MetricsRegistry reg;
  const auto result = solve_device_metered(
      &reg, lp::random_dense_lp({.rows = 24, .cols = 32, .seed = 3}));
  ASSERT_TRUE(result.optimal());
  const auto& ds = result.stats.device_stats;

  EXPECT_DOUBLE_EQ(reg.counter("vgpu.kernel.launches").value(),
                   double(ds.kernel_launches));
  EXPECT_NEAR(reg.counter("vgpu.kernel.seconds").value(), ds.kernel_seconds,
              1e-12);
  EXPECT_DOUBLE_EQ(reg.counter("vgpu.kernel.flops").value(), ds.total_flops);
  EXPECT_DOUBLE_EQ(reg.counter("vgpu.h2d.count").value(), double(ds.h2d_count));
  EXPECT_DOUBLE_EQ(reg.counter("vgpu.h2d.bytes").value(), double(ds.h2d_bytes));
  EXPECT_DOUBLE_EQ(reg.counter("vgpu.d2h.count").value(), double(ds.d2h_count));
  EXPECT_DOUBLE_EQ(reg.counter("vgpu.d2h.bytes").value(), double(ds.d2h_bytes));
  EXPECT_DOUBLE_EQ(reg.counter("simplex.iterations").value(),
                   double(result.stats.iterations));

  // The kernel-time histogram saw every launch; transfer histograms tile
  // the copy counts.
  EXPECT_EQ(reg.histogram("vgpu.kernel_seconds", metrics::seconds_buckets())
                .count(),
            ds.kernel_launches);
  EXPECT_EQ(
      reg.histogram("vgpu.h2d_bytes", metrics::bytes_buckets()).count() +
          reg.histogram("vgpu.d2h_bytes", metrics::bytes_buckets()).count(),
      ds.h2d_count + ds.d2h_count);

  // Per-kernel families exist and sum to the aggregate launch count.
  const auto snap = reg.snapshot();
  double per_kernel_launches = 0.0;
  std::size_t kernel_families = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("vgpu.kernel.", 0) == 0 &&
        name.size() > std::string_view(".launches").size() &&
        name.compare(name.size() - 9, 9, ".launches") == 0 &&
        name != "vgpu.kernel.launches") {
      per_kernel_launches += value;
      ++kernel_families;
    }
  }
  EXPECT_GT(kernel_families, 3u);
  EXPECT_DOUBLE_EQ(per_kernel_launches, double(ds.kernel_launches));

  // Per-operation histograms populated for the core four ops; the pivot
  // histogram saw every pivoting iteration.
  for (const char* op : {"price", "ftran", "ratio", "update"}) {
    const auto it =
        snap.histograms.find(std::string("simplex.op_seconds.") + op);
    ASSERT_NE(it, snap.histograms.end()) << op;
    EXPECT_GT(it->second.count, 0u) << op;
  }
  EXPECT_EQ(
      reg.histogram("health.pivot_magnitude", metrics::magnitude_buckets())
          .count(),
      result.stats.iterations);
}

TEST(MetricsSolve, HostEngineChargesCpuStepMetrics) {
  metrics::MetricsRegistry reg;
  simplex::SolverOptions opt;
  opt.metrics = &reg;
  const auto result = simplex::HostRevisedSimplex(opt).solve(tiny_lp());
  ASSERT_TRUE(result.optimal());
  EXPECT_GT(reg.counter("cpu.step.count").value(), 0.0);
  EXPECT_NEAR(reg.counter("cpu.step.seconds").value(),
              result.stats.device_stats.kernel_seconds, 1e-12);
  EXPECT_DOUBLE_EQ(reg.counter("simplex.iterations").value(),
                   double(result.stats.iterations));
}

TEST(MetricsSolve, DualEngineRecordsIterationsAndOpSeconds) {
  metrics::MetricsRegistry reg;
  simplex::SolverOptions opt;
  opt.metrics = &reg;
  const auto result = simplex::DualRevisedSimplex(opt).solve(
      lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 3}));
  ASSERT_TRUE(result.optimal());
  ASSERT_GT(result.stats.iterations, 0u);
  EXPECT_DOUBLE_EQ(reg.counter("simplex.iterations").value(),
                   double(result.stats.iterations));
  const auto snap = reg.snapshot();
  for (const char* op : {"price", "ftran", "ratio", "update"}) {
    const auto it =
        snap.histograms.find(std::string("simplex.op_seconds.") + op);
    ASSERT_NE(it, snap.histograms.end()) << op;
    EXPECT_GT(it->second.count, 0u) << op;
  }
}

// Every refactorization is one `refactor` op observation on every engine
// with a product form: the host and dual engines lap it as the device
// engines do, so the histogram counts the decision log's refactor events.
TEST(MetricsSolve, RefactorHistogramCountsEveryRefactorization) {
  using simplex::Engine;
  for (const Engine e : {Engine::kHostRevised, Engine::kDualRevised,
                         Engine::kDeviceRevised, Engine::kSparseRevised}) {
    SCOPED_TRACE(std::string(simplex::to_string(e)));
    metrics::MetricsRegistry reg;
    record::Recorder rec;
    simplex::SolverOptions opt;
    opt.metrics = &reg;
    opt.recorder = &rec;
    opt.basis = simplex::BasisScheme::kProductForm;
    opt.reinversion_period = 4;
    const auto result = simplex::solve(
        lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 3}), e, opt);
    ASSERT_TRUE(result.optimal());
    const auto& records = rec.recording().records;
    const auto refactors = static_cast<std::size_t>(
        std::count_if(records.begin(), records.end(), [](const auto& d) {
          return d.kind == record::RecordKind::kRefactor;
        }));
    ASSERT_GT(refactors, 0u);
    EXPECT_EQ(reg.histogram("simplex.op_seconds.refactor",
                            metrics::seconds_buckets())
                  .count(),
              refactors);
  }
}

TEST(MetricsSolve, BatchEngineRecordsRoundsAndActiveGauge) {
  metrics::MetricsRegistry reg;
  simplex::SolverOptions opt;
  opt.metrics = &reg;
  std::vector<lp::LpProblem> batch;
  for (std::uint64_t k = 0; k < 3; ++k) {
    batch.push_back(lp::random_dense_lp({.rows = 6, .cols = 6, .seed = k + 1}));
  }
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::BatchRevisedSimplex<double> solver(dev, opt);
  const auto results = solver.solve(batch);
  for (const auto& r : results) EXPECT_TRUE(r.optimal());
  EXPECT_GT(reg.counter("batch.rounds").value(), 0.0);
  EXPECT_TRUE(reg.gauge("batch.active_problems").has_value());
  EXPECT_GT(reg.counter("vgpu.kernel.launches").value(), 0.0);
}

TEST(MetricsSolve, ZeroByteTransfersEmitNothing) {
  metrics::MetricsRegistry reg;
  vgpu::Device dev(vgpu::gtx280_model());
  dev.set_metrics(&reg);
  vgpu::DeviceBuffer<double> buf(dev, 4);
  const auto h2d_before = dev.stats().h2d_count;
  buf.upload(std::span<const double>{});
  std::span<double> empty_out;
  buf.download(empty_out);
  EXPECT_EQ(dev.stats().h2d_count, h2d_before);
  EXPECT_DOUBLE_EQ(reg.counter("vgpu.h2d.count").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.counter("vgpu.d2h.count").value(), 0.0);
}

// ---------------------------------------------------------------------
// HealthMonitor warning machinery.
// ---------------------------------------------------------------------

TEST(MetricsHealth, TinyPivotAndStallAndBlandEdges) {
  metrics::MetricsRegistry reg;
  metrics::HealthConfig cfg;
  cfg.pivot_tiny_tol = 1e-7;
  cfg.stall_window = 3;
  metrics::HealthMonitor mon(&reg, cfg);
  ASSERT_TRUE(mon.enabled());

  mon.record_pivot(1e-9, 1.0, false, 0);  // tiny pivot
  mon.record_pivot(0.5, 0.0, true, 1);    // degenerate + Bland on (edge)
  mon.record_pivot(0.5, 0.0, true, 2);    // degenerate, Bland still on
  mon.record_pivot(0.5, 0.0, true, 3);    // 3rd consecutive: one stall warn
  mon.record_pivot(0.5, 0.0, false, 4);   // 4th: streak already warned
  mon.record_pivot(0.5, 1.0, true, 5);    // streak reset; Bland re-edge

  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.tiny-pivot").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.stall").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("health.degenerate_steps").value(), 4.0);
  EXPECT_DOUBLE_EQ(reg.counter("health.bland_activations").value(), 2.0);
  EXPECT_EQ(reg.warnings_total(), 2u);
  EXPECT_EQ(reg.warnings()[0].kind, "tiny-pivot");
  EXPECT_EQ(reg.warnings()[1].kind, "stall");
  EXPECT_EQ(reg.warnings()[1].iteration, 3u);
}

TEST(MetricsHealth, ResidualAndGrowthThresholds) {
  metrics::MetricsRegistry reg;
  metrics::HealthConfig cfg;
  cfg.residual_tol = 1e-6;
  cfg.growth_limit = 1e3;
  cfg.residual_stride = 4;
  metrics::HealthMonitor mon(&reg, cfg);
  EXPECT_TRUE(mon.want_residual_sample(0));
  EXPECT_FALSE(mon.want_residual_sample(3));
  EXPECT_TRUE(mon.want_residual_sample(8));

  mon.record_residual(1e-9, 0);  // healthy
  mon.record_residual(1e-3, 4);  // drift
  mon.record_growth(10.0, 4);    // healthy
  mon.record_growth(1e6, 8);     // blow-up
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.residual-drift").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.growth").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("health.residual_inf").value(), 1e-3);
  EXPECT_DOUBLE_EQ(reg.gauge("health.binv_growth").max(), 1e6);

  // Detached monitor: every call is a no-op, sampling never requested.
  metrics::HealthMonitor off(nullptr, cfg);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.want_residual_sample(0));
  off.record_pivot(0.0, 0.0, true, 0);
  off.record_residual(1.0, 0);
}

// The float device engine drifts past a tightened residual tolerance on a
// seeded dense LP: product-form updates in float accumulate O(1e-6)
// relative error in B^-1, which the strided probe estimate must surface as
// "residual-drift" warnings (the paper's motivation for the Tab. 2
// double-vs-float agreement study).
TEST(MetricsHealth, FloatSolveTripsResidualThreshold) {
  metrics::MetricsRegistry reg;
  simplex::SolverOptions opt;
  opt.metrics = &reg;
  opt.health.residual_stride = 1;   // probe every iteration
  opt.health.residual_tol = 1e-12;  // far below float update roundoff
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<float> solver(dev, opt);
  const auto result =
      solver.solve(lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 3}));
  ASSERT_TRUE(result.optimal());

  EXPECT_GT(reg.warnings_total(), 0u);
  EXPECT_GT(reg.counter("health.warnings.residual-drift").value(), 0.0);
  EXPECT_TRUE(reg.gauge("health.residual_inf").has_value());
  EXPECT_GT(reg.gauge("health.residual_inf").max(), 1e-12);
  for (const auto& w : reg.warnings()) {
    if (w.kind != "residual-drift") continue;
    EXPECT_GT(w.value, w.threshold);
  }

  // The same solve in double stays orders of magnitude tighter: with the
  // default (1e-6) tolerance no residual warning fires.
  metrics::MetricsRegistry dreg;
  simplex::SolverOptions dopt;
  dopt.metrics = &dreg;
  dopt.health.residual_stride = 1;
  const auto dresult = solve_device_metered(
      &dreg, lp::random_dense_lp({.rows = 24, .cols = 24, .seed = 3}), dopt);
  ASSERT_TRUE(dresult.optimal());
  EXPECT_DOUBLE_EQ(dreg.counter("health.warnings.residual-drift").value(), 0.0);
}

}  // namespace
