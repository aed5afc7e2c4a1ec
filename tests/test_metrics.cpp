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
                                          const lp::LpProblem& problem) {
  simplex::SolverOptions opt;
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

// Both machines charge through one vgpu::Ledger, so every engine's metric
// family (`vgpu.kernel` on the device, `cpu.step` on the host) reconciles
// with its DeviceStats the same way: the aggregate counters, the per-name
// tallies entry by entry, and the `<family>_seconds` histogram.
class MachineMetrics : public ::testing::TestWithParam<simplex::Engine> {};

TEST_P(MachineMetrics, FamilyMatchesDeviceStats) {
  using simplex::Engine;
  const Engine engine = GetParam();
  const bool device =
      engine == Engine::kDeviceRevised || engine == Engine::kDeviceRevisedFloat;
  const std::string family = device ? "vgpu.kernel" : "cpu.step";
  metrics::MetricsRegistry reg;
  simplex::SolverOptions opt;
  opt.metrics = &reg;
  const auto result = simplex::solve(
      lp::random_dense_lp({.rows = 24, .cols = 32, .seed = 3}), engine, opt);
  ASSERT_TRUE(result.optimal());
  const auto& ds = result.stats.device_stats;
  const auto counter = [&](const std::string& name) {
    return reg.counter(family + name).value();
  };

  EXPECT_EQ(counter(".launches"), double(ds.kernel_launches));
  EXPECT_EQ(counter(".seconds"), ds.kernel_seconds);
  EXPECT_EQ(counter(".flops"), ds.total_flops);
  EXPECT_EQ(counter(".bytes"), ds.total_bytes);
  EXPECT_EQ(
      reg.histogram(family + "_seconds", metrics::seconds_buckets()).count(),
      ds.kernel_launches);

  // One tally per kernel name, entry by entry, summing to the aggregate.
  ASSERT_GE(ds.per_kernel.size(), 3u);
  double launches = 0.0;
  for (const auto& [name, rec] : ds.per_kernel) {
    SCOPED_TRACE(name);
    EXPECT_EQ(counter("." + name + ".launches"), double(rec.launches));
    EXPECT_EQ(counter("." + name + ".seconds"), rec.sim_seconds);
    EXPECT_EQ(counter("." + name + ".bytes"), rec.bytes);
    launches += counter("." + name + ".launches");
  }
  EXPECT_EQ(launches, counter(".launches"));
  const auto snap = reg.snapshot();
  std::size_t tallies = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with(family + ".") && name.ends_with(".launches") &&
        name != family + ".launches") {
      ++tallies;
    }
  }
  EXPECT_EQ(tallies, ds.per_kernel.size());

  // Only the device has an interconnect: its copies tile the transfer
  // counters and size histograms; the host registers none.
  if (device) {
    EXPECT_EQ(reg.counter("vgpu.h2d.count").value(), double(ds.h2d_count));
    EXPECT_EQ(reg.counter("vgpu.h2d.bytes").value(), double(ds.h2d_bytes));
    EXPECT_EQ(reg.counter("vgpu.d2h.count").value(), double(ds.d2h_count));
    EXPECT_EQ(reg.counter("vgpu.d2h.bytes").value(), double(ds.d2h_bytes));
    EXPECT_EQ(
        reg.histogram("vgpu.h2d_bytes", metrics::bytes_buckets()).count() +
            reg.histogram("vgpu.d2h_bytes", metrics::bytes_buckets()).count(),
        ds.h2d_count + ds.d2h_count);
  } else {
    EXPECT_EQ(ds.transfer_seconds(), 0.0);
    for (const auto& [name, value] : snap.counters) {
      EXPECT_FALSE(name.starts_with("vgpu.")) << name;
    }
  }

  // Per-operation histograms populated for the core four ops (the tableau
  // runs no op spans); the pivot histogram saw every pivoting iteration.
  EXPECT_EQ(reg.counter("simplex.iterations").value(),
            double(result.stats.iterations));
  for (const char* op : {"price", "ftran", "ratio", "update"}) {
    const auto it =
        snap.histograms.find(std::string("simplex.op_seconds.") + op);
    ASSERT_NE(it, snap.histograms.end()) << op;
    if (engine != Engine::kTableau) {
      EXPECT_GT(it->second.count, 0u) << op;
    }
  }
  EXPECT_EQ(
      reg.histogram("health.pivot_magnitude", metrics::magnitude_buckets())
          .count(),
      result.stats.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    MetricsSolve, MachineMetrics,
    ::testing::Values(simplex::Engine::kHostRevised,
                      simplex::Engine::kDualRevised, simplex::Engine::kTableau,
                      simplex::Engine::kDeviceRevised,
                      simplex::Engine::kDeviceRevisedFloat),
    [](const ::testing::TestParamInfo<simplex::Engine>& info) {
      std::string name(simplex::to_string(info.param));
      std::erase(name, '-');
      return name;
    });

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

// The stall warning fires once per streak, when the streak reaches
// kStallWindow consecutive degenerate steps.
TEST(MetricsHealth, TinyPivotAndStallAndBlandEdges) {
  metrics::MetricsRegistry reg;
  metrics::HealthMonitor mon(&reg);
  ASSERT_TRUE(mon.enabled());
  ASSERT_EQ(metrics::kStallWindow, 25u);

  mon.record_pivot(1e-9, 1.0, false, 0);  // tiny pivot
  mon.record_pivot(0.5, 0.0, true, 1);    // degenerate + Bland on (edge)
  for (std::size_t it = 2; it <= 25; ++it) {
    mon.record_pivot(0.5, 0.0, true, it);  // Bland still on; 25th: one warn
  }
  mon.record_pivot(0.5, 0.0, false, 26);  // 26th: streak already warned
  mon.record_pivot(0.5, 1.0, true, 27);   // streak reset; Bland re-edge

  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.tiny-pivot").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.stall").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("health.degenerate_steps").value(), 26.0);
  EXPECT_DOUBLE_EQ(reg.counter("health.bland_activations").value(), 2.0);
  EXPECT_EQ(reg.warnings_total(), 2u);
  EXPECT_EQ(reg.warnings()[0].kind, "tiny-pivot");
  EXPECT_EQ(reg.warnings()[1].kind, "stall");
  EXPECT_EQ(reg.warnings()[1].iteration, 25u);
}

TEST(MetricsHealth, ResidualAndGrowthThresholds) {
  metrics::MetricsRegistry reg;
  metrics::HealthMonitor mon(&reg);
  ASSERT_EQ(metrics::kResidualStride, 16u);
  EXPECT_TRUE(mon.want_residual_sample(0));
  EXPECT_FALSE(mon.want_residual_sample(3));
  EXPECT_TRUE(mon.want_residual_sample(16));

  mon.record_residual(1e-9, 0);   // healthy
  mon.record_residual(1e-3, 16);  // drift past kResidualTol = 1e-6
  mon.record_growth(10.0, 16);    // healthy
  mon.record_growth(1e9, 32);     // blow-up past kGrowthLimit = 1e8
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.residual-drift").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("health.warnings.growth").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("health.residual_inf").value(), 1e-3);
  EXPECT_DOUBLE_EQ(reg.gauge("health.binv_growth").max(), 1e9);

  // Detached monitor: every call is a no-op, sampling never requested.
  metrics::HealthMonitor off(nullptr);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.want_residual_sample(0));
  off.record_pivot(0.0, 0.0, true, 0);
  off.record_residual(1.0, 0);
}

// The float device engine drifts past the default residual tolerance on a
// 300 x 300 dense LP: product-form updates in float accumulate O(1e-6)
// relative error in B^-1, which the strided probe estimate must surface as
// a "residual-drift" warning (the paper's motivation for the Tab. 2
// double-vs-float agreement study).
TEST(MetricsHealth, FloatSolveTripsResidualThreshold) {
  const lp::LpProblem lp =
      lp::random_dense_lp({.rows = 300, .cols = 300, .seed = 3});
  metrics::MetricsRegistry reg;
  simplex::SolverOptions opt;
  opt.metrics = &reg;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<float> solver(dev, opt);
  const auto result = solver.solve(lp);
  ASSERT_TRUE(result.optimal());

  EXPECT_GT(reg.warnings_total(), 0u);
  EXPECT_GT(reg.counter("health.warnings.residual-drift").value(), 0.0);
  EXPECT_TRUE(reg.gauge("health.residual_inf").has_value());
  EXPECT_GT(reg.gauge("health.residual_inf").max(), metrics::kResidualTol);
  for (const auto& w : reg.warnings()) {
    if (w.kind != "residual-drift") continue;
    EXPECT_GT(w.value, w.threshold);
  }

  // The same solve in double stays orders of magnitude tighter: no
  // residual warning fires.
  metrics::MetricsRegistry dreg;
  const auto dresult = solve_device_metered(&dreg, lp);
  ASSERT_TRUE(dresult.optimal());
  EXPECT_DOUBLE_EQ(dreg.counter("health.warnings.residual-drift").value(), 0.0);
  EXPECT_LT(dreg.gauge("health.residual_inf").max(), metrics::kResidualTol);
}

}  // namespace
