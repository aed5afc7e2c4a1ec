// Telemetry + SLO tests: the shared quantile helper (pinned against the
// two legacy nearest-rank formulas it replaced), power-of-two series
// downsampling, MetricsSnapshot::diff deltas, the SLO engine's burn-rate
// alerting and error-budget verdicts, spec parsing, and the two
// determinism guarantees every observer must keep — bit-identical solves
// when attached, byte-identical artifacts across identical runs and
// worker counts (OBSERVABILITY.md, "Telemetry & SLOs").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "metrics/metrics.hpp"
#include "metrics/quantile.hpp"
#include "record/record.hpp"
#include "service/service.hpp"
#include "simplex/solver.hpp"
#include "support/error.hpp"
#include "telemetry/telemetry.hpp"
#include "vgpu/device.hpp"

namespace {

using namespace gs;

lp::LpProblem tiny_lp(std::uint64_t seed = 7) {
  return lp::random_dense_lp({.rows = 16, .cols = 16, .seed = seed});
}

simplex::SolveResult solve_device(const lp::LpProblem& problem,
                                  simplex::SolverOptions opt = {}) {
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<double> solver(dev, opt);
  return solver.solve(problem);
}

// ---------------------------------------------------------------------
// Shared quantile helper.
// ---------------------------------------------------------------------

// quantile_rank generalises the two expressions the bench/CLI surfaces
// used to duplicate; the equivalence is pinned for every sample size the
// harnesses can produce so the historical p50/p99 numbers cannot drift.
TEST(Quantile, RankMatchesLegacyFormulas) {
  for (std::size_t n = 1; n <= 4096; ++n) {
    const std::size_t legacy_p50 = (n - 1) / 2;
    const std::size_t legacy_p99 = std::min(n - 1, (n * 99 + 99) / 100 - 1);
    EXPECT_EQ(metrics::quantile_rank(n, 0.50), legacy_p50) << n;
    EXPECT_EQ(metrics::quantile_rank(n, 0.99), legacy_p99) << n;
  }
  EXPECT_EQ(metrics::quantile_rank(0, 0.5), 0u);
  EXPECT_EQ(metrics::quantile_rank(10, 0.0), 0u);
  EXPECT_EQ(metrics::quantile_rank(10, 1.0), 9u);
}

TEST(Quantile, SortedSelectsNearestRank) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(metrics::quantile_sorted(v, 0.50), 2.0);
  EXPECT_EQ(metrics::quantile_sorted(v, 0.99), 4.0);
  EXPECT_EQ(metrics::quantile_sorted({}, 0.99), 0.0);
}

TEST(Quantile, HistogramInterpolatesAndClamps) {
  const std::vector<double> bounds{1.0, 2.0, 4.0, 8.0};
  // All four observations in the (1, 2] bucket; counts carry the
  // trailing overflow bucket the Histogram layout uses.
  std::vector<std::uint64_t> counts{0, 4, 0, 0, 0};
  // Nearest rank 1 of 4 -> half-filled bucket, linear interpolation.
  EXPECT_DOUBLE_EQ(metrics::quantile_histogram(bounds, counts, 0.50), 1.5);
  // Exact extremes clamp the estimate: a bucket holding one repeated
  // value reports that value, not the bucket edge.
  EXPECT_DOUBLE_EQ(
      metrics::quantile_histogram(bounds, counts, 0.50, 1.7, 1.7), 1.7);
  // Overflow bucket has no upper edge; the known sample_min recovers a
  // usable estimate instead of the lower edge.
  counts = {0, 0, 0, 0, 3};
  EXPECT_DOUBLE_EQ(metrics::quantile_histogram(bounds, counts, 0.99), 8.0);
  EXPECT_DOUBLE_EQ(
      metrics::quantile_histogram(bounds, counts, 0.99, 10.0, 20.0), 10.0);
  counts = {0, 0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(metrics::quantile_histogram(bounds, counts, 0.99), 0.0);
}

// ---------------------------------------------------------------------
// Series retention.
// ---------------------------------------------------------------------

// 100 arrivals into a capacity-8 series: the stride doubles on every
// fill (1 -> 2 -> 4 -> 8 -> 16) and the retained points stay a uniform
// subsample — every 16th arrival — purely as a function of arrival count.
TEST(TelemetrySeries, DownsamplesByPowersOfTwo) {
  telemetry::Series s(8);
  for (std::size_t i = 0; i < 100; ++i) {
    s.record(double(i), 2.0 * double(i));
  }
  EXPECT_EQ(s.arrivals(), 100u);
  EXPECT_EQ(s.stride(), 16u);
  ASSERT_EQ(s.points().size(), 7u);
  for (std::size_t k = 0; k < s.points().size(); ++k) {
    EXPECT_DOUBLE_EQ(s.points()[k].t, double(16 * k));
    EXPECT_DOUBLE_EQ(s.points()[k].v, 2.0 * double(16 * k));
  }
}

// ---------------------------------------------------------------------
// MetricsSnapshot::diff.
// ---------------------------------------------------------------------

TEST(MetricsDiff, SubtractsCountersAndHistograms) {
  metrics::MetricsRegistry reg;
  reg.counter("work").inc(3.0);
  reg.histogram("lat", metrics::seconds_buckets()).observe(1e-6);
  reg.warn({.kind = "early", .message = {}});
  const metrics::MetricsSnapshot base = reg.snapshot();

  reg.counter("work").inc(2.0);
  reg.counter("fresh").inc(1.0);
  reg.gauge("depth").set(5.0);
  reg.histogram("lat", metrics::seconds_buckets()).observe(1e-6);
  reg.histogram("lat", metrics::seconds_buckets()).observe(2e-6);
  reg.warn({.kind = "late", .message = {}});
  const metrics::MetricsSnapshot delta = reg.snapshot().diff(base);

  EXPECT_DOUBLE_EQ(delta.counters.at("work"), 2.0);
  EXPECT_DOUBLE_EQ(delta.counters.at("fresh"), 1.0);
  // Gauges are last-write-wins: the current value passes through.
  EXPECT_DOUBLE_EQ(delta.gauges.at("depth").value, 5.0);
  EXPECT_EQ(delta.histograms.at("lat").count, 2u);
  // Only the suffix of warnings recorded after the base remains.
  ASSERT_EQ(delta.warnings.size(), 1u);
  EXPECT_EQ(delta.warnings[0].kind, "late");
  EXPECT_EQ(delta.warnings_total, 1u);
}

// ---------------------------------------------------------------------
// SLO engine.
// ---------------------------------------------------------------------

TEST(SloSpec, ParsesEveryClauseKind) {
  const telemetry::SloSpec spec = telemetry::SloSpec::parse(
      "p99<=20ms, miss<=0.01, reject<=0.05, hit>=0.9, fast=3, slow=12, "
      "burn=2");
  ASSERT_EQ(spec.objectives.size(), 4u);
  EXPECT_EQ(spec.objectives[0].kind, telemetry::SloKind::kLatencyP99);
  EXPECT_DOUBLE_EQ(spec.objectives[0].target, 0.02);
  EXPECT_EQ(spec.objectives[1].kind, telemetry::SloKind::kDeadlineMissRate);
  EXPECT_DOUBLE_EQ(spec.objectives[1].target, 0.01);
  EXPECT_EQ(spec.objectives[2].kind, telemetry::SloKind::kRejectRate);
  EXPECT_EQ(spec.objectives[3].kind, telemetry::SloKind::kWarmHitRate);
  EXPECT_EQ(spec.fast_window, 3u);
  EXPECT_EQ(spec.slow_window, 12u);
  EXPECT_DOUBLE_EQ(spec.burn_threshold, 2.0);
  // Latency suffixes: us and bare seconds.
  EXPECT_DOUBLE_EQ(
      telemetry::SloSpec::parse("p99<=800us").objectives[0].target, 8e-4);
  EXPECT_DOUBLE_EQ(
      telemetry::SloSpec::parse("p99<=2.5s").objectives[0].target, 2.5);
  // slow is clamped up to fast so the multi-window guard stays sane.
  EXPECT_EQ(telemetry::SloSpec::parse("fast=8,slow=2").slow_window, 8u);
}

TEST(SloSpec, RejectsMalformedClauses) {
  EXPECT_THROW((void)telemetry::SloSpec::parse("frobnicate<=1"), Error);
  EXPECT_THROW((void)telemetry::SloSpec::parse("p99<=20xyz"), Error);
  EXPECT_THROW((void)telemetry::SloSpec::parse("miss<="), Error);
  EXPECT_THROW((void)telemetry::SloSpec::parse("fast=0"), Error);
}

telemetry::ServiceSample miss_sample(double t, std::uint64_t completed,
                                     std::uint64_t missed) {
  telemetry::ServiceSample s;
  s.t = t;
  s.interval_seconds = 1e-3;
  s.completed = completed;
  s.deadline_missed = missed;
  return s;
}

// A burst of deadline misses must raise exactly one firing edge (both
// windows over the burn threshold), resolve once the fast window clears,
// and still blow the whole-run error budget.
TEST(SloEngine, BurnRateAlertFiresAndResolves) {
  telemetry::SloSpec spec = telemetry::SloSpec::parse("miss<=0.01,fast=2,slow=4");
  telemetry::SloEngine eng(spec);

  // 50% miss rate: burn 50x against the 1% budget -> fires immediately.
  auto edges = eng.observe(miss_sample(0.001, 10, 5));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].firing);
  EXPECT_EQ(edges[0].objective, "miss<=0.01");
  EXPECT_DOUBLE_EQ(edges[0].t, 0.001);

  // One clean sample: the fast window still holds the bad one -> firing.
  EXPECT_TRUE(eng.observe(miss_sample(0.002, 10, 0)).empty());
  // A second clean sample flushes the fast window -> resolved edge.
  edges = eng.observe(miss_sample(0.003, 10, 0));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_FALSE(edges[0].firing);
  EXPECT_TRUE(eng.observe(miss_sample(0.004, 10, 0)).empty());

  const auto verdicts = eng.attainment();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].alerts_fired, 1u);
  EXPECT_FALSE(verdicts[0].firing);
  // 5 bad of 40 total = 12.5% against a 1% budget: violated.
  EXPECT_DOUBLE_EQ(verdicts[0].observed, 0.125);
  EXPECT_DOUBLE_EQ(verdicts[0].budget_consumed, 12.5);
  EXPECT_TRUE(verdicts[0].violated);
  EXPECT_TRUE(eng.violated());
}

TEST(SloEngine, CleanRunAttainsEverything) {
  telemetry::SloEngine eng(
      telemetry::SloSpec::parse("miss<=0.01,reject<=0.05"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(eng.observe(miss_sample(1e-3 * (i + 1), 10, 0)).empty());
  }
  EXPECT_FALSE(eng.violated());
  for (const telemetry::SloAttainment& a : eng.attainment()) {
    EXPECT_DOUBLE_EQ(a.attainment, 1.0);
    EXPECT_DOUBLE_EQ(a.budget_consumed, 0.0);
    EXPECT_EQ(a.alerts_fired, 0u);
  }
}

// ---------------------------------------------------------------------
// Engine wiring: series content and the bit-identical-when-off contract.
// ---------------------------------------------------------------------

TEST(TelemetryEngine, DeviceSolveRecordsSeriesOnModeledClock) {
  telemetry::Telemetry tel;
  simplex::SolverOptions opt;
  opt.telemetry = &tel;
  const auto result = solve_device(tiny_lp(), opt);
  ASSERT_TRUE(result.optimal());

  const auto& series = tel.series();
  ASSERT_TRUE(series.contains("engine.objective"));
  ASSERT_TRUE(series.contains("engine.residual_inf"));
  const auto& obj = series.at("engine.objective");
  EXPECT_GT(obj.points().size(), 0u);
  // Timestamps ride the modeled device clock: monotone, within the solve.
  double prev = -1.0;
  for (const auto& p : obj.points()) {
    EXPECT_GT(p.t, prev);
    prev = p.t;
    EXPECT_LE(p.t, result.stats.sim_seconds);
  }
  // The last recorded objective is the optimum the solve reported.
  EXPECT_DOUBLE_EQ(obj.points().back().v, result.objective);
}

TEST(TelemetryEngine, HostSolveRecordsSeries) {
  telemetry::Telemetry tel;
  simplex::SolverOptions opt;
  opt.telemetry = &tel;
  const auto result = simplex::HostRevisedSimplex(opt).solve(tiny_lp());
  ASSERT_TRUE(result.optimal());
  ASSERT_TRUE(tel.series().contains("engine.objective"));
  EXPECT_DOUBLE_EQ(tel.series().at("engine.objective").points().back().v,
                   result.objective);
}

// ---------------------------------------------------------------------
// Service wiring: sampling, determinism, inertness.
// ---------------------------------------------------------------------

struct TrafficOut {
  std::vector<double> latencies;  // submission order
  double rounds = 0.0;
};

TrafficOut run_traffic(const service::DispatchPolicy& policy,
                       telemetry::Telemetry* tel, std::size_t m = 16,
                       std::size_t k = 8) {
  metrics::MetricsRegistry reg;
  service::SolveService svc(policy, &reg);
  svc.set_telemetry(tel);
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < k; ++i) {
    service::SolveRequest req;
    req.problem =
        lp::random_dense_lp({.rows = m, .cols = m, .seed = 700 + i});
    const service::Ticket t = svc.submit(std::move(req));
    if (t.accepted) ids.push_back(t.id);
  }
  svc.drain();
  TrafficOut out;
  for (const std::uint64_t id : ids) {
    out.latencies.push_back(svc.result(id).latency_seconds);
  }
  out.rounds = reg.counter("service.batch.rounds").value();
  return out;
}

TEST(TelemetryService, SamplesCompletionsAndEmitsDrainEvent) {
  telemetry::Telemetry tel;
  tel.set_slo(telemetry::SloSpec::parse("p99<=1s,miss<=0.5"));
  const TrafficOut t = run_traffic({}, &tel);
  ASSERT_EQ(t.latencies.size(), 8u);

  const auto& series = tel.series();
  ASSERT_TRUE(series.contains("service.completed"));
  std::uint64_t completed = 0;
  for (const auto& p : series.at("service.completed").points()) {
    completed += static_cast<std::uint64_t>(p.v);
  }
  EXPECT_EQ(completed, 8u);
  ASSERT_TRUE(series.contains("service.latency_p99_seconds"));
  bool saw_drain = false;
  for (const auto& e : tel.events()) saw_drain = saw_drain || e.name == "drain";
  EXPECT_TRUE(saw_drain);
  // The registry sampler runs at drain end and sees the service counters.
  EXPECT_TRUE(series.contains("registry.service.batch.rounds"));
  EXPECT_FALSE(tel.slo_violated());
}

// The artifact is a pure function of the modeled run: byte-identical
// across repeats and across worker counts (workers only shorten real
// time, never modeled time — tests/test_service.cpp pins the results
// themselves; this pins the telemetry view of them).
TEST(TelemetryService, ArtifactIsByteIdenticalAcrossRunsAndWorkers) {
  const telemetry::SloSpec spec =
      telemetry::SloSpec::parse("p99<=1s,miss<=0.5,reject<=0.5,hit>=0");
  std::vector<std::string> jsons;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{0},
                                    std::size_t{4}}) {
    telemetry::Telemetry tel;
    tel.set_slo(spec);
    service::DispatchPolicy policy;
    policy.workers = workers;
    (void)run_traffic(policy, &tel);
    jsons.push_back(tel.to_json());
  }
  EXPECT_EQ(jsons[0], jsons[1]);  // repeat run
  EXPECT_EQ(jsons[0], jsons[2]);  // worker count
  EXPECT_NE(jsons[0].find("gs-telemetry-v1"), std::string::npos);
}

// Attaching telemetry to the service must leave every latency and the
// scheduler's round structure untouched.
TEST(TelemetryService, ServiceResultsUnchangedWithTelemetryAttached) {
  const TrafficOut plain = run_traffic({}, nullptr);
  telemetry::Telemetry tel;
  const TrafficOut with_tel = run_traffic({}, &tel);
  EXPECT_EQ(plain.latencies, with_tel.latencies);
  EXPECT_EQ(plain.rounds, with_tel.rounds);
}

// ---------------------------------------------------------------------
// Exposition formats.
// ---------------------------------------------------------------------

TEST(TelemetryFormats, PrometheusExposesLatestValues) {
  telemetry::Telemetry tel;
  tel.record("engine.objective", 1e-3, 5.0);
  tel.record("engine.objective", 2e-3, 7.0);
  const std::string text = tel.to_prometheus();
  // Name mangled to the Prometheus charset, latest value only.
  EXPECT_NE(text.find("gs_engine_objective 7"), std::string::npos);
  EXPECT_EQ(text.find("5\n"), std::string::npos);
  EXPECT_NE(text.find("gs_telemetry_events_total 0"), std::string::npos);
}

TEST(TelemetryFormats, EventCapIsCountedNotSilent) {
  telemetry::Telemetry tel;
  for (std::size_t k = 0; k <= telemetry::kEventCapacity; ++k) {
    tel.event("e", 1e-3 * static_cast<double>(k));
  }
  EXPECT_EQ(tel.events().size(), telemetry::kEventCapacity);
  EXPECT_NE(tel.to_json().find("\"events_dropped\": 1"), std::string::npos);
}

}  // namespace
