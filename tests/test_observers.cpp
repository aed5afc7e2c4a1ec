// Every observer layer is inert on every solve path: attaching the trace
// sink, checker, metrics registry, recorder, analyzer, profiler or
// telemetry (each alone, or every layer at once) leaves the result, the
// iteration counts, the modeled time, every DeviceStats field and the
// decision log bit-identical to the plain solve, and the layer receives
// events wherever the solve path feeds it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "drive_out_lp.hpp"
#include "lp/generators.hpp"
#include "metrics/metrics.hpp"
#include "profile/profile.hpp"
#include "record/record.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/ring_sink.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/check/check.hpp"
#include "vgpu/machine_model.hpp"

namespace gs {
namespace {

using simplex::SolveResult;
using simplex::SolverOptions;

enum Layer : unsigned {
  kTrace = 1u << 0,
  kChecker = 1u << 1,
  kMetrics = 1u << 2,
  kRecorder = 1u << 3,
  kAnalyzer = 1u << 4,
  kProfiler = 1u << 5,
  kTelemetry = 1u << 6,
};
constexpr unsigned kEveryLayer = (1u << 7) - 1;

/// One instance of every layer; options() attaches the chosen ones.
struct Observers {
  trace::RingBufferSink sink{1 << 16};
  vgpu::check::Checker checker;
  metrics::MetricsRegistry registry;
  record::Recorder recorder;
  vgpu::analyze::CaptureLog capture;
  profile::Profiler profiler;
  telemetry::Telemetry telemetry;

  [[nodiscard]] SolverOptions options(unsigned layers) {
    SolverOptions opt;
    if (layers & kTrace) opt.trace_sink = &sink;
    if (layers & kChecker) opt.checker = &checker;
    if (layers & kMetrics) opt.metrics = &registry;
    if (layers & kRecorder) opt.recorder = &recorder;
    if (layers & kAnalyzer) opt.analyzer = &capture;
    if (layers & kProfiler) opt.profiler = &profiler;
    if (layers & kTelemetry) opt.telemetry = &telemetry;
    return opt;
  }

  /// The layers that received at least one event.
  [[nodiscard]] unsigned fed() const {
    const auto counters = registry.snapshot().counters;
    unsigned out = 0;
    if (sink.total_events() > 0) out |= kTrace;
    if (checker.launches_checked() > 0) out |= kChecker;
    if (std::any_of(counters.begin(), counters.end(),
                    [](const auto& kv) { return kv.second > 0.0; })) {
      out |= kMetrics;
    }
    if (!recorder.recording().records.empty()) out |= kRecorder;
    if (capture.launches_captured() > 0) out |= kAnalyzer;
    if (!profiler.report().kernels.empty()) out |= kProfiler;
    if (!telemetry.series().empty()) out |= kTelemetry;
    return out;
  }
};

/// A solve path: every Engine value, the dual engine's warm start, the
/// batch engine and the service's float-then-double route. `feeds` are the layers it reports into: the
/// host engines run no device stream (no checker or analyzer), and the
/// tableau and the batch engine sample no telemetry series.
struct Path {
  std::string name;
  unsigned feeds;
  std::function<std::vector<SolveResult>(const SolverOptions&)> run;
};

constexpr unsigned kHostFeeds = kEveryLayer & ~(kChecker | kAnalyzer);

Path engine_path(std::string name, simplex::Engine engine, unsigned feeds,
                 lp::LpProblem problem) {
  return {std::move(name), feeds, [engine, problem](const SolverOptions& o) {
            return std::vector<SolveResult>{
                simplex::solve(problem, engine, o)};
          }};
}

std::vector<Path> paths() {
  using simplex::Engine;
  // Phase 1 with an artificial drive-out for the single-LP paths; the
  // batch engine takes slack-startable problems only.
  const lp::LpProblem drive_out = test_lps::degenerate_drive_out();
  const lp::LpProblem dense =
      lp::random_dense_lp({.rows = 16, .cols = 16, .seed = 5});
  std::vector<Path> out;
  for (const auto& [tag, problem] :
       {std::pair{"dense", dense}, std::pair{"drive_out", drive_out}}) {
    const std::string t(tag);
    out.push_back(engine_path("device_" + t, Engine::kDeviceRevised,
                              kEveryLayer, problem));
    out.push_back(engine_path("device_float_" + t,
                              Engine::kDeviceRevisedFloat, kEveryLayer,
                              problem));
    out.push_back(engine_path("sparse_" + t, Engine::kSparseRevised,
                              kEveryLayer, problem));
    out.push_back(
        engine_path("host_" + t, Engine::kHostRevised, kHostFeeds, problem));
    out.push_back(
        engine_path("dual_" + t, Engine::kDualRevised, kHostFeeds, problem));
    out.push_back(engine_path("tableau_" + t, Engine::kTableau,
                              kHostFeeds & ~kTelemetry, problem));
    out.push_back({"float_then_double_" + t, kEveryLayer,
                   [problem](const SolverOptions& o) {
                     return std::vector<SolveResult>{
                         simplex::solve_float_then_double(problem, o)};
                   }});
  }
  // The dual engine warm-started from an unrelated same-shape optimum
  // (the service's warm-basis route): warm_init, dual and cleanup phases.
  const lp::LpProblem other =
      lp::random_dense_lp({.rows = 16, .cols = 16, .seed = 6});
  const std::vector<std::uint32_t> donor =
      simplex::solve(other, Engine::kHostRevised).basis;
  out.push_back({"dual_warm", kHostFeeds,
                 [dense, donor](const SolverOptions& o) {
                   SolverOptions warm = o;
                   warm.warm_basis = &donor;
                   return std::vector<SolveResult>{
                       simplex::solve(dense, Engine::kDualRevised, warm)};
                 }});
  const std::vector<lp::LpProblem> batch = {dense, other};
  out.push_back({"batch", kEveryLayer & ~kTelemetry,
                 [batch](const SolverOptions& o) {
                   vgpu::Device dev(vgpu::gtx280_model());
                   return simplex::BatchRevisedSimplex<double>(dev, o).solve(
                       batch);
                 }});
  return out;
}

/// Each layer alone, then every layer at once (the checker then rides the
/// analyzer's capture).
const std::vector<unsigned> kConfigs = {kTrace,    kChecker,  kMetrics,
                                        kRecorder, kAnalyzer, kProfiler,
                                        kTelemetry, kEveryLayer};

void expect_identical(const std::vector<SolveResult>& plain,
                      const std::vector<SolveResult>& got) {
  ASSERT_EQ(plain.size(), got.size());
  for (std::size_t k = 0; k < plain.size(); ++k) {
    SCOPED_TRACE("result " + std::to_string(k));
    const SolveResult& a = plain[k];
    const SolveResult& b = got[k];
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.basis, b.basis);
    EXPECT_EQ(a.stats.iterations, b.stats.iterations);
    EXPECT_EQ(a.stats.phase1_iterations, b.stats.phase1_iterations);
    EXPECT_EQ(a.stats.sim_seconds, b.stats.sim_seconds);
    EXPECT_TRUE(a.stats.device_stats == b.stats.device_stats);
  }
}

class ObserverInertness
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(ObserverInertness, BitIdenticalAndFed) {
  const Path path = paths()[std::get<0>(GetParam())];
  const unsigned layers = std::get<1>(GetParam());
  SCOPED_TRACE(path.name + ", layers " + std::to_string(layers));

  const std::vector<SolveResult> plain = path.run(SolverOptions{});
  ASSERT_TRUE(std::all_of(plain.begin(), plain.end(),
                          [](const SolveResult& r) { return r.optimal(); }));

  Observers alone;
  expect_identical(plain, path.run(alone.options(layers)));
  EXPECT_EQ(alone.fed(), layers & path.feeds);
  if (layers & kChecker) {
    EXPECT_TRUE(alone.checker.clean()) << alone.checker.report();
  }

  // The decision log: the layers plus a recorder log the same pivots, with
  // no payload delta, as the recorder alone.
  Observers reference, recorded;
  expect_identical(plain, path.run(reference.options(kRecorder)));
  expect_identical(plain, path.run(recorded.options(layers | kRecorder)));
  const record::DiffResult d = record::diff(reference.recorder.recording(),
                                            recorded.recorder.recording());
  EXPECT_TRUE(d.comparable);
  EXPECT_FALSE(d.diverged) << d.describe();
  EXPECT_EQ(d.max_reduced_cost_delta, 0.0);
  EXPECT_EQ(d.max_theta_delta, 0.0);
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, unsigned>>& info) {
  static const std::vector<Path> all = paths();
  static const char* const kNames[] = {"trace",    "checker",  "metrics",
                                       "recorder", "analyzer", "profiler",
                                       "telemetry"};
  const unsigned layers = std::get<1>(info.param);
  return all[std::get<0>(info.param)].name + "_" +
         (layers == kEveryLayer ? "all" : kNames[std::countr_zero(layers)]);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ObserverInertness,
    ::testing::Combine(::testing::Range<std::size_t>(0, paths().size()),
                       ::testing::ValuesIn(kConfigs)),
    case_name);

}  // namespace
}  // namespace gs
