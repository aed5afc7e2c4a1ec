// Solve-service tests: admission control, same-shape batch packing,
// crossover-aware dispatch (the device route's double answer and its
// observers), warm-start cache semantics (exact hits are
// bit-identical, perturbed repeats reuse the basis), determinism under
// multi-worker scheduling and the metrics-off inertness guarantee. These
// exercise exactly the behavior documented in SERVICE.md.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "metrics/metrics.hpp"
#include "profile/profile.hpp"
#include "record/record.hpp"
#include "service/service.hpp"
#include "simplex/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_sink.hpp"

namespace {

using namespace gs;

lp::LpProblem dense(std::size_t m, std::uint64_t seed) {
  return lp::random_dense_lp({.rows = m, .cols = m, .seed = seed});
}

service::SolveRequest request_for(lp::LpProblem p) {
  service::SolveRequest req;
  req.problem = std::move(p);
  return req;
}

/// Rebuild `p` with every objective coefficient scaled: same shape and
/// constraints (so the same optimal basis stays feasible), different
/// decision digest — the "perturbed repeat" of SERVICE.md.
lp::LpProblem scale_costs(const lp::LpProblem& p, double scale) {
  lp::LpProblem out(p.objective(), p.name() + "-perturbed");
  for (const lp::Variable& v : p.variables()) {
    out.add_variable(v.name, v.objective_coef * scale, v.lower, v.upper);
  }
  for (const lp::Constraint& c : p.constraints()) {
    out.add_constraint(c.name, c.terms, c.sense, c.rhs);
  }
  return out;
}

std::map<std::string, double> counter_values(
    const metrics::MetricsRegistry& reg) {
  std::map<std::string, double> out;
  for (const auto& [name, c] : reg.counters()) out[name] = c.value();
  return out;
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

TEST(ServiceAdmission, BoundedQueueRejectsWithReason) {
  service::DispatchPolicy policy;
  policy.queue_capacity = 2;
  metrics::MetricsRegistry reg;
  service::SolveService svc(policy, &reg);

  const auto t1 = svc.submit(request_for(dense(8, 1)));
  const auto t2 = svc.submit(request_for(dense(8, 2)));
  const auto t3 = svc.submit(request_for(dense(8, 3)));
  EXPECT_TRUE(t1.accepted);
  EXPECT_TRUE(t2.accepted);
  EXPECT_FALSE(t3.accepted);
  EXPECT_EQ(t3.reason, service::RejectReason::kQueueFull);
  EXPECT_EQ(svc.queue_depth(), 2u);

  service::SolveRequest expired = request_for(dense(8, 4));
  expired.deadline_seconds = 0.0;
  const auto t4 = svc.submit(std::move(expired));
  EXPECT_FALSE(t4.accepted);
  EXPECT_EQ(t4.reason, service::RejectReason::kDeadlineExpired);

  EXPECT_EQ(reg.counter("service.accepted").value(), 2.0);
  EXPECT_EQ(reg.counter("service.rejected").value(), 2.0);
  EXPECT_EQ(reg.counter("service.rejected.queue-full").value(), 1.0);
  EXPECT_EQ(reg.counter("service.rejected.deadline-expired").value(), 1.0);

  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_TRUE(svc.result(t1.id).solve.optimal());
  EXPECT_TRUE(svc.result(t2.id).solve.optimal());
  EXPECT_THROW((void)svc.result(9999), gs::Error);
}

// ---------------------------------------------------------------------
// Scheduler: same-shape packing.
// ---------------------------------------------------------------------

TEST(ServiceScheduler, SameShapeRequestsPackIntoOneBatchRound) {
  service::DispatchPolicy policy;
  policy.warm_cache_capacity = 0;  // isolate the scheduler
  metrics::MetricsRegistry reg;
  service::SolveService svc(policy, &reg);

  std::vector<std::uint64_t> batch_ids;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    batch_ids.push_back(svc.submit(request_for(dense(12, seed))).id);
  }
  // A different shape must not join the round.
  const auto odd = svc.submit(request_for(dense(9, 1)));
  // Equality rows need phase 1 => not slack-startable => never batched,
  // even when two of them share a shape.
  const auto eq1 = svc.submit(request_for(lp::transportation(3, 4, 1)));
  const auto eq2 = svc.submit(request_for(lp::transportation(3, 4, 2)));
  svc.drain();

  for (const std::uint64_t id : batch_ids) {
    const service::ServiceResult& r = svc.result(id);
    EXPECT_EQ(r.route, service::Route::kBatch);
    EXPECT_EQ(r.batch_lanes, 8u);
    EXPECT_TRUE(r.solve.optimal());
  }
  EXPECT_EQ(svc.result(odd.id).route, service::Route::kHost);
  EXPECT_EQ(svc.result(eq1.id).route, service::Route::kHost);
  EXPECT_EQ(svc.result(eq2.id).route, service::Route::kHost);
  EXPECT_TRUE(svc.result(eq1.id).solve.optimal());

  EXPECT_EQ(reg.counter("service.batch.rounds").value(), 1.0);
  EXPECT_EQ(reg.counter("service.dispatch.batch").value(), 8.0);
  EXPECT_EQ(reg.counter("service.dispatch.host").value(), 3.0);

  // A batch lane's answer must agree with a direct single solve.
  const simplex::SolveResult direct =
      simplex::solve(dense(12, 3), simplex::Engine::kHostRevised);
  EXPECT_NEAR(svc.result(batch_ids[2]).solve.objective, direct.objective,
              1e-9);
}

TEST(ServiceScheduler, OverfullGroupSplitsIntoRoundsOfBatchTarget) {
  service::DispatchPolicy policy;
  policy.warm_cache_capacity = 0;
  policy.batch_target = 4;
  service::SolveService svc(policy);

  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ids.push_back(svc.submit(request_for(dense(10, seed))).id);
  }
  svc.drain();

  // 10 requests, rounds of <= 4: 4 + 4 + 2 (the partial round is flushed).
  EXPECT_EQ(svc.result(ids[0]).batch_lanes, 4u);
  EXPECT_EQ(svc.result(ids[4]).batch_lanes, 4u);
  EXPECT_EQ(svc.result(ids[8]).batch_lanes, 2u);
  EXPECT_EQ(svc.result(ids[9]).route, service::Route::kBatch);
}

// ---------------------------------------------------------------------
// Dispatcher: crossover routing.
// ---------------------------------------------------------------------

TEST(ServiceDispatch, CrossoverRoutesSmallToHostLargeToDevice) {
  service::DispatchPolicy policy;
  policy.crossover_m = 64;  // tunable: test both sides cheaply
  policy.warm_cache_capacity = 0;
  metrics::MetricsRegistry reg;
  service::SolveService svc(policy, &reg);

  const auto small = svc.submit(request_for(dense(16, 1)));
  const auto large = svc.submit(request_for(dense(80, 1)));
  svc.drain();

  EXPECT_EQ(svc.result(small.id).route, service::Route::kHost);
  EXPECT_EQ(svc.result(large.id).route, service::Route::kDevice);
  EXPECT_TRUE(svc.result(small.id).solve.optimal());
  EXPECT_TRUE(svc.result(large.id).solve.optimal());
  EXPECT_EQ(reg.counter("service.dispatch.host").value(), 1.0);
  EXPECT_EQ(reg.counter("service.dispatch.device").value(), 1.0);

  // Latency bookkeeping: a single's latency is its own modelled time.
  const service::ServiceResult& r = svc.result(large.id);
  EXPECT_GT(r.engine_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.latency_seconds, r.queue_seconds + r.engine_seconds);
  EXPECT_FALSE(r.deadline_missed);

  // The device route runs float device iterations finished in double by
  // the host dual engine: the double answer, in less modelled time than
  // the double device engine takes.
  const simplex::SolveResult host =
      simplex::solve(dense(80, 1), simplex::Engine::kHostRevised);
  EXPECT_NEAR(r.solve.objective, host.objective,
              1e-9 * (1.0 + std::abs(host.objective)));
  EXPECT_LT(r.engine_seconds,
            simplex::solve(dense(80, 1), simplex::Engine::kDeviceRevised)
                .stats.sim_seconds);
}

// A device-route request carrying every observer perfbench attaches still
// routes by the crossover. The observers change no result bit and no
// latency, and the request's device slices (float stage) and host slices
// (double continuation) tile its engine time on one clock.
TEST(ServiceDispatch, ObservedDeviceRequestIsInertAndTilesEngineTime) {
  service::DispatchPolicy policy;
  policy.crossover_m = 64;
  policy.warm_cache_capacity = 0;
  service::SolveService plain_svc(policy), observed_svc(policy);
  const auto plain_id = plain_svc.submit(request_for(dense(80, 1))).id;
  trace::ChromeTraceSink sink;
  metrics::MetricsRegistry reg;
  record::Recorder rec;
  profile::Profiler profiler;
  telemetry::Telemetry tel;
  service::SolveRequest req = request_for(dense(80, 1));
  req.options.trace_sink = &sink;
  req.options.metrics = &reg;
  req.options.recorder = &rec;
  req.options.profiler = &profiler;
  req.options.telemetry = &tel;
  const auto observed_id = observed_svc.submit(std::move(req)).id;
  plain_svc.drain();
  observed_svc.drain();

  const service::ServiceResult& a = plain_svc.result(plain_id);
  const service::ServiceResult& b = observed_svc.result(observed_id);
  ASSERT_EQ(b.route, service::Route::kDevice);
  ASSERT_TRUE(b.solve.optimal());
  EXPECT_EQ(a.solve.objective, b.solve.objective);
  EXPECT_EQ(a.solve.x, b.solve.x);
  EXPECT_EQ(a.solve.y, b.solve.y);
  EXPECT_EQ(a.solve.basis, b.solve.basis);
  EXPECT_EQ(a.solve.stats.iterations, b.solve.stats.iterations);
  EXPECT_EQ(a.engine_seconds, b.engine_seconds);
  EXPECT_EQ(a.latency_seconds, b.latency_seconds);

  // Kernel and transfer slices, device then host, tile [0, engine time].
  std::vector<const trace::TraceEvent*> slices;
  bool saw_host = false;
  for (const trace::TraceEvent& e : sink.events()) {
    if (e.phase != trace::EventPhase::kComplete) continue;
    if (e.category != "kernel" && e.category != "transfer") continue;
    saw_host = saw_host || e.pid == trace::kHostPid;
    EXPECT_TRUE(e.pid == trace::kHostPid || !saw_host)
        << "a device slice after the host continuation began";
    slices.push_back(&e);
  }
  ASSERT_FALSE(slices.empty());
  EXPECT_TRUE(saw_host);
  double end = 0.0;
  for (const trace::TraceEvent* e : slices) {
    EXPECT_NEAR(e->ts, end, 1e-9) << e->name;
    end = e->ts + e->dur;
  }
  EXPECT_NEAR(end, b.engine_seconds, 1e-9);
  // The profiler saw both machines; the recorder holds the float stage.
  const profile::ProfileReport rep = profiler.report();
  EXPECT_GT(rep.kernel_seconds_by_pid.count(trace::kDevicePid), 0u);
  EXPECT_GT(rep.kernel_seconds_by_pid.count(trace::kHostPid), 0u);
  EXPECT_EQ(rec.recording().header.engine, "device-revised<float>");
  EXPECT_EQ(tel.time_offset(), 0.0);
  for (const auto& [name, series] : tel.series()) {
    for (const telemetry::SeriesPoint& pt : series.points()) {
      EXPECT_LE(pt.t, b.engine_seconds) << name;
    }
  }
}

TEST(ServiceDispatch, TightDeadlineIsReportedMissed) {
  service::DispatchPolicy policy;
  policy.warm_cache_capacity = 0;
  metrics::MetricsRegistry reg;
  service::SolveService svc(policy, &reg);
  service::SolveRequest req = request_for(dense(16, 1));
  req.deadline_seconds = 1e-15;  // positive (admitted) but unmeetable
  const auto t = svc.submit(std::move(req));
  svc.drain();
  EXPECT_TRUE(svc.result(t.id).deadline_missed);
  EXPECT_EQ(reg.counter("service.deadline.missed").value(), 1.0);
}

TEST(ServiceDispatch, PolicySeedsFromBenchArtifact) {
  // No sweep point at/above speedup 1 => the measured Fig. 2 default.
  const std::string path = "policy_seed_test.json";
  {
    std::ofstream out(path);
    out << "{\"sweep\": [{\"m\": 48, \"speedup_vs_cpu_revised\": 0.4},\n"
        << "            {\"m\": 128, \"speedup_vs_cpu_revised\": 0.9}]}";
  }
  EXPECT_EQ(service::DispatchPolicy::from_bench_json(path).crossover_m, 512u);
  {
    std::ofstream out(path);
    out << "{\"sweep\": [{\"m\": 256, \"speedup_vs_cpu_revised\": 0.97},\n"
        << "            {\"m\": 512, \"speedup_vs_cpu_revised\": 1.04},\n"
        << "            {\"m\": 2048, \"speedup_vs_cpu_revised\": 4.32}]}";
  }
  EXPECT_EQ(service::DispatchPolicy::from_bench_json(path).crossover_m, 512u);
  std::remove(path.c_str());
  EXPECT_EQ(service::DispatchPolicy::from_bench_json(path).crossover_m, 512u);
}

// ---------------------------------------------------------------------
// Warm-start cache.
// ---------------------------------------------------------------------

TEST(ServiceWarmCache, ExactRepeatIsServedBitIdentical) {
  service::SolveService svc;
  record::Recorder service_rec;

  service::SolveRequest cold = request_for(dense(16, 5));
  cold.options.recorder = &service_rec;  // observed => real cold solve
  const auto t_cold = svc.submit(std::move(cold));
  svc.drain();
  const service::ServiceResult& first = svc.result(t_cold.id);
  EXPECT_EQ(first.route, service::Route::kHost);
  EXPECT_TRUE(first.solve.optimal());
  EXPECT_EQ(svc.warm_cache_size(), 1u);

  const auto t_hit = svc.submit(request_for(dense(16, 5)));
  svc.drain();
  const service::ServiceResult& hit = svc.result(t_hit.id);
  EXPECT_EQ(hit.route, service::Route::kWarmHit);
  EXPECT_EQ(hit.digest, first.digest);
  EXPECT_EQ(hit.engine_seconds, 0.0);

  // Bit-identical, not merely close: the memoized result IS the cold one.
  EXPECT_EQ(hit.solve.objective, first.solve.objective);
  EXPECT_EQ(hit.solve.x, first.solve.x);
  EXPECT_EQ(hit.solve.y, first.solve.y);
  EXPECT_EQ(hit.solve.basis, first.solve.basis);

  // The service's cold solve took the same pivot path as a direct cold
  // solve outside the service: record::diff sees zero divergence.
  record::Recorder direct_rec;
  simplex::SolverOptions opt;
  opt.recorder = &direct_rec;
  (void)simplex::solve(dense(16, 5), simplex::Engine::kHostRevised, opt);
  const record::DiffResult d =
      record::diff(service_rec.recording(), direct_rec.recording());
  EXPECT_TRUE(d.comparable);
  EXPECT_FALSE(d.diverged);
  EXPECT_GT(d.common, 0u);
}

TEST(ServiceWarmCache, PerturbedRepeatReusesBasisAndSkipsIterations) {
  metrics::MetricsRegistry reg;
  service::SolveService svc({}, &reg);

  const lp::LpProblem base = dense(24, 9);
  const auto t_cold = svc.submit(request_for(base));
  svc.drain();
  EXPECT_TRUE(svc.result(t_cold.id).solve.optimal());

  const lp::LpProblem perturbed = scale_costs(base, 2.0);
  const auto t_warm = svc.submit(request_for(perturbed));
  svc.drain();
  const service::ServiceResult& warm = svc.result(t_warm.id);
  EXPECT_EQ(warm.route, service::Route::kWarmBasis);
  EXPECT_TRUE(warm.solve.optimal());
  EXPECT_TRUE(warm.solve.stats.warm_started);
  EXPECT_EQ(reg.counter("service.warm.fallback").value(), 0.0);
  // The warm route goes through the dual engine: the cached basis is
  // accepted without building artificials, so no phase-1 pivots at all.
  EXPECT_EQ(warm.solve.stats.phase1_iterations, 0u);

  // Scaling every cost preserves the argmin: same optimum, fewer pivots
  // than solving the perturbed instance cold.
  const simplex::SolveResult cold_direct =
      simplex::solve(perturbed, simplex::Engine::kHostRevised);
  EXPECT_NEAR(warm.solve.objective, cold_direct.objective,
              1e-9 * std::max(1.0, std::abs(cold_direct.objective)));
  EXPECT_LT(warm.solve.stats.iterations, cold_direct.stats.iterations);
}

TEST(ServiceWarmCache, LruEvictionIsBoundedAndCounted) {
  service::DispatchPolicy policy;
  policy.warm_cache_capacity = 2;
  metrics::MetricsRegistry reg;
  service::SolveService svc(policy, &reg);

  // Distinct shapes so nothing batches, warm-seeds or digest-collides.
  (void)svc.submit(request_for(dense(6, 1)));
  (void)svc.submit(request_for(dense(7, 1)));
  (void)svc.submit(request_for(dense(8, 1)));
  svc.drain();
  EXPECT_EQ(svc.warm_cache_size(), 2u);
  EXPECT_EQ(reg.counter("service.warm.evict").value(), 1.0);
  EXPECT_EQ(reg.counter("service.warm.miss").value(), 3.0);
  EXPECT_EQ(reg.counter("service.warm.hit").value(), 0.0);

  // The cache can be disabled outright.
  service::DispatchPolicy off;
  off.warm_cache_capacity = 0;
  service::SolveService no_cache(off);
  const auto a = no_cache.submit(request_for(dense(6, 1)));
  no_cache.drain();
  const auto b = no_cache.submit(request_for(dense(6, 1)));
  no_cache.drain();
  EXPECT_EQ(no_cache.warm_cache_size(), 0u);
  EXPECT_EQ(no_cache.result(b.id).route, service::Route::kHost);
  EXPECT_EQ(no_cache.result(a.id).solve.objective,
            no_cache.result(b.id).solve.objective);
}

// ---------------------------------------------------------------------
// Determinism and inertness.
// ---------------------------------------------------------------------

namespace determinism {

/// Mixed traffic: a batchable group, a device single, host singles and a
/// phase-1 case, drained twice to exercise the warm cache.
void run_traffic(service::SolveService& svc,
                 std::vector<std::uint64_t>& ids) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ids.push_back(svc.submit(request_for(dense(10, seed))).id);
  }
  ids.push_back(svc.submit(request_for(dense(80, 3))).id);
  ids.push_back(svc.submit(request_for(dense(14, 2))).id);
  ids.push_back(svc.submit(request_for(lp::transportation(3, 3, 1))).id);
  svc.drain();
  ids.push_back(svc.submit(request_for(dense(14, 2))).id);  // exact repeat
  ids.push_back(
      svc.submit(request_for(scale_costs(dense(14, 2), 3.0))).id);
  svc.drain();
}

}  // namespace determinism

TEST(ServiceDeterminism, WorkerCountNeverChangesResultsOrLatencies) {
  service::DispatchPolicy inline_policy;
  inline_policy.crossover_m = 64;
  service::DispatchPolicy threaded = inline_policy;
  threaded.workers = 4;

  metrics::MetricsRegistry reg0, reg4;
  service::SolveService svc0(inline_policy, &reg0);
  service::SolveService svc4(threaded, &reg4);
  std::vector<std::uint64_t> ids0, ids4;
  determinism::run_traffic(svc0, ids0);
  determinism::run_traffic(svc4, ids4);

  ASSERT_EQ(ids0.size(), ids4.size());
  for (std::size_t i = 0; i < ids0.size(); ++i) {
    const service::ServiceResult& a = svc0.result(ids0[i]);
    const service::ServiceResult& b = svc4.result(ids4[i]);
    EXPECT_EQ(a.route, b.route) << "request " << i;
    EXPECT_EQ(a.solve.status, b.solve.status);
    EXPECT_EQ(a.solve.objective, b.solve.objective);  // bit-identical
    EXPECT_EQ(a.solve.x, b.solve.x);
    EXPECT_EQ(a.solve.basis, b.solve.basis);
    EXPECT_EQ(a.engine_seconds, b.engine_seconds);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.solve.stats.iterations, b.solve.stats.iterations);
  }
  // Identical service metrics too, counter for counter. (Host-lane queue
  // waits legitimately depend on the lane count, so latency histograms
  // are compared via the counters they feed, not asserted equal here.)
  EXPECT_EQ(counter_values(reg0), counter_values(reg4));
}

TEST(ServiceDeterminism, ServiceMetricsAreOffByDefaultAndInert) {
  metrics::MetricsRegistry reg;
  service::SolveService with_metrics({}, &reg);
  service::SolveService without_metrics;  // null registry: the default
  std::vector<std::uint64_t> ids_a, ids_b;
  determinism::run_traffic(with_metrics, ids_a);
  determinism::run_traffic(without_metrics, ids_b);

  ASSERT_EQ(ids_a.size(), ids_b.size());
  for (std::size_t i = 0; i < ids_a.size(); ++i) {
    const service::ServiceResult& a = with_metrics.result(ids_a[i]);
    const service::ServiceResult& b = without_metrics.result(ids_b[i]);
    EXPECT_EQ(a.route, b.route);
    EXPECT_EQ(a.solve.objective, b.solve.objective);
    EXPECT_EQ(a.solve.x, b.solve.x);
    EXPECT_EQ(a.latency_seconds, b.latency_seconds);
    EXPECT_EQ(a.solve.stats.iterations, b.solve.stats.iterations);
  }
  EXPECT_FALSE(counter_values(reg).empty());
}

}  // namespace
