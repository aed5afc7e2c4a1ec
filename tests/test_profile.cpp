// Profiler tests: bit-exact DeviceStats reconciliation on both machine
// tracks, roofline bound classification on crafted kernels, the service
// span-tiling invariant, downstream forwarding, and the bit-identical-
// when-off guarantee every observer must keep (OBSERVABILITY.md,
// "Profiler"). If a name in that document stops compiling, it fails here
// first.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "profile/profile.hpp"
#include "record/record.hpp"
#include "service/service.hpp"
#include "simplex/solver.hpp"
#include "trace/chrome_sink.hpp"
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
// Bit-exact reconciliation against DeviceStats.
// ---------------------------------------------------------------------

// The profiler folds the same per-launch doubles the device accumulates,
// in the same emission order, so the totals must be *identical* — not
// merely close. EXPECT_EQ on doubles is deliberate throughout.
TEST(ProfileReconcile, DeviceKernelTotalsAreBitExact) {
  profile::Profiler prof;
  simplex::SolverOptions opt;
  opt.profiler = &prof;
  const auto result = solve_device(tiny_lp(), opt);
  ASSERT_TRUE(result.optimal());
  const vgpu::DeviceStats& ds = result.stats.device_stats;

  const profile::ProfileReport rep = prof.report();
  EXPECT_EQ(rep.kernel_seconds(), ds.kernel_seconds);
  EXPECT_EQ(rep.kernel_seconds_by_pid.at(trace::kDevicePid),
            ds.kernel_seconds);

  // Per-kernel: every profiled kernel matches its DeviceStats record
  // exactly, and nothing is missing on either side.
  ASSERT_EQ(rep.kernels.size(), ds.per_kernel.size());
  std::size_t calls = 0;
  for (const profile::KernelProfile& k : rep.kernels) {
    const auto it = ds.per_kernel.find(k.name);
    ASSERT_NE(it, ds.per_kernel.end()) << k.name;
    EXPECT_EQ(k.seconds, it->second.sim_seconds) << k.name;
    EXPECT_EQ(k.calls, it->second.launches) << k.name;
    EXPECT_EQ(k.flops, it->second.flops) << k.name;
    EXPECT_EQ(k.bytes, it->second.bytes) << k.name;
    calls += k.calls;
  }
  EXPECT_EQ(calls, ds.kernel_launches);

  // Transfers interleave h2d and d2h in one emission-order fold while
  // DeviceStats keeps two separate accumulators, so the sums may differ
  // in the last ulps — but no more.
  EXPECT_NEAR(rep.transfer_seconds(), ds.transfer_seconds(),
              1e-15 * (1.0 + ds.transfer_seconds()));
}

// The host engines charge the same stats shape through CostMeter; the
// profiler reconciles against it on the host track.
TEST(ProfileReconcile, HostKernelTotalsAreBitExact) {
  profile::Profiler prof;
  simplex::SolverOptions opt;
  opt.profiler = &prof;
  const auto result = simplex::HostRevisedSimplex(opt).solve(tiny_lp());
  ASSERT_TRUE(result.optimal());
  const vgpu::DeviceStats& ds = result.stats.device_stats;

  const profile::ProfileReport rep = prof.report();
  EXPECT_EQ(rep.kernel_seconds_by_pid.at(trace::kHostPid),
            ds.kernel_seconds);
  for (const profile::KernelProfile& k : rep.kernels) {
    const auto it = ds.per_kernel.find(k.name);
    ASSERT_NE(it, ds.per_kernel.end()) << k.name;
    EXPECT_EQ(k.seconds, it->second.sim_seconds) << k.name;
    EXPECT_EQ(k.calls, it->second.launches) << k.name;
  }
}

// ---------------------------------------------------------------------
// Roofline bound classification.
// ---------------------------------------------------------------------

// Three crafted launches on the gtx280 model (launch overhead 6us, 40
// GFLOP/s double, 110 GB/s), each landing squarely in one bound class.
TEST(ProfileRoofline, CraftedKernelsLandInEachBoundClass) {
  profile::Profiler prof;
  vgpu::Device dev(vgpu::gtx280_model());
  dev.set_trace(&prof);
  prof.bind_machine(trace::kDevicePid, dev.model());
  const std::size_t n = dev.model().saturation_threads;  // occupancy 1.0

  // 1e3 flops / 1e3 bytes: both work terms are tens of ns, dwarfed by
  // the 6us launch overhead.
  dev.parallel_for("craft_launch", n, {.flops = 1e3, .bytes = 1e3},
                   [](std::size_t) {});
  // 1e9 bytes vs 1e6 flops: the memory term (~9ms) dominates.
  dev.parallel_for("craft_mem", n, {.flops = 1e6, .bytes = 1e9},
                   [](std::size_t) {});
  // 1e9 double flops vs 1e6 bytes: the arithmetic term (25ms) dominates.
  dev.parallel_for("craft_compute", n, {.flops = 1e9, .bytes = 1e6},
                   [](std::size_t) {});

  const profile::ProfileReport rep = prof.report();
  const profile::KernelProfile* launch = rep.find_kernel("craft_launch");
  const profile::KernelProfile* mem = rep.find_kernel("craft_mem");
  const profile::KernelProfile* comp = rep.find_kernel("craft_compute");
  ASSERT_NE(launch, nullptr);
  ASSERT_NE(mem, nullptr);
  ASSERT_NE(comp, nullptr);

  EXPECT_EQ(launch->bound, profile::BoundClass::kLaunch);
  EXPECT_EQ(mem->bound, profile::BoundClass::kBandwidth);
  EXPECT_EQ(comp->bound, profile::BoundClass::kCompute);
  EXPECT_EQ(std::string(to_string(launch->bound)), "launch-bound");

  // Decomposition sanity: every launch pays the fixed overhead; the
  // dominant kernels run near their respective roofs.
  EXPECT_EQ(launch->launch_seconds, dev.model().launch_overhead_s);
  EXPECT_GT(mem->bandwidth_fraction, 0.9);
  EXPECT_LE(mem->bandwidth_fraction, 1.0);
  EXPECT_GT(comp->compute_fraction, 0.9);
  EXPECT_LE(comp->compute_fraction, 1.0);

  // Totals still reconcile bit-exactly on the crafted stream.
  EXPECT_EQ(rep.kernel_seconds(), dev.stats().kernel_seconds);
  // All time is in the mem/compute kernels; the launch-bound share is
  // their 6us overheads plus the craft_launch time — a sliver.
  EXPECT_GT(rep.launch_bound_fraction, 0.0);
  EXPECT_LT(rep.launch_bound_fraction, 0.01);
}

// A single-block chain launch: its memory term (~27us at one block's
// occupancy) would make it bandwidth-bound on its own, but 2000 dependent
// steps (1ms) are latency, so it lands in the launch/latency class.
TEST(ProfileRoofline, DependentStepsFoldIntoTheLatencyClass) {
  profile::Profiler prof;
  vgpu::Device dev(vgpu::gtx280_model());
  dev.set_trace(&prof);
  prof.bind_machine(trace::kDevicePid, dev.model());
  const auto noop = [](std::size_t, std::size_t, std::size_t) {};
  dev.launch_blocks("craft_block", 256, 256, {.flops = 1e4, .bytes = 1e5},
                    noop);
  dev.launch_blocks("craft_chain", 256, 256,
                    {.flops = 1e4, .bytes = 1e5, .dependent_steps = 2000},
                    noop);
  const profile::ProfileReport rep = prof.report();
  const profile::KernelProfile* block = rep.find_kernel("craft_block");
  const profile::KernelProfile* chain = rep.find_kernel("craft_chain");
  ASSERT_NE(block, nullptr);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(block->bound, profile::BoundClass::kBandwidth);
  EXPECT_EQ(chain->bound, profile::BoundClass::kLaunch);
  const vgpu::MachineModel& m = dev.model();
  EXPECT_EQ(chain->launch_seconds,
            m.launch_overhead_s + 2000.0 * m.dependent_step_s);
  EXPECT_EQ(rep.kernel_seconds(), dev.stats().kernel_seconds);
}

// The sparse product form walks its eta file with the chain kernels: the
// profile still reconciles bit-exactly, the chains are latency-bound, and
// every chain launch is charged at least its steps x dependent_step_s.
TEST(ProfileReconcile, EtaChainsReconcileAndAreChargedTheirSteps) {
  profile::Profiler prof;
  trace::ChromeTraceSink sink;
  simplex::SolverOptions opt;
  opt.profiler = &prof;
  opt.trace_sink = &sink;
  opt.basis = simplex::BasisScheme::kProductForm;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::SparseRevisedSimplex<double> solver(dev, opt);
  const auto result = solver.solve(lp::random_sparse_lp(
      {.rows = 48, .cols = 192, .density = 0.05, .seed = 21}));
  ASSERT_TRUE(result.optimal());
  const profile::ProfileReport rep = prof.report();
  EXPECT_EQ(rep.kernel_seconds(), result.stats.device_stats.kernel_seconds);
  for (const char* name : {"eta_ftran_chain", "eta_btran_chain"}) {
    const profile::KernelProfile* k = rep.find_kernel(name);
    ASSERT_NE(k, nullptr) << name;
    EXPECT_EQ(k->bound, profile::BoundClass::kLaunch) << name;
  }
  const double step = dev.model().dependent_step_s;
  std::size_t chains = 0;
  for (const trace::TraceEvent& e : sink.events()) {
    if (e.category != "kernel" || !e.name.ends_with("_chain")) continue;
    double steps = 0.0;
    for (const auto& [key, value] : e.args) {
      if (key == "dependent_steps") steps = value;
    }
    EXPECT_GE(e.dur, steps * step) << e.name;
    ++chains;
  }
  EXPECT_GT(chains, 0u);
}

// ---------------------------------------------------------------------
// Service request spans: the tiling invariant.
// ---------------------------------------------------------------------

TEST(ProfileService, StageSpansTileRequestLatencyExactly) {
  profile::Profiler prof;
  metrics::MetricsRegistry reg;
  service::SolveService svc({}, &reg);
  svc.set_profiler(&prof);

  std::vector<std::uint64_t> ids;
  for (std::uint64_t s = 0; s < 6; ++s) {
    service::SolveRequest req;
    // Seed s % 4: the last two requests repeat earlier problems so the
    // result cache path (cache_hit stage) is exercised too.
    req.problem = tiny_lp(100 + s % 4);
    const service::Ticket t = svc.submit(std::move(req));
    ASSERT_TRUE(t.accepted);
    ids.push_back(t.id);
  }
  svc.drain();

  const profile::ProfileReport rep = prof.report();
  // Coverage: every admitted request has a span tree on its own track.
  ASSERT_EQ(rep.requests.size(), ids.size());
  // The shipped emission derives the stage durations from the same
  // doubles that produce latency_seconds, so the residue is exactly 0.
  EXPECT_EQ(rep.max_stage_tiling_error(), 0.0);
  for (const profile::RequestProfile& r : rep.requests) {
    EXPECT_TRUE(r.has_latency) << "request " << r.tid;
    ASSERT_FALSE(r.stages.empty()) << "request " << r.tid;
    for (const auto& [name, dur] : r.stages) {
      EXPECT_TRUE(name == "queued" || name == "engine_solve" ||
                  name == "cache_hit")
          << name;
      EXPECT_GE(dur, 0.0);
    }
    const double lat = svc.result(r.tid).latency_seconds;
    EXPECT_EQ(r.latency_seconds, lat) << "request " << r.tid;
  }

  // p50/p99 decomposition reports the stages of the requests at those
  // ranks.
  const profile::RequestSummary rs = rep.request_summary();
  EXPECT_EQ(rs.count, ids.size());
  EXPECT_GE(rs.p99_seconds, rs.p50_seconds);
  EXPECT_FALSE(rs.p99_stages.empty());
}

// ---------------------------------------------------------------------
// Composition and the observer contract.
// ---------------------------------------------------------------------

// A profiler interposed before a Chrome sink forwards every event
// unmodified: the downstream sink sees exactly the stream it would have
// seen attached directly.
TEST(ProfileCompose, ForwardsEveryEventDownstream) {
  trace::ChromeTraceSink direct;
  {
    simplex::SolverOptions opt;
    opt.trace_sink = &direct;
    ASSERT_TRUE(solve_device(tiny_lp(), opt).optimal());
  }
  trace::ChromeTraceSink chained;
  profile::Profiler prof;
  {
    simplex::SolverOptions opt;
    opt.trace_sink = &chained;
    opt.profiler = &prof;
    ASSERT_TRUE(solve_device(tiny_lp(), opt).optimal());
  }
  ASSERT_EQ(chained.events().size(), direct.events().size());
  for (std::size_t i = 0; i < direct.events().size(); ++i) {
    EXPECT_EQ(chained.events()[i].name, direct.events()[i].name) << i;
    EXPECT_EQ(chained.events()[i].ts, direct.events()[i].ts) << i;
    EXPECT_EQ(chained.events()[i].dur, direct.events()[i].dur) << i;
  }
}

// ---------------------------------------------------------------------
// Exports.
// ---------------------------------------------------------------------

TEST(ProfileExport, JsonTableAndFlamegraph) {
  profile::Profiler prof;
  simplex::SolverOptions opt;
  opt.profiler = &prof;
  ASSERT_TRUE(solve_device(tiny_lp(), opt).optimal());
  const profile::ProfileReport rep = prof.report();

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"gs-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"launch_bound_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"kernels\""), std::string::npos);

  const std::string table = rep.table(5);
  EXPECT_NE(table.find("bound"), std::string::npos);
  EXPECT_NE(table.find("-bound"), std::string::npos);  // a class rendered

  // Collapsed stacks: kernels are attributed under the span path that
  // launched them ("solve;..."), one "path nanoseconds" line each.
  const std::string folded = rep.flamegraph_text();
  ASSERT_FALSE(folded.empty());
  EXPECT_NE(folded.find("solve;"), std::string::npos);
  EXPECT_EQ(folded.back(), '\n');

  // Phase aggregation saw the solver's spans with sane self-times.
  bool saw_solve = false;
  for (const profile::PhaseProfile& p : rep.phases) {
    EXPECT_GE(p.total_seconds, p.self_seconds) << p.name;
    saw_solve |= (p.name == "solve");
  }
  EXPECT_TRUE(saw_solve);
}

}  // namespace
