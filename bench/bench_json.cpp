// Machine-readable bench driver: runs scaled-down versions of the Fig. 1 /
// Fig. 2 sweep and the Tab. 1 per-operation breakdown and writes one JSON
// document (schema "gs-bench-v1") that bench/compare_bench.py diffs against
// the committed BENCH_solver.json baseline in CI.
//
// Everything gated by the comparison is *modeled* time (vgpu roofline
// sim_seconds) or an exact count from seeded workloads, so reruns are
// bit-identical on any host; wall-clock never enters the document. The
// tolerance bands in compare_bench.py exist to absorb intentional machine-
// model or algorithm changes, not host noise.
//
// Usage: bench_json [out.json] [--tiny]
//   out.json  output path (default: BENCH_solver.json in the CWD)
//   --tiny    perf-smoke mode for ci.sh: run only the first two sweep
//             points and skip the breakdown section. The result is a
//             strict subset of the full document, gated with
//             `compare_bench.py --subset` against the committed baseline.
#include <algorithm>
#include <iterator>
#include <string>

#include "bench/common.hpp"
#include "telemetry/telemetry.hpp"
#include "bench/per_iter.hpp"
#include "bench/svc_common.hpp"
#include "profile/profile.hpp"
#include "simplex/batch_revised.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "metrics/metrics.hpp"
#include "trace/chrome_sink.hpp"

namespace {

using namespace gs;

// Small fixed sweep — this runs as a CI smoke stage, so sizes stay well
// below the full fig1 sweep. The baseline is regenerated with the same
// sizes (EXPERIMENTS.md), so there is no --quick switch to get wrong.
constexpr std::size_t kSweepSizes[] = {48, 64, 96, 128};
// Service-traffic section: K same-shape requests through SolveService vs
// the sequential device baseline (bench/svc_traffic.cpp). NOTE: the key
// "speedup_vs_cpu_revised" is reserved for the sweep — DispatchPolicy::
// from_bench_json pairs it positionally with "m" (service/policy.cpp).
constexpr std::size_t kServiceSizes[] = {48, 64};
constexpr std::size_t kServiceTraffic = 64;
constexpr std::size_t kBreakdownSize = 96;
// Basis section: product-form oracle telemetry on a seeded sparse host
// solve (eta growth, refactorization count, modeled sparse-FTRAN time).
constexpr std::size_t kBasisSize = 96;
// Memory section: buffer-lifetime budget captured by the static analyzer.
constexpr std::size_t kMemorySize = 64;
constexpr std::size_t kMemoryBatchK = 8;
constexpr std::size_t kBreakdownCap = 40;

// Per-sweep-point roofline summary collected during the sweep loop and
// emitted later as the "profile" section (the profiler rides the same
// solve the runtime keys are gated on; it is proven bit-identical-when-
// attached, so the section costs no extra solves).
struct ProfilePoint {
  std::size_t m = 0;
  double launch_bound_fraction = 0.0;
  std::vector<std::pair<std::string, double>> top_shares;
};

void append_kv(std::string& out, int indent, std::string_view key,
               double value, bool trailing_comma) {
  out.append(indent, ' ');
  metrics::json_write_string(out, key);
  out += ": ";
  metrics::json_write_number(out, value);
  if (trailing_comma) out += ',';
  out += '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const bool tiny = bench::has_flag(argc, argv, "--tiny");
  std::string out_path = "BENCH_solver.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--tiny") {
      out_path = argv[i];
      break;
    }
  }

  const std::size_t sweep_count = tiny ? 2 : std::size(kSweepSizes);

  std::string out;
  out += "{\n  \"schema\": \"gs-bench-v1\",\n";

  // --- Fig.1/Fig.2-style sweep: three engines on seeded dense LPs. ------
  // Health warnings at these fixed seeds are part of the gated contract:
  // compare_bench.py fails if any warning count *increases* vs baseline.
  // One registry spans the whole sweep; per-point numbers come from
  // MetricsSnapshot::diff against the previous point's snapshot — the
  // same delta machinery the telemetry sampler rides, exercised here on
  // the gated artifact.
  std::vector<ProfilePoint> profile_points;
  metrics::MetricsRegistry registry;
  metrics::MetricsSnapshot prev_snap;
  out += "  \"sweep\": [\n";
  for (std::size_t s = 0; s < sweep_count; ++s) {
    const std::size_t size = kSweepSizes[s];
    const auto problem =
        lp::random_dense_lp({.rows = size, .cols = size, .seed = 1});

    profile::Profiler prof;
    simplex::SolverOptions opt;
    opt.metrics = &registry;
    opt.profiler = &prof;
    const auto gpu = bench::solve_device(problem, vgpu::gtx280_model(), opt);
    const auto cpu = simplex::solve(problem, simplex::Engine::kHostRevised);
    const auto tab = simplex::solve(problem, simplex::Engine::kTableau);
    if (!gpu.optimal() || !cpu.optimal() || !tab.optimal()) {
      std::cerr << "non-optimal solve at m=" << size << "\n";
      return 1;
    }
    const auto& ds = gpu.stats.device_stats;

    {
      const profile::ProfileReport rep = prof.report();
      // The profiler folds the same per-launch roofline times the device
      // accumulates, in the same order: anything but bit-equality here is
      // a reconciliation bug, not noise.
      if (rep.kernel_seconds() != ds.kernel_seconds) {
        std::cerr << "profile does not reconcile with DeviceStats at m="
                  << size << "\n";
        return 1;
      }
      ProfilePoint pt;
      pt.m = size;
      pt.launch_bound_fraction = rep.launch_bound_fraction;
      const double total = rep.kernel_seconds();
      for (std::size_t k = 0; k < rep.kernels.size() && k < 3; ++k) {
        pt.top_shares.emplace_back(
            rep.kernels[k].name,
            total > 0.0 ? rep.kernels[k].seconds / total : 0.0);
      }
      profile_points.push_back(std::move(pt));
    }

    out += "    {\n";
    append_kv(out, 6, "m", double(size), true);
    append_kv(out, 6, "gpu_iterations", double(gpu.stats.iterations), true);
    append_kv(out, 6, "gpu_revised_ms", gpu.stats.sim_seconds * 1e3, true);
    append_kv(out, 6, "cpu_revised_ms", cpu.stats.sim_seconds * 1e3, true);
    append_kv(out, 6, "cpu_tableau_ms", tab.stats.sim_seconds * 1e3, true);
    append_kv(out, 6, "speedup_vs_cpu_revised",
              cpu.stats.sim_seconds / gpu.stats.sim_seconds, true);
    append_kv(out, 6, "kernel_launches", double(ds.kernel_launches), true);
    append_kv(out, 6, "h2d_bytes", double(ds.h2d_bytes), true);
    append_kv(out, 6, "d2h_bytes", double(ds.d2h_bytes), true);
    const auto snap = registry.snapshot();
    const auto delta = snap.diff(prev_snap);
    prev_snap = snap;
    append_kv(out, 6, "warnings_total", double(delta.warnings_total), true);
    // Per-kind warning counters (health.warnings.<kind>), if any tripped
    // at this point (delta counters; zero-valued kinds from earlier
    // points are skipped so the emitted set matches a per-point registry).
    out += "      \"warnings_by_kind\": {";
    bool first = true;
    for (const auto& [name, value] : delta.counters) {
      constexpr std::string_view prefix = "health.warnings.";
      if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) continue;
      if (value == 0.0) continue;
      if (!first) out += ", ";
      first = false;
      metrics::json_write_string(out, name.substr(prefix.size()));
      out += ": ";
      metrics::json_write_number(out, value);
    }
    out += "}\n";
    out += (s + 1 < sweep_count) ? "    },\n" : "    }\n";
  }
  out += "  ],\n";

  // --- Service traffic: batched dispatch vs one-at-a-time device. -------
  // req_per_s is a rate key: compare_bench.py fails if it *decreases*
  // beyond tolerance; the latency keys are gated like any runtime.
  const std::size_t service_count = tiny ? 1 : std::size(kServiceSizes);
  struct SloPoint {
    std::size_t m = 0;
    double attainment = 1.0;
    double p99_headroom_frac = 0.0;
    std::size_t alerts_fired = 0;
  };
  std::vector<SloPoint> slo_points;
  out += "  \"service\": [\n";
  for (std::size_t s = 0; s < service_count; ++s) {
    const std::size_t size = kServiceSizes[s];
    // The telemetry sink rides the gated traffic run (proven inert), and
    // its SLO verdicts become the "slo" section: the spec below is the
    // ci.sh baseline mix minus the warm-hit objective — the cold traffic
    // of distinct problems has a 0% hit rate by construction, which would
    // pin the min-attainment at 0 and make the gate vacuous.
    telemetry::Telemetry tel;
    tel.set_slo(telemetry::SloSpec::parse(
        "p99<=20ms,miss<=0.01,reject<=0.01"));
    const bench::TrafficResult tr = bench::run_same_shape_traffic(
        size, kServiceTraffic, 700, nullptr, nullptr, &tel);
    if (tr.service_seconds <= 0.0) {
      std::cerr << "service traffic run failed at m=" << size << "\n";
      return 1;
    }
    SloPoint sp;
    sp.m = size;
    for (const telemetry::SloAttainment& a : tel.slo_attainment()) {
      sp.attainment = std::min(sp.attainment, a.attainment);
      sp.alerts_fired += a.alerts_fired;
      if (a.name.rfind("p99<=", 0) == 0) sp.p99_headroom_frac = a.headroom;
    }
    slo_points.push_back(sp);
    out += "    {\n";
    append_kv(out, 6, "m", double(size), true);
    append_kv(out, 6, "requests", double(kServiceTraffic), true);
    append_kv(out, 6, "device_seq_ms", tr.baseline_seconds * 1e3, true);
    append_kv(out, 6, "service_ms", tr.service_seconds * 1e3, true);
    append_kv(out, 6, "speedup_vs_sequential_device",
              tr.baseline_seconds / tr.service_seconds, true);
    append_kv(out, 6, "req_per_s",
              double(kServiceTraffic) / tr.service_seconds, true);
    append_kv(out, 6, "latency_p50_ms", tr.p50_seconds * 1e3, true);
    append_kv(out, 6, "latency_p99_ms", tr.p99_seconds * 1e3, true);
    append_kv(out, 6, "batch_rounds", double(tr.batch_rounds), false);
    out += (s + 1 < service_count) ? "    },\n" : "    }\n";
  }
  out += "  ],\n";

  // --- SLO attainment per traffic point (telemetry + SLO engine). -------
  // attainment and p99_headroom_frac are higher-is-better keys gated by
  // compare_bench.py (a drop past tolerance fails); alerts_fired is
  // informational. m-keyed like the service section so --tiny stays a
  // strict subset.
  out += "  \"slo\": [\n";
  for (std::size_t s = 0; s < slo_points.size(); ++s) {
    const SloPoint& sp = slo_points[s];
    out += "    {\n";
    append_kv(out, 6, "m", double(sp.m), true);
    append_kv(out, 6, "attainment", sp.attainment, true);
    append_kv(out, 6, "p99_headroom_frac", sp.p99_headroom_frac, true);
    append_kv(out, 6, "alerts_fired", double(sp.alerts_fired), false);
    out += (s + 1 < slo_points.size()) ? "    },\n" : "    }\n";
  }
  out += "  ],\n";

  // --- Roofline profile of the sweep's device solves. -------------------
  // launch_bound_fraction and the top-kernel shares are deterministic
  // ratios of modeled time at fixed seeds; compare_bench.py gates them
  // with the tight 5% budget band (a kernel drifting between bound
  // classes, or the hot-kernel mix shifting, is a design change — the
  // kind the roofline work exists to surface — not noise). m-keyed like
  // the sweep so --tiny stays a strict subset.
  out += "  \"profile\": [\n";
  for (std::size_t s = 0; s < profile_points.size(); ++s) {
    const ProfilePoint& pt = profile_points[s];
    out += "    {\n";
    append_kv(out, 6, "m", double(pt.m), true);
    append_kv(out, 6, "launch_bound_fraction", pt.launch_bound_fraction,
              true);
    out += "      \"top_kernel_share\": {";
    for (std::size_t k = 0; k < pt.top_shares.size(); ++k) {
      if (k) out += ", ";
      metrics::json_write_string(out, pt.top_shares[k].first);
      out += ": ";
      metrics::json_write_number(out, pt.top_shares[k].second);
    }
    out += "}\n";
    out += (s + 1 < profile_points.size()) ? "    },\n" : "    }\n";
  }
  out += "  ],\n";

  // --- Product-form basis telemetry (host engine, sparse instance). -----
  // eta_count / refactor_count are BUDGET_KEYS in compare_bench.py (5%
  // band): the eta-file growth and the refactorization trigger are
  // algorithmic contracts at fixed seeds, not noise. ftran_ms is gated
  // as a runtime. The nested "device" object solves the same instance
  // with the CSR device engine's product form: its sim_ms is gated as a
  // runtime and its kernel_launches as a budget, so the device product
  // form cannot get slower or launch more unnoticed. Runs in --tiny too:
  // two small solves, and the counts are size-dependent, not subset-able.
  {
    const auto basis_problem = lp::random_sparse_lp({.rows = kBasisSize,
                                                     .cols = 4 * kBasisSize,
                                                     .density = 0.05,
                                                     .seed = 2});
    simplex::SolverOptions opt;
    opt.basis = simplex::BasisScheme::kProductForm;
    const auto r =
        simplex::solve(basis_problem, simplex::Engine::kHostRevised, opt);
    if (!r.optimal()) {
      std::cerr << "basis-section solve failed at m=" << kBasisSize << "\n";
      return 1;
    }
    const auto& pk = r.stats.device_stats.per_kernel;
    const auto launches = [&](const char* k) {
      const auto it = pk.find(k);
      return it == pk.end() ? 0.0 : double(it->second.launches);
    };
    const auto step_ms = [&](const char* k) {
      const auto it = pk.find(k);
      return it == pk.end() ? 0.0 : it->second.sim_seconds * 1e3;
    };
    out += "  \"basis\": {\n";
    append_kv(out, 4, "m", double(kBasisSize), true);
    append_kv(out, 4, "eta_count", launches("eta_append"), true);
    append_kv(out, 4, "refactor_count", launches("sparse_refactor"), true);
    append_kv(out, 4, "ftran_ms", step_ms("sparse_ftran"), true);
    const auto dev = simplex::solve(basis_problem,
                                    simplex::Engine::kSparseRevised, opt,
                                    vgpu::gtx280_model());
    if (!dev.optimal()) {
      std::cerr << "basis-section device solve failed at m=" << kBasisSize
                << "\n";
      return 1;
    }
    out += "    \"device\": {\n";
    append_kv(out, 6, "sim_ms", dev.stats.sim_seconds * 1e3, true);
    append_kv(out, 6, "kernel_launches",
              double(dev.stats.device_stats.kernel_launches), false);
    out += "    }\n";
    out += "  },\n";
  }

  // --- Buffer-lifetime budget per engine (static analyzer capture). -----
  // peak_live_bytes / alloc_count are BUDGET_KEYS in compare_bench.py:
  // deterministic at fixed seeds, gated with the tight 5% band. This is
  // the arena-allocator baseline (ROADMAP item 5) — churn regressions
  // show up here before any allocator work lands. Runs in --tiny too:
  // the capture is cheap and the counts are size-dependent, not
  // subset-able, so tiny and full must agree exactly.
  {
    const auto mem_problem = lp::random_dense_lp(
        {.rows = kMemorySize, .cols = kMemorySize, .seed = 1});
    const auto mem_sparse = lp::random_sparse_lp({.rows = kMemorySize,
                                                  .cols = 4 * kMemorySize,
                                                  .density = 0.05,
                                                  .seed = 1});
    out += "  \"memory\": {\n";
    append_kv(out, 4, "m", double(kMemorySize), true);
    const auto emit = [&](std::string_view key,
                          const vgpu::analyze::Report& rep, bool comma) {
      out += "    ";
      metrics::json_write_string(out, key);
      out += ": {\n";
      append_kv(out, 6, "peak_live_bytes", double(rep.peak_live_bytes), true);
      append_kv(out, 6, "alloc_count", double(rep.alloc_count), false);
      out += comma ? "    },\n" : "    }\n";
    };
    const auto capture_single = [&](bool use_float) {
      vgpu::analyze::CaptureLog cap;
      simplex::SolverOptions opt;
      opt.analyzer = &cap;
      if (use_float) {
        (void)bench::solve_device_float(mem_problem, vgpu::gtx280_model(),
                                        opt);
      } else {
        (void)bench::solve_device(mem_problem, vgpu::gtx280_model(), opt);
      }
      return vgpu::analyze::analyze(cap);
    };
    emit("device_revised", capture_single(false), true);
    emit("device_revised_float", capture_single(true), true);
    {
      vgpu::analyze::CaptureLog cap;
      simplex::SolverOptions opt;
      opt.analyzer = &cap;
      (void)simplex::solve(mem_sparse, simplex::Engine::kSparseRevised, opt,
                           vgpu::gtx280_model());
      emit("sparse_revised", vgpu::analyze::analyze(cap), true);
    }
    {
      std::vector<lp::LpProblem> round;
      for (std::uint64_t s = 1; s <= kMemoryBatchK; ++s) {
        round.push_back(lp::random_dense_lp(
            {.rows = kMemorySize, .cols = kMemorySize, .seed = s}));
      }
      vgpu::analyze::CaptureLog cap;
      simplex::SolverOptions opt;
      opt.analyzer = &cap;
      vgpu::Device dev(vgpu::gtx280_model());
      simplex::BatchRevisedSimplex<double> engine(dev, opt);
      (void)engine.solve(round);
      emit("batch_revised", vgpu::analyze::analyze(cap), false);
    }
    out += tiny ? "  }\n" : "  },\n";
  }

  // --- Tab.1-style per-operation breakdown at a fixed iteration cap. ----
  if (!tiny) {
    const auto problem = lp::random_dense_lp(
        {.rows = kBreakdownSize, .cols = kBreakdownSize, .seed = 3});
    simplex::SolverOptions opt;
    opt.max_iterations = kBreakdownCap;
    trace::ChromeTraceSink sink;
    opt.trace_sink = &sink;
    const auto result =
        bench::solve_device(problem, vgpu::gtx280_model(), opt);
    const auto rows = bench::per_iteration_rows(sink.events());
    const auto totals = bench::op_totals(rows);
    double grand = 0.0;
    for (const double t : totals) grand += t;

    out += "  \"breakdown\": {\n";
    append_kv(out, 4, "m", double(kBreakdownSize), true);
    append_kv(out, 4, "iteration_cap", double(kBreakdownCap), true);
    append_kv(out, 4, "iterations", double(result.stats.iterations), true);
    out += "    \"op_ms\": {\n";
    for (std::size_t k = 0; k < bench::kOpColumns.size(); ++k) {
      append_kv(out, 6, bench::kOpColumns[k], totals[k] * 1e3,
                k + 1 < bench::kOpColumns.size());
    }
    out += "    },\n";
    out += "    \"op_share\": {\n";
    for (std::size_t k = 0; k < bench::kOpColumns.size(); ++k) {
      append_kv(out, 6, bench::kOpColumns[k],
                grand > 0.0 ? totals[k] / grand : 0.0,
                k + 1 < bench::kOpColumns.size());
    }
    out += "    }\n  }\n";
  }

  out += "}\n";

  std::ofstream file(out_path);
  if (!file.good()) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  file << out;
  std::cout << "[bench-json] wrote " << out_path << "\n";
  return 0;
}
