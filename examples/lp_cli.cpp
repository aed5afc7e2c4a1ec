// lp_cli: command-line LP solver over the library's full pipeline.
//
//   lp_cli <model.{lp,mps}> [options]
//   lp_cli --gen dense:<size>[:seed] [options]
//     --engine device|device-float|host|dual|tableau|sparse
//                                                        (default device)
//     --pricing dantzig|bland|hybrid|devex               (default hybrid)
//     --basis explicit|product-form                      (default explicit)
//     --device gtx280|gtx570|titan                       (default gtx280)
//     --max-iters N                                      (default 50000)
//     --presolve                                         run reductions first
//     --scale pow10|geometric                            scale standard form
//     --duals                                            print shadow prices
//     --ranging                                          rhs/cost sensitivity
//                                                        ranges (host engine)
//     --stats                                            kernel breakdown
//     --gen dense:<size>[:seed]                          solve a generated
//                                                        dense random LP
//                                                        instead of a file
//     --gen sparse:<size>[:seed]                         netlib-like sparse
//                                                        random LP (2x cols,
//                                                        2% density)
//     --gen klee:<d>                                     Klee-Minty cube of
//                                                        dimension d
//     --trace <file.json>                                write a Chrome
//                                                        trace (see
//                                                        OBSERVABILITY.md)
//     --check                                            run kernels in
//                                                        checked mode (see
//                                                        CHECKING.md); any
//                                                        finding exits 1
//     --analyze[=file.json]                              capture the launch
//                                                        graph and run the
//                                                        static analyzer
//                                                        (CHECKING.md
//                                                        "Static analysis");
//                                                        hazards, uninit
//                                                        reads, cost drift
//                                                        or >1% dead
//                                                        transfers exit 1
//     --metrics[=file.json]                              collect counters/
//                                                        histograms and
//                                                        numerical-health
//                                                        signals; print the
//                                                        JSON snapshot (or
//                                                        write it to the
//                                                        file). See
//                                                        OBSERVABILITY.md
//     --record[=file.gsrec]                              log every pivot
//                                                        decision to a
//                                                        gs-record-v1 file
//                                                        (default
//                                                        lp_cli.gsrec); see
//                                                        OBSERVABILITY.md,
//                                                        "Recorder"
//     --replay=file.gsrec                                re-run the solve
//                                                        pinned to the
//                                                        recorded decision
//                                                        sequence; the
//                                                        engine is taken
//                                                        from the recording
//                                                        header unless
//                                                        --engine overrides
//                                                        it. Any deviation
//                                                        prints the first
//                                                        mismatch and exits
//                                                        1.
//     --diff A.gsrec B.gsrec                             offline: align two
//                                                        recordings and
//                                                        report the first
//                                                        divergent pivot
//                                                        with both
//                                                        candidates
//     --post-mortem=file.gsrec                           arm a crash dump:
//                                                        on a non-optimal
//                                                        exit or any health
//                                                        warning, write the
//                                                        last 64 decisions
//                                                        + basis snapshot
//                                                        to the file
//     --profile[=out.json]                               roofline profile:
//                                                        per-kernel/phase
//                                                        aggregates with
//                                                        bound classes
//                                                        (launch/bandwidth/
//                                                        compute-bound), a
//                                                        ranked top-N
//                                                        table, and (with
//                                                        =file) gs-profile-
//                                                        v1 JSON plus a
//                                                        collapsed-stack
//                                                        .folded flamegraph
//                                                        next to it; exits
//                                                        1 unless kernel
//                                                        totals reconcile
//                                                        with DeviceStats
//                                                        bit-exactly. See
//                                                        OBSERVABILITY.md,
//                                                        "Profiler"
//     --telemetry[=out.json]                             sample per-
//                                                        iteration engine
//                                                        series (objective,
//                                                        residual, basis
//                                                        growth) on the
//                                                        modeled clock;
//                                                        print Prometheus
//                                                        text exposition
//                                                        (or write the
//                                                        gs-telemetry-v1
//                                                        JSON to the file).
//                                                        See
//                                                        OBSERVABILITY.md,
//                                                        "Telemetry & SLOs"
//     --serve-bench[=<requests>:<size>]                  demo the solve
//                                                        service
//                                                        (SERVICE.md): push
//                                                        a same-shape burst
//                                                        (default 16
//                                                        requests, m=32)
//                                                        through
//                                                        SolveService, show
//                                                        the dispatch plan,
//                                                        modeled
//                                                        throughput/latency
//                                                        and a warm-cache
//                                                        repeat
//
// Exit code: 0 optimal, 2 infeasible, 3 unbounded, 4 iteration limit,
// 1 usage/parse error (and replay mismatch / non-comparable diff).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "lp/lp_text.hpp"
#include "lp/mps.hpp"
#include "lp/presolve.hpp"
#include "lp/scaling.hpp"
#include "lp/standard_form.hpp"
#include "metrics/metrics.hpp"
#include "profile/profile.hpp"
#include "record/record.hpp"
#include "service/service.hpp"
#include "metrics/quantile.hpp"
#include "simplex/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_sink.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/check/check.hpp"
#include "vgpu/stats_report.hpp"

namespace {

using namespace gs;

int usage() {
  std::cerr
      << "usage: lp_cli <model.{lp,mps}> [--engine E] [--pricing P]\n"
         "              [--basis B] [--device D] [--max-iters N]\n"
         "              [--presolve] [--scale pow10|geometric] [--duals]\n"
         "              [--stats] [--trace out.json] [--check]\n"
         "              [--analyze[=out.json]]\n"
         "              [--metrics[=out.json]] [--record[=out.gsrec]]\n"
         "              [--replay=in.gsrec] [--post-mortem=out.gsrec]\n"
         "              [--profile[=out.json]] [--telemetry[=out.json]]\n"
         "       lp_cli --gen dense:<size>[:seed] [options]\n"
         "       lp_cli --diff a.gsrec b.gsrec\n"
         "       lp_cli --serve-bench[=<requests>:<size>]\n";
  return 1;
}

/// Parse "dense:<size>[:seed]", "sparse:<size>[:seed]" or "klee:<d>" into
/// a generated instance. The seed lands in `seed_out` so `--record` can
/// stamp it into the recording header.
std::optional<lp::LpProblem> parse_gen(const std::string& spec,
                                       std::uint64_t& seed_out) {
  try {
    if (spec.starts_with("dense:")) {
      const std::string rest = spec.substr(6);
      const std::size_t colon = rest.find(':');
      lp::DenseLpSpec gen;
      gen.rows = gen.cols = std::stoul(rest.substr(0, colon));
      if (colon != std::string::npos) {
        gen.seed = std::stoul(rest.substr(colon + 1));
      }
      if (gen.rows == 0) return std::nullopt;
      seed_out = gen.seed;
      return lp::random_dense_lp(gen);
    }
    if (spec.starts_with("sparse:")) {
      const std::string rest = spec.substr(7);
      const std::size_t colon = rest.find(':');
      lp::SparseLpSpec gen;
      gen.rows = std::stoul(rest.substr(0, colon));
      gen.cols = 2 * gen.rows;
      gen.density = 0.02;
      if (colon != std::string::npos) {
        gen.seed = std::stoul(rest.substr(colon + 1));
      }
      if (gen.rows == 0) return std::nullopt;
      seed_out = gen.seed;
      return lp::random_sparse_lp(gen);
    }
    if (spec.starts_with("klee:")) {
      const std::size_t d = std::stoul(spec.substr(5));
      if (d == 0 || d > 24) return std::nullopt;
      seed_out = d;
      return lp::klee_minty(d);
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return std::nullopt;
}

/// Map a recording header's engine string back to an Engine (for --replay
/// without an explicit --engine).
std::optional<simplex::Engine> engine_from_header(const std::string& name) {
  if (name == "host-revised") return simplex::Engine::kHostRevised;
  if (name == "dual-revised") return simplex::Engine::kDualRevised;
  if (name == "tableau") return simplex::Engine::kTableau;
  if (name == "device-revised<double>") return simplex::Engine::kDeviceRevised;
  if (name == "device-revised<float>") {
    return simplex::Engine::kDeviceRevisedFloat;
  }
  return std::nullopt;
}

int status_code(simplex::SolveStatus s) {
  switch (s) {
    case simplex::SolveStatus::kOptimal: return 0;
    case simplex::SolveStatus::kInfeasible: return 2;
    case simplex::SolveStatus::kUnbounded: return 3;
    case simplex::SolveStatus::kIterationLimit: return 4;
    case simplex::SolveStatus::kNumericalTrouble: return 5;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string path;
  std::map<std::string, std::string> flags;
  bool presolve_on = false, duals_on = false, stats_on = false;
  bool ranging_on = false, check_on = false;
  bool analyze_on = false;
  std::string analyze_path;
  bool metrics_on = false;
  std::string metrics_path;
  bool record_on = false;
  std::string record_path = "lp_cli.gsrec";
  bool profile_on = false;
  std::string profile_path;
  bool telemetry_on = false;
  std::string telemetry_path;
  std::string replay_path, post_mortem_path, diff_a, diff_b;
  bool serve_bench = false;
  std::string serve_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--presolve") {
      presolve_on = true;
    } else if (arg == "--duals") {
      duals_on = true;
    } else if (arg == "--ranging") {
      ranging_on = true;
    } else if (arg == "--stats") {
      stats_on = true;
    } else if (arg == "--check") {
      check_on = true;
    } else if (arg == "--analyze") {
      // Valueless form (summary to stdout); must be matched before the
      // generic "--flag value" branch, which would eat the next argument.
      analyze_on = true;
    } else if (arg.starts_with("--analyze=")) {
      analyze_on = true;
      analyze_path = arg.substr(std::string("--analyze=").size());
      if (analyze_path.empty()) return usage();
    } else if (arg == "--metrics") {
      // Valueless form (prints to stdout); must be matched before the
      // generic "--flag value" branch, which would eat the next argument.
      metrics_on = true;
    } else if (arg.starts_with("--metrics=")) {
      metrics_on = true;
      metrics_path = arg.substr(std::string("--metrics=").size());
      if (metrics_path.empty()) return usage();
    } else if (arg == "--profile") {
      // Valueless form (table to stdout); same trap as --metrics.
      profile_on = true;
    } else if (arg.starts_with("--profile=")) {
      profile_on = true;
      profile_path = arg.substr(std::string("--profile=").size());
      if (profile_path.empty()) return usage();
    } else if (arg == "--telemetry") {
      // Valueless form (Prometheus text to stdout); same trap as --metrics.
      telemetry_on = true;
    } else if (arg.starts_with("--telemetry=")) {
      telemetry_on = true;
      telemetry_path = arg.substr(std::string("--telemetry=").size());
      if (telemetry_path.empty()) return usage();
    } else if (arg == "--record") {
      // Valueless form (default output file); same trap as --metrics.
      record_on = true;
    } else if (arg.starts_with("--record=")) {
      record_on = true;
      record_path = arg.substr(std::string("--record=").size());
      if (record_path.empty()) return usage();
    } else if (arg.starts_with("--replay=")) {
      replay_path = arg.substr(std::string("--replay=").size());
      if (replay_path.empty()) return usage();
    } else if (arg.starts_with("--post-mortem=")) {
      post_mortem_path = arg.substr(std::string("--post-mortem=").size());
      if (post_mortem_path.empty()) return usage();
    } else if (arg == "--serve-bench") {
      serve_bench = true;
    } else if (arg.starts_with("--serve-bench=")) {
      serve_bench = true;
      serve_spec = arg.substr(std::string("--serve-bench=").size());
      if (serve_spec.empty()) return usage();
    } else if (arg == "--diff") {
      // Offline mode: takes two recording operands, no model.
      if (i + 2 >= argc) return usage();
      diff_a = argv[++i];
      diff_b = argv[++i];
    } else if (arg.starts_with("--")) {
      if (i + 1 >= argc) return usage();
      flags[arg.substr(2)] = argv[++i];
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  // ---- Offline recording diff: no model load, no solve. ----
  if (!diff_a.empty()) {
    try {
      const record::Recording a = record::Recording::read_file(diff_a);
      const record::Recording b = record::Recording::read_file(diff_b);
      std::cout << "diff " << diff_a << " (" << a.header.engine << ", "
                << a.header.real_bits << "-bit, " << a.header.status
                << ") vs " << diff_b << " (" << b.header.engine << ", "
                << b.header.real_bits << "-bit, " << b.header.status << ")\n";
      const record::DiffResult dr = record::diff(a, b);
      std::cout << dr.describe() << "\n";
      return dr.comparable ? 0 : 1;
    } catch (const gs::Error& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  // ---- Service demo: a same-shape burst through SolveService. ----
  if (serve_bench) {
    std::size_t requests = 16, size = 32;
    if (!serve_spec.empty()) {
      const std::size_t colon = serve_spec.find(':');
      try {
        requests = std::stoul(serve_spec.substr(0, colon));
        if (colon != std::string::npos) {
          size = std::stoul(serve_spec.substr(colon + 1));
        }
      } catch (const std::exception&) {
        return usage();
      }
      if (requests == 0 || size < 2) return usage();
    }

    std::vector<lp::LpProblem> burst;
    burst.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      burst.push_back(lp::random_dense_lp(
          {.rows = size, .cols = size, .seed = 700 + i}));
    }
    // One-request-at-a-time device baseline: what the burst would cost
    // without the service's scheduler (the paper's small-LP weakness).
    double baseline_seconds = 0.0;
    for (const lp::LpProblem& p : burst) {
      baseline_seconds +=
          simplex::solve(p, simplex::Engine::kDeviceRevised)
              .stats.sim_seconds;
    }

    metrics::MetricsRegistry reg;
    service::SolveService svc({}, &reg);
    std::vector<std::uint64_t> ids;
    std::size_t accepted = 0;
    for (const lp::LpProblem& p : burst) {
      service::SolveRequest req;
      req.problem = p;
      const service::Ticket t = svc.submit(std::move(req));
      if (t.accepted) {
        ++accepted;
        ids.push_back(t.id);
      }
    }
    svc.drain();

    std::vector<double> latencies;
    double makespan = 0.0;
    bool all_optimal = true;
    for (const std::uint64_t id : ids) {
      const service::ServiceResult& r = svc.result(id);
      all_optimal = all_optimal && r.solve.optimal();
      latencies.push_back(r.latency_seconds);
      makespan = std::max(makespan, r.latency_seconds);
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = metrics::quantile_sorted(latencies, 0.50);
    const double p99 = metrics::quantile_sorted(latencies, 0.99);

    std::cout << "serve-bench: " << requests << " same-shape requests, "
              << "dense m=" << size << " (crossover_m="
              << svc.policy().crossover_m << ", batch_target="
              << svc.policy().batch_target << ")\n"
              << "  accepted " << accepted << "/" << requests
              << ", dispatched: "
              << std::size_t(reg.counter("service.dispatch.batch").value())
              << " batch / "
              << std::size_t(reg.counter("service.dispatch.host").value())
              << " host / "
              << std::size_t(reg.counter("service.dispatch.device").value())
              << " device, "
              << std::size_t(reg.counter("service.batch.rounds").value())
              << " batch round(s)\n";
    std::cout << "  modeled: service " << makespan * 1e3
              << " ms vs sequential device " << baseline_seconds * 1e3
              << " ms  ->  " << baseline_seconds / makespan << "x\n"
              << "  throughput " << double(accepted) / makespan
              << " req/s (modeled), p50 " << p50 * 1e3 << " ms, p99 "
              << p99 * 1e3 << " ms\n";

    // Warm cache: resubmitting the first request is an exact-digest hit
    // served from the memoized result, bit-identical to the cold solve.
    service::SolveRequest repeat;
    repeat.problem = burst.front();
    const service::Ticket rt = svc.submit(std::move(repeat));
    svc.drain();
    const service::ServiceResult& warm = svc.result(rt.id);
    const service::ServiceResult& cold = svc.result(ids.front());
    const bool identical = warm.solve.objective == cold.solve.objective &&
                           warm.solve.x == cold.solve.x;
    std::cout << "  warm repeat: route " << service::to_string(warm.route)
              << ", bit-identical to cold solve: "
              << (identical ? "yes" : "NO") << "\n";
    return (all_optimal && warm.route == service::Route::kWarmHit &&
            identical)
               ? 0
               : 1;
  }

  const bool generated = flags.contains("gen");
  if (path.empty() && !generated) return usage();

  try {
    // ---- Load (from file, or generate a dense random instance). ----
    lp::LpProblem problem;
    std::uint64_t gen_seed = 0;
    if (generated) {
      auto gen = parse_gen(flags["gen"], gen_seed);
      if (!gen.has_value()) return usage();
      problem = std::move(*gen);
      std::cout << "generated " << flags["gen"] << ": "
                << problem.num_variables() << " variables, "
                << problem.num_constraints() << " constraints\n";
    } else {
      const bool is_mps = path.ends_with(".mps") || path.ends_with(".MPS");
      problem = is_mps ? lp::read_mps_file(path) : lp::read_lp_file(path);
      std::cout << "loaded " << path << ": " << problem.num_variables()
                << " variables, " << problem.num_constraints()
                << " constraints, " << problem.num_nonzeros() << " nonzeros\n";
    }

    // ---- Presolve. ----
    lp::PresolveResult pre;
    if (presolve_on) {
      pre = lp::presolve(problem);
      std::cout << "presolve: " << to_string(pre.status) << ", removed "
                << pre.rows_removed << " rows / " << pre.vars_removed
                << " vars in " << pre.passes << " passes\n";
      switch (pre.status) {
        case lp::PresolveStatus::kInfeasible:
          std::cout << "status: infeasible (by presolve)\n";
          return 2;
        case lp::PresolveStatus::kUnbounded:
          std::cout << "status: unbounded (by presolve)\n";
          return 3;
        case lp::PresolveStatus::kSolved:
          std::cout << "status: optimal (solved by presolve)\nobjective: "
                    << pre.objective_offset << "\n";
          return 0;
        case lp::PresolveStatus::kReduced:
          problem = pre.reduced;
          break;
      }
    }

    // ---- Options. ----
    simplex::SolverOptions options;
    trace::ChromeTraceSink trace_sink;
    const bool trace_on = flags.contains("trace");
    if (trace_on) options.trace_sink = &trace_sink;
    vgpu::check::Checker checker;
    if (check_on) options.checker = &checker;
    vgpu::analyze::CaptureLog capture;
    if (analyze_on) options.analyzer = &capture;
    metrics::MetricsRegistry registry;
    if (metrics_on) options.metrics = &registry;
    profile::Profiler profiler;
    if (profile_on) options.profiler = &profiler;
    telemetry::Telemetry tele;
    if (telemetry_on) options.telemetry = &tele;
    record::Recorder recorder;
    const bool replay_on = !replay_path.empty();
    if (replay_on) {
      recorder =
          record::Recorder::replaying(record::Recording::read_file(replay_path));
      std::cout << "replay: loaded " << replay_path << " ("
                << recorder.reference().header.engine << ", "
                << recorder.reference().records.size() << " decisions)\n";
    }
    if (record_on || replay_on || !post_mortem_path.empty()) {
      options.recorder = &recorder;
      if (generated) recorder.set_seed(gen_seed);
    }
    if (!post_mortem_path.empty()) {
      recorder.set_post_mortem(post_mortem_path, 64);
      // Health warnings feed the dump trigger; attach the registry even
      // when --metrics was not requested (nothing is printed for it).
      if (options.metrics == nullptr) options.metrics = &registry;
    }
    if (auto it = flags.find("max-iters"); it != flags.end()) {
      options.max_iterations = static_cast<std::size_t>(std::stoul(it->second));
    }
    if (auto it = flags.find("pricing"); it != flags.end()) {
      const std::string& p = it->second;
      options.pricing = p == "dantzig" ? simplex::PricingRule::kDantzig
                        : p == "bland" ? simplex::PricingRule::kBland
                        : p == "devex" ? simplex::PricingRule::kDevex
                                       : simplex::PricingRule::kHybrid;
    }
    if (auto it = flags.find("basis"); it != flags.end()) {
      const std::string& b = it->second;
      if (b != "explicit" && b != "product-form") {
        std::cerr << "error: unknown --basis '" << b
                  << "' (explicit|product-form)\n";
        return 1;
      }
      options.basis = b == "product-form"
                          ? simplex::BasisScheme::kProductForm
                          : simplex::BasisScheme::kExplicitInverse;
    }
    vgpu::MachineModel device_model = vgpu::gtx280_model();
    if (auto it = flags.find("device"); it != flags.end()) {
      if (it->second == "gtx570") device_model = vgpu::gtx570_model();
      if (it->second == "titan") device_model = vgpu::titan_model();
    }
    options.ranging = ranging_on;
    simplex::Engine engine =
        ranging_on ? simplex::Engine::kHostRevised
                   : simplex::Engine::kDeviceRevised;
    if (auto it = flags.find("engine"); it != flags.end()) {
      const std::string& e = it->second;
      engine = e == "host"           ? simplex::Engine::kHostRevised
               : e == "dual"         ? simplex::Engine::kDualRevised
               : e == "tableau"      ? simplex::Engine::kTableau
               : e == "sparse"       ? simplex::Engine::kSparseRevised
               : e == "device-float" ? simplex::Engine::kDeviceRevisedFloat
                                     : simplex::Engine::kDeviceRevised;
    } else if (replay_on) {
      // No explicit engine: rerun on the engine the recording came from.
      const auto mapped =
          engine_from_header(recorder.reference().header.engine);
      if (!mapped.has_value()) {
        std::cerr << "error: cannot map recorded engine '"
                  << recorder.reference().header.engine
                  << "' (pass --engine explicitly)\n";
        return 1;
      }
      engine = *mapped;
    }

    // ---- Scaling (solve_standard path) or plain solve. ----
    simplex::SolveResult result;
    if (auto it = flags.find("scale"); it != flags.end()) {
      auto sf = lp::to_standard_form(problem);
      const lp::ScalingInfo info = it->second == "geometric"
                                       ? lp::scale_geometric(sf)
                                       : lp::scale_pow10(sf);
      vgpu::Device device(device_model);
      simplex::DeviceRevisedSimplex<double> solver(device, options);
      result = solver.solve_standard(sf);
      if (result.optimal()) {
        result.objective = info.unscale_objective(result.objective);
        // x was recovered in the scaled space; duals are not unscaled here.
        result.y.clear();
      }
    } else {
      result = simplex::solve(problem, engine, options, device_model);
    }

    // ---- Report. ----
    std::cout << "status: " << to_string(result.status) << "\n"
              << "iterations: " << result.stats.iterations << " (phase 1: "
              << result.stats.phase1_iterations << ")\n"
              << "modeled time: " << result.stats.sim_seconds * 1e3
              << " ms, wall: " << result.stats.wall_seconds * 1e3 << " ms\n";
    if (result.optimal()) {
      std::cout << "objective: ";
      if (presolve_on) {
        std::cout << pre.recover_objective(result.objective) << "\n";
      } else {
        std::cout << result.objective << "\n";
      }
      std::vector<double> x = result.x;
      if (presolve_on) x = pre.recover(x);
      std::cout << "solution (nonzeros):\n";
      for (std::size_t j = 0; j < x.size(); ++j) {
        if (std::abs(x[j]) > 1e-9) {
          std::cout << "  x[" << j << "] = " << x[j] << "\n";
        }
      }
      if (duals_on && !result.y.empty()) {
        std::cout << "duals:\n";
        for (std::size_t i = 0; i < result.y.size(); ++i) {
          if (std::abs(result.y[i]) > 1e-9) {
            std::cout << "  y[" << i << "] = " << result.y[i] << "\n";
          }
        }
      }
      if (ranging_on && result.ranging.has_value()) {
        const auto& rg = *result.ranging;
        std::cout << "rhs ranges (basis stays optimal):\n";
        for (std::size_t i = 0; i < rg.rhs_lower.size(); ++i) {
          std::cout << "  row " << i << ": [" << rg.rhs_lower[i] << ", "
                    << rg.rhs_upper[i] << "]\n";
        }
        std::cout << "cost ranges (solution stays optimal):\n";
        for (std::size_t j = 0; j < rg.cost_lower.size(); ++j) {
          std::cout << "  var " << j << ": [" << rg.cost_lower[j] << ", "
                    << rg.cost_upper[j] << "]\n";
        }
      }
    }
    if (stats_on) {
      std::cout << "kernel breakdown:\n";
      vgpu::print_kernel_breakdown(std::cout, result.stats.device_stats);
    }
    if (trace_on) {
      trace_sink.write_file(flags["trace"]);
      // Reconcile the trace against the end-of-solve aggregates: the
      // kernel/transfer slices must tile the simulated clock exactly
      // (OBSERVABILITY.md documents this invariant; it is also tested).
      const auto& ds = result.stats.device_stats;
      const double kernel_delta =
          std::abs(trace_sink.category_seconds("kernel") - ds.kernel_seconds);
      const double transfer_delta = std::abs(
          trace_sink.category_seconds("transfer") - ds.transfer_seconds());
      std::cout << "trace: wrote " << trace_sink.events().size()
                << " events to " << flags["trace"] << "\n"
                << "trace reconciliation vs DeviceStats: |kernel| = "
                << kernel_delta << " s, |transfer| = " << transfer_delta
                << " s\n";
      if (kernel_delta > 1e-9 || transfer_delta > 1e-9) {
        std::cerr << "error: trace does not reconcile with DeviceStats\n";
        return 1;
      }
    }
    if (profile_on) {
      const profile::ProfileReport rep = profiler.report();
      // Bit-exact reconciliation: the profiler folds the same slice
      // durations, in the same emission order, as the engine folds into
      // DeviceStats — so `==` on doubles, not a tolerance
      // (OBSERVABILITY.md, "Profiler").
      const auto& ds = result.stats.device_stats;
      bool exact = rep.kernel_seconds() == ds.kernel_seconds;
      std::size_t matched = 0;
      for (const auto& [name, krec] : ds.per_kernel) {
        const profile::KernelProfile* kp = rep.find_kernel(name);
        if (kp == nullptr || kp->seconds != krec.sim_seconds ||
            kp->calls != krec.launches) {
          exact = false;
          break;
        }
        ++matched;
      }
      if (!exact || matched != rep.kernels.size()) {
        std::cerr << "error: profile does not reconcile bit-exactly with "
                     "DeviceStats (total "
                  << rep.kernel_seconds() << " vs " << ds.kernel_seconds
                  << " s)\n";
        return 1;
      }
      std::cout << "profile: reconciled bit-exactly with DeviceStats ("
                << rep.kernels.size() << " kernels, "
                << rep.kernel_seconds() * 1e3 << " ms modeled, "
                << "launch-bound fraction " << rep.launch_bound_fraction
                << ")\n"
                << rep.table(10);
      if (!profile_path.empty()) {
        std::ofstream out(profile_path);
        out << rep.to_json();
        const std::string folded = profile_path + ".folded";
        std::ofstream fg(folded);
        fg << rep.flamegraph_text();
        std::cout << "profile: wrote " << profile_path
                  << " (gs-profile-v1) and " << folded
                  << " (collapsed stacks)\n";
      }
    }
    if (telemetry_on) {
      if (telemetry_path.empty()) {
        std::cout << tele.to_prometheus();
      } else {
        tele.write_file(telemetry_path);
        std::cout << "telemetry: wrote " << tele.series().size()
                  << " series to " << telemetry_path << "\n";
      }
    }
    // Both reports print before either finding exits 1.
    bool findings = false;
    if (check_on) {
      std::cout << "checked mode: " << checker.launches_checked()
                << " launches analysed (CHECKING.md)\n";
      if (!checker.clean()) {
        std::cerr << "error: kernel-safety findings\n" << checker.report();
        findings = true;
      }
    }
    if (analyze_on) {
      vgpu::analyze::Report rep = vgpu::analyze::analyze(capture);
      std::cout << "analyze: " << capture.launches_captured()
                << " launches captured (CHECKING.md \"Static analysis\")\n"
                << rep.summary();
      if (!analyze_path.empty()) {
        std::ofstream out(analyze_path);
        out << rep.to_json();
        std::cout << "analyze: wrote report to " << analyze_path << "\n";
      }
      if (!rep.gate_clean()) {
        std::cerr << "error: launch-graph findings (hazards/uninit/cost "
                     "drift, or dead transfers over 1% of traffic)\n";
        findings = true;
      }
    }
    if (findings) return 1;
    if (metrics_on) {
      const metrics::MetricsSnapshot snap = registry.snapshot();
      if (snap.warnings_total > 0) {
        std::cout << "health warnings: " << snap.warnings_total << " (";
        for (std::size_t w = 0; w < snap.warnings.size() && w < 3; ++w) {
          std::cout << (w > 0 ? ", " : "") << snap.warnings[w].kind;
        }
        std::cout << (snap.warnings.size() > 3 ? ", ...)" : ")") << "\n";
      }
      if (metrics_path.empty()) {
        std::cout << snap.to_json();
      } else {
        snap.write_file(metrics_path);
        std::cout << "metrics: wrote " << snap.counters.size()
                  << " counters, " << snap.histograms.size()
                  << " histograms to " << metrics_path << "\n";
      }
    }
    if (record_on && !replay_on) {
      recorder.recording().write_file(record_path);
      std::size_t pivots = 0;
      for (const auto& r : recorder.recording().records) {
        if (r.kind == record::RecordKind::kPivot) ++pivots;
      }
      std::cout << "record: wrote " << recorder.recording().records.size()
                << " decisions (" << pivots << " pivots) to " << record_path
                << "\n";
    }
    if (!post_mortem_path.empty()) {
      if (recorder.dumped_post_mortem()) {
        std::cout << "post-mortem: dumped last-decision window to "
                  << post_mortem_path << "\n";
      } else {
        std::cout << "post-mortem: clean exit, nothing dumped\n";
      }
    }
    if (replay_on) {
      if (recorder.mismatched()) {
        std::cerr << "error: " << recorder.mismatch().describe() << "\n";
        return 1;
      }
      std::cout << "replay: verified " << recorder.verified()
                << " decisions, no mismatches\n";
    }
    return status_code(result.status);
  } catch (const gs::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
