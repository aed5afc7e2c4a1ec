// CI gate: every shipped engine's kernel-launch stream must be clean under
// the static analyzer (src/vgpu/analyze) — zero dataflow hazards, zero
// uninitialized device reads, zero cost-declaration findings, and dead
// (redundant) transfer bytes at most 1% of captured PCIe traffic.
//
// One CaptureLog per run, attached via SolverOptions::analyzer:
//   * device-revised double, fused and unfused iteration paths
//   * device-revised float, fused and unfused
//   * sparse-revised (CSR) double
//   * batch-revised (K simultaneous lanes)
//   * a service-style batch round, constructed exactly as
//     service.cpp::run_job builds one (fresh Device + BatchRevisedSimplex
//     over the round's problems)
//
// `--tiny` shrinks the instances for ctest tier-1 coverage; the analysis
// itself is size-independent (the detectors walk the captured node list),
// so the tiny gate exercises the same code paths as the full one.
//
// Exit 0 when every run is gate-clean; exit 1 with the offending report
// summaries otherwise.

#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "lp/generators.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/solver.hpp"
#include "vgpu/analyze/analyze.hpp"

namespace {

struct RunOutcome {
  std::string name;
  gs::vgpu::analyze::Report report;
  std::size_t launches = 0;
};

/// Budget shared with ci.sh: dead transfers may waste at most 1% of the
/// captured PCIe traffic.
constexpr double kDeadTransferBudget = 0.01;

void print_row(const RunOutcome& run) {
  const auto& r = run.report;
  std::cout << (r.gate_clean(kDeadTransferBudget) ? "  ok   " : "  FAIL ")
            << run.name << ": " << run.launches << " launches, "
            << r.hazards.size() << " hazards, " << r.uninit_reads.size()
            << " uninit, " << r.cost_findings.size() << " cost, "
            << static_cast<long long>(r.redundant_h2d_bytes +
                                      r.redundant_d2h_bytes)
            << "/" << static_cast<long long>(r.h2d_bytes + r.d2h_bytes)
            << " dead transfer bytes, peak live "
            << static_cast<long long>(r.peak_live_bytes) << " B\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gs;
  const bool tiny = bench::has_flag(argc, argv, "--tiny");
  const std::size_t m = tiny ? 32 : 96;
  const std::size_t batch_k = tiny ? 4 : 16;

  bench::print_header(
      "analyze_gate: static dataflow gate over every engine's launch stream",
      "0 hazards / 0 uninit reads / 0 cost findings / <=1% dead transfer "
      "bytes on all engines");

  const vgpu::MachineModel model = vgpu::gtx280_model();
  const lp::LpProblem dense =
      lp::random_dense_lp({.rows = m, .cols = m, .seed = 1});
  const lp::LpProblem sparse = lp::random_sparse_lp(
      {.rows = m, .cols = 4 * m, .density = 0.05, .seed = 1});

  std::vector<RunOutcome> runs;

  // Device-revised double/float, fused and unfused iteration paths. The
  // unfused path issues more launches and more scalar traffic, so it is
  // the likelier place for a dead store or redundant upload to hide.
  const auto run_device = [&](const std::string& name, bool fused,
                              bool use_float) {
    vgpu::analyze::CaptureLog capture;
    simplex::SolverOptions opt;
    opt.fused_iteration = fused;
    opt.analyzer = &capture;
    if (use_float) {
      (void)bench::solve_device_float(dense, model, opt);
    } else {
      (void)bench::solve_device(dense, model, opt);
    }
    runs.push_back({name, vgpu::analyze::analyze(capture),
                    capture.launches_captured()});
  };
  run_device("device-revised<double> fused", true, false);
  run_device("device-revised<double> unfused", false, false);
  run_device("device-revised<float> fused", true, true);
  run_device("device-revised<float> unfused", false, true);

  // Sparse CSR engine (Ext. C) through the public solve() dispatch.
  {
    vgpu::analyze::CaptureLog capture;
    simplex::SolverOptions opt;
    opt.analyzer = &capture;
    (void)simplex::solve(sparse, simplex::Engine::kSparseRevised, opt, model);
    runs.push_back({"sparse-revised<double>", vgpu::analyze::analyze(capture),
                    capture.launches_captured()});
  }

  // Same engine under the product-form basis: the eta-file kernel
  // variants (sparse_ftran / sparse_btran / eta_ftran_chain /
  // eta_btran_chain / ratio_select / pivot_beta / make_eta) must be as
  // hazard-, uninit- and cost-clean as the explicit-inverse stream
  // (DESIGN.md "Basis oracles").
  {
    vgpu::analyze::CaptureLog capture;
    simplex::SolverOptions opt;
    opt.analyzer = &capture;
    opt.basis = simplex::BasisScheme::kProductForm;
    (void)simplex::solve(sparse, simplex::Engine::kSparseRevised, opt, model);
    runs.push_back({"sparse-revised<double> product-form",
                    vgpu::analyze::analyze(capture),
                    capture.launches_captured()});
  }

  // Batch engine and a service-style round: both go through
  // BatchRevisedSimplex over a fresh Device, exactly as
  // service.cpp::run_job dispatches a batchable round.
  const auto run_batch = [&](const std::string& name, std::uint64_t seed0) {
    std::vector<lp::LpProblem> round;
    round.reserve(batch_k);
    for (std::size_t i = 0; i < batch_k; ++i) {
      round.push_back(
          lp::random_dense_lp({.rows = m, .cols = m, .seed = seed0 + i}));
    }
    vgpu::analyze::CaptureLog capture;
    simplex::SolverOptions opt;
    opt.analyzer = &capture;
    vgpu::Device dev(model);
    simplex::BatchRevisedSimplex<double> engine(dev, opt);
    (void)engine.solve(round);
    runs.push_back({name, vgpu::analyze::analyze(capture),
                    capture.launches_captured()});
  };
  run_batch("batch-revised<double> K=" + std::to_string(batch_k), 1);
  run_batch("service batch round K=" + std::to_string(batch_k), 101);

  bool all_clean = true;
  for (const auto& run : runs) {
    print_row(run);
    if (!run.report.gate_clean(kDeadTransferBudget)) {
      all_clean = false;
      std::cout << run.report.summary() << "\n";
    }
  }
  if (!all_clean) {
    std::cerr << "analyze_gate: FAIL — at least one engine stream is not "
                 "hazard/dead-transfer clean\n";
    return 1;
  }
  std::cout << "analyze_gate: all " << runs.size()
            << " engine streams gate-clean (dead-transfer budget "
            << kDeadTransferBudget * 100.0 << "%)\n";
  return 0;
}
