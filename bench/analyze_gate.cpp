// CI gate: every shipped engine's kernel-launch stream must be clean under
// both reports over the device's access stream — the static analyzer
// (src/vgpu/analyze: zero dataflow hazards, zero uninitialized device
// reads, zero cost-declaration findings, and dead (redundant) transfer
// bytes at most 1% of captured PCIe traffic) and the kernel-safety
// checker (src/vgpu/check: no race, out-of-bounds, NaN or cost finding).
//
// One CaptureLog and one Checker per run, attached via
// SolverOptions::analyzer and SolverOptions::checker:
//   * device-revised double and float, explicit inverse
//   * device-revised double, product form (the dense layout's sparse LU
//     and eta chains)
//   * sparse-revised (CSR) double, explicit inverse and product form
//   * batch-revised (K simultaneous lanes)
//   * a service-style batch round, constructed exactly as
//     service.cpp::run_job builds one (fresh Device + BatchRevisedSimplex
//     over the round's problems)
//
// `--tiny` shrinks the instances for ctest tier-1 coverage; the analysis
// itself is size-independent (the detectors walk the captured node list),
// so the tiny gate exercises the same code paths as the full one.
//
// Exit 0 when every run is clean under both; exit 1 with the offending
// reports otherwise.

#include <cstddef>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "lp/generators.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/solver.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/check/check.hpp"

namespace {

struct RunOutcome {
  std::string name;
  gs::vgpu::analyze::Report report;
  std::size_t launches = 0;
  std::size_t checker_findings = 0;
  std::string checker_report;

  [[nodiscard]] bool clean(double dead_transfer_budget) const {
    return report.gate_clean(dead_transfer_budget) && checker_findings == 0;
  }
};

/// The observers of one run: the outcome reads both reports.
struct Observed {
  gs::vgpu::check::Checker checker;
  gs::vgpu::analyze::CaptureLog capture;

  [[nodiscard]] gs::simplex::SolverOptions options() {
    gs::simplex::SolverOptions opt;
    opt.analyzer = &capture;
    opt.checker = &checker;
    return opt;
  }
  [[nodiscard]] RunOutcome outcome(std::string name) {
    return {std::move(name), gs::vgpu::analyze::analyze(capture),
            capture.launches_captured(), checker.findings().size(),
            checker.report()};
  }
};

/// Budget shared with ci.sh: dead transfers may waste at most 1% of the
/// captured PCIe traffic.
constexpr double kDeadTransferBudget = 0.01;

void print_row(const RunOutcome& run) {
  const auto& r = run.report;
  std::cout << (run.clean(kDeadTransferBudget) ? "  ok   " : "  FAIL ")
            << run.name << ": " << run.launches << " launches, "
            << r.hazards.size() << " hazards, " << r.uninit_reads.size()
            << " uninit, " << r.cost_findings.size() << " cost, "
            << run.checker_findings << " checker findings, "
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
      "analyze_gate: analyzer and checker gate over every engine's launch "
      "stream",
      "0 hazards / 0 uninit reads / 0 cost findings / <=1% dead transfer "
      "bytes / 0 checker findings on all engines");

  const vgpu::MachineModel model = vgpu::gtx280_model();
  const lp::LpProblem dense =
      lp::random_dense_lp({.rows = m, .cols = m, .seed = 1});
  const lp::LpProblem sparse = lp::random_sparse_lp(
      {.rows = m, .cols = 4 * m, .density = 0.05, .seed = 1});

  std::vector<RunOutcome> runs;

  // Device-revised on the dense layout: double and float under the
  // explicit inverse, and double under the product form, whose sparse LU
  // and eta chains run on the dense A^T as on the CSR one.
  const auto run_device = [&](const std::string& name,
                              simplex::BasisScheme basis, bool use_float) {
    Observed obs;
    simplex::SolverOptions opt = obs.options();
    opt.basis = basis;
    if (use_float) {
      (void)bench::solve_device_float(dense, model, opt);
    } else {
      (void)bench::solve_device(dense, model, opt);
    }
    runs.push_back(obs.outcome(name));
  };
  run_device("device-revised<double>",
             simplex::BasisScheme::kExplicitInverse, false);
  run_device("device-revised<float>", simplex::BasisScheme::kExplicitInverse,
             true);
  run_device("device-revised<double> product-form",
             simplex::BasisScheme::kProductForm, false);

  // Sparse CSR engine (Ext. C) through the public solve() dispatch.
  {
    Observed obs;
    (void)simplex::solve(sparse, simplex::Engine::kSparseRevised,
                         obs.options(), model);
    runs.push_back(obs.outcome("sparse-revised<double>"));
  }

  // Same engine under the product-form basis: the sparse-LU and eta-file
  // kernel variants (sparse_refactor / eta_ftran_chain with its ratio
  // test / eta_btran_chain / pivot_beta / make_eta) must be as hazard-,
  // uninit- and cost-clean as the explicit-inverse stream (DESIGN.md
  // "Basis oracles").
  {
    Observed obs;
    simplex::SolverOptions opt = obs.options();
    opt.basis = simplex::BasisScheme::kProductForm;
    (void)simplex::solve(sparse, simplex::Engine::kSparseRevised, opt, model);
    runs.push_back(obs.outcome("sparse-revised<double> product-form"));
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
    Observed obs;
    vgpu::Device dev(model);
    simplex::BatchRevisedSimplex<double> engine(dev, obs.options());
    (void)engine.solve(round);
    runs.push_back(obs.outcome(name));
  };
  run_batch("batch-revised<double> K=" + std::to_string(batch_k), 1);
  run_batch("service batch round K=" + std::to_string(batch_k), 101);

  bool all_clean = true;
  for (const auto& run : runs) {
    print_row(run);
    if (!run.clean(kDeadTransferBudget)) {
      all_clean = false;
      std::cout << run.report.summary() << run.checker_report << "\n";
    }
  }
  if (!all_clean) {
    std::cerr << "analyze_gate: FAIL — at least one engine stream is not "
                 "clean under the analyzer and the checker\n";
    return 1;
  }
  std::cout << "analyze_gate: all " << runs.size()
            << " engine streams clean under the analyzer (dead-transfer "
               "budget "
            << kDeadTransferBudget * 100.0 << "%) and the checker\n";
  return 0;
}
