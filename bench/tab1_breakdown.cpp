// Tab. 1 — per-iteration operation breakdown on one large instance.
//
// Runs a capped number of iterations at m = n = 1536 and reports where the
// modeled device time goes. Expected shape: the three wide kernels of the
// device loop -- price_select (pricing sweep + each block's entering
// candidate), ftran_ratio (entering combine + FTRAN + ratio test + each
// block's leaving candidate) and pivot_apply (the B^-1 update plus the
// next BTRAN) -- carry >80% of the time, with no selection or combine
// launch beside them; per-iteration PCIe traffic is one scalar-sized
// descriptor (latency-bound, visible but small).
//
// Flags:
//   --quick       smaller instance (m = n = 256) for smoke runs
//   --per-iter    additionally reconstruct a per-iteration operation
//                 breakdown from the trace layer (OBSERVABILITY.md): one
//                 row per iteration with the modeled time and share of
//                 each algorithm phase, in the stable bench::kOpColumns
//                 order (price / ftran / ratio / update / refactor) that
//                 bench_json reuses
//   --trace FILE  dump the solve as Chrome trace JSON to FILE
#include "bench/common.hpp"
#include "bench/per_iter.hpp"
#include "trace/chrome_sink.hpp"
#include "vgpu/stats_report.hpp"

namespace {

using namespace gs;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, per_iter = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--per-iter") {
      per_iter = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }
  const std::size_t size = quick ? 256 : 1536;
  const std::size_t iteration_cap = 60;
  bench::print_header(
      "Tab.1: per-kernel time breakdown (m=n=" + std::to_string(size) +
          ", first " + std::to_string(iteration_cap) + " iterations)",
      "price_select + ftran_ratio + pivot_apply dominate (>80%); "
      "transfers are latency-bound scalars");

  const auto problem =
      lp::random_dense_lp({.rows = size, .cols = size, .seed = 3});
  simplex::SolverOptions opt;
  opt.max_iterations = iteration_cap;
  trace::ChromeTraceSink sink;
  const bool tracing = per_iter || !trace_path.empty();
  if (tracing) opt.trace_sink = &sink;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<double> solver(dev, opt);
  const auto result = solver.solve(problem);

  std::cout << "status after cap: " << to_string(result.status)
            << ", iterations: " << result.stats.iterations << "\n";
  vgpu::print_kernel_breakdown(std::cout, result.stats.device_stats);

  // Per-iteration summary row (the paper's table normalizes per iteration).
  const auto& ds = result.stats.device_stats;
  const double iters = static_cast<double>(
      std::max<std::size_t>(result.stats.iterations, 1));
  Table table({"quantity", "per iteration"});
  table.new_row().add("modeled device time [ms]").add(
      ds.sim_seconds() / iters * 1e3);
  table.new_row().add("kernel launches").add(
      static_cast<double>(ds.kernel_launches) / iters);
  table.new_row().add("PCIe bytes (h2d+d2h, steady-state)").add(
      static_cast<double>(ds.d2h_bytes) / iters);
  table.new_row().add("GFLOP").add(ds.total_flops / iters * 1e-9);
  table.print(std::cout);
  bench::write_csv("tab1_breakdown", table);

  if (per_iter) {
    // The paper's table is an aggregate; this mode shows its evolution —
    // how the operation mix changes iteration by iteration (the view
    // Huangfu & Hall use to diagnose revised-simplex implementations).
    const auto rows = bench::per_iteration_rows(sink.events());
    std::vector<std::string> cols{"iteration"};
    for (const std::string_view op : bench::kOpColumns) {
      cols.push_back(std::string(op) + " [ms]");
    }
    cols.emplace_back("total [ms]");
    for (const std::string_view op : bench::kOpColumns) {
      cols.push_back(std::string(op) + " [%]");
    }
    Table it_table(cols);
    const std::size_t show = std::min<std::size_t>(rows.size(), 12);
    for (std::size_t i = 0; i < show; ++i) {
      auto& r = it_table.new_row();
      r.add(static_cast<double>(i));
      for (std::size_t k = 0; k < bench::kOpColumns.size(); ++k) {
        r.add(rows[i].op_seconds[k] * 1e3);
      }
      const double total = rows[i].total();
      r.add(total * 1e3);
      for (std::size_t k = 0; k < bench::kOpColumns.size(); ++k) {
        r.add(total > 0.0 ? rows[i].op_seconds[k] / total * 100.0 : 0.0);
      }
    }
    std::cout << "per-iteration breakdown (first " << show << " of "
              << rows.size() << " iterations):\n";
    it_table.print(std::cout);
    bench::write_csv("tab1_per_iteration", it_table);
  }
  if (!trace_path.empty()) {
    sink.write_file(trace_path);
    std::cout << "[trace] " << sink.events().size() << " events -> "
              << trace_path << "\n";
  }
  return 0;
}
