// Fig. 3 — single vs. double precision on the device.
//
// The GT200 generation executes single precision at ~10x its double rate,
// so the paper's precision study trades accuracy for speed. Expected
// shape: float is faster wherever compute matters, with relative objective
// error growing with problem size but staying small (the iteration path is
// usually identical on well-conditioned instances).
//
// The float→double columns are the service's device route on the same
// instance: the float run finished in double by the host dual engine from
// its final basis (DESIGN.md, "Float iterations, double answer"). The raw
// float columns stay unrefined: they are the paper's precision study.
//
// `--diff` additionally records both runs' pivot decisions and aligns them
// (OBSERVABILITY.md, "Recorder"), turning "objectives differ by X" into
// "runs diverge at iteration N on pivot (r,c)" per size.
#include <cmath>

#include "bench/common.hpp"
#include "record/record.hpp"

int main(int argc, char** argv) {
  using namespace gs;
  const bool diff_on = bench::has_flag(argc, argv, "--diff");
  bench::print_header(
      "Fig.3: single vs double precision (device revised simplex)",
      "float <= double modeled time; relative objective error < 1e-3, "
      "growing with size");

  Table table({"m=n", "double [ms]", "float [ms]", "float/double time",
               "iters (d)", "iters (f)", "rel obj error", "float→double [ms]",
               "float→double rel obj error"});
  for (const std::size_t size : bench::dense_sizes(argc, argv)) {
    const auto problem =
        lp::random_dense_lp({.rows = size, .cols = size, .seed = 2});
    record::Recorder rec_d, rec_f;
    simplex::SolverOptions opt_d, opt_f;
    if (diff_on) {
      rec_d.set_seed(2);
      rec_f.set_seed(2);
      opt_d.recorder = &rec_d;
      opt_f.recorder = &rec_f;
    }
    const auto rd = bench::solve_device(problem, vgpu::gtx280_model(), opt_d);
    const auto rf =
        bench::solve_device_float(problem, vgpu::gtx280_model(), opt_f);
    const auto rfd = simplex::solve_float_then_double(problem);
    if (!rd.optimal() || !rf.optimal() || !rfd.optimal()) {
      std::cerr << "non-optimal solve at m=" << size << "\n";
      return 1;
    }
    const auto rel_err = [&rd](const simplex::SolveResult& r) {
      return std::abs(r.objective - rd.objective) /
             (1.0 + std::abs(rd.objective));
    };
    table.new_row()
        .add(size)
        .add(rd.stats.sim_seconds * 1e3)
        .add(rf.stats.sim_seconds * 1e3)
        .add(rf.stats.sim_seconds / rd.stats.sim_seconds)
        .add(rd.stats.iterations)
        .add(rf.stats.iterations)
        .add(rel_err(rf))
        .add(rfd.stats.sim_seconds * 1e3)
        .add(rel_err(rfd));
    if (diff_on) {
      std::cout << "[diff] m=n=" << size << ": "
                << record::diff(rec_d.recording(), rec_f.recording())
                       .describe()
                << "\n";
    }
  }
  table.print(std::cout);
  bench::write_csv("fig3_precision", table);
  return 0;
}
