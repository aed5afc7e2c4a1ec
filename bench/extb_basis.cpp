// Ext. B (ablation) — basis-inverse representation.
//
// The paper's design keeps an explicit dense B^-1 updated by a rank-1
// Gauss-Jordan step: O(m^2) fully-parallel work per iteration, one kernel.
// The classical CPU alternative, the product-form eta file, does O(k*m)
// work for k accumulated etas but as 2k+2 *tiny dependent kernels* per
// FTRAN/BTRAN — exactly what a 2009 GPU is worst at. Expected shape: on
// the GPU model, explicit inverse wins and product form degrades as the
// eta file grows (short reinversion periods recover some of it).
#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace gs;
  using simplex::BasisScheme;
  const bool quick = argc > 1 && std::string_view(argv[1]) == "--quick";
  bench::print_header(
      "Ext.B: explicit B^-1 vs product-form eta file (device engine)",
      "explicit inverse wins on the GPU model; eta file's many small "
      "kernels pay launch latency; shorter reinversion period helps");

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{96}
            : std::vector<std::size_t>{128, 256, 512};

  Table table({"m=n", "scheme", "reinv period", "iters", "gpu sim [ms]",
               "kernel launches"});
  for (const std::size_t size : sizes) {
    const auto problem =
        lp::random_dense_lp({.rows = size, .cols = size, .seed = 11});
    {
      const auto r = bench::solve_device(problem, vgpu::gtx280_model());
      table.new_row()
          .add(size)
          .add("explicit-inverse")
          .add("-")
          .add(r.stats.iterations)
          .add(r.stats.sim_seconds * 1e3)
          .add(r.stats.device_stats.kernel_launches);
    }
    for (const std::size_t period : {std::size_t{16}, std::size_t{64},
                                     std::size_t{0} /* m */}) {
      simplex::SolverOptions opt;
      opt.basis = BasisScheme::kProductForm;
      opt.reinversion_period = period;
      const auto r = bench::solve_device(problem, vgpu::gtx280_model(), opt);
      table.new_row()
          .add(size)
          .add(std::string(to_string(opt.basis)))
          .add(period == 0 ? "m" : std::to_string(period))
          .add(r.stats.iterations)
          .add(r.stats.sim_seconds * 1e3)
          .add(r.stats.device_stats.kernel_launches);
    }
  }
  table.print(std::cout);
  bench::write_csv("extb_basis", table);
  return 0;
}
