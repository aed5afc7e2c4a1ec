// Standalone layer probes: single calls into one layer's public functions
// at a workload's shapes, timed on the host wall clock and read back on
// the modeled clock (each reports its wall/modeled ratio).
#pragma once

#include <cstddef>

#include "bench.hpp"
#include "lp/problem.hpp"

namespace perfbench {

struct ProbeShapes {
  std::size_t dense_m = 1024;   ///< gemv / ger matrix order
  std::size_t vector_n = 2048;  ///< argmin / reduce_sum length
  /// Sparse instance whose augmented A^T feeds spmv and whose crash basis
  /// seeds the basis-oracle probes.
  const gs::lp::LpProblem* sparse = nullptr;
  std::size_t obs_m = 512;      ///< observer-overhead probe instance order
};

/// vgpu.{argmin,reduce_sum}*, vblas.*, sparse.spmv*, basis.*_us and
/// basis.*.wall_per_modeled.
void run_layer_probes(const ProbeShapes& shapes, SpanLog& spans,
                      MetricSet& out);

/// obs.*.overhead_frac: one fixed dense instance solved with no observer,
/// with each observer alone, and with every composable observer together
/// (the checker and the analyzer exclude each other, so "all" carries
/// neither and each is measured alone).
void run_obs_probes(std::size_t m, SpanLog& spans, MetricSet& out);

}  // namespace perfbench
