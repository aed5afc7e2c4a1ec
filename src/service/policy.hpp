// DispatchPolicy: the tunable knobs of the solve service (SERVICE.md,
// "How dispatch decisions are made"). All thresholds are plain data so a
// deployment can tune them; the defaults encode what the bench artifacts
// measured on the calibrated machine models.
#pragma once

#include <cstddef>
#include <string>

namespace gs::service {

struct DispatchPolicy {
  /// GPU/CPU crossover: a single request with m >= crossover_m takes the
  /// device route, a smaller one the host engine (below the crossover
  /// the launch-latency floor makes the GPU slower — EXPERIMENTS.md
  /// Fig. 2 measures the double engine's crossover at m=512 on the
  /// calibrated models).
  std::size_t crossover_m = 512;

  /// Preferred lanes per batch-engine round. K=64 is where the committed
  /// Ext. E sweep tops out at 18-19x over one-at-a-time device solves.
  std::size_t batch_target = 64;

  /// Same-shape groups smaller than this are not worth a batch round
  /// (the round pays full lock-step cost for every lane); they dispatch
  /// as single solves instead.
  std::size_t batch_min_fill = 2;

  /// Admission bound: submit() rejects with kQueueFull once this many
  /// requests are pending. Bounded depth is what turns overload into
  /// fast explicit rejection instead of unbounded latency.
  std::size_t queue_capacity = 256;

  /// Wall-clock worker threads used to execute a drain's jobs. 0 or 1
  /// runs jobs inline on the draining thread. Worker count never changes
  /// results or modelled latencies (tests/test_service.cpp asserts this);
  /// it only shortens real time.
  std::size_t workers = 0;

  /// Warm-start cache capacity (LRU entries); 0 disables the cache.
  std::size_t warm_cache_capacity = 64;

  /// Seed crossover_m from a gs-bench-v1 artifact (BENCH_solver.json):
  /// picks the smallest sweep point whose speedup_vs_cpu_revised >= 1.
  /// The committed CI sweep stops at m=128 — every point below the
  /// crossover — so when no sweep point crosses (or the file is
  /// unreadable) the measured Fig. 2 crossover default of m=512 is kept.
  [[nodiscard]] static DispatchPolicy from_bench_json(const std::string& path);
};

}  // namespace gs::service
