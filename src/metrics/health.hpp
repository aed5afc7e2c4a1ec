// Solver-facing metrics helpers: the per-operation histogram bundle shared
// by every simplex engine, and the HealthMonitor that samples numerical-
// stability signals each iteration and raises structured warnings when one
// of its fixed thresholds is crossed.
//
// Both follow the registry's cost discipline: when no registry is attached
// every method is a single-branch no-op, and all metric names are resolved
// once at attach time (stable references, see metrics.hpp), so the enabled
// hot path never does a string lookup.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "metrics/metrics.hpp"

namespace gs::metrics {

/// The five canonical revised-simplex operations, in the stable order used
/// by metric names, the trace op spans, and the bench JSON column order
/// (`bench/per_iter.hpp` reuses this array — keep it in sync with the
/// `op` trace category table in OBSERVABILITY.md).
inline constexpr std::array<std::string_view, 5> kSimplexOps = {
    "price", "ftran", "ratio", "update", "refactor"};

enum class SimplexOp : std::size_t {
  kPrice = 0,
  kFtran = 1,
  kRatio = 2,
  kUpdate = 3,
  kRefactor = 4,
};

/// Per-operation modeled-time histograms plus the iteration tally, shared
/// by all engines under the same names: `simplex.iterations` (counter) and
/// `simplex.op_seconds.<op>` (seconds-bucket histograms). Detached (the
/// default) every call is one branch.
struct SimplexOpMetrics {
  void attach(MetricsRegistry* registry) {
    if (registry == nullptr) return;
    iterations = &registry->counter("simplex.iterations");
    for (std::size_t k = 0; k < kSimplexOps.size(); ++k) {
      op_seconds[k] = &registry->histogram(
          std::string("simplex.op_seconds.") + std::string(kSimplexOps[k]),
          seconds_buckets());
    }
  }

  [[nodiscard]] bool enabled() const noexcept { return iterations != nullptr; }

  void count_iteration() noexcept {
    if (iterations != nullptr) iterations->inc();
  }

  void observe(SimplexOp op, double seconds) noexcept {
    if (iterations != nullptr) {
      op_seconds[static_cast<std::size_t>(op)]->observe(seconds);
    }
  }

  Counter* iterations = nullptr;
  std::array<Histogram*, 5> op_seconds{};
};

/// The HealthMonitor's thresholds. They are deliberately permissive: they
/// flag genuinely suspicious behaviour on double-precision solves without
/// firing on healthy degenerate steps.
/// Warn when the strided `‖B·B⁻¹ − I‖∞` probe estimate exceeds this.
inline constexpr double kResidualTol = 1e-6;
/// Warn when a pivot element's magnitude falls below this.
inline constexpr double kPivotTinyTol = 1e-7;
/// Warn when max |B⁻¹| (sampled) exceeds this (inverse blow-up).
inline constexpr double kGrowthLimit = 1e8;
/// Steps with `theta <= kDegenThetaTol` count as degenerate; this many
/// *consecutive* degenerate steps raise one "stall" warning per streak.
inline constexpr std::size_t kStallWindow = 25;
inline constexpr double kDegenThetaTol = 1e-9;
/// Sample the residual/growth estimate every `kResidualStride`-th
/// iteration, probing `kResidualProbes` entries.
inline constexpr std::size_t kResidualStride = 16;
inline constexpr std::size_t kResidualProbes = 8;

/// Samples numerical-stability signals from a simplex solve and records
/// them into the registry: a pivot-magnitude histogram, degeneracy /
/// stall-streak and Bland's-rule-activation counters, the basis-inverse
/// residual and growth gauges — raising a structured HealthWarning (kinds
/// "tiny-pivot", "stall", "residual-drift", "growth") whenever one of the
/// thresholds above is crossed. The engines feed it; it never touches
/// solver state, so attaching it cannot perturb the solve.
///
/// Residual and growth values are *computed by the engine* (each engine
/// knows its own basis representation — see the `probe` hooks in
/// device_revised.hpp / host_revised.cpp, fed by SolveFrame) and only
/// judged here; the monitor decides *when* via `want_residual_sample`.
class HealthMonitor {
 public:
  explicit HealthMonitor(MetricsRegistry* registry) : registry_(registry) {
    if (registry_ == nullptr) return;
    pivot_magnitude_ =
        &registry_->histogram("health.pivot_magnitude", magnitude_buckets());
    degenerate_steps_ = &registry_->counter("health.degenerate_steps");
    bland_activations_ = &registry_->counter("health.bland_activations");
    residual_inf_ = &registry_->gauge("health.residual_inf");
    binv_growth_ = &registry_->gauge("health.binv_growth");
    eta_count_ = &registry_->gauge("health.eta_count");
  }

  [[nodiscard]] bool enabled() const noexcept { return registry_ != nullptr; }

  /// One call per pivoting iteration, from the engine's update step.
  /// `alpha` is the pivot element, `theta` the primal step length, `bland`
  /// whether anti-cycling (Bland) selection was active this iteration.
  void record_pivot(double alpha, double theta, bool bland,
                    std::size_t iteration) {
    if (registry_ == nullptr) return;
    const double mag = alpha < 0 ? -alpha : alpha;
    pivot_magnitude_->observe(mag);
    if (mag < kPivotTinyTol) {
      registry_->warn({"tiny-pivot",
                       "pivot magnitude below pivot_tiny_tol; basis update "
                       "may amplify rounding error",
                       mag, kPivotTinyTol, iteration});
    }
    if (bland && !bland_active_) bland_activations_->inc();
    bland_active_ = bland;
    if (theta <= kDegenThetaTol) {
      degenerate_steps_->inc();
      ++degen_streak_;
      if (degen_streak_ == kStallWindow) {
        registry_->warn({"stall",
                         "stall_window consecutive degenerate steps (theta "
                         "~ 0); solver may be cycling",
                         static_cast<double>(degen_streak_),
                         static_cast<double>(kStallWindow), iteration});
      }
    } else {
      degen_streak_ = 0;
    }
  }

  /// True when the engine should compute the (strided) residual/growth
  /// sample for this iteration. False whenever detached.
  [[nodiscard]] bool want_residual_sample(std::size_t iteration) const {
    if (registry_ == nullptr) return false;
    return iteration % kResidualStride == 0;
  }

  /// Record an engine-computed `‖B·B⁻¹ − I‖∞` probe estimate.
  void record_residual(double residual_inf, std::size_t iteration) {
    if (registry_ == nullptr) return;
    residual_inf_->set(residual_inf);
    if (residual_inf > kResidualTol) {
      registry_->warn({"residual-drift",
                       "basis-inverse residual estimate exceeds residual_tol; "
                       "B^-1 has drifted from B",
                       residual_inf, kResidualTol, iteration});
    }
  }

  /// Record an engine-computed (sampled) max |B⁻¹| growth estimate.
  void record_growth(double max_abs, std::size_t iteration) {
    if (registry_ == nullptr) return;
    binv_growth_->set(max_abs);
    if (max_abs > kGrowthLimit) {
      registry_->warn({"growth",
                       "basis-inverse entries exceed growth_limit; update "
                       "scheme is amplifying",
                       max_abs, kGrowthLimit, iteration});
    }
  }

  /// Record the eta-file length for the product-form basis representation
  /// (explicit-inverse engines never call this).
  void record_eta_count(std::size_t count) {
    if (registry_ == nullptr) return;
    eta_count_->set(static_cast<double>(count));
  }

 private:
  MetricsRegistry* registry_;  ///< borrowed; nullptr = fully disabled
  Histogram* pivot_magnitude_ = nullptr;
  Counter* degenerate_steps_ = nullptr;
  Counter* bland_activations_ = nullptr;
  Gauge* residual_inf_ = nullptr;
  Gauge* binv_growth_ = nullptr;
  Gauge* eta_count_ = nullptr;
  std::size_t degen_streak_ = 0;
  bool bland_active_ = false;
};

}  // namespace gs::metrics
