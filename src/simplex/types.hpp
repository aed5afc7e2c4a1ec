// Shared solver types: options, statuses, statistics, results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/health.hpp"
#include "record/record.hpp"
#include "trace/trace.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/device.hpp"

namespace gs::profile {
class Profiler;
}  // namespace gs::profile

namespace gs::telemetry {
class Telemetry;
}  // namespace gs::telemetry

namespace gs::simplex {

/// Terminal state of a solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalTrouble,
};

[[nodiscard]] constexpr std::string_view to_string(SolveStatus s) noexcept {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kNumericalTrouble: return "numerical-trouble";
  }
  return "?";
}

/// Entering-variable selection rule.
enum class PricingRule {
  kDantzig,  ///< most negative reduced cost (parallel argmin)
  kBland,    ///< lowest-index negative reduced cost (anti-cycling, terminates)
  kHybrid,   ///< Dantzig, falling back to Bland during degeneracy streaks
  kDevex,    ///< reference-framework Devex weights (device engine only)
};

[[nodiscard]] constexpr std::string_view to_string(PricingRule r) noexcept {
  switch (r) {
    case PricingRule::kDantzig: return "dantzig";
    case PricingRule::kBland: return "bland";
    case PricingRule::kHybrid: return "hybrid";
    case PricingRule::kDevex: return "devex";
  }
  return "?";
}

/// Basis-inverse representation (Ext. B ablation).
enum class BasisScheme {
  kExplicitInverse,  ///< dense B^-1, rank-1 Gauss-Jordan update (the paper's)
  kProductForm,      ///< sparse LU of B0 + eta file, periodic refactorization
};

[[nodiscard]] constexpr std::string_view to_string(BasisScheme b) noexcept {
  switch (b) {
    case BasisScheme::kExplicitInverse: return "explicit-inverse";
    case BasisScheme::kProductForm: return "product-form";
  }
  return "?";
}

/// Knobs common to every engine. Engines ignore options they do not model
/// (e.g. the tableau baseline has no basis scheme).
struct SolverOptions {
  std::size_t max_iterations = 50000;

  /// Optimality tolerance: entering candidates need d_j < -opt_tol.
  double opt_tol = 1e-7;
  /// Ratio-test pivot tolerance: rows with alpha_i <= pivot_tol are skipped.
  double pivot_tol = 1e-9;

  PricingRule pricing = PricingRule::kHybrid;
  /// Hybrid rule: switch to Bland after this many iterations without strict
  /// objective improvement; switch back on improvement.
  std::size_t degeneracy_window = 40;

  /// Compute post-optimal sensitivity ranges (HostRevisedSimplex only).
  bool ranging = false;

  BasisScheme basis = BasisScheme::kExplicitInverse;
  /// Product-form basis: refactor after this many etas (0 = at m etas).
  std::size_t reinversion_period = 0;

  // The seven observers below (OBSERVABILITY.md, CHECKING.md) are
  // borrowed, not owned, and must outlive the solve. Null (the default)
  // turns one off at one branch per event site. Attaching any of them
  // leaves results, DeviceStats and iteration paths bit-identical
  // (tests/test_observers.cpp). Only SolveFrame (simplex/solve_frame.hpp)
  // reads them; it attaches them for every engine.

  /// Trace sink: kernel launches and PCIe copies as complete slices,
  /// algorithm phases (solve / phase1 / phase2 / iteration / price /
  /// ftran / ratio / update) as nested spans, and the objective as a
  /// counter, all timestamped in simulated seconds.
  trace::TraceSink* trace_sink = nullptr;

  /// Optional kernel-safety checker (CHECKING.md). While attached, the
  /// device engines' access stream is captured (into `analyzer`, if that
  /// is attached too) and every kernel launch is checked as it retires
  /// for cross-block data races, out-of-bounds indexing, NaN introduction
  /// and cost-declaration drift; findings accumulate on the checker for
  /// the caller to inspect (`lp_cli --check` prints them). Host engines
  /// (host-revised, dual, tableau) execute plain loops through a
  /// CostMeter — no kernel semantics to check — and ignore it.
  vgpu::check::Checker* checker = nullptr;

  /// Optional metrics registry (OBSERVABILITY.md, "Metrics"). While
  /// attached, the engine tallies per-kernel launch/byte/time counters on
  /// its machine (`vgpu.*` / `cpu.*`), per-operation modeled-time
  /// histograms (`simplex.op_seconds.*`), and the numerical-health signals
  /// sampled by the HealthMonitor (`health.*`, thresholds from `health`
  /// below) — all exportable as JSON via MetricsRegistry::snapshot()
  /// (`lp_cli --metrics`).
  metrics::MetricsRegistry* metrics = nullptr;

  /// Thresholds and sampling cadence for the HealthMonitor; consulted only
  /// when `metrics` is attached.
  metrics::HealthConfig health;

  /// Optional decision-log recorder (OBSERVABILITY.md, "Recorder"). While
  /// attached, the engine logs every basis change (entering/leaving pair,
  /// pivot value, ratio-test ties, Bland activation), refactorization
  /// event and phase transition into a compact binary log (`gs-record-v1`)
  /// that can be replayed against a later run, diffed against another
  /// recording (float vs double, host vs device), or auto-dumped as a
  /// post-mortem window on a bad exit (`lp_cli --record / --replay /
  /// --diff`).
  record::Recorder* recorder = nullptr;

  /// Optional warm-start basis (SERVICE.md, "Warm-start cache"): one
  /// augmented column index per row, typically a prior optimal
  /// `SolveResult::basis` of the same or a perturbed instance. The host
  /// engine builds B from these columns, inverts it (charged as one
  /// `warm_init` step on the cost meter) and starts phase 2 from it iff
  /// the basis is valid (square, non-artificial, distinct, nonsingular)
  /// and primal feasible (B⁻¹b ≥ 0); otherwise it falls back to the cold
  /// crash basis and `SolverStats::warm_started` stays false. The dual
  /// engine is looser: any valid, factorizable basis is accepted — dual
  /// pivots restore primal feasibility, which is why the service routes
  /// warm-startable requests there. Device and batch engines ignore it.
  /// Borrowed, not owned; must outlive the solve.
  const std::vector<std::uint32_t>* warm_basis = nullptr;

  /// Optional static-analysis capture log (CHECKING.md, "Static
  /// analysis"). While attached, the device records every kernel launch,
  /// PCIe transfer, and buffer alloc/free as a dataflow node; after the
  /// solve, `analyze::analyze(*analyzer)` reports ordering hazards, dead
  /// stores, redundant transfers, uninitialized reads, buffer-lifetime
  /// stats and cost-declaration drift over the whole launch graph
  /// (`lp_cli --analyze`). A `checker` attached too is fed from this
  /// capture, so both reports come from one solve. Host engines run no
  /// device stream and ignore it.
  vgpu::analyze::CaptureLog* analyzer = nullptr;

  /// Optional roofline profiler (OBSERVABILITY.md, "Profiler"). While
  /// attached, the engine interposes the profiler as its trace sink (any
  /// `trace_sink` above is chained downstream, so --trace and --profile
  /// compose) and binds its machine model, producing per-kernel and
  /// per-phase aggregates with a roofline bound classification
  /// (launch-bound / bandwidth-bound / compute-bound), a ranked top-N
  /// table, a collapsed-stack flamegraph and `gs-profile-v1` JSON; the
  /// per-kernel modeled-time totals reconcile with
  /// `DeviceStats::kernel_seconds` bit-exactly.
  profile::Profiler* profiler = nullptr;

  /// Optional time-series telemetry pipeline (OBSERVABILITY.md,
  /// "Telemetry & SLOs"). While attached, the engine records per-iteration
  /// series on the modeled clock — `engine.objective` every
  /// `iteration_stride`-th iteration, plus `engine.residual_inf` /
  /// `engine.binv_growth` (or `engine.eta_count` for eta-file bases) at
  /// the same cadence, sharing the HealthMonitor's pure-read probes
  /// without perturbing its own sampling.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Per-phase and aggregate counters.
struct SolverStats {
  std::size_t iterations = 0;         ///< total simplex iterations (both phases)
  std::size_t phase1_iterations = 0;
  double wall_seconds = 0.0;          ///< measured host wall time
  double sim_seconds = 0.0;           ///< modelled machine time
  vgpu::DeviceStats device_stats;     ///< per-kernel breakdown (device engines)
  /// True iff the solve started from SolverOptions::warm_basis (the basis
  /// validated as feasible and phase 1 was skipped); false on fallback.
  bool warm_started = false;
};

/// Post-optimal sensitivity ranges (HostRevisedSimplex with
/// SolverOptions::ranging). All values are in the original problem's
/// orientation and indexing.
struct RangingInfo {
  /// Per original constraint: the rhs interval over which the optimal
  /// basis stays optimal (objective moves at rate y_i inside it).
  std::vector<double> rhs_lower, rhs_upper;
  /// Per original variable: the objective-coefficient interval over which
  /// the current optimal point stays optimal. NaN bounds mark variables
  /// whose transformation (free split) is not supported for ranging.
  std::vector<double> cost_lower, cost_upper;
};

/// Outcome of a solve, mapped back to the original problem's variables.
struct SolveResult {
  SolveStatus status = SolveStatus::kNumericalTrouble;
  double objective = 0.0;        ///< original orientation; valid iff optimal
  std::vector<double> x;         ///< original variables; valid iff optimal
  /// Dual values (shadow prices), one per original constraint:
  /// y_i = d objective / d rhs_i. Valid iff optimal.
  std::vector<double> y;
  /// Sensitivity ranges; present iff requested and the solve was optimal.
  std::optional<RangingInfo> ranging;
  /// Final basis snapshot: the augmented column basic in each row, the
  /// same layout a Recording's basis field uses. Exported by every
  /// engine, whatever the status; feed it back through
  /// `SolverOptions::warm_basis` to warm-start a repeat or perturbed
  /// solve (SERVICE.md). Meaningful as a warm-start seed iff optimal.
  std::vector<std::uint32_t> basis;
  SolverStats stats;

  [[nodiscard]] bool optimal() const noexcept {
    return status == SolveStatus::kOptimal;
  }
};

}  // namespace gs::simplex
