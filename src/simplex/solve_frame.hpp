// The frame every engine runs one solve in (OBSERVABILITY.md, "Where
// observers attach"), and the only code that reads the observer fields of
// SolverOptions. At open it attaches the trace sink and the registry to the
// engine's ledger (a CostMeter the frame owns for host engines, the Device
// otherwise) and the access-stream capture to a Device, names the track,
// opens the solve span and starts the decision log. It owns the solve
// protocol around each engine's linear algebra (DESIGN.md, "Solve
// protocol"): two_phase() drives the primal engines, PivotRule is the one
// anti-cycling switch, and SolveFrame::Loop runs every pivoting loop's
// per-iteration protocol. The op metrics and the health monitor live here
// for the whole solve, so stall streaks and Bland activations span the
// phase boundary. At close it stamps the result and ends the decision log.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "lp/standard_form.hpp"
#include "metrics/health.hpp"
#include "profile/profile.hpp"
#include "record/record.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/types.hpp"
#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"
#include "vgpu/device.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::simplex {

/// True iff `opt` carries any observer; the service runs such a request
/// alone as a real solve (SERVICE.md).
[[nodiscard]] inline bool observed(const SolverOptions& opt) noexcept {
  return opt.trace_sink != nullptr || opt.checker != nullptr ||
         opt.metrics != nullptr || opt.recorder != nullptr ||
         opt.analyzer != nullptr || opt.profiler != nullptr ||
         opt.telemetry != nullptr;
}

/// One basis exchange for the decision log: column q enters at row p,
/// where column `leaving` was basic. An artificial drive-out runs no ratio
/// test and leaves d_q and theta at zero.
struct Pivot {
  std::uint8_t phase = 2;
  bool bland = false;
  std::size_t lane = 0;         ///< batch lane
  std::uint64_t iteration = 0;  ///< pivot ordinal, pre-increment (per lane)
  std::size_t q = 0, p = 0, leaving = 0;
  double d_q = 0.0, alpha_p = 0.0, theta = 0.0;
};

/// How a primal pivoting loop ended.
enum class LoopExit { kOptimal, kUnbounded, kIterationLimit };

/// The anti-cycling switch every pivoting loop shares, one of the
/// cycle-avoidance policies of the GPU-simplex literature: Bland's rule
/// prices while a streak of kStallPivots pivots without progress lasts,
/// and the next improving pivot hands pricing back. kBland prices with
/// Bland throughout; otherwise the switch is armed where the loop asks
/// (the primal loops under kHybrid, the dual loop under every rule).
/// Every engine prices and ratio-tests with the same two tolerances
/// (the float engines cast them).
class PivotRule {
 public:
  static constexpr std::size_t kStallPivots = 40;
  /// Optimality tolerance: a column may enter only with d_j < -kOptTol.
  static constexpr double kOptTol = 1e-7;
  /// Ratio-test pivot tolerance: rows with alpha_i <= kPivotTol never
  /// leave.
  static constexpr double kPivotTol = 1e-9;
  PivotRule(PricingRule rule, bool armed) noexcept
      : always_(rule == PricingRule::kBland), armed_(armed) {}
  [[nodiscard]] bool bland() const noexcept {
    return always_ || (armed_ && since_improve_ >= kStallPivots);
  }
  void progress(bool improved) noexcept {
    since_improve_ = improved ? 0 : since_improve_ + 1;
  }

 private:
  bool always_, armed_;
  std::size_t since_improve_ = 0;
};

/// An engine's strided numerical-health probe (pure reads, no charges):
/// estimates of the B·B⁻¹ − I residual and of max |B⁻¹|, or, for a basis
/// with no inverse to probe, the eta-file length.
struct HealthSample {
  double residual = 0.0, growth = 0.0;
  std::optional<std::size_t> etas;
};

/// A primal engine's own steps, for SolveFrame::two_phase: install a
/// phase's costs, run a pivoting loop in a decision-log phase on a budget,
/// the objective at the current basis under the phase-1 costs, pivot the
/// zero-level artificials out (stamping recorded pivots with the given
/// ordinal), and fill an optimal result from the final basis.
struct PhaseSteps {
  std::function<void(const std::vector<double>& costs)> load_costs;
  std::function<LoopExit(std::size_t budget, SolverStats& stats,
                         std::uint8_t phase)>
      loop;
  std::function<double()> objective;
  std::function<void(std::uint64_t iteration)> drive_out;
  std::function<void(SolveResult& result)> recover;
};

/// x, the objective and the duals y of an optimal `result` from the final
/// basis (the augmented column basic in each row), its values beta and
/// the simplex multipliers pi.
template <typename Real>
void recover_optimum(const lp::StandardFormLp& sf,
                     std::span<const std::uint32_t> basis,
                     std::span<const Real> beta, std::span<const Real> pi,
                     SolveResult& result) {
  const std::size_t n = sf.num_cols();
  std::vector<double> x_std(n, 0.0);
  for (std::size_t i = 0; i < basis.size(); ++i) {
    if (basis[i] < n) x_std[basis[i]] = static_cast<double>(beta[i]);
  }
  result.x = sf.recover(x_std);
  double z = 0.0;
  for (std::size_t j = 0; j < n; ++j) z += sf.c[j] * x_std[j];
  result.objective = sf.original_objective(z);
  result.y = sf.recover_duals(std::vector<double>(pi.begin(), pi.end()));
}

class SolveFrame {
 public:
  /// A host engine's frame, owning its CostMeter on `model`. `engine`,
  /// the shape m x n_aug and the `digest` head the decision log.
  SolveFrame(const SolverOptions& opt, const vgpu::MachineModel& model,
             std::string_view engine, std::size_t m, std::size_t n_aug,
             std::uint64_t digest)
      : opt_(opt),
        meter_(std::in_place, model),
        ledger_(&attach(*meter_)),
        health_(opt.metrics),
        solve_span_(open(engine, 64, m, n_aug, digest)) {
    op_metrics_.attach(opt.metrics);
  }

  /// A device engine's frame on `dev`, whose stats it resets. The batch
  /// engine reports rounds, not pivots: with `pivot_metrics` false the op
  /// metrics and the health monitor stay detached.
  SolveFrame(const SolverOptions& opt, vgpu::Device& dev,
             std::string_view engine, std::uint32_t real_bits, std::size_t m,
             std::size_t n_aug, std::uint64_t digest,
             bool pivot_metrics = true)
      : opt_(opt),
        dev_(&attach_capture(dev)),
        ledger_(&attach(dev)),
        health_(pivot_metrics ? opt.metrics : nullptr),
        solve_span_(open(engine, real_bits, m, n_aug, digest)) {
    if (pivot_metrics) op_metrics_.attach(opt.metrics);
  }

  SolveFrame(const SolveFrame&) = delete;
  SolveFrame& operator=(const SolveFrame&) = delete;

  /// Detaches a capture the frame owns: the engine's DeviceBuffers report
  /// their frees to the device's capture after the frame is gone.
  ~SolveFrame() {
    if (own_capture_) dev_->set_capture(nullptr);
  }

  /// The engine's modeled clock and trace track.
  [[nodiscard]] double now() const { return ledger_->sim_seconds(); }
  [[nodiscard]] const trace::Track& track() const noexcept {
    return ledger_->trace();
  }
  [[nodiscard]] CostMeter& meter() noexcept { return *meter_; }
  [[nodiscard]] metrics::MetricsRegistry* metrics() const noexcept {
    return opt_.metrics;
  }

  /// A "phase" span on the engine's track; a nonzero `recorded` (1 or 2)
  /// also opens that phase in the decision log.
  [[nodiscard]] auto phase(std::string_view name,
                           std::uint8_t recorded = 0) const {
    record_phase(recorded);
    return trace::ScopedSpan(track(), name, Clock{this}, "phase");
  }
  void record_phase(std::uint8_t phase) const {
    if (phase != 0 && recording()) opt_.recorder->begin_phase(phase);
  }

  [[nodiscard]] bool recording() const noexcept {
    return opt_.recorder != nullptr;
  }
  /// Log a pivot. `ties()` counts the rows tied at theta; it runs only
  /// while recording, so it may read device state outside the machine
  /// model.
  template <typename Ties>
  void record_pivot(const Pivot& pv, Ties&& ties) const {
    if (recording()) log_pivot(pv, ties());
  }
  /// Log an artificial drive-out pivot (one tie).
  void record_pivot(const Pivot& pv) const {
    if (recording()) log_pivot(pv, 1);
  }

  /// One pivoting loop (a phase, or the dual loop). Per iteration the
  /// engine opens iteration(), runs its operations through op(), logs the
  /// pivot with record() and, after the basis exchange, leaves the rest to
  /// pivoted() or dual_pivoted(). Their `basis` may offer `refactor_due()`
  /// with `refactor()` (false: singular, the old representation stays) and
  /// `probe(iter, probes)`, the strided HealthSample.
  class Loop {
   public:
    Loop(SolveFrame& frame, SolverStats& stats, std::uint8_t phase,
         PivotRule rule, std::optional<double> z)
        : frame_(frame), stats_(stats), phase_(phase), rule_(rule), z_(z) {}

    /// Open iteration `iter`: the pivot rule's choice for it, a restart
    /// of the op lap clock and its span on the engine's track.
    [[nodiscard]] auto iteration(std::size_t iter,
                                 std::string_view name = "iteration") {
      iter_ = iter;
      bland_ = rule_.bland();
      frame_.lap_start();
      return trace::ScopedSpan(frame_.track(), name, Clock{&frame_},
                               "iteration",
                               {{"iter", static_cast<double>(iter)}});
    }
    /// True iff this iteration prices with Bland's rule.
    [[nodiscard]] bool bland() const noexcept { return bland_; }

    /// Run `body` as this iteration's operation `op`, inside an "op" span
    /// named after it, then lap its modeled time into the op metrics.
    template <typename Body>
    decltype(auto) op(metrics::SimplexOp op, Body&& body) {
      const Lap lap{frame_, op};
      const trace::ScopedSpan span(
          frame_.track(), metrics::kSimplexOps[static_cast<std::size_t>(op)],
          Clock{&frame_}, "op");
      return body();
    }

    /// Log this iteration's pivot, stamped with the loop's phase, the
    /// pivot rule's choice and the pivot ordinal.
    template <typename Ties>
    void record(Pivot pv, Ties&& ties) const {
      pv.phase = phase_;
      pv.bland = bland_;
      pv.iteration = stats_.iterations;
      frame_.record_pivot(pv, std::forward<Ties>(ties));
    }

    /// After a primal pivot with element alpha_p and step theta along d_q:
    /// the objective moves by theta * d_q, and less than 1e-12 (1 + |z|)
    /// is no progress.
    template <typename Basis>
    void pivoted(double alpha_p, double theta, double d_q, Basis& basis) {
      const double z = *z_;
      z_ = z + theta * d_q;
      step(alpha_p, theta, *z_ < z - 1e-12 * (1.0 + std::abs(z)), basis,
           true);
    }
    /// After a dual pivot, whose progress the dual loop judges itself; it
    /// tracks no objective and takes no health probe.
    template <typename Basis>
    void dual_pivoted(double alpha_p, double theta, bool improved,
                      Basis& basis) {
      step(alpha_p, theta, improved, basis, false);
    }

   private:
    /// Laps `op` as the operation's scope closes.
    struct Lap {
      SolveFrame& frame;
      metrics::SimplexOp op;
      ~Lap() { frame.lap(op); }
    };

    /// In order: the pivot tally and the health pivot, the pivot rule's
    /// progress, the objective counter and telemetry point, the engine's
    /// refactorization when due, and the strided health probe.
    template <typename Basis>
    void step(double alpha_p, double theta, bool improved, Basis& basis,
              bool probe) {
      ++stats_.iterations;
      frame_.op_metrics_.count_iteration();
      frame_.health_.record_pivot(alpha_p, theta, bland_, iter_);
      rule_.progress(improved);
      if (z_.has_value()) {
        const double t = frame_.now();
        const trace::Track& track = frame_.track();
        if (track.enabled()) track.counter("objective", t, *z_);
        telemetry::Telemetry* tel = frame_.opt_.telemetry;
        if (tel != nullptr) tel->record("engine.objective", t, *z_);
      }
      if constexpr (requires { basis.refactor(); }) {
        if (basis.refactor_due()) frame_.refactor(basis, stats_.iterations);
      }
      if constexpr (requires { basis.probe(iter_, iter_); }) {
        if (probe) frame_.probe(basis, iter_);
      }
    }

    SolveFrame& frame_;
    SolverStats& stats_;
    std::uint8_t phase_;
    PivotRule rule_;
    std::optional<double> z_;  ///< primal loops: the objective so far
    std::size_t iter_ = 0;
    bool bland_ = false;
  };

  /// A primal loop in decision-log `phase` from the engine's objective z.
  [[nodiscard]] Loop primal_loop(SolverStats& stats, std::uint8_t phase,
                                 double z) {
    return Loop(*this, stats, phase,
                PivotRule(opt_.pricing, opt_.pricing == PricingRule::kHybrid),
                z);
  }
  /// The dual engine's loop (decision-log phase 2).
  [[nodiscard]] Loop dual_loop(SolverStats& stats) {
    return Loop(*this, stats, 2, PivotRule(opt_.pricing, true), std::nullopt);
  }

  /// The primal two-phase protocol, closing the frame on `basis`. Phase 1
  /// (none without artificials or after a warm start) must end within
  /// 1e-6 (1 + max b) of zero, then drives zero-level artificials out;
  /// phase 2 runs the original costs on the budget left.
  [[nodiscard]] SolveResult two_phase(const AugmentedLp& aug,
                                      const std::vector<std::uint32_t>& basis,
                                      const PhaseSteps& steps,
                                      SolveResult result = {}) {
    const auto finish = [&](SolveStatus status) {
      return close(std::move(result), status, basis);
    };
    SolverStats& stats = result.stats;
    std::size_t budget = opt_.max_iterations;
    if (aug.num_artificial > 0 && !stats.warm_started) {
      const auto span = phase("phase1", 1);
      steps.load_costs(aug.c_phase1);
      const LoopExit exit = steps.loop(budget, stats, 1);
      stats.phase1_iterations = stats.iterations;
      // The phase-1 objective is bounded below by zero; no leaving row
      // means the ratio test lost every pivot to numerics.
      if (exit != LoopExit::kOptimal) {
        return finish(exit == LoopExit::kUnbounded
                          ? SolveStatus::kNumericalTrouble
                          : SolveStatus::kIterationLimit);
      }
      const double feas_tol =
          1e-6 * (1.0 + *std::max_element(aug.b.begin(), aug.b.end()));
      if (steps.objective() > feas_tol) {
        return finish(SolveStatus::kInfeasible);
      }
      steps.drive_out(stats.iterations);
      budget -= std::min(budget, stats.iterations);
    }
    LoopExit exit;
    {
      const auto span = phase("phase2", 2);
      steps.load_costs(aug.c_phase2);
      exit = steps.loop(budget, stats, 2);
    }
    if (exit != LoopExit::kOptimal) {
      return finish(exit == LoopExit::kUnbounded
                        ? SolveStatus::kUnbounded
                        : SolveStatus::kIterationLimit);
    }
    steps.recover(result);
    return finish(SolveStatus::kOptimal);
  }

  /// Stamp `result`'s status, final basis, wall and modeled seconds and
  /// DeviceStats.
  void stamp(SolveResult& result, SolveStatus status,
             std::span<const std::uint32_t> basis) const {
    result.status = status;
    result.basis.assign(basis.begin(), basis.end());
    result.stats.wall_seconds = wall_.seconds();
    result.stats.device_stats = ledger_->stats();
    result.stats.sim_seconds = now();
  }

  /// End the decision log; a bad exit or a health warning triggers the
  /// recorder's post-mortem dump.
  void end_record(std::string_view status, bool optimal,
                  std::span<const std::uint32_t> basis) const {
    if (!recording()) return;
    opt_.recorder->end_solve(
        status, optimal, opt_.metrics ? opt_.metrics->warnings_total() : 0,
        basis);
  }

  /// Close a single-LP solve: stamp(), then end_record().
  [[nodiscard]] SolveResult close(SolveResult result, SolveStatus status,
                                  std::span<const std::uint32_t> basis) const {
    stamp(result, status, basis);
    end_record(to_string(status), status == SolveStatus::kOptimal, basis);
    return result;
  }

 private:
  struct Clock {
    const SolveFrame* frame;
    double operator()() const { return frame->now(); }
  };

  /// Either machine's ledger: stats reset, the trace sink (through the
  /// profiler, when one is attached) and the registry.
  vgpu::Ledger& attach(vgpu::Ledger& ledger) {
    ledger.reset_stats();
    ledger.set_trace(profile::chain(opt_.profiler, opt_.trace_sink,
                                    ledger.names().pid, ledger.model()));
    ledger.set_metrics(opt_.metrics);
    return ledger;
  }

  /// The checker and the analyzer read the device's one access stream:
  /// the checker rides the analyzer's capture, or one the frame owns when
  /// no analyzer is attached.
  vgpu::Device& attach_capture(vgpu::Device& dev) {
    vgpu::analyze::CaptureLog* capture = opt_.analyzer;
    if (capture == nullptr && opt_.checker != nullptr) {
      capture = &own_capture_.emplace();
    }
    if (capture != nullptr) capture->set_checker(opt_.checker);
    dev.set_capture(capture);
    return dev;
  }

  /// Name the track, start the decision log and open the solve span, whose
  /// end unwinds after every nested span's on any exit path.
  trace::ScopedSpan<Clock> open(std::string_view engine,
                                std::uint32_t real_bits, std::size_t m,
                                std::size_t n_aug,
                                std::uint64_t digest) const {
    if (track().enabled()) track().name_thread(engine);
    if (recording()) {
      opt_.recorder->begin_solve(engine, real_bits, m, n_aug, digest);
    }
    return trace::ScopedSpan(track(), "solve", Clock{this}, "solve");
  }

  /// Restart the op metrics' lap clock.
  void lap_start() {
    if (op_metrics_.enabled()) lap_ = now();
  }
  /// Charge the time since the last lap to `op`. Laps advance at op
  /// boundaries, so a scalar readback between ops counts toward the op
  /// that consumes it: the same tiling the trace's op spans produce.
  void lap(metrics::SimplexOp op) {
    if (!op_metrics_.enabled()) return;
    const double t = now();
    op_metrics_.observe(op, t - lap_);
    lap_ = t;
  }

  /// The engine's refactorization as a lapped "refactor" op; a successful
  /// one enters the decision log at pivot ordinal `iteration`.
  template <typename Basis>
  void refactor(Basis& basis, std::uint64_t iteration) {
    bool refactored = false;
    {
      const trace::ScopedSpan span(track(), "refactor", Clock{this}, "op");
      lap_start();
      refactored = basis.refactor();
      lap(metrics::SimplexOp::kRefactor);
    }
    if (refactored && recording()) opt_.recorder->record_refactor(iteration);
  }

  /// The engine's probe, run only when the health monitor (on its own
  /// stride) or telemetry (every iteration) takes it.
  template <typename Basis>
  void probe(const Basis& basis, std::size_t iter) {
    const bool want_health = health_.want_residual_sample(iter);
    telemetry::Telemetry* tel = opt_.telemetry;
    if (!want_health && tel == nullptr) return;
    const HealthSample h = basis.probe(iter, metrics::kResidualProbes);
    const double t = now();
    if (h.etas.has_value()) {
      if (want_health) health_.record_eta_count(*h.etas);
      if (tel != nullptr) {
        tel->record("engine.eta_count", t, static_cast<double>(*h.etas));
      }
      return;
    }
    if (want_health) {
      health_.record_residual(h.residual, iter);
      health_.record_growth(h.growth, iter);
    }
    if (tel != nullptr) {
      tel->record("engine.residual_inf", t, h.residual);
      tel->record("engine.binv_growth", t, h.growth);
    }
  }

  void log_pivot(const Pivot& pv, std::uint32_t ties) const {
    record::DecisionRecord r;
    r.phase = pv.phase;
    r.bland = pv.bland ? 1 : 0;
    r.lane = static_cast<std::uint32_t>(pv.lane);
    r.iteration = pv.iteration;
    r.entering = static_cast<std::uint32_t>(pv.q);
    r.leaving_row = static_cast<std::uint32_t>(pv.p);
    r.leaving_col = static_cast<std::uint32_t>(pv.leaving);
    r.ratio_ties = ties;
    r.reduced_cost = pv.d_q;
    r.pivot_value = pv.alpha_p;
    r.theta = pv.theta;
    opt_.recorder->record_pivot(r);
  }

  const SolverOptions& opt_;
  WallTimer wall_;
  std::optional<vgpu::analyze::CaptureLog> own_capture_;
  std::optional<CostMeter> meter_;  ///< host engines' ledger
  vgpu::Device* dev_ = nullptr;     ///< device engines: carries the capture
  vgpu::Ledger* ledger_;            ///< meter_ or the engine's Device
  metrics::SimplexOpMetrics op_metrics_;
  metrics::HealthMonitor health_;
  double lap_ = 0.0;
  trace::ScopedSpan<Clock> solve_span_;
};

namespace detail {

/// The options of a solve stage that starts `offset` modeled seconds after
/// the first stage, on the `pid` timeline of `model`: its trace events
/// (through the profiler, if one is attached) and its telemetry points
/// land after the earlier stages, on their clock. The recorder stays with
/// the first stage, because Recorder::begin_solve clears its log, unless
/// `records`: then this stage's decision log replaces the earlier ones.
class LaterStage {
 public:
  LaterStage(const SolverOptions& first, double offset, std::uint32_t pid,
             const vgpu::MachineModel& model, bool records = false)
      : shifted_(profile::chain(first.profiler, first.trace_sink, pid, model),
                 offset),
        telemetry_(first.telemetry),
        saved_offset_(telemetry_ ? telemetry_->time_offset() : 0.0) {
    options = first;
    if (first.profiler != nullptr || first.trace_sink != nullptr) {
      options.trace_sink = &shifted_;
    }
    options.profiler = nullptr;
    if (!records) options.recorder = nullptr;
    if (telemetry_) telemetry_->set_time_offset(saved_offset_ + offset);
  }
  ~LaterStage() {
    if (telemetry_) telemetry_->set_time_offset(saved_offset_);
  }
  LaterStage(const LaterStage&) = delete;
  LaterStage& operator=(const LaterStage&) = delete;

  SolverOptions options;

 private:
  trace::ShiftedSink shifted_;
  telemetry::Telemetry* telemetry_;
  double saved_offset_;
};

}  // namespace detail

}  // namespace gs::simplex
