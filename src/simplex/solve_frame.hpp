// The frame every engine runs one solve in (OBSERVABILITY.md, "Where
// observers attach"), and the only code that reads the observer fields of
// SolverOptions. At open it attaches the observers to the engine's
// CostMeter (host engines; the frame owns it) or Device, names the track,
// opens the solve span and starts the decision log. It holds the op
// metrics and the health monitor for the whole solve (so stall streaks
// and Bland activations span the phase boundary), opens phase spans with
// their decision-log phases, and logs pivots and refactorizations.
// At close it stamps the result and ends the decision log. The loops keep
// their own iteration and op spans and their health and telemetry probes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "lp/standard_form.hpp"
#include "metrics/health.hpp"
#include "profile/profile.hpp"
#include "record/record.hpp"
#include "simplex/cost_meter.hpp"
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
        meter_(std::in_place, model,
               profile::chain(opt.profiler, opt.trace_sink, trace::kHostPid,
                              model),
               opt.metrics),
        health_(opt.metrics, opt.health),
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
        dev_(&attach(dev)),
        health_(pivot_metrics ? opt.metrics : nullptr, opt.health),
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
  [[nodiscard]] double now() const {
    return dev_ != nullptr ? dev_->sim_seconds() : meter_->sim_seconds();
  }
  [[nodiscard]] const trace::Track& track() const noexcept {
    return dev_ != nullptr ? dev_->trace() : meter_->trace();
  }
  [[nodiscard]] CostMeter& meter() noexcept { return *meter_; }
  [[nodiscard]] metrics::MetricsRegistry* metrics() const noexcept {
    return opt_.metrics;
  }
  [[nodiscard]] metrics::SimplexOpMetrics& op_metrics() noexcept {
    return op_metrics_;
  }
  [[nodiscard]] metrics::HealthMonitor& health() noexcept { return health_; }
  [[nodiscard]] telemetry::Telemetry* telemetry() const noexcept {
    return opt_.telemetry;
  }

  /// Restart the op metrics' lap clock at the top of an iteration.
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
  /// Log a loop pivot. `ties()` counts the rows tied at theta; it runs
  /// only while recording, so it may read device state outside the
  /// machine model.
  template <typename Ties>
  void record_pivot(const Pivot& pv, Ties&& ties) const {
    if (recording()) log_pivot(pv, ties());
  }
  /// Log an artificial drive-out pivot (one tie).
  void record_pivot(const Pivot& pv) const {
    if (recording()) log_pivot(pv, 1);
  }
  void record_refactor(std::uint64_t iteration) const {
    if (recording()) opt_.recorder->record_refactor(iteration);
  }

  /// Stamp `result`'s status, final basis, wall and modeled seconds and
  /// DeviceStats.
  void stamp(SolveResult& result, SolveStatus status,
             std::span<const std::uint32_t> basis) const {
    result.status = status;
    result.basis.assign(basis.begin(), basis.end());
    result.stats.wall_seconds = wall_.seconds();
    result.stats.device_stats = dev_ != nullptr ? dev_->stats()
                                                : meter_->stats();
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

  /// The checker and the analyzer read the device's one access stream:
  /// the checker rides the analyzer's capture, or one the frame owns when
  /// no analyzer is attached.
  vgpu::Device& attach(vgpu::Device& dev) {
    dev.reset_stats();
    dev.set_trace(profile::chain(opt_.profiler, opt_.trace_sink,
                                 trace::kDevicePid, dev.model()));
    vgpu::analyze::CaptureLog* capture = opt_.analyzer;
    if (capture == nullptr && opt_.checker != nullptr) {
      capture = &own_capture_.emplace();
    }
    if (capture != nullptr) capture->set_checker(opt_.checker);
    dev.set_capture(capture);
    dev.set_metrics(opt_.metrics);
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
  vgpu::Device* dev_ = nullptr;
  std::optional<CostMeter> meter_;
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
