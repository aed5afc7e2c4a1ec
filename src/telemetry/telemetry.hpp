// Telemetry core: a deterministic time-series pipeline over the modeled
// clocks (OBSERVABILITY.md, "Telemetry & SLOs").
//
// Every other observability pillar reports end-of-run aggregates; this one
// records *evolution*: named series of (t, value) points where t is always
// a modeled timestamp — an engine's CostMeter/vgpu `sim_seconds`, or the
// service's monotone drain-epoch clock. No wall-clock is ever read, so two
// identical runs produce byte-identical `gs-telemetry-v1` JSON regardless
// of machine load or worker count.
//
// Retention is bounded: each series keeps at most kSeriesCapacity points.
// When a series fills, every other point is dropped and the acceptance
// stride doubles (1, 2, 4, ...) — classic power-of-two downsampling that
// keeps a uniform subsample of the full run at a fixed memory ceiling,
// and keeps retention itself deterministic (a function of arrival count
// alone, never of time or memory pressure).
//
// Wiring follows the observer pattern shared by trace/check/metrics/record
// and the profiler: a borrowed `SolverOptions::telemetry` pointer for solo
// engine runs (per-iteration objective/residual/growth series) and
// `SolveService::set_telemetry` for service runs (fixed-interval samples
// of the drain timeline, fed to the SLO engine). Off by default; attaching
// a sink must not change a single result bit (tests/test_telemetry.cpp
// asserts record-level and DeviceStats bit-identity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/metrics.hpp"
#include "telemetry/slo.hpp"

namespace gs::telemetry {

/// Width of one service sample interval on the epoch clock. 1 ms spans a
/// batch drain (~8-15 ms makespans at the bench sizes) with enough
/// resolution for the SLO windows to see bursts.
inline constexpr double kSampleIntervalSeconds = 1e-3;
/// Per-series point cap; a power of two for clean downsampling.
inline constexpr std::size_t kSeriesCapacity = 512;
/// Cap on stored timestamped events (drains, SLO transitions).
inline constexpr std::size_t kEventCapacity = 256;

struct SeriesPoint {
  double t = 0.0;
  double v = 0.0;
};

/// One bounded series with power-of-two downsampling. `stride()` reports
/// how many arrivals each retained point represents (1 until the first
/// downsample).
class Series {
 public:
  explicit Series(std::size_t capacity) : capacity_(capacity) {}

  void record(double t, double v) {
    if (arrivals_ % stride_ == 0) {
      if (points_.size() >= capacity_ && capacity_ > 1) {
        // Keep even indices: a uniform subsample at twice the stride.
        std::size_t w = 0;
        for (std::size_t r = 0; r < points_.size(); r += 2) {
          points_[w++] = points_[r];
        }
        points_.resize(w);
        stride_ *= 2;
      }
      if (points_.size() < capacity_) points_.push_back({t, v});
    }
    ++arrivals_;
  }

  [[nodiscard]] const std::vector<SeriesPoint>& points() const noexcept {
    return points_;
  }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }

 private:
  std::size_t capacity_;
  std::size_t stride_ = 1;
  std::uint64_t arrivals_ = 0;
  std::vector<SeriesPoint> points_;
};

struct TimedEvent {
  double t = 0.0;
  std::string name;
  std::string detail;
};

class Telemetry {
 public:
  /// Append one point to the named series (created on first use).
  void record(std::string_view series, double t, double v);

  /// Record a timestamped event (bounded by kEventCapacity; overflow is
  /// counted, not stored).
  void event(std::string_view name, double t, std::string detail = {});

  /// Added to every timestamp record() and event() take (0 by default). A
  /// solve that runs in stages raises it by the modeled time of the stages
  /// already finished, so all its points share the first stage's clock.
  void set_time_offset(double seconds) noexcept { time_offset_ = seconds; }
  [[nodiscard]] double time_offset() const noexcept { return time_offset_; }

  /// Snapshot `registry`, diff against the previous snapshot, and record
  /// each counter delta as series `registry.<name>` plus each gauge's
  /// current value — per-interval rates out of cumulative metrics.
  void sample_registry(double t, const metrics::MetricsRegistry& registry);

  /// Feed one service interval: records the service.* series and, when an
  /// SLO spec is attached, judges it and records alert transitions as
  /// `slo-firing` / `slo-resolved` events.
  void observe_service_sample(const ServiceSample& sample);

  void set_slo(SloSpec spec) { slo_.emplace(std::move(spec)); }
  [[nodiscard]] bool has_slo() const noexcept { return slo_.has_value(); }
  [[nodiscard]] std::vector<SloAttainment> slo_attainment() const {
    return slo_ ? slo_->attainment() : std::vector<SloAttainment>{};
  }
  [[nodiscard]] bool slo_violated() const {
    return slo_ && slo_->violated();
  }

  [[nodiscard]] const std::map<std::string, Series, std::less<>>& series()
      const noexcept {
    return series_;
  }
  [[nodiscard]] const std::vector<TimedEvent>& events() const noexcept {
    return events_;
  }

  /// `gs-telemetry-v1` JSON: schema, sample interval, every series with
  /// its stride and retained points, events, SLO attainment when present.
  /// Series names are map-sorted and numbers use the shared %.17g writer,
  /// so identical runs serialize byte-identically.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus-style text exposition of each series' latest value
  /// (`gs_` prefix, non-alphanumerics mangled to '_').
  [[nodiscard]] std::string to_prometheus() const;

  void write_file(const std::string& path) const;

  static constexpr std::string_view kSchema = "gs-telemetry-v1";

 private:
  double time_offset_ = 0.0;
  std::map<std::string, Series, std::less<>> series_;
  std::vector<TimedEvent> events_;
  std::uint64_t events_dropped_ = 0;
  std::optional<SloEngine> slo_;
  std::optional<metrics::MetricsSnapshot> last_registry_;
};

}  // namespace gs::telemetry
