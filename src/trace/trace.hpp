// Solver observability core: the event model and the TraceSink interface.
//
// Everything the engines and the vgpu substrate know how to report — kernel
// launches, PCIe copies, per-iteration algorithm phases, scalar counters —
// is expressed as a TraceEvent and pushed into a user-supplied TraceSink.
// The event vocabulary deliberately mirrors the Chrome trace-event format
// (phase letters B/E/X/C/i/M) so the chrome_sink can serialize events
// one-to-one; other sinks (the ring buffer used by tests) are free to
// interpret them differently.
//
// Timestamps are *simulated* seconds on the emitting machine's clock (the
// device's roofline clock for vgpu engines, the CostMeter clock for host
// engines), measured from the start of the solve. Durations use the same
// unit. This makes span totals exactly reconcilable with the end-of-solve
// DeviceStats aggregates — see OBSERVABILITY.md for the invariants.
//
// Cost discipline: tracing is OFF unless a sink is attached, and the
// disabled path is a single pointer test (Track::enabled()) with no
// allocation, no string formatting and no virtual call. Engines must never
// construct TraceEvent objects on the disabled path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gs::trace {

/// Event kind. Values are the Chrome trace-event phase letters.
enum class EventPhase : char {
  kBegin = 'B',     ///< open a nested span on (pid, tid) at `ts`
  kEnd = 'E',       ///< close the innermost open span on (pid, tid)
  kComplete = 'X',  ///< self-contained slice: [ts, ts + dur)
  kCounter = 'C',   ///< sampled scalar value (args carry the samples)
  kInstant = 'i',   ///< zero-duration marker
  kMetadata = 'M',  ///< process/thread naming (label carries the name)
};

[[nodiscard]] constexpr char to_char(EventPhase p) noexcept {
  return static_cast<char>(p);
}

/// One named numeric payload entry attached to an event (rendered into the
/// Chrome `args` object). All solver payloads are numeric by design.
using TraceArg = std::pair<std::string, double>;

/// A single observability event. See the header comment for the clock
/// convention; `pid`/`tid` select the timeline track the event belongs to.
struct TraceEvent {
  std::string name;      ///< kernel / span / counter name
  std::string category;  ///< taxonomy bucket: "kernel", "transfer", "op", ...
  EventPhase phase = EventPhase::kInstant;
  double ts = 0.0;   ///< sim-seconds since solve start
  double dur = 0.0;  ///< sim-seconds; meaningful for kComplete only
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::vector<TraceArg> args;
  std::string label;  ///< kMetadata only: the process/thread display name
};

/// Receiver of trace events. Implementations must tolerate events from
/// multiple (pid, tid) tracks interleaved in emission order; within one
/// track, timestamps are non-decreasing.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(TraceEvent event) = 0;
};

/// Forwards every event to `downstream` with its timestamp moved `offset`
/// seconds later. A solve that runs in stages emits each later stage
/// through one, so all its events share the first stage's clock.
class ShiftedSink final : public TraceSink {
 public:
  ShiftedSink(TraceSink* downstream, double offset) noexcept
      : downstream_(downstream), offset_(offset) {}

  void emit(TraceEvent event) override {
    event.ts += offset_;
    downstream_->emit(std::move(event));
  }

 private:
  TraceSink* downstream_;
  double offset_;
};

// Well-known track ids used by the shipped engines (see OBSERVABILITY.md).
// pid = one virtual processor (a vgpu Device or the host CPU model);
// tid = one engine/stream timeline within it.
inline constexpr std::uint32_t kDevicePid = 1;   ///< vgpu::Device timelines
inline constexpr std::uint32_t kHostPid = 2;     ///< CostMeter (CPU) timelines
inline constexpr std::uint32_t kServicePid = 3;  ///< service request tracks
inline constexpr std::uint32_t kEngineTid = 1;   ///< default engine stream

/// A (sink, pid, tid) binding: the lightweight handle every instrumented
/// component holds. Copyable; a default-constructed Track is disabled and
/// every emit method is a no-op costing one branch.
class Track {
 public:
  Track() = default;
  Track(TraceSink* sink, std::uint32_t pid, std::uint32_t tid) noexcept
      : sink_(sink), pid_(pid), tid_(tid) {}

  [[nodiscard]] bool enabled() const noexcept { return sink_ != nullptr; }
  [[nodiscard]] TraceSink* sink() const noexcept { return sink_; }
  [[nodiscard]] std::uint32_t pid() const noexcept { return pid_; }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }

  /// Open a nested span at `ts` (close with end()).
  void begin(std::string_view name, double ts, std::string_view category = {},
             std::vector<TraceArg> args = {}) const {
    if (!sink_) return;
    emit(name, category, EventPhase::kBegin, ts, 0.0, std::move(args));
  }

  /// Close the innermost open span at `ts`.
  void end(double ts) const {
    if (!sink_) return;
    emit({}, {}, EventPhase::kEnd, ts, 0.0, {});
  }

  /// Self-contained slice covering [ts, ts + dur).
  void complete(std::string_view name, double ts, double dur,
                std::string_view category = {},
                std::vector<TraceArg> args = {}) const {
    if (!sink_) return;
    emit(name, category, EventPhase::kComplete, ts, dur, std::move(args));
  }

  /// Sampled scalar series (one point per call).
  void counter(std::string_view name, double ts, double value) const {
    if (!sink_) return;
    emit(name, {}, EventPhase::kCounter, ts, 0.0,
         {{std::string(name), value}});
  }

  /// Zero-duration marker.
  void instant(std::string_view name, double ts,
               std::string_view category = {}) const {
    if (!sink_) return;
    emit(name, category, EventPhase::kInstant, ts, 0.0, {});
  }

  /// Name this track's process (rendered as the Chrome pid label).
  void name_process(std::string_view label) const {
    if (!sink_) return;
    TraceEvent e;
    e.name = "process_name";
    e.phase = EventPhase::kMetadata;
    e.pid = pid_;
    e.tid = tid_;
    e.label = label;
    sink_->emit(std::move(e));
  }

  /// Name this track's thread (rendered as the Chrome tid label).
  void name_thread(std::string_view label) const {
    if (!sink_) return;
    TraceEvent e;
    e.name = "thread_name";
    e.phase = EventPhase::kMetadata;
    e.pid = pid_;
    e.tid = tid_;
    e.label = label;
    sink_->emit(std::move(e));
  }

 private:
  void emit(std::string_view name, std::string_view category, EventPhase phase,
            double ts, double dur, std::vector<TraceArg> args) const {
    TraceEvent e;
    e.name = name;
    e.category = category;
    e.phase = phase;
    e.ts = ts;
    e.dur = dur;
    e.pid = pid_;
    e.tid = tid_;
    e.args = std::move(args);
    sink_->emit(std::move(e));
  }

  TraceSink* sink_ = nullptr;
  std::uint32_t pid_ = 0;
  std::uint32_t tid_ = 0;
};

/// RAII span: begin() on construction, end() on destruction, with the
/// timestamp read from a caller-supplied clock (so engines time spans on
/// their simulated clock, not wall time). Zero-cost when the track is
/// disabled: the clock is never invoked.
template <typename Clock>
class ScopedSpan {
 public:
  ScopedSpan(const Track& track, std::string_view name, Clock clock,
             std::string_view category = {}, std::vector<TraceArg> args = {})
      : track_(track), clock_(std::move(clock)) {
    if (track_.enabled()) {
      track_.begin(name, clock_(), category, std::move(args));
    }
  }
  ~ScopedSpan() {
    if (track_.enabled()) track_.end(clock_());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const Track& track_;
  Clock clock_;
};

template <typename Clock>
ScopedSpan(const Track&, std::string_view, Clock) -> ScopedSpan<Clock>;

}  // namespace gs::trace
