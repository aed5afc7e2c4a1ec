// Roofline profiler: the aggregation layer above the trace stream.
//
// The trace layer (src/trace) answers "what happened, when" one event at a
// time; this layer answers the paper's actual question — *where does the
// modeled time go, and why* — by consuming the same event stream through
// the TraceSink interface (no new instrumentation points; every engine's
// existing one-branch hooks feed it) and aggregating:
//
//   per kernel   call count, total modeled seconds (bit-exact against
//                DeviceStats::kernel_seconds — the same doubles are summed
//                in the same emission order), declared flops/bytes, the
//                roofline decomposition (launch / compute / memory seconds
//                recomputed per launch from the bound MachineModel), the
//                achieved-vs-peak bandwidth and compute fractions, and a
//                bound classification: launch-bound when the latency term
//                (fixed launch overhead plus any declared dependent steps)
//                dominates the work term, else bandwidth-bound or
//                compute-bound by the dominant roofline term;
//   per phase    total and self modeled time for every B/E span (solve,
//                phase1/2, iteration, price, ftran, ratio, update, ...),
//                where self = total minus enclosed child spans and slices;
//   per request  the service's per-request stage slices ("stage" category:
//                queued / engine_solve / cache_hit), with the tiling
//                invariant max |latency - sum(stage durs)| exposed for the
//                1e-9 reconciliation gate, and p50/p99 latency decomposed
//                into per-stage attribution.
//
// Exports: a ranked top-N table (ProfileReport::table), a collapsed-stack
// flamegraph ("a;b;leaf nanoseconds" lines, ProfileReport::flamegraph_text)
// and a `gs-profile-v1` JSON document (ProfileReport::to_json).
//
// Composition: a Profiler is itself a TraceSink and forwards every event
// unmodified to an optional downstream sink, so `--profile` and `--trace`
// stack on one stream. Like every observer (OBSERVABILITY.md), it is
// off-by-default, borrowed not owned, and attaching it changes no result
// bit or DeviceStats field.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::profile {

/// Roofline bound class of a kernel: which term of
/// t = t_launch + max(flops/F_eff, bytes/B_eff) + steps * t_step dominates
/// its time (the dependent steps count as latency, with the launch).
enum class BoundClass : std::uint8_t {
  kLaunch,     ///< launch overhead + dependent steps >= the max(work) term
  kBandwidth,  ///< memory term dominates (bytes/B_eff >= flops/F_eff)
  kCompute,    ///< arithmetic term dominates
};

[[nodiscard]] constexpr std::string_view to_string(BoundClass b) noexcept {
  switch (b) {
    case BoundClass::kLaunch: return "launch-bound";
    case BoundClass::kBandwidth: return "bandwidth-bound";
    case BoundClass::kCompute: return "compute-bound";
  }
  return "?";
}

/// Aggregate for one kernel name on one machine track (pid).
struct KernelProfile {
  std::string name;
  std::uint32_t pid = 0;      ///< machine track the launches ran on
  std::size_t calls = 0;
  double seconds = 0.0;       ///< bit-exact vs KernelRecord::sim_seconds
  double flops = 0.0;         ///< declared, summed over launches
  double bytes = 0.0;         ///< declared, summed over launches
  /// Roofline decomposition, summed per launch from the bound machine
  /// model. Note launch+max(compute,memory) per launch == seconds; the
  /// three components overlap (max), so they do not sum to `seconds`.
  /// `launch_seconds` includes the dependent-step latency.
  double launch_seconds = 0.0;
  double compute_seconds = 0.0;
  double memory_seconds = 0.0;
  double achieved_gflops = 0.0;     ///< flops / seconds / 1e9
  double achieved_gbps = 0.0;       ///< bytes / seconds / 1e9
  double compute_fraction = 0.0;    ///< achieved_gflops / machine peak
  double bandwidth_fraction = 0.0;  ///< achieved_gbps / machine mem_gbps
  BoundClass bound = BoundClass::kBandwidth;
};

/// Aggregate for one B/E span name (algorithm phase).
struct PhaseProfile {
  std::string name;
  std::size_t count = 0;
  double total_seconds = 0.0;  ///< sum of span durations
  double self_seconds = 0.0;   ///< total minus enclosed spans/slices
};

/// Aggregate for one service request stage ("stage" category slices).
struct StageProfile {
  std::string name;
  std::size_t count = 0;
  double seconds = 0.0;
};

/// One service request's span record, reassembled from its track.
struct RequestProfile {
  std::uint32_t tid = 0;           ///< request track id (the ticket id)
  std::string label;               ///< thread_name metadata, if emitted
  std::vector<std::pair<std::string, double>> stages;  ///< emission order
  double stage_sum = 0.0;          ///< durations summed in emission order
  double latency_seconds = 0.0;    ///< reported by the final stage slice
  bool has_latency = false;
  bool deadline_missed = false;

  /// The reconciliation residue: stage slices must tile the reported
  /// latency. Exactly 0.0 for the shipped service emission.
  [[nodiscard]] double tiling_error() const noexcept {
    const double d = latency_seconds - stage_sum;
    return d < 0 ? -d : d;
  }
};

/// Latency percentiles with per-stage attribution (the requests at the
/// p50/p99 ranks, decomposed).
struct RequestSummary {
  std::size_t count = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  std::vector<std::pair<std::string, double>> p50_stages, p99_stages;
};

/// Snapshot assembled by Profiler::report().
struct ProfileReport {
  std::vector<KernelProfile> kernels;    ///< ranked by seconds, descending
  std::vector<PhaseProfile> phases;      ///< ranked by total, descending
  std::vector<StageProfile> stages;      ///< name order
  std::vector<RequestProfile> requests;  ///< tid order
  /// Collapsed flamegraph stacks: path -> seconds (slices contribute their
  /// duration at stack;name, spans their self time at their own path).
  std::vector<std::pair<std::string, double>> flamegraph;
  /// Emission-order kernel/transfer totals per machine track. For a
  /// single-engine run the kernel total is bit-exact against
  /// DeviceStats::kernel_seconds.
  std::map<std::uint32_t, double> kernel_seconds_by_pid;
  std::map<std::uint32_t, double> transfer_seconds_by_pid;
  /// Seconds in launch-bound kernels / total kernel seconds (0 if none).
  double launch_bound_fraction = 0.0;

  /// Total kernel seconds across machine tracks (single-track runs: the
  /// bit-exact DeviceStats::kernel_seconds counterpart).
  [[nodiscard]] double kernel_seconds() const noexcept;
  [[nodiscard]] double transfer_seconds() const noexcept;
  /// Lookup by kernel name (first match across pids), or nullptr.
  [[nodiscard]] const KernelProfile* find_kernel(
      std::string_view name) const noexcept;
  /// Max per-request |latency - sum(stages)| (0 when no requests).
  [[nodiscard]] double max_stage_tiling_error() const noexcept;
  /// Latency percentiles + stage decomposition over `requests`.
  [[nodiscard]] RequestSummary request_summary() const;

  /// Ranked top-N kernel table (modeled ms, shares, roofline fractions,
  /// bound class), rendered with the repo-standard Table.
  [[nodiscard]] std::string table(std::size_t top_n = 10) const;
  /// Collapsed-stack flamegraph lines: "a;b;leaf <nanoseconds>\n".
  [[nodiscard]] std::string flamegraph_text() const;
  /// The gs-profile-v1 JSON document (doubles serialized round-trippable).
  [[nodiscard]] std::string to_json() const;
};

/// The aggregating TraceSink. Attach via SolverOptions::profiler (engines
/// chain any SolverOptions::trace_sink downstream automatically), via
/// SolveService::set_profiler, or hand-wire with Ledger::set_trace.
class Profiler final : public trace::TraceSink {
 public:
  explicit Profiler(trace::TraceSink* downstream = nullptr)
      : downstream_(downstream) {}

  /// Forward every consumed event, unmodified, to `sink` (nullptr stops
  /// forwarding). Engines call this with SolverOptions::trace_sink so
  /// --profile composes with --trace on one stream.
  void set_downstream(trace::TraceSink* sink) noexcept { downstream_ = sink; }
  [[nodiscard]] trace::TraceSink* downstream() const noexcept {
    return downstream_;
  }

  /// Bind the machine model behind a pid so per-launch roofline
  /// decomposition/classification can be recomputed from the declared
  /// KernelCost. Engines bind their ledger's model before the
  /// solve; unbound pids still aggregate counts and seconds but carry no
  /// decomposition.
  void bind_machine(std::uint32_t pid, const vgpu::MachineModel& model) {
    machines_[pid] = model;
  }

  void emit(trace::TraceEvent event) override;

  /// Drop all aggregated state (bound machines are kept).
  void clear();

  /// Assemble the ranked, classified snapshot of everything consumed.
  [[nodiscard]] ProfileReport report() const;

 private:
  struct KernelAgg {
    std::size_t calls = 0;
    double seconds = 0.0;
    double flops = 0.0, bytes = 0.0;
    double launch_seconds = 0.0, compute_seconds = 0.0, memory_seconds = 0.0;
    double class_seconds[3] = {0.0, 0.0, 0.0};  ///< indexed by BoundClass
    std::size_t scalar_bytes = 8;               ///< last declared precision
  };
  struct PhaseAgg {
    std::size_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };
  struct StageAgg {
    std::size_t count = 0;
    double seconds = 0.0;
  };
  struct RequestAgg {
    std::vector<std::pair<std::string, double>> stages;
    double stage_sum = 0.0;
    double latency_seconds = 0.0;
    bool has_latency = false;
    bool deadline_missed = false;
  };
  /// One open B/E span on a (pid, tid) track.
  struct Frame {
    std::string name;
    std::string path;  ///< semicolon-joined stack down to this span
    double begin_ts = 0.0;
    double child_seconds = 0.0;  ///< time of enclosed spans + slices
  };

  static std::uint64_t track_key(std::uint32_t pid, std::uint32_t tid) {
    return (std::uint64_t(pid) << 32) | tid;
  }

  void on_complete(const trace::TraceEvent& e);
  void on_kernel_slice(const trace::TraceEvent& e);
  void on_stage_slice(const trace::TraceEvent& e);
  /// Attribute a completed child (span or slice) to the innermost open
  /// span on the track, and return the flamegraph path for `name`.
  std::string attribute_child(std::uint64_t key, std::string_view name,
                              double dur);

  trace::TraceSink* downstream_ = nullptr;  ///< borrowed; may be null
  std::map<std::uint32_t, vgpu::MachineModel> machines_;
  /// pid -> kernel name -> aggregate (emission-order accumulation).
  std::map<std::uint32_t, std::map<std::string, KernelAgg, std::less<>>>
      kernels_;
  std::map<std::uint32_t, double> kernel_seconds_;
  std::map<std::uint32_t, double> transfer_seconds_;
  std::map<std::string, PhaseAgg, std::less<>> phases_;
  std::map<std::string, StageAgg, std::less<>> stages_;
  std::map<std::uint32_t, RequestAgg> requests_;  ///< keyed by track tid
  std::map<std::uint64_t, std::string> thread_labels_;
  std::map<std::uint64_t, std::vector<Frame>> stacks_;
  std::map<std::string, double, std::less<>> flame_;
};

/// Engine wiring helper: when `profiler` is attached, chain any existing
/// `sink` downstream of it, bind the machine model behind `pid`, and
/// return the profiler as the sink to attach; otherwise return `sink`
/// unchanged. Keeps the four engines' wiring identical and one branch on
/// the disabled path.
inline trace::TraceSink* chain(Profiler* profiler, trace::TraceSink* sink,
                               std::uint32_t pid,
                               const vgpu::MachineModel& model) {
  if (profiler == nullptr) return sink;
  profiler->set_downstream(sink);
  profiler->bind_machine(pid, model);
  return profiler;
}

}  // namespace gs::profile
