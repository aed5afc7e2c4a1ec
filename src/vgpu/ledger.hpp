// One machine's ledger: the single accounting path behind both modeled
// clocks (DESIGN.md, "Hardware substitution"). vgpu::Device charges every
// kernel launch and PCIe copy here, simplex::CostMeter every host step, so
// a GPU-vs-CPU comparison prices both sides with the same code.
//
// A charge runs, in order: the roofline time from the MachineModel, the
// trace slice on the machine's track (timestamped on its clock), the
// metric updates, and the fold into DeviceStats, whose sim_seconds() is
// the machine's modeled clock. Charges are issued from one thread (like a
// CUDA stream), so the ledger needs no synchronization.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::vgpu {

/// Work declaration for one kernel launch: totals across all threads.
/// `scalar_bytes` selects the arithmetic roofline (4 = float, 8 = double).
/// `dependent_steps` counts the serial steps a launch walks internally
/// (each waits on the previous one); each is charged
/// MachineModel::dependent_step_s on top of the roofline time. Ordinary
/// data-parallel kernels leave it at 0.
struct KernelCost {
  double flops = 0.0;
  double bytes = 0.0;
  std::size_t scalar_bytes = 8;
  std::size_t dependent_steps = 0;
};

/// Per-kernel aggregate, keyed by kernel name (the rows of the Tab.1
/// breakdown). Accumulated across every launch of that name since the last
/// Ledger::reset_stats().
struct KernelRecord {
  std::size_t launches = 0;  ///< number of launches under this name
  double sim_seconds = 0.0;  ///< modelled time incl. per-launch overhead
  double flops = 0.0;        ///< total declared floating-point operations
  double bytes = 0.0;        ///< total declared DRAM traffic

  friend bool operator==(const KernelRecord&, const KernelRecord&) = default;
};

/// Everything a machine has been charged for since the last reset: the
/// end-of-solve aggregate view of the same accounting stream that the
/// trace layer (OBSERVABILITY.md) exposes per event. Invariants when a
/// trace sink is attached: the "kernel" slices in the trace sum to
/// `kernel_seconds`, the "transfer" slices to `transfer_seconds()`, and
/// together they tile `sim_seconds()` exactly. A host machine moves no
/// PCIe traffic, so its transfer fields stay zero.
struct DeviceStats {
  std::size_t kernel_launches = 0;  ///< total kernel launches
  double kernel_seconds = 0.0;      ///< modelled kernel time incl. launch overhead

  std::size_t h2d_count = 0, d2h_count = 0;  ///< PCIe copy operations
  std::size_t h2d_bytes = 0, d2h_bytes = 0;  ///< PCIe bytes moved
  double h2d_seconds = 0.0, d2h_seconds = 0.0;  ///< modelled PCIe time

  double total_flops = 0.0;  ///< declared flops across all kernels
  double total_bytes = 0.0;  ///< declared DRAM bytes across all kernels

  /// Per-kernel-name aggregates (ordered; heterogeneous lookup enabled).
  std::map<std::string, KernelRecord, std::less<>> per_kernel;

  /// Total simulated seconds attributed to this machine (kernels + PCIe).
  [[nodiscard]] double sim_seconds() const noexcept {
    return kernel_seconds + h2d_seconds + d2h_seconds;
  }
  /// Modelled PCIe time, both directions.
  [[nodiscard]] double transfer_seconds() const noexcept {
    return h2d_seconds + d2h_seconds;
  }

  friend bool operator==(const DeviceStats&, const DeviceStats&) = default;
};

/// The direction of a PCIe copy, whose transfer slice is named `h2d` or
/// `d2h`.
enum class Direction : std::size_t { kH2D, kD2H };

/// Where one machine's charges appear. Both machines follow one naming
/// rule (OBSERVABILITY.md): the trace process `pid` is labeled
/// "<machine>: <model name>"; kernel metrics are `<kernels>.{launches,
/// seconds,flops,bytes}`, the histogram `<kernels>_seconds` and per kernel
/// name `<kernels>.<name>.{launches,seconds,bytes}`; a machine with an
/// interconnect adds `<machine>.{h2d,d2h}.{count,bytes,seconds}` and the
/// size histograms `<machine>.{h2d,d2h}_bytes`.
struct LedgerNames {
  std::uint32_t pid;
  std::string_view machine;
  std::string_view kernels;
  bool interconnect;
};

/// A virtual GPU: kernel launches and PCIe copies.
inline constexpr LedgerNames kDeviceNames{trace::kDevicePid, "vgpu",
                                          "vgpu.kernel", true};
/// A host CPU core: each algorithmic step is one single-thread "kernel".
inline constexpr LedgerNames kHostNames{trace::kHostPid, "cpu", "cpu.step",
                                        false};

/// A track on `names`' process, whose label it emits when `sink` is set.
[[nodiscard]] trace::Track machine_track(
    trace::TraceSink* sink, const LedgerNames& names,
    const MachineModel& model, std::uint32_t tid = trace::kEngineTid);

/// One machine's accounting; see the header comment.
class Ledger {
 public:
  Ledger(MachineModel model, const LedgerNames& names)
      : model_(std::move(model)), names_(names) {}

  [[nodiscard]] const MachineModel& model() const noexcept { return model_; }
  [[nodiscard]] const LedgerNames& names() const noexcept { return names_; }
  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = DeviceStats{}; }

  /// Simulated time elapsed on this machine since the last reset.
  [[nodiscard]] double sim_seconds() const noexcept {
    return stats_.sim_seconds();
  }

  /// Attach (or with nullptr detach) a trace sink. While attached, every
  /// charge is emitted as a complete slice on the machine's engine track,
  /// timestamped on this clock, so the slices tile sim_seconds() and their
  /// per-category totals equal the DeviceStats aggregates. Detached (the
  /// default) costs one branch per charge.
  void set_trace(trace::TraceSink* sink) {
    trace_ = machine_track(sink, names_, model_);
  }
  /// The track charges are emitted on; engines reuse it for their own
  /// algorithm-phase spans so everything nests on one timeline.
  [[nodiscard]] const trace::Track& trace() const noexcept { return trace_; }

  /// Attach (or with nullptr detach) a metrics registry (OBSERVABILITY.md,
  /// "Metrics") under the names of LedgerNames. All references are
  /// resolved here (and on first sight of a new kernel name), so a charge
  /// costs pointer bumps. Detached (the default) costs one branch per
  /// charge; attaching changes no DeviceStats field or result bit.
  void set_metrics(metrics::MetricsRegistry* registry);

  /// Charge one kernel launch (on the host, one step) of `threads` lanes.
  void kernel(std::string_view name, const KernelCost& cost,
              std::size_t threads) {
    const double t = model_.kernel_seconds(cost.flops, cost.bytes, threads,
                                           cost.scalar_bytes,
                                           cost.dependent_steps);
    if (trace_.enabled()) {
      std::vector<trace::TraceArg> args = {
          {"flops", cost.flops},
          {"bytes", cost.bytes},
          {"threads", static_cast<double>(threads)},
          {"scalar_bytes", static_cast<double>(cost.scalar_bytes)},
          {"sim_seconds", t}};
      if (cost.dependent_steps > 0) {
        args.emplace_back("dependent_steps",
                          static_cast<double>(cost.dependent_steps));
      }
      trace_.complete(name, stats_.sim_seconds(), t, "kernel",
                      std::move(args));
    }
    if (metrics_ != nullptr) {
      kernels_.launches->inc();
      kernels_.seconds->inc(t);
      kernels_.flops->inc(cost.flops);
      kernels_.bytes->inc(cost.bytes);
      kernels_.hist->observe(t);
      const NameRefs& refs = named(name);
      refs.launches->inc();
      refs.seconds->inc(t);
      refs.bytes->inc(cost.bytes);
    }
    ++stats_.kernel_launches;
    stats_.kernel_seconds += t;
    stats_.total_flops += cost.flops;
    stats_.total_bytes += cost.bytes;
    auto it = stats_.per_kernel.find(name);
    if (it == stats_.per_kernel.end()) {
      it = stats_.per_kernel.emplace(std::string(name), KernelRecord{}).first;
    }
    KernelRecord& rec = it->second;
    ++rec.launches;
    rec.sim_seconds += t;
    rec.flops += cost.flops;
    rec.bytes += cost.bytes;
  }

  /// Charge a PCIe copy of `bytes` (a machine with an interconnect only).
  /// A zero-byte copy never reaches the driver (the sparse paths hit this
  /// with empty index ranges), so it costs nothing and counts nothing.
  void transfer(Direction dir, std::size_t bytes) {
    GS_CHECK_MSG(names_.interconnect, "copy on a machine with no interconnect");
    if (bytes == 0) return;
    const double t = model_.transfer_seconds(bytes);
    const bool h2d = dir == Direction::kH2D;
    if (trace_.enabled()) {
      trace_.complete(h2d ? "h2d" : "d2h", stats_.sim_seconds(), t,
                      "transfer", {{"bytes", static_cast<double>(bytes)}});
    }
    if (metrics_ != nullptr) {
      const CopyRefs& copy = copies_[static_cast<std::size_t>(dir)];
      copy.count->inc();
      copy.bytes->inc(static_cast<double>(bytes));
      copy.seconds->inc(t);
      copy.hist->observe(static_cast<double>(bytes));
    }
    ++(h2d ? stats_.h2d_count : stats_.d2h_count);
    (h2d ? stats_.h2d_bytes : stats_.d2h_bytes) += bytes;
    (h2d ? stats_.h2d_seconds : stats_.d2h_seconds) += t;
  }

 private:
  /// Aggregate kernel metrics; valid only while metrics_ != nullptr
  /// (registry node storage keeps them stable).
  struct KernelRefs {
    metrics::Counter* launches = nullptr;
    metrics::Counter* seconds = nullptr;
    metrics::Counter* flops = nullptr;
    metrics::Counter* bytes = nullptr;
    metrics::Histogram* hist = nullptr;
  };
  /// One kernel name's tallies, resolved on its first launch.
  struct NameRefs {
    metrics::Counter* launches = nullptr;
    metrics::Counter* seconds = nullptr;
    metrics::Counter* bytes = nullptr;
  };
  /// One copy direction's metrics.
  struct CopyRefs {
    metrics::Counter* count = nullptr;
    metrics::Counter* bytes = nullptr;
    metrics::Counter* seconds = nullptr;
    metrics::Histogram* hist = nullptr;
  };

  const NameRefs& named(std::string_view name);

  MachineModel model_;
  LedgerNames names_;
  DeviceStats stats_;
  trace::Track trace_;
  metrics::MetricsRegistry* metrics_ = nullptr;  ///< borrowed; see set_metrics()
  KernelRefs kernels_;
  std::array<CopyRefs, 2> copies_{};
  std::map<std::string, NameRefs, std::less<>> per_name_;
};

}  // namespace gs::vgpu
