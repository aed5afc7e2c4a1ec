// Virtual-GPU device: functional kernel execution + roofline time accounting.
//
// Mirrors the CUDA host programming model the paper's implementation uses:
// buffers live in a distinct device address space, data moves via explicit
// copies, and work is submitted as kernels over a grid of blocks of threads.
// Execution is performed on the host (optionally across a thread pool), and
// simulated time for each launch/copy is charged against the device's
// MachineModel. Launches are issued from one thread (like a CUDA stream), so
// stats need no synchronization.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "metrics/metrics.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/machine_model.hpp"
#include "vgpu/thread_pool.hpp"

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
/// Device::reset_stats().
struct KernelRecord {
  std::size_t launches = 0;  ///< number of launches under this name
  double sim_seconds = 0.0;  ///< modelled time incl. per-launch overhead
  double flops = 0.0;        ///< total declared floating-point operations
  double bytes = 0.0;        ///< total declared DRAM traffic

  friend bool operator==(const KernelRecord&, const KernelRecord&) = default;
};

/// Everything the device has been charged for since the last reset: the
/// end-of-solve aggregate view of the same accounting stream that the
/// trace layer (OBSERVABILITY.md) exposes per event. Invariants when a
/// trace sink is attached: the "kernel" slices in the trace sum to
/// `kernel_seconds`, the "transfer" slices to `transfer_seconds()`, and
/// together they tile `sim_seconds()` exactly.
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

  /// Total simulated seconds attributed to this device (kernels + PCIe).
  [[nodiscard]] double sim_seconds() const noexcept {
    return kernel_seconds + h2d_seconds + d2h_seconds;
  }
  /// Modelled PCIe time, both directions.
  [[nodiscard]] double transfer_seconds() const noexcept {
    return h2d_seconds + d2h_seconds;
  }

  friend bool operator==(const DeviceStats&, const DeviceStats&) = default;
};

/// One virtual device. A host CPU is modelled the same way with a
/// MachineModel that has zero launch overhead and no interconnect.
class Device {
 public:
  /// `workers == 0` uses hardware concurrency for functional execution.
  explicit Device(MachineModel model, std::size_t workers = 1)
      : model_(std::move(model)), pool_(workers) {}

  [[nodiscard]] const MachineModel& model() const noexcept { return model_; }
  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = DeviceStats{}; }

  /// Attach (or with nullptr detach) a trace sink. While attached, every
  /// kernel launch and PCIe copy is emitted as a complete slice on the
  /// (pid, tid) track, timestamped on this device's simulated clock — the
  /// slices tile sim_seconds() exactly, so their per-category totals equal
  /// the DeviceStats aggregates. Detached (the default) costs one branch
  /// per launch/copy.
  void set_trace(trace::TraceSink* sink, std::uint32_t pid = trace::kDevicePid,
                 std::uint32_t tid = trace::kEngineTid) {
    trace_ = trace::Track(sink, pid, tid);
    if (trace_.enabled()) trace_.name_process("vgpu: " + model_.name);
  }

  /// The track kernels/copies are emitted on; engines reuse it for their
  /// own algorithm-phase spans so everything nests on one timeline.
  [[nodiscard]] const trace::Track& trace() const noexcept { return trace_; }

  /// Attach (or with nullptr detach) the access-stream capture
  /// (CHECKING.md). While attached, every kernel launch, PCIe copy, buffer
  /// alloc/free and element access through a DeviceBuffer span is recorded
  /// into it: the capture keeps the launch graph for analyze::analyze()
  /// and feeds each retiring launch to the check::Checker attached to it.
  /// Detached (the default) costs one pointer test per launch, copy and
  /// element access, and changes no result bit or DeviceStats field.
  void set_capture(analyze::CaptureLog* capture) { capture_ = capture; }

  /// The attached capture, or nullptr. DeviceBuffer stamps it into the
  /// CheckedSpans it hands out.
  [[nodiscard]] analyze::CaptureLog* capture() const noexcept {
    return capture_;
  }

  /// Attach (or with nullptr detach) a metrics registry (OBSERVABILITY.md,
  /// "Metrics"). While attached, every kernel launch updates the aggregate
  /// `vgpu.kernel.*` counters, the `vgpu.kernel_seconds` histogram and the
  /// per-kernel-name `vgpu.kernel.<name>.{launches,seconds,bytes}` tallies,
  /// and every PCIe copy updates `vgpu.{h2d,d2h}.*` plus the transfer-size
  /// histograms. All metric references are resolved here (and on first
  /// sight of a new kernel name), so the per-launch cost is pointer bumps.
  /// Detached (the default) costs one branch per launch/copy; attaching
  /// changes no DeviceStats field or result bit.
  void set_metrics(metrics::MetricsRegistry* registry) {
    metrics_ = registry;
    kernel_metrics_.clear();
    if (registry == nullptr) return;
    agg_.kernel_launches = &registry->counter("vgpu.kernel.launches");
    agg_.kernel_seconds = &registry->counter("vgpu.kernel.seconds");
    agg_.kernel_flops = &registry->counter("vgpu.kernel.flops");
    agg_.kernel_bytes = &registry->counter("vgpu.kernel.bytes");
    agg_.kernel_hist = &registry->histogram("vgpu.kernel_seconds",
                                            metrics::seconds_buckets());
    agg_.h2d_count = &registry->counter("vgpu.h2d.count");
    agg_.h2d_bytes = &registry->counter("vgpu.h2d.bytes");
    agg_.h2d_seconds = &registry->counter("vgpu.h2d.seconds");
    agg_.h2d_hist =
        &registry->histogram("vgpu.h2d_bytes", metrics::bytes_buckets());
    agg_.d2h_count = &registry->counter("vgpu.d2h.count");
    agg_.d2h_bytes = &registry->counter("vgpu.d2h.bytes");
    agg_.d2h_seconds = &registry->counter("vgpu.d2h.seconds");
    agg_.d2h_hist =
        &registry->histogram("vgpu.d2h_bytes", metrics::bytes_buckets());
  }

  /// The attached metrics registry, or nullptr.
  [[nodiscard]] metrics::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }

  /// Simulated time elapsed on this device since the last reset.
  [[nodiscard]] double sim_seconds() const noexcept {
    return stats_.sim_seconds();
  }

  /// Default block size for 1D launches (CUDA-typical).
  static constexpr std::size_t kBlockSize = 256;

  /// 1D data-parallel launch: body(i) for each i in [0, n).
  /// The body must be noexcept (kernels cannot throw, as in CUDA).
  template <typename F>
  void parallel_for(std::string_view name, std::size_t n, KernelCost cost,
                    F&& body) {
    launch_blocks(name, n, kBlockSize, cost,
                  [&body](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) body(i);
                  });
  }

  /// Block-granular launch: body(block, begin, end) with the [begin, end)
  /// thread range of that block. Hot kernels write their own inner loop so
  /// the compiler can vectorize it; simulated cost is unchanged.
  template <typename F>
  void launch_blocks(std::string_view name, std::size_t n,
                     std::size_t block_size, KernelCost cost, F&& body) {
    GS_CHECK_MSG(block_size > 0, "block size must be positive");
    // An empty grid never reaches the device: the CUDA driver rejects a
    // zero-block launch before submission, so no launch overhead is paid.
    // Charging here used to inflate kernel_launches on degenerate shapes
    // (e.g. a zero-row LP's m-wide kernels).
    if (n == 0) return;
    {
      const std::size_t blocks = (n + block_size - 1) / block_size;
      if (capture_ != nullptr) {
        // Captured path: bracket the launch so footprints recorded by
        // CheckedSpans are attributed to this kernel, and stamp the
        // executing block id into thread-local state for race detection.
        capture_->begin_launch(name, cost.bytes);
        pool_.run_chunks(blocks, [&](std::size_t b) {
          check::detail::tls_block = static_cast<std::uint32_t>(b);
          const std::size_t begin = b * block_size;
          const std::size_t end = std::min(n, begin + block_size);
          body(b, begin, end);
        });
        capture_->end_launch();
      } else {
        pool_.run_chunks(blocks, [&](std::size_t b) {
          const std::size_t begin = b * block_size;
          const std::size_t end = std::min(n, begin + block_size);
          body(b, begin, end);
        });
      }
    }
    record_kernel(name, cost, n);
  }

  /// Charge a host-to-device copy of `bytes`. A zero-byte copy never
  /// reaches the driver (the sparse paths hit this with empty index
  /// ranges, same as the zero-block launch case above), so it costs
  /// nothing and does not bump transfer counts.
  void account_h2d(std::size_t bytes) {
    if (bytes == 0) return;
    const double t = model_.transfer_seconds(bytes);
    if (trace_.enabled()) {
      trace_.complete("h2d", stats_.sim_seconds(), t, "transfer",
                      {{"bytes", static_cast<double>(bytes)}});
    }
    if (metrics_ != nullptr) {
      agg_.h2d_count->inc();
      agg_.h2d_bytes->inc(static_cast<double>(bytes));
      agg_.h2d_seconds->inc(t);
      agg_.h2d_hist->observe(static_cast<double>(bytes));
    }
    ++stats_.h2d_count;
    stats_.h2d_bytes += bytes;
    stats_.h2d_seconds += t;
  }

  /// Charge a device-to-host copy of `bytes`. Zero bytes: uncharged, as
  /// for h2d.
  void account_d2h(std::size_t bytes) {
    if (bytes == 0) return;
    const double t = model_.transfer_seconds(bytes);
    if (trace_.enabled()) {
      trace_.complete("d2h", stats_.sim_seconds(), t, "transfer",
                      {{"bytes", static_cast<double>(bytes)}});
    }
    if (metrics_ != nullptr) {
      agg_.d2h_count->inc();
      agg_.d2h_bytes->inc(static_cast<double>(bytes));
      agg_.d2h_seconds->inc(t);
      agg_.d2h_hist->observe(static_cast<double>(bytes));
    }
    ++stats_.d2h_count;
    stats_.d2h_bytes += bytes;
    stats_.d2h_seconds += t;
  }

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return pool_.worker_count();
  }

 private:
  void record_kernel(std::string_view name, const KernelCost& cost,
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
      agg_.kernel_launches->inc();
      agg_.kernel_seconds->inc(t);
      agg_.kernel_flops->inc(cost.flops);
      agg_.kernel_bytes->inc(cost.bytes);
      agg_.kernel_hist->observe(t);
      const KernelMetricRefs& km = kernel_metric_refs(name);
      km.launches->inc();
      km.seconds->inc(t);
      km.bytes->inc(cost.bytes);
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

  /// Metric references resolved once per kernel name (first launch pays
  /// the name lookup/creation; later launches hit this cache).
  struct KernelMetricRefs {
    metrics::Counter* launches = nullptr;
    metrics::Counter* seconds = nullptr;
    metrics::Counter* bytes = nullptr;
  };

  /// Aggregate metric references resolved at set_metrics() time; valid only
  /// while metrics_ != nullptr (registry node storage keeps them stable).
  struct AggregateMetricRefs {
    metrics::Counter* kernel_launches = nullptr;
    metrics::Counter* kernel_seconds = nullptr;
    metrics::Counter* kernel_flops = nullptr;
    metrics::Counter* kernel_bytes = nullptr;
    metrics::Histogram* kernel_hist = nullptr;
    metrics::Counter* h2d_count = nullptr;
    metrics::Counter* h2d_bytes = nullptr;
    metrics::Counter* h2d_seconds = nullptr;
    metrics::Histogram* h2d_hist = nullptr;
    metrics::Counter* d2h_count = nullptr;
    metrics::Counter* d2h_bytes = nullptr;
    metrics::Counter* d2h_seconds = nullptr;
    metrics::Histogram* d2h_hist = nullptr;
  };

  const KernelMetricRefs& kernel_metric_refs(std::string_view name) {
    auto it = kernel_metrics_.find(name);
    if (it == kernel_metrics_.end()) {
      const std::string base = "vgpu.kernel." + std::string(name);
      KernelMetricRefs refs{&metrics_->counter(base + ".launches"),
                            &metrics_->counter(base + ".seconds"),
                            &metrics_->counter(base + ".bytes")};
      it = kernel_metrics_.emplace(std::string(name), refs).first;
    }
    return it->second;
  }

  MachineModel model_;
  ThreadPool pool_;
  DeviceStats stats_;
  trace::Track trace_;
  analyze::CaptureLog* capture_ = nullptr;  ///< borrowed; see set_capture()
  metrics::MetricsRegistry* metrics_ = nullptr;  ///< borrowed; see set_metrics()
  AggregateMetricRefs agg_;
  std::map<std::string, KernelMetricRefs, std::less<>> kernel_metrics_;
};

}  // namespace gs::vgpu
