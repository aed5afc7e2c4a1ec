// Virtual-GPU device: functional kernel execution on a Ledger.
//
// Mirrors the CUDA host programming model the paper's implementation uses:
// buffers live in a distinct device address space, data moves via explicit
// copies, and work is submitted as kernels over a grid of blocks of threads.
// Execution is performed on the host (optionally across a thread pool), and
// each launch and copy is charged to the device's Ledger (ledger.hpp), the
// accounting path it shares with the host CostMeter.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

#include "support/error.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/ledger.hpp"
#include "vgpu/machine_model.hpp"
#include "vgpu/thread_pool.hpp"

namespace gs::vgpu {

/// One virtual device: a Ledger on a GPU model (kDeviceNames) that also
/// executes its launches and feeds the access-stream capture.
class Device : public Ledger {
 public:
  /// `workers == 0` uses hardware concurrency for functional execution.
  explicit Device(MachineModel model, std::size_t workers = 1)
      : Ledger(std::move(model), kDeviceNames), pool_(workers) {}

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
    kernel(name, cost, n);
  }

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return pool_.worker_count();
  }

 private:
  ThreadPool pool_;
  analyze::CaptureLog* capture_ = nullptr;  ///< borrowed; see set_capture()
};

}  // namespace gs::vgpu
