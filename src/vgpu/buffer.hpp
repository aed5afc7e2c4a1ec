// Device-resident buffer with explicit, accounted host<->device transfers.
//
// Semantically equivalent to cudaMalloc'd memory: the contents are only
// legitimately touched inside kernel bodies (via device_span()) or moved
// with upload()/download(), which charge PCIe time on the owning device.
// The type is move-only, like a unique handle to device memory.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "support/error.hpp"
#include "vgpu/check/span.hpp"
#include "vgpu/device.hpp"

namespace gs::vgpu {

template <typename T>
class DeviceBuffer {
 public:
  /// Allocate `n` elements. Contents are zero-initialized — unlike CUDA this
  /// is deterministic by design; callers that need garbage tolerance must
  /// still write before reading.
  DeviceBuffer(Device& device, std::size_t n) : device_(&device), storage_(n) {
    notify_alloc();
  }

  /// Allocate and upload in one step (charged as a single H2D copy).
  DeviceBuffer(Device& device, std::span<const T> host)
      : device_(&device), storage_(host.size()) {
    notify_alloc();
    upload(host);
  }

  // Moves hand over the storage (the std::vector move keeps the data
  // pointer stable, so an attached capture's base->buffer identity
  // survives); the source is left detached so only one handle ever
  // reports the free. These used to be `= default`, but a defaulted move
  // assignment would silently destroy the target's storage without the
  // on_free notification the lifetime analysis depends on.
  DeviceBuffer(DeviceBuffer&& other) noexcept
      : device_(other.device_), storage_(std::move(other.storage_)) {
    other.device_ = nullptr;
  }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      device_ = other.device_;
      storage_ = std::move(other.storage_);
      other.device_ = nullptr;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  ~DeviceBuffer() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] bool empty() const noexcept { return storage_.empty(); }
  [[nodiscard]] Device& device() const noexcept { return *device_; }

  /// Device-side view; by convention only dereferenced inside kernel bodies.
  /// The returned CheckedSpan carries the device's capture: when one is
  /// attached (CHECKING.md) every element access is recorded and
  /// bounds-checked; detached, each access is one null test around the
  /// raw load/store.
  [[nodiscard]] check::CheckedSpan<T> device_span() noexcept {
    return {storage_.data(), storage_.size(), device_->capture()};
  }
  [[nodiscard]] check::CheckedSpan<const T> device_span() const noexcept {
    return {storage_.data(), storage_.size(), device_->capture()};
  }

  /// Instrumentation-only peek at device memory from the host, outside
  /// the machine model: no PCIe time is charged, no trace slice or metric
  /// is emitted, and no checker footprint is recorded. This exists for
  /// observers that must not perturb the modeled solve — the
  /// HealthMonitor's strided residual probes read B⁻¹ columns through it
  /// (OBSERVABILITY.md). Never use it for algorithm data flow; that is
  /// what download()/device_span() are for.
  [[nodiscard]] std::span<const T> host_view() const noexcept {
    return {storage_.data(), storage_.size()};
  }

  /// Copy host -> device (whole buffer or prefix), charging PCIe time.
  /// The range check is overflow-safe: `offset + host.size()` could wrap
  /// for hostile offsets, so compare against the remaining capacity.
  /// Zero-byte copies are no-ops: the early return precedes all
  /// accounting, so no PCIe operation is charged and no trace slice or
  /// metric is emitted — the disabled-path bit-identity guarantee holds
  /// for empty transfers too.
  void upload(std::span<const T> host, std::size_t offset = 0) {
    GS_CHECK_MSG(offset <= storage_.size() &&
                     host.size() <= storage_.size() - offset,
                 "upload out of range");
    if (host.empty()) return;
    std::memcpy(storage_.data() + offset, host.data(),
                host.size() * sizeof(T));
    device_->account_h2d(host.size() * sizeof(T));
    if (analyze::CaptureLog* s = device_->capture()) {
      s->on_h2d(storage_.data(), offset * sizeof(T),
                (offset + host.size()) * sizeof(T), host.data());
    }
  }

  /// Copy device -> host, charging PCIe time. Bounds and zero-byte
  /// handling mirror upload().
  void download(std::span<T> host, std::size_t offset = 0) const {
    GS_CHECK_MSG(offset <= storage_.size() &&
                     host.size() <= storage_.size() - offset,
                 "download out of range");
    if (host.empty()) return;
    std::memcpy(host.data(), storage_.data() + offset,
                host.size() * sizeof(T));
    device_->account_d2h(host.size() * sizeof(T));
    if (analyze::CaptureLog* s = device_->capture()) {
      s->on_d2h(storage_.data(), offset * sizeof(T),
                (offset + host.size()) * sizeof(T));
    }
  }

  [[nodiscard]] std::vector<T> to_host() const {
    std::vector<T> out(storage_.size());
    download(out);
    return out;
  }

  /// Single-element readback — the latency-dominated copy that punctuates
  /// every simplex iteration (chosen index, theta, objective delta).
  [[nodiscard]] T download_value(std::size_t index) const {
    GS_CHECK_MSG(index < storage_.size(), "download_value out of range");
    device_->account_d2h(sizeof(T));
    if (analyze::CaptureLog* s = device_->capture()) {
      s->on_d2h(storage_.data(), index * sizeof(T), (index + 1) * sizeof(T));
    }
    return storage_[index];
  }

  /// Single-element write (H2D latency charge).
  void upload_value(std::size_t index, const T& value) {
    GS_CHECK_MSG(index < storage_.size(), "upload_value out of range");
    device_->account_h2d(sizeof(T));
    storage_[index] = value;
    if (analyze::CaptureLog* s = device_->capture()) {
      s->on_h2d(storage_.data(), index * sizeof(T), (index + 1) * sizeof(T),
                &value);
    }
  }

  /// Device-to-device copy, charged as one bandwidth-bound kernel.
  void copy_from(const DeviceBuffer& other) {
    GS_CHECK_MSG(other.size() == size(), "copy_from size mismatch");
    GS_CHECK_MSG(other.device_ == device_, "cross-device copy unsupported");
    auto src = other.device_span();
    auto dst = device_span();
    device_->launch_blocks(
        "d2d_copy", size(), Device::kBlockSize,
        KernelCost{0.0, static_cast<double>(2 * size() * sizeof(T)), sizeof(T)},
        [&](std::size_t, std::size_t begin, std::size_t end) {
          src.read_range(begin, end);
          dst.write_range(begin, end);
          std::memcpy(dst.data() + begin, src.data() + begin,
                      (end - begin) * sizeof(T));
        });
  }

 private:
  void notify_alloc() {
    if (analyze::CaptureLog* s = device_->capture()) {
      s->on_alloc(storage_.data(), storage_.size() * sizeof(T), sizeof(T));
    }
  }

  /// Report the free to the device's capture and detach. Safe to call on
  /// moved-from handles (device_ == nullptr).
  void release() noexcept {
    if (device_ == nullptr) return;
    if (analyze::CaptureLog* s = device_->capture()) {
      s->on_free(storage_.data());
    }
    device_ = nullptr;
  }

  Device* device_;
  std::vector<T> storage_;
};

}  // namespace gs::vgpu
