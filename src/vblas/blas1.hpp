// Device BLAS level 1: vector-vector operations as costed kernels.
#pragma once

#include <cmath>

#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/primitives.hpp"

namespace gs::vblas {

using vgpu::DeviceBuffer;
using vgpu::KernelCost;

/// y <- alpha * x + y
template <typename T>
void axpy(T alpha, const DeviceBuffer<T>& x, DeviceBuffer<T>& y) {
  GS_CHECK_MSG(x.size() == y.size(), "axpy size mismatch");
  auto xs = x.device_span();
  auto ys = y.device_span();
  const auto n = x.size();
  x.device().launch_blocks(
      "axpy", n, vgpu::Device::kBlockSize,
      KernelCost{2.0 * static_cast<double>(n),
                 3.0 * static_cast<double>(n * sizeof(T)), sizeof(T)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ys[i] += alpha * xs[i];
      });
}

/// x <- alpha * x
template <typename T>
void scal(T alpha, DeviceBuffer<T>& x) {
  auto xs = x.device_span();
  const auto n = x.size();
  x.device().launch_blocks(
      "scal", n, vgpu::Device::kBlockSize,
      KernelCost{static_cast<double>(n),
                 2.0 * static_cast<double>(n * sizeof(T)), sizeof(T)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) xs[i] *= alpha;
      });
}

/// Dot product x . y, returned to the host. Deterministic block-ordered sum.
template <typename T>
[[nodiscard]] T dot(const DeviceBuffer<T>& x, const DeviceBuffer<T>& y) {
  GS_CHECK_MSG(x.size() == y.size(), "dot size mismatch");
  vgpu::Device& dev = x.device();
  const auto n = x.size();
  const std::size_t blocks = (n + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
  std::vector<T> partial(blocks, T{0});
  auto xs = x.device_span();
  auto ys = y.device_span();
  dev.launch_blocks(
      "dot", n, vgpu::Device::kBlockSize,
      KernelCost{2.0 * static_cast<double>(n),
                 2.0 * static_cast<double>(n * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        T acc{0};
        for (std::size_t i = begin; i < end; ++i) acc += xs[i] * ys[i];
        partial[b] = acc;
      });
  T total{0};
  dev.launch_blocks(
      "dot_final", blocks, vgpu::Device::kBlockSize,
      KernelCost{static_cast<double>(blocks),
                 static_cast<double>(blocks * sizeof(T)), sizeof(T)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) total += partial[i];
      });
  dev.transfer(vgpu::Direction::kD2H, sizeof(T));
  return total;
}

/// Euclidean norm ||x||_2.
template <typename T>
[[nodiscard]] T nrm2(const DeviceBuffer<T>& x) {
  return static_cast<T>(std::sqrt(static_cast<double>(dot(x, x))));
}

/// Sum of absolute values.
template <typename T>
[[nodiscard]] T asum(const DeviceBuffer<T>& x) {
  vgpu::Device& dev = x.device();
  const auto n = x.size();
  const std::size_t blocks = (n + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
  std::vector<T> partial(blocks, T{0});
  auto xs = x.device_span();
  dev.launch_blocks(
      "asum", n, vgpu::Device::kBlockSize,
      KernelCost{2.0 * static_cast<double>(n),
                 static_cast<double>(n * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        T acc{0};
        for (std::size_t i = begin; i < end; ++i) acc += std::abs(xs[i]);
        partial[b] = acc;
      });
  T total{0};
  for (std::size_t b = 0; b < blocks; ++b) total += partial[b];
  dev.transfer(vgpu::Direction::kD2H, sizeof(T));
  return total;
}

/// y <- x (bandwidth-bound device copy kernel).
template <typename T>
void copy(const DeviceBuffer<T>& x, DeviceBuffer<T>& y) {
  GS_CHECK_MSG(x.size() == y.size(), "copy size mismatch");
  auto xs = x.device_span();
  auto ys = y.device_span();
  const auto n = x.size();
  x.device().launch_blocks(
      "blas_copy", n, vgpu::Device::kBlockSize,
      KernelCost{0.0, 2.0 * static_cast<double>(n * sizeof(T)), sizeof(T)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ys[i] = xs[i];
      });
}

}  // namespace gs::vblas
