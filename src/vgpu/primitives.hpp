// Data-parallel primitives on device buffers (the thrust-equivalents the
// paper's implementation leans on): reductions, argmin/argmax with Bland
// tie-breaking, first-below search, fill/iota, scans and stream compaction.
//
// Each primitive is costed like its CUDA counterpart: one bandwidth-bound
// pass over the data (plus a small combine launch), and a scalar
// device-to-host readback when the result returns to the host — that
// readback latency is a first-order effect in the paper's small-LP regime.
//
// Determinism: partial results are produced per block sequentially and
// combined in block order, so results are identical for any worker count.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace gs::vgpu {

/// Result of an arg-reduction: index and the value at that index.
template <typename T>
struct ArgResult {
  std::size_t index = static_cast<std::size_t>(-1);
  T value{};
  [[nodiscard]] bool found() const noexcept {
    return index != static_cast<std::size_t>(-1);
  }
};

namespace detail {

inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

template <typename T>
[[nodiscard]] std::size_t block_count(const DeviceBuffer<T>& v) noexcept {
  return (v.size() + Device::kBlockSize - 1) / Device::kBlockSize;
}

/// Sequential in-block argmin scan over [begin, end): ties resolve to the
/// smallest index. Shared by vgpu::argmin and the fused simplex selection
/// kernels (simplex/at_policy.hpp) so both reduce with bit-identical
/// semantics — the fused path's pivot sequence must match the primitive's.
template <typename Span>
[[nodiscard]] std::size_t block_argmin(const Span& data, std::size_t begin,
                                       std::size_t end) noexcept {
  std::size_t best = begin;
  for (std::size_t i = begin + 1; i < end; ++i) {
    if (data[i] < data[best]) best = i;
  }
  return best;
}

/// First index in [begin, end) with data[i] < threshold, or kNoIndex.
/// Shared by vgpu::find_first_below and the fused Bland selection.
template <typename Span, typename T>
[[nodiscard]] std::size_t block_first_below(const Span& data,
                                            std::size_t begin, std::size_t end,
                                            T threshold) noexcept {
  for (std::size_t i = begin; i < end; ++i) {
    if (data[i] < threshold) return i;
  }
  return kNoIndex;
}

}  // namespace detail

/// Sum of all elements; returns the scalar to the host.
template <typename T>
[[nodiscard]] T reduce_sum(const DeviceBuffer<T>& v) {
  Device& dev = v.device();
  const std::size_t blocks = detail::block_count(v);
  std::vector<T> partial(blocks, T{0});
  auto data = v.device_span();
  dev.launch_blocks(
      "reduce_sum", v.size(), Device::kBlockSize,
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        T acc{0};
        for (std::size_t i = begin; i < end; ++i) acc += data[i];
        partial[b] = acc;
      });
  T total{0};
  dev.launch_blocks(
      "reduce_sum_final", blocks, Device::kBlockSize,
      KernelCost{static_cast<double>(blocks),
                 static_cast<double>(blocks * sizeof(T)), sizeof(T)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) total += partial[i];
      });
  dev.transfer(Direction::kD2H, sizeof(T));
  return total;
}

/// Index of the minimum element; ties resolve to the smallest index
/// (Bland-compatible). Empty buffer -> !found().
template <typename T>
[[nodiscard]] ArgResult<T> argmin(const DeviceBuffer<T>& v) {
  Device& dev = v.device();
  if (v.empty()) return {};
  const std::size_t blocks = detail::block_count(v);
  std::vector<std::size_t> part_idx(blocks, detail::kNoIndex);
  std::vector<T> part_val(blocks);
  auto data = v.device_span();
  dev.launch_blocks(
      "argmin", v.size(), Device::kBlockSize,
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        const std::size_t best = detail::block_argmin(data, begin, end);
        part_idx[b] = best;
        part_val[b] = data[best];
      });
  ArgResult<T> result{part_idx[0], part_val[0]};
  dev.launch_blocks(
      "argmin_final", blocks, Device::kBlockSize,
      KernelCost{static_cast<double>(blocks),
                 static_cast<double>(blocks * (sizeof(T) + sizeof(std::size_t))),
                 sizeof(T)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (part_val[i] < result.value) {
            result = {part_idx[i], part_val[i]};
          }
        }
      });
  dev.transfer(Direction::kD2H, sizeof(T) + sizeof(std::size_t));
  return result;
}

/// Index of the maximum element; ties resolve to the smallest index.
template <typename T>
[[nodiscard]] ArgResult<T> argmax(const DeviceBuffer<T>& v) {
  Device& dev = v.device();
  if (v.empty()) return {};
  const std::size_t blocks = detail::block_count(v);
  std::vector<std::size_t> part_idx(blocks, detail::kNoIndex);
  std::vector<T> part_val(blocks);
  auto data = v.device_span();
  dev.launch_blocks(
      "argmax", v.size(), Device::kBlockSize,
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        std::size_t best = begin;
        for (std::size_t i = begin + 1; i < end; ++i) {
          if (data[i] > data[best]) best = i;
        }
        part_idx[b] = best;
        part_val[b] = data[best];
      });
  ArgResult<T> result{part_idx[0], part_val[0]};
  dev.launch_blocks(
      "argmax_final", blocks, Device::kBlockSize,
      KernelCost{static_cast<double>(blocks),
                 static_cast<double>(blocks * (sizeof(T) + sizeof(std::size_t))),
                 sizeof(T)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (part_val[i] > result.value) {
            result = {part_idx[i], part_val[i]};
          }
        }
      });
  dev.transfer(Direction::kD2H, sizeof(T) + sizeof(std::size_t));
  return result;
}

/// Smallest index i with v[i] < threshold (Bland's entering-variable rule),
/// or !found() if no element qualifies.
template <typename T>
[[nodiscard]] ArgResult<T> find_first_below(const DeviceBuffer<T>& v,
                                            T threshold) {
  Device& dev = v.device();
  if (v.empty()) return {};
  const std::size_t blocks = detail::block_count(v);
  std::vector<std::size_t> part_idx(blocks, detail::kNoIndex);
  auto data = v.device_span();
  dev.launch_blocks(
      "find_first_below", v.size(), Device::kBlockSize,
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        part_idx[b] = detail::block_first_below(data, begin, end, threshold);
      });
  ArgResult<T> result{};
  dev.launch_blocks(
      "find_first_below_final", blocks, Device::kBlockSize,
      KernelCost{static_cast<double>(blocks),
                 static_cast<double>(blocks * sizeof(std::size_t)), sizeof(T)},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (part_idx[i] != detail::kNoIndex) {
            result.index = part_idx[i];
            break;
          }
        }
      });
  if (result.found()) result.value = data[result.index];
  dev.transfer(Direction::kD2H, sizeof(T) + sizeof(std::size_t));
  return result;
}

/// Set every element to `value`.
template <typename T>
void fill(DeviceBuffer<T>& v, T value) {
  auto data = v.device_span();
  v.device().parallel_for(
      "fill", v.size(),
      KernelCost{0.0, static_cast<double>(v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t i) { data[i] = value; });
}

/// v[i] = start + i.
template <typename T>
void iota(DeviceBuffer<T>& v, T start = T{0}) {
  auto data = v.device_span();
  v.device().parallel_for(
      "iota", v.size(),
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t i) { data[i] = start + static_cast<T>(i); });
}

/// Inclusive prefix sum: out[i] = v[0] + ... + v[i]. Two-pass block scan,
/// deterministic for any worker count.
template <typename T>
void inclusive_scan(const DeviceBuffer<T>& v, DeviceBuffer<T>& out) {
  GS_CHECK_MSG(out.size() == v.size(), "scan output size mismatch");
  Device& dev = v.device();
  if (v.empty()) return;
  const std::size_t blocks = detail::block_count(v);
  std::vector<T> block_total(blocks, T{0});
  auto in = v.device_span();
  auto res = out.device_span();
  dev.launch_blocks(
      "scan_local", v.size(), Device::kBlockSize,
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(2 * v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        T acc{0};
        for (std::size_t i = begin; i < end; ++i) {
          acc += in[i];
          res[i] = acc;
        }
        block_total[b] = acc;
      });
  // Exclusive scan of block totals (small, single "block" on device).
  std::vector<T> block_offset(blocks, T{0});
  dev.launch_blocks(
      "scan_block_totals", blocks, blocks,
      KernelCost{static_cast<double>(blocks),
                 static_cast<double>(2 * blocks * sizeof(T)), sizeof(T)},
      [&](std::size_t, std::size_t, std::size_t) {
        T acc{0};
        for (std::size_t b = 0; b < blocks; ++b) {
          block_offset[b] = acc;
          acc += block_total[b];
        }
      });
  dev.launch_blocks(
      "scan_add_offsets", v.size(), Device::kBlockSize,
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(2 * v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        const T offset = block_offset[b];
        for (std::size_t i = begin; i < end; ++i) res[i] += offset;
      });
}

/// Count of elements satisfying `pred` (pred must be a pure function).
template <typename T, typename Pred>
[[nodiscard]] std::size_t count_if(const DeviceBuffer<T>& v, Pred pred) {
  Device& dev = v.device();
  const std::size_t blocks = detail::block_count(v);
  std::vector<std::size_t> partial(blocks, 0);
  auto data = v.device_span();
  dev.launch_blocks(
      "count_if", v.size(), Device::kBlockSize,
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        std::size_t c = 0;
        for (std::size_t i = begin; i < end; ++i) {
          if (pred(data[i])) ++c;
        }
        partial[b] = c;
      });
  std::size_t total = 0;
  for (std::size_t b = 0; b < blocks; ++b) total += partial[b];
  dev.transfer(Direction::kD2H, sizeof(std::size_t));
  return total;
}

/// Stream compaction: indices (ascending) of all elements satisfying pred.
/// Returned to the host, as the solver's control logic consumes them there.
template <typename T, typename Pred>
[[nodiscard]] std::vector<std::uint32_t> indices_where(const DeviceBuffer<T>& v,
                                                       Pred pred) {
  Device& dev = v.device();
  const std::size_t blocks = detail::block_count(v);
  std::vector<std::vector<std::uint32_t>> partial(blocks);
  auto data = v.device_span();
  dev.launch_blocks(
      "compact_indices", v.size(), Device::kBlockSize,
      KernelCost{static_cast<double>(v.size()),
                 static_cast<double>(2 * v.size() * sizeof(T)), sizeof(T)},
      [&](std::size_t b, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (pred(data[i])) partial[b].push_back(static_cast<std::uint32_t>(i));
        }
      });
  std::vector<std::uint32_t> out;
  for (auto& p : partial) out.insert(out.end(), p.begin(), p.end());
  dev.transfer(Direction::kD2H, out.size() * sizeof(std::uint32_t));
  return out;
}

}  // namespace gs::vgpu
