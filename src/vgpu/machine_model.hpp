// Roofline machine models for the virtual-GPU substrate.
//
// The paper's testbed (a GT200-class NVIDIA GPU driven over PCIe by a
// 2009-era x86 CPU) is not available in this environment, so execution is
// functional (on the host) while *time* is produced by a calibrated
// analytic model:
//
//   t_kernel  = t_launch + max(flops / F_eff, bytes / B_eff)
//               + dependent_steps * t_step
//   F_eff     = F_peak * min(1, threads / saturation_threads)   (same for B)
//   t_copy    = t_latency + bytes / B_pcie
//
// This reproduces the two effects that shape the paper's evaluation:
// (1) large BLAS-2 kernels are bandwidth-bound, where the GPU's ~14x DRAM
// bandwidth advantage over a single 2009 core yields the headline speedup;
// (2) small kernels are dominated by launch latency and under-occupancy,
// which is why the CPU wins below the crossover size.
//
// The t_step term charges kernels that walk a serial dependency chain
// inside one launch (e.g. an eta file applied by a single block): each
// step waits on a barrier and a dependent global read, latency that no
// amount of occupancy hides. Ordinary data-parallel kernels declare zero
// steps and pay nothing for it.
#pragma once

#include <cstddef>
#include <string>

namespace gs::vgpu {

/// Calibrated throughput/latency description of one machine.
struct MachineModel {
  std::string name;

  /// Peak sustained arithmetic throughput, GFLOP/s (per precision — see
  /// flops_scale_for_bytes below for the single/double split).
  double peak_gflops_sp = 0.0;
  double peak_gflops_dp = 0.0;

  /// Sustained DRAM bandwidth, GB/s.
  double mem_gbps = 0.0;

  /// Fixed cost per kernel launch, seconds (0 for a host model).
  double launch_overhead_s = 0.0;

  /// Threads needed to saturate the machine; throughput scales linearly
  /// below this (occupancy effect). 1 for a single host core.
  std::size_t saturation_threads = 1;

  /// Host<->device interconnect (PCIe). Unused (0) for host models.
  double xfer_gbps = 0.0;
  double xfer_latency_s = 0.0;

  /// Latency of one dependent step inside a launch (barrier + dependent
  /// global read), seconds. 0 for a host model: a serial loop on one core
  /// already pays its dependencies in its flop/byte terms.
  double dependent_step_s = 0.0;

  /// Roofline time for one kernel launch. `scalar_bytes` selects the
  /// arithmetic peak: 4 -> single precision, 8 -> double precision.
  /// `dependent_steps` adds exactly `dependent_steps * dependent_step_s`
  /// on top of the roofline time (nothing at all when 0).
  [[nodiscard]] double kernel_seconds(
      double flops, double bytes, std::size_t threads,
      std::size_t scalar_bytes,
      std::size_t dependent_steps = 0) const noexcept;

  /// Time to move `bytes` across the host<->device interconnect.
  [[nodiscard]] double transfer_seconds(std::size_t bytes) const noexcept;
};

/// GT200-class GPU (GeForce GTX 280): the paper's device.
[[nodiscard]] MachineModel gtx280_model();
/// Fermi-class GPU (GeForce GTX 570): device-sensitivity extension.
[[nodiscard]] MachineModel gtx570_model();
/// Kepler-class GPU (GeForce GTX TITAN): device-sensitivity extension.
[[nodiscard]] MachineModel titan_model();
/// Single 2009-era x86 core: the paper's sequential CPU baseline.
[[nodiscard]] MachineModel cpu2009_model();

}  // namespace gs::vgpu
