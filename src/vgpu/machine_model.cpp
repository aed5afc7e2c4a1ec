#include "vgpu/machine_model.hpp"

#include <algorithm>

namespace gs::vgpu {

MachineModel::LaunchTerms MachineModel::launch_terms(
    double flops, double bytes, std::size_t threads, std::size_t scalar_bytes,
    std::size_t dependent_steps) const noexcept {
  const double occupancy =
      std::min(1.0, static_cast<double>(std::max<std::size_t>(threads, 1)) /
                        static_cast<double>(saturation_threads));
  const double f_eff = peak_gflops(scalar_bytes) * 1e9 * occupancy;
  const double b_eff = mem_gbps * 1e9 * occupancy;
  return {f_eff > 0 ? flops / f_eff : 0.0, b_eff > 0 ? bytes / b_eff : 0.0,
          static_cast<double>(dependent_steps) * dependent_step_s};
}

double MachineModel::kernel_seconds(
    double flops, double bytes, std::size_t threads, std::size_t scalar_bytes,
    std::size_t dependent_steps) const noexcept {
  const LaunchTerms terms =
      launch_terms(flops, bytes, threads, scalar_bytes, dependent_steps);
  double t = launch_overhead_s + std::max(terms.compute, terms.memory);
  if (dependent_steps > 0) t += terms.steps;
  return t;
}

double MachineModel::transfer_seconds(std::size_t bytes) const noexcept {
  if (xfer_gbps <= 0) return 0.0;
  return xfer_latency_s + static_cast<double>(bytes) / (xfer_gbps * 1e9);
}

MachineModel gtx280_model() {
  MachineModel m;
  m.name = "GTX280";
  // 240 SPs @ 1.296 GHz; sustained (non-MUL-dual-issue) SP ~= 400 GFLOP/s,
  // DP unit is 1/8 rate -> ~60 GFLOP/s sustained ~40. Bandwidth 141.7 GB/s
  // peak, ~110 sustained. Launch overhead ~6 us (2009 driver stack),
  // PCIe 1.1 x16 ~ 4 GB/s effective. A dependent step is one
  // __syncthreads() plus one uncached global read (~500 cycles) at
  // 1.3 GHz: ~0.5 us.
  m.peak_gflops_sp = 400.0;
  m.peak_gflops_dp = 40.0;
  m.mem_gbps = 110.0;
  m.launch_overhead_s = 6e-6;
  m.saturation_threads = 240 * 32;  // SPs x threads-in-flight each
  m.xfer_gbps = 4.0;
  m.xfer_latency_s = 8e-6;
  m.dependent_step_s = 0.5e-6;
  return m;
}

MachineModel gtx570_model() {
  MachineModel m;
  m.name = "GTX570";
  m.peak_gflops_sp = 1000.0;
  m.peak_gflops_dp = 120.0;
  m.mem_gbps = 130.0;
  m.launch_overhead_s = 5e-6;
  m.saturation_threads = 480 * 32;
  m.xfer_gbps = 6.0;
  m.xfer_latency_s = 7e-6;
  m.dependent_step_s = 0.4e-6;  // L2-cached dependent read
  return m;
}

MachineModel titan_model() {
  MachineModel m;
  m.name = "GTX-TITAN";
  m.peak_gflops_sp = 3500.0;
  m.peak_gflops_dp = 1100.0;
  m.mem_gbps = 230.0;
  m.launch_overhead_s = 5e-6;
  m.saturation_threads = 2688 * 16;
  m.xfer_gbps = 10.0;
  m.xfer_latency_s = 6e-6;
  m.dependent_step_s = 0.3e-6;
  return m;
}

MachineModel cpu2009_model() {
  MachineModel m;
  m.name = "CPU-2009-1core";
  // One core of a Core-2/Nehalem-class CPU: ~4 flops/cycle SSE2 double at
  // ~2.8 GHz sustains ~5 GFLOP/s on BLAS-2; single-core stream bandwidth
  // ~8 GB/s. Function call overhead is negligible next to kernel launches.
  m.peak_gflops_sp = 10.0;
  m.peak_gflops_dp = 5.0;
  m.mem_gbps = 8.0;
  m.launch_overhead_s = 0.0;
  m.saturation_threads = 1;
  m.xfer_gbps = 0.0;  // host memory: no interconnect cost
  m.xfer_latency_s = 0.0;
  m.dependent_step_s = 0.0;
  return m;
}

}  // namespace gs::vgpu
