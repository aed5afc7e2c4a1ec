// Analytic cost meter for the host (CPU) baseline engines.
//
// The CPU baselines do plain serial math; each algorithmic step reports its
// work here and the meter charges it to the same vgpu::Ledger the virtual
// GPU uses, as a single-thread kernel on a host MachineModel (no launch
// overhead), so GPU-vs-CPU comparisons are model-vs-model on two
// calibrated machines priced by one accounting path. See README.md
// "Model-vs-model timing" and DESIGN.md for the rationale.
#pragma once

#include <cstddef>
#include <string_view>
#include <utility>

#include "vgpu/ledger.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::simplex {

/// A Ledger on a host model (vgpu::kHostNames): its clock, its DeviceStats
/// (transfer fields zero), its `cpu.step.*` metrics and its "kernel"
/// slices on the host track, all through the Ledger.
class CostMeter : public vgpu::Ledger {
 public:
  explicit CostMeter(vgpu::MachineModel model)
      : Ledger(std::move(model), vgpu::kHostNames) {}

  /// Charge one step: `flops` floating ops and `bytes` of memory traffic.
  /// `scalar_bytes` selects the arithmetic roofline (4 float, 8 double).
  void charge(std::string_view step, double flops, double bytes,
              std::size_t scalar_bytes = 8) {
    kernel(step, {flops, bytes, scalar_bytes}, 1);
  }
};

}  // namespace gs::simplex
