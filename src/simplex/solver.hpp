// Convenience umbrella header + engine-selection front end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "simplex/device_revised.hpp"
#include "simplex/dual_revised.hpp"
#include "simplex/host_revised.hpp"
#include "simplex/solve_frame.hpp"
#include "simplex/tableau.hpp"
#include "simplex/types.hpp"
#include "trace/trace.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::simplex {

/// Which implementation to run.
enum class Engine {
  kDeviceRevised,        ///< the paper's GPU solver (double precision)
  kDeviceRevisedFloat,   ///< same, single precision (Fig. 3)
  kHostRevised,          ///< sequential CPU revised simplex baseline
  kTableau,              ///< full-tableau baseline
  kSparseRevised,        ///< CSR device solver (Ext. C, double precision)
  kDualRevised,          ///< host dual revised simplex (warm-start path)
};

[[nodiscard]] constexpr std::string_view to_string(Engine e) noexcept {
  switch (e) {
    case Engine::kDeviceRevised: return "device-revised";
    case Engine::kDeviceRevisedFloat: return "device-revised-float";
    case Engine::kHostRevised: return "host-revised";
    case Engine::kTableau: return "tableau";
    case Engine::kSparseRevised: return "sparse-revised";
    case Engine::kDualRevised: return "dual-revised";
  }
  return "?";
}

/// One-call solve of a prepared (for example scaled) standard form with a
/// fresh device of the given machine model (device engines) or the given
/// model as the CPU cost meter (host engines).
[[nodiscard]] inline SolveResult solve_standard(
    const lp::StandardFormLp& sf, Engine engine,
    const SolverOptions& options = {},
    const vgpu::MachineModel& device_model = vgpu::gtx280_model(),
    const vgpu::MachineModel& host_model = vgpu::cpu2009_model()) {
  switch (engine) {
    case Engine::kDeviceRevised: {
      vgpu::Device dev(device_model);
      return DeviceRevisedSimplex<double>(dev, options).solve_standard(sf);
    }
    case Engine::kDeviceRevisedFloat: {
      vgpu::Device dev(device_model);
      return DeviceRevisedSimplex<float>(dev, options).solve_standard(sf);
    }
    case Engine::kHostRevised:
      return HostRevisedSimplex(options, host_model).solve_standard(sf);
    case Engine::kTableau:
      return TableauSimplex(options, host_model).solve_standard(sf);
    case Engine::kSparseRevised: {
      vgpu::Device dev(device_model);
      return SparseRevisedSimplex<double>(dev, options).solve_standard(sf);
    }
    case Engine::kDualRevised:
      return DualRevisedSimplex(options, host_model).solve_standard(sf);
  }
  GS_FAIL("unknown engine");
}

/// One-call solve of a general-form LP: its standard form through
/// solve_standard.
[[nodiscard]] inline SolveResult solve(
    const lp::LpProblem& problem, Engine engine,
    const SolverOptions& options = {},
    const vgpu::MachineModel& device_model = vgpu::gtx280_model(),
    const vgpu::MachineModel& host_model = vgpu::cpu2009_model()) {
  return solve_standard(lp::to_standard_form(problem), engine, options,
                        device_model, host_model);
}

/// The service's device route (DESIGN.md, "Float iterations, double
/// answer"). `DeviceRevisedSimplex<float>` runs both phases on a fresh
/// device. If it ends optimal with no artificial column basic, the host
/// dual engine over the product form warm-starts from its final basis,
/// re-prices and repairs in double, and its x, y, objective and basis are
/// the answer. Any other float outcome is re-solved cold by
/// `DeviceRevisedSimplex<double>`, so no float verdict is returned
/// unchecked. Iterations and modeled and wall seconds sum over the stages;
/// `phase1_iterations`, `device_stats` and `warm_started` are the float
/// stage's. Observers see both stages on one clock (detail::LaterStage).
[[nodiscard]] inline SolveResult solve_float_then_double(
    const lp::LpProblem& problem, const SolverOptions& options = {},
    const vgpu::MachineModel& device_model = vgpu::gtx280_model(),
    const vgpu::MachineModel& host_model = vgpu::cpu2009_model()) {
  const lp::StandardFormLp sf = lp::to_standard_form(problem);
  SolveResult first;
  {
    vgpu::Device dev(device_model);
    first = DeviceRevisedSimplex<float>(dev, options).solve_standard(sf);
  }
  // Artificial columns are the augmented columns past the standard form's.
  const bool continue_in_double =
      first.optimal() &&
      std::all_of(first.basis.begin(), first.basis.end(),
                  [n = sf.c.size()](std::uint32_t col) { return col < n; });
  SolveResult out;
  if (continue_in_double) {
    detail::LaterStage later(options, first.stats.sim_seconds,
                             trace::kHostPid, host_model);
    later.options.warm_basis = &first.basis;
    later.options.basis = BasisScheme::kProductForm;
    out = DualRevisedSimplex(later.options, host_model).solve_standard(sf);
  } else {
    detail::LaterStage later(options, first.stats.sim_seconds,
                             trace::kDevicePid, device_model);
    vgpu::Device dev(device_model);
    out = DeviceRevisedSimplex<double>(dev, later.options).solve_standard(sf);
  }
  SolverStats stats = std::move(first.stats);
  stats.iterations += out.stats.iterations;
  stats.sim_seconds += out.stats.sim_seconds;
  stats.wall_seconds += out.stats.wall_seconds;
  out.stats = std::move(stats);
  return out;
}

}  // namespace gs::simplex
