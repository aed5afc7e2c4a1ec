// The paper's contribution: revised simplex with every per-iteration
// linear-algebra operation executed as a data-parallel device kernel.
//
// State resident on the device across iterations (the design choice the
// paper's transfer analysis motivates):
//   * A^T           (dense or CSR via the At policy; transposed so column
//                   reads are contiguous)
//   * B^-1          dense m x m, updated in place by a rank-1 Gauss-Jordan
//                   elimination step each iteration (explicit-inverse
//                   scheme; a product-form eta file is the Ext. B ablation)
//   * beta = B^-1 b, pi, d, alpha, ratio vectors, pricing mask, c, c_B
//
// Per-iteration PCIe traffic is scalar-sized. The fused path (the default
// for the explicit inverse and the sparse product form) reads back one
// packed pivot descriptor; the sparse product form also uploads the new
// eta's support indices. The reference path round-trips the chosen
// indices, theta and the entering reduced cost one scalar at a time. That
// transfer latency is charged through the device's machine model and is a
// first-order term below the paper's crossover size.
//
// Template parameters: Real in {float, double} drives the Fig. 3 precision
// study; At in {DenseAt, SparseAt} selects the constraint-matrix storage
// (SparseRevisedSimplex below is the CSR instantiation, Ext. C).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "lp/problem.hpp"
#include "lp/standard_form.hpp"
#include "profile/profile.hpp"
#include "simplex/at_policy.hpp"
#include "simplex/basis/basis_oracle.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/types.hpp"
#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"
#include "vblas/containers.hpp"
#include "vblas/host_ref.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/primitives.hpp"

namespace gs::simplex {

template <typename Real, template <typename> class At = DenseAt>
class DeviceRevisedSimplex {
 public:
  explicit DeviceRevisedSimplex(vgpu::Device& device,
                                SolverOptions options = {})
      : dev_(device), opt_(options) {}

  /// Solve a general-form LP (conversion + two-phase + recovery).
  [[nodiscard]] SolveResult solve(const lp::LpProblem& problem) {
    const lp::StandardFormLp sf = lp::to_standard_form(problem);
    return solve_standard(sf);
  }

  /// Solve a prepared standard form (used by benches that pre-scale).
  [[nodiscard]] SolveResult solve_standard(const lp::StandardFormLp& sf) {
    WallTimer wall;
    dev_.reset_stats();
    dev_.set_trace(profile::chain(opt_.profiler, opt_.trace_sink,
                                  trace::kDevicePid, dev_.model()));
    // Checker and capture are mutually exclusive sinks; detach the
    // checker first so re-attaching on a reused device can never trip the
    // exclusivity assert on a stale pointer.
    dev_.set_checker(nullptr);
    dev_.set_capture(opt_.analyzer);
    dev_.set_checker(opt_.checker);
    dev_.set_metrics(opt_.metrics);
    // Solver-level metrics live for the whole solve (not per run_loop call)
    // so stall streaks and Bland activations span the phase boundary.
    metrics::SimplexOpMetrics op_metrics;
    op_metrics.attach(opt_.metrics);
    metrics::HealthMonitor health(opt_.metrics, opt_.health);
    const trace::Track& tr = dev_.trace();
    if (tr.enabled()) tr.name_thread(engine_name());
    // Top-level span; its destructor runs after every nested span's, so
    // the trace unwinds in proper B/E order on any exit path.
    trace::ScopedSpan solve_span(tr, "solve", clock(), "solve");
    const AugmentedLp aug = augment(sf);
    Workspace ws(dev_, aug, opt_);
    record::Recorder* rec = opt_.recorder;
    if (rec != nullptr) {
      rec->begin_solve(engine_name(), sizeof(Real) * 8, aug.m, aug.n_aug,
                       decision_digest(aug));
    }

    SolveResult result;
    // Recorder end-of-solve wrapper around finish(): stamps the status and
    // final basis, and triggers the post-mortem dump on a bad exit.
    auto fin = [&](SolveStatus status) -> SolveResult {
      if (rec != nullptr) {
        rec->end_solve(to_string(status), status == SolveStatus::kOptimal,
                       opt_.metrics ? opt_.metrics->warnings_total() : 0,
                       ws.basic);
      }
      result.basis = ws.basic;
      return finish(result, status, wall);
    };
    std::size_t budget = opt_.max_iterations;

    // ---- Phase 1: minimize the artificial sum, if any were needed. ----
    if (aug.num_artificial > 0) {
      trace::ScopedSpan phase_span(tr, "phase1", clock(), "phase");
      if (rec != nullptr) rec->begin_phase(1);
      ws.load_costs(aug.c_phase1);
      const LoopExit exit =
          run_loop(ws, budget, result.stats, op_metrics, health, 1);
      result.stats.phase1_iterations = result.stats.iterations;
      if (exit == LoopExit::kIterationLimit) {
        return fin(SolveStatus::kIterationLimit);
      }
      if (exit == LoopExit::kUnbounded) {
        // Phase-1 objective is bounded below by zero; reaching here means
        // the ratio test lost every pivot to numerics.
        return fin(SolveStatus::kNumericalTrouble);
      }
      const double z1 = ws.current_objective();
      const double feas_tol =
          1e-6 * (1.0 + *std::max_element(aug.b.begin(), aug.b.end()));
      if (z1 > feas_tol) {
        return fin(SolveStatus::kInfeasible);
      }
      drive_out_artificials(ws, result.stats.iterations);
      budget -= std::min(budget, result.stats.iterations);
    }

    // ---- Phase 2: original costs, artificials permanently masked. ----
    LoopExit exit;
    {
      trace::ScopedSpan phase_span(tr, "phase2", clock(), "phase");
      if (rec != nullptr) rec->begin_phase(2);
      ws.load_costs(aug.c_phase2);
      exit = run_loop(ws, budget, result.stats, op_metrics, health, 2);
    }
    switch (exit) {
      case LoopExit::kOptimal:
        break;
      case LoopExit::kUnbounded:
        return fin(SolveStatus::kUnbounded);
      case LoopExit::kIterationLimit:
        return fin(SolveStatus::kIterationLimit);
    }

    // Extract the optimum: x_std from the basic values, then map back.
    const std::vector<Real> beta = ws.beta.to_host();
    std::vector<double> x_std(aug.n, 0.0);
    for (std::size_t i = 0; i < aug.m; ++i) {
      if (ws.basic[i] < aug.n) {
        x_std[ws.basic[i]] = static_cast<double>(beta[i]);
      }
    }
    result.x = sf.recover(x_std);
    double z = 0.0;
    for (std::size_t j = 0; j < aug.n; ++j) z += sf.c[j] * x_std[j];
    result.objective = sf.original_objective(z);
    // ws.pi still holds the optimal simplex multipliers (the loop priced,
    // found no entering candidate and stopped): they are the duals.
    const std::vector<Real> pi = ws.pi.to_host();
    result.y = sf.recover_duals(std::vector<double>(pi.begin(), pi.end()));
    return fin(SolveStatus::kOptimal);
  }

 private:
  static constexpr Real kInf = std::numeric_limits<Real>::infinity();

  /// Trace thread label (Chrome tid name) for this instantiation.
  [[nodiscard]] static std::string engine_name() {
    return std::string("device-revised<") +
           (sizeof(Real) == 4 ? "float" : "double") + ">";
  }

  /// The simulated-clock reader trace spans take.
  [[nodiscard]] auto clock() const {
    return [this] { return dev_.sim_seconds(); };
  }

  enum class LoopExit { kOptimal, kUnbounded, kIterationLimit };

  /// All device-resident solver state for one solve.
  struct Workspace {
    Workspace(vgpu::Device& dev, const AugmentedLp& aug_in,
              const SolverOptions& opt)
        : aug(aug_in),
          m(aug_in.m),
          n_aug(aug_in.n_aug),
          at(dev, aug_in),
          binv(dev, m, m),
          beta(dev, m),
          b_dev(dev, m),
          pi(dev, m),
          cb(dev, m),
          c(dev, n_aug),
          d(dev, n_aug),
          mask(dev, n_aug),
          alpha(dev, m),
          ratio(dev, m),
          pivot_row(dev, m),
          scalar_tmp(dev, 1),
          eta_work(dev, m),
          devex_w(dev, n_aug),
          col_work(dev, n_aug),
          desc(dev, kDescSlots),
          basic(aug_in.basic),
          options(opt) {
      // Initial B^-1 and beta from the crash basis. The inverse starts
      // diagonal, so only the m diagonal entries cross PCIe; a device
      // kernel expands them into the dense m x m matrix (the full-matrix
      // upload was ~a third of all H2D bytes at bench scale).
      std::vector<Real> diag0(m), beta0(m), b0(m);
      for (std::size_t i = 0; i < m; ++i) {
        diag0[i] = static_cast<Real>(aug.binv_diag[i]);
        beta0[i] = static_cast<Real>(aug.beta_init[i]);
        b0[i] = static_cast<Real>(aug.b[i]);
      }
      vgpu::DeviceBuffer<Real> diag_dev(dev,
                                        std::span<const Real>(diag0));
      auto dsp = diag_dev.device_span();
      auto bi = binv.device_span();
      dev.launch_blocks(
          "binv_init", m, vgpu::Device::kBlockSize,
          {0.0, static_cast<double>((m * m + 2 * m) * sizeof(Real)),
           sizeof(Real)},
          [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              bi.write_range(i * m, i * m + m);
              Real* row = bi.data() + i * m;
              for (std::size_t j = 0; j < m; ++j) row[j] = Real{0};
              row[i] = dsp[i];
            }
          });
      beta.upload(beta0);
      b_dev.upload(b0);
      in_basis.assign(n_aug, false);
      for (std::uint32_t col : basic) in_basis[col] = true;
      refresh_mask();
      vgpu::fill(devex_w, Real{1});
    }

    /// Install a phase cost vector (device c and c_B, host copy for swaps).
    void load_costs(const std::vector<double>& costs) {
      c_host.assign(costs.begin(), costs.end());
      std::vector<Real> cr(costs.size());
      for (std::size_t j = 0; j < costs.size(); ++j) {
        cr[j] = static_cast<Real>(costs[j]);
      }
      c.upload(cr);
      std::vector<Real> cbr(m);
      for (std::size_t i = 0; i < m; ++i) cbr[i] = cr[basic[i]];
      cb.upload(cbr);
    }

    /// Pricing mask: 1 for columns allowed to enter (nonbasic and never an
    /// artificial), 0 otherwise.
    void refresh_mask() {
      std::vector<Real> mv(n_aug);
      for (std::size_t j = 0; j < n_aug; ++j) {
        mv[j] = (!in_basis[j] && !aug.is_artificial[j]) ? Real{1} : Real{0};
      }
      mask.upload(mv);
    }

    /// Exact objective of the current phase costs at the current basis
    /// (recomputed from beta; avoids incremental drift).
    [[nodiscard]] double current_objective() const {
      const std::vector<Real> bv = beta.to_host();
      double z = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        z += c_host[basic[i]] * static_cast<double>(bv[i]);
      }
      return z;
    }

    const AugmentedLp& aug;
    std::size_t m, n_aug;

    At<Real> at;
    vblas::DeviceMatrix<Real> binv;
    vgpu::DeviceBuffer<Real> beta, b_dev, pi, cb, c, d, mask, alpha, ratio,
        pivot_row, scalar_tmp, eta_work;
    vgpu::DeviceBuffer<Real> devex_w;
    vgpu::DeviceBuffer<Real> col_work;  ///< n_aug scratch (scores, rows)
    /// Fused-path pivot descriptor (kDescSlots Reals): the iteration's
    /// entering/leaving decisions, filled on device, fetched with one d2h.
    vgpu::DeviceBuffer<Real> desc;

    /// Product-form eta file: one entry per pivot since the last
    /// reinversion. The dense-eta scheme (DenseAt, Ext. B) keeps the full
    /// m-vector in `values`; the sparse-kernel scheme (SparseAt + product
    /// form) stores only the eta's support as (idx, val) pairs so the
    /// chain kernels cost nnz instead of m per eta.
    struct Eta {
      std::size_t p;
      std::optional<vgpu::DeviceBuffer<Real>> values;
      std::optional<vgpu::DeviceBuffer<std::uint32_t>> idx;
      std::optional<vgpu::DeviceBuffer<Real>> val;
    };
    std::vector<Eta> etas;
    /// Largest eta multiplier since the last reinversion (growth trigger).
    double eta_growth = 0.0;

    std::vector<std::uint32_t> basic;
    std::vector<bool> in_basis;
    std::vector<double> c_host;
    SolverOptions options;
    std::size_t pivots_since_refactor = 0;
  };

  // ---------------------------------------------------------------------
  // Kernels (each one launch on the device, costed like its CUDA original)
  // ---------------------------------------------------------------------

  /// Sparse-kernel product form: the CSR policy's eta file, walked by the
  /// single-block chain kernels.
  [[nodiscard]] static bool sparse_pf(const Workspace& ws) noexcept {
    return At<Real>::kSparseKernels &&
           ws.options.basis == BasisScheme::kProductForm;
  }

  /// out = (B^-1)^T seed under the active basis scheme.
  /// With etas: y = seed, eta transposes newest-first, then (B0^-1)^T y.
  void btran_generic(Workspace& ws, const vgpu::DeviceBuffer<Real>& seed,
                     vgpu::DeviceBuffer<Real>& out) {
    if (sparse_pf(ws)) {
      if (!ws.etas.empty()) eta_btran_chain(ws, &seed, 0);
      const vgpu::DeviceBuffer<Real>& y =
          ws.etas.empty() ? seed : ws.eta_work;
      btran_base(ws, y, out, "sparse_btran", support_size(y));
      return;
    }
    if (ws.etas.empty()) {
      btran_base(ws, seed, out, "price_btran", ws.m);
      return;
    }
    auto ysp = ws.eta_work.device_span();
    auto ssp = seed.device_span();
    dev_.launch_blocks(
        "price_btran_seed", ws.m, vgpu::Device::kBlockSize,
        {0.0, bytes(2 * ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) ysp[i] = ssp[i];
        });
    for (auto it = ws.etas.rbegin(); it != ws.etas.rend(); ++it) {
      eta_btran_apply(ws, *it);
    }
    btran_base(ws, ws.eta_work, out, "price_btran", ws.m);
  }

  void btran(Workspace& ws) { btran_generic(ws, ws.cb, ws.pi); }

  /// out = (B0^-1)^T y as one `name` launch declared from the `nnz_y`
  /// nonzero rows of y it streams: all m for the dense "price_btran", the
  /// seed's observed support for the product form's "sparse_btran". Each
  /// lane sums its column over the nonzero rows of y (rows of B^-1 stream
  /// contiguously) in a block-local accumulator and writes out once.
  void btran_base(Workspace& ws, const vgpu::DeviceBuffer<Real>& y,
                  vgpu::DeviceBuffer<Real>& out, std::string_view name,
                  std::size_t nnz_y) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto ysp = y.device_span();
    auto osp = out.device_span();
    dev_.launch_blocks(
        name, m, vgpu::Device::kBlockSize,
        {2.0 * double(nnz_y) * double(m), bytes(nnz_y * m + 2 * m),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          std::array<Real, vgpu::Device::kBlockSize> acc{};
          for (std::size_t i = 0; i < m; ++i) {
            const Real yi = ysp[i];
            if (yi == Real{0}) continue;
            binv.read_range(i * m + lo, i * m + hi);
            const Real* row = binv.data() + i * m;
            for (std::size_t j = lo; j < hi; ++j) acc[j - lo] += yi * row[j];
          }
          for (std::size_t j = lo; j < hi; ++j) osp[j] = acc[j - lo];
        });
  }

  /// Nonzero count of a device vector, read through host_view(): host
  /// metadata, like the CSR extents in SparseAt.
  [[nodiscard]] static std::size_t support_size(
      const vgpu::DeviceBuffer<Real>& y) {
    const std::span<const Real> yh = y.host_view();
    return static_cast<std::size_t>(
        std::count_if(yh.begin(), yh.end(), [](Real v) { return v != Real{0}; }));
  }

  /// alpha = B^-1 a_q (FTRAN). Under product form: B0^-1 a_q via the
  /// dense inverse, then the eta file oldest-first.
  void ftran(Workspace& ws, std::size_t q) {
    if (sparse_pf(ws)) {
      ws.at.ftran_alpha(ws.binv, q, ws.alpha, "sparse_ftran");
      if (!ws.etas.empty()) eta_ftran_chain(ws, false);
      return;
    }
    ws.at.ftran_alpha(ws.binv, q, ws.alpha);
    for (const auto& eta : ws.etas) eta_ftran_apply(ws, eta);
  }

  /// Speculative FTRAN of the fused sparse product-form path: the base
  /// solve reads the entering column from the descriptor on device, and
  /// both launches early-exit when pricing found no candidate.
  void ftran_speculative(Workspace& ws) {
    if constexpr (At<Real>::kSparseKernels) {
      ws.at.ftran_alpha_desc(ws.binv, ws.desc, ws.alpha);
      if (!ws.etas.empty()) eta_ftran_chain(ws, true);
    }
  }

  // -------------------------------------------------------------------
  // Dense eta file (DenseAt + product form, the Ext. B ablation). One
  // launch pair per eta and direction, as a 2009 implementation would
  // issue it: this is the many-small-dependent-kernels cost Ext. B
  // measures, so it stays per-eta on purpose.
  // -------------------------------------------------------------------

  /// Product-form FTRAN step: x = M x with M the eta matrix. x[p] is
  /// snapshotted by a tiny kernel first so all lanes read the pre-update
  /// value (as the CUDA original would).
  void eta_ftran_apply(Workspace& ws, const typename Workspace::Eta& eta) {
    auto xsp = ws.alpha.device_span();
    auto esp = eta.values->device_span();
    auto tmp = ws.scalar_tmp.device_span();
    const std::size_t p = eta.p;
    dev_.launch_blocks("eta_snapshot", 1, 1, {0.0, bytes(2), sizeof(Real)},
                       [&](std::size_t, std::size_t, std::size_t) {
                         tmp[0] = xsp[p];
                       });
    dev_.launch_blocks(
        "eta_ftran", ws.m, vgpu::Device::kBlockSize,
        {2.0 * double(ws.m), bytes(3 * ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real xp = tmp[0];
          for (std::size_t i = lo; i < hi; ++i) {
            xsp[i] = (i == p) ? esp[i] * xp : xsp[i] + esp[i] * xp;
          }
        });
  }

  /// Product-form BTRAN step on ws.eta_work: y_p = eta . y.
  void eta_btran_apply(Workspace& ws, const typename Workspace::Eta& eta) {
    auto ysp = ws.eta_work.device_span();
    auto esp = eta.values->device_span();
    const std::size_t m = ws.m;
    const std::size_t blocks =
        (m + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
    std::vector<Real> partial(blocks, Real{0});
    dev_.launch_blocks(
        "eta_btran_dot", m, vgpu::Device::kBlockSize,
        {2.0 * double(m), bytes(2 * m), sizeof(Real)},
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          Real acc{0};
          for (std::size_t i = lo; i < hi; ++i) acc += esp[i] * ysp[i];
          partial[blk] = acc;
        });
    const std::size_t p = eta.p;
    dev_.launch_blocks("eta_btran_write", 1, 1,
                       {double(blocks), bytes(blocks + 1), sizeof(Real)},
                       [&](std::size_t, std::size_t, std::size_t) {
                         Real acc{0};
                         for (std::size_t b = 0; b < blocks; ++b)
                           acc += partial[b];
                         ysp[p] = acc;
                       });
  }

  // -------------------------------------------------------------------
  // Sparse eta file (SparseAt + product form): ONE launch per direction
  // walks the whole file. The chain runs as a single block — each eta
  // reads what the previous one wrote, so it cannot spread across the
  // grid — and every eta is charged as a dependent step
  // (KernelCost::dependent_steps) on top of one block's occupancy. Per
  // eta, the arithmetic and summation order are those of a one-launch-
  // per-eta grid (FTRAN: snapshot x_p, then scatter over the support;
  // BTRAN: kBlockSize-wide partial dots folded in block order), so
  // recordings made with per-eta launches replay pivot for pivot. The
  // per-eta buffers' addresses are host metadata handed to the launch,
  // like the CSR extents in SparseAt.
  // -------------------------------------------------------------------

  /// alpha := E_k ... E_1 alpha, oldest eta first. `speculative` launches
  /// (fused path) read the entering index from the descriptor and do
  /// nothing when pricing found no candidate.
  void eta_ftran_chain(Workspace& ws, bool speculative) {
    double flops = 0.0;
    double traffic = speculative ? bytes(1) : 0.0;
    for (const auto& eta : ws.etas) {
      const auto nnz = static_cast<double>(eta.val->size());
      flops += 2.0 * nnz;
      // idx + val + x[i] read, x[i] written, plus the x[p] snapshot.
      traffic += nnz * double(3 * sizeof(Real) + sizeof(std::uint32_t)) +
                 bytes(2);
    }
    auto xsp = ws.alpha.device_span();
    auto dsp = ws.desc.device_span();
    dev_.launch_blocks(
        "eta_ftran_chain", vgpu::Device::kBlockSize, vgpu::Device::kBlockSize,
        {flops, traffic, sizeof(Real), ws.etas.size()},
        [&](std::size_t, std::size_t, std::size_t) {
          if (speculative && dsp[kDescQ] < Real{0}) return;
          for (const auto& eta : ws.etas) {
            auto isp = eta.idx->device_span();
            auto vsp = eta.val->device_span();
            const std::size_t p = eta.p;
            const std::size_t nnz = eta.val->size();
            const Real xp = xsp[p];
            for (std::size_t k = 0; k < nnz; ++k) {
              const std::size_t i = isp[k];
              xsp[i] = (i == p) ? vsp[k] * xp : xsp[i] + vsp[k] * xp;
            }
          }
        });
  }

  /// ws.eta_work := E_1^T ... E_k^T y, newest eta first, where y is a copy
  /// of `seed` or, when `seed` is null, the unit vector e_{unit_row}.
  void eta_btran_chain(Workspace& ws, const vgpu::DeviceBuffer<Real>* seed,
                       std::size_t unit_row) {
    const std::size_t m = ws.m;
    double flops = 0.0;
    double traffic = seed != nullptr ? bytes(2 * m) : bytes(m);
    for (const auto& eta : ws.etas) {
      const auto nnz = static_cast<double>(eta.val->size());
      flops += 2.0 * nnz;
      // idx + val + y[idx] read, y[p] written.
      traffic += nnz * double(2 * sizeof(Real) + sizeof(std::uint32_t)) +
                 bytes(1);
    }
    auto ysp = ws.eta_work.device_span();
    auto ssp = seed != nullptr ? seed->device_span()
                               : vgpu::check::CheckedSpan<const Real>{};
    dev_.launch_blocks(
        "eta_btran_chain", vgpu::Device::kBlockSize, vgpu::Device::kBlockSize,
        {flops, traffic, sizeof(Real), ws.etas.size()},
        [&](std::size_t, std::size_t, std::size_t) {
          for (std::size_t i = 0; i < m; ++i) {
            ysp[i] = seed != nullptr ? Real(ssp[i])
                                     : (i == unit_row ? Real{1} : Real{0});
          }
          for (auto it = ws.etas.rbegin(); it != ws.etas.rend(); ++it) {
            auto isp = it->idx->device_span();
            auto vsp = it->val->device_span();
            const std::size_t nnz = it->val->size();
            Real acc{0};
            for (std::size_t k0 = 0; k0 < nnz; k0 += vgpu::Device::kBlockSize) {
              const std::size_t k1 =
                  std::min(nnz, k0 + vgpu::Device::kBlockSize);
              Real part{0};
              for (std::size_t k = k0; k < k1; ++k) {
                part += vsp[k] * ysp[isp[k]];
              }
              acc += part;
            }
            ysp[it->p] = acc;
          }
        });
  }

  /// ratio_i = beta_i / alpha_i where alpha_i > pivot_tol, else +inf.
  void ratio_test_kernel(Workspace& ws) {
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    auto rsp = ws.ratio.device_span();
    const Real tol = static_cast<Real>(ws.options.pivot_tol);
    dev_.launch_blocks(
        "ratio", ws.m, vgpu::Device::kBlockSize,
        {double(ws.m), bytes(3 * ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            rsp[i] = asp[i] > tol ? bsp[i] / asp[i] : kInf;
          }
        });
  }

  /// Fused ratio test + leaving selection for the sparse product form:
  /// the ratio half of ftran_ratio_select, launched once the eta chain
  /// has finished alpha. Speculative like the rest of the fused FTRAN;
  /// writes desc[kDescP/kDescTheta/kDescAlphaP].
  void ratio_select(Workspace& ws) {
    fused_detail::LeavingSelect<Real> select(
        ws.m, static_cast<Real>(ws.options.pivot_tol));
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    auto rsp = ws.ratio.device_span();
    auto dsp = ws.desc.device_span();
    dev_.launch_blocks(
        "ratio_select", ws.m, vgpu::Device::kBlockSize,
        {double(ws.m), bytes(4 * ws.m + 6), sizeof(Real)},
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          if (dsp[kDescQ] < Real{0}) return;  // optimal: nothing entered
          const auto alpha_of = [&](std::size_t i) { return Real(asp[i]); };
          select.block(blk, lo, hi, alpha_of, bsp, rsp, asp, dsp);
        });
    select.finish(dev_, rsp, asp, dsp);
  }

  /// The pivot's scalar bookkeeping: c_B[p] takes the entering cost, the
  /// entering column leaves the pricing mask and the leaving one rejoins
  /// it (unless it is an artificial, which never re-enters).
  struct Pokes {
    std::size_t q;
    std::size_t leaving;
    Real cb_new;
    bool unmask_leaving;
  };

  /// beta update after the pivot: beta_p = theta, beta_i -= theta*alpha_i.
  /// With `pokes` (fused product form) the pivot lane also writes the
  /// bookkeeping on device, as pivot_apply does for the explicit inverse,
  /// replacing the reference path's three upload_value round trips.
  void update_beta(Workspace& ws, std::size_t p, Real theta,
                   const Pokes* pokes = nullptr) {
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    auto csp = ws.cb.device_span();
    auto msp = ws.mask.device_span();
    dev_.launch_blocks(
        pokes != nullptr ? "pivot_beta" : "update_beta", ws.m,
        vgpu::Device::kBlockSize,
        {2.0 * double(ws.m), bytes(3 * ws.m + (pokes != nullptr ? 3 : 0)),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const Real v = (i == p) ? theta : bsp[i] - theta * asp[i];
            // The ratio test guarantees v >= 0 in exact arithmetic; clamp
            // the rounding dust so the basis stays primal feasible.
            bsp[i] = v < Real{0} ? Real{0} : v;
            if (i == p && pokes != nullptr) {
              csp[p] = pokes->cb_new;
              msp[pokes->q] = Real{0};
              if (pokes->unmask_leaving) msp[pokes->leaving] = Real{1};
            }
          }
        });
  }

  /// Copy row p of B^-1 into ws.pivot_row.
  void save_pivot_row(Workspace& ws, std::size_t p) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto prow = ws.pivot_row.device_span();
    dev_.launch_blocks(
        "save_pivot_row", m, vgpu::Device::kBlockSize,
        {0.0, bytes(2 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) prow[j] = binv[p * m + j];
        });
  }

  /// Rank-1 Gauss-Jordan update of the explicit inverse:
  ///   row_p /= alpha_p;  row_i -= (alpha_i / alpha_p) * old row_p.
  /// Requires save_pivot_row(p) to have run.
  void update_binv(Workspace& ws, std::size_t p, Real alpha_p) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto prow = ws.pivot_row.device_span();
    auto asp = ws.alpha.device_span();
    dev_.launch_blocks(
        "update_binv", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m), bytes(2 * m * m + 2 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            Real* row = binv.data() + i * m;
            if (i == p) {
              binv.write_range(i * m, i * m + m);
              const Real inv = Real{1} / alpha_p;
              for (std::size_t j = 0; j < m; ++j) row[j] = prow[j] * inv;
            } else {
              const Real f = asp[i] / alpha_p;
              if (f == Real{0}) continue;
              binv.read_range(i * m, i * m + m);
              binv.write_range(i * m, i * m + m);
              for (std::size_t j = 0; j < m; ++j) row[j] = row[j] - f * prow[j];
            }
          }
        });
  }

  // -------------------------------------------------------------------
  // Fused iteration kernels (SolverOptions::fused_iteration). Same
  // arithmetic as the reference kernels above, collapsed so one iteration
  // costs 5 launches (6 with Devex) and ONE scalar-sized PCIe readback.
  // -------------------------------------------------------------------

  /// Fused save_pivot_row + update_beta: one m-wide launch snapshots the
  /// pre-update pivot row of B^-1 and steps beta past the pivot.
  void pivot_stage(Workspace& ws, std::size_t p, Real theta) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto prow = ws.pivot_row.device_span();
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    dev_.launch_blocks(
        "pivot_stage", m, vgpu::Device::kBlockSize,
        {2.0 * double(m), bytes(5 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            prow[i] = binv[p * m + i];
            const Real v = (i == p) ? theta : bsp[i] - theta * asp[i];
            bsp[i] = v < Real{0} ? Real{0} : v;
          }
        });
  }

  /// Tile width for the fused elimination inner loop: prow tiles stay hot
  /// in L1 across consecutive rows of the update.
  static constexpr std::size_t kEliminationTile = 64;

  /// Fused rank-1 update of B^-1 + the pivot's scalar bookkeeping. The
  /// reference path's three upload_value round trips (c_B[p], mask[q] off,
  /// mask[leaving] on) ride along as kernel arguments written by the pivot
  /// lane — zero per-iteration H2D traffic. The elimination loop is
  /// branch-free and cache-blocked so it vectorizes.
  void pivot_apply(Workspace& ws, std::size_t q, std::size_t p, Real alpha_p,
                   Real cb_new, std::size_t leaving, bool unmask_leaving) {
    const std::size_t m = ws.m;
    auto binv = ws.binv.device_span();
    auto prow = ws.pivot_row.device_span();
    auto asp = ws.alpha.device_span();
    auto csp = ws.cb.device_span();
    auto msp = ws.mask.device_span();
    dev_.launch_blocks(
        "pivot_apply", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m), bytes(2 * m * m + 2 * m + 4),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            Real* row = binv.data() + i * m;
            if (i == p) {
              binv.write_range(i * m, i * m + m);
              const Real inv = Real{1} / alpha_p;
              for (std::size_t j = 0; j < m; ++j) row[j] = prow[j] * inv;
              // One writer each: the pivot lane owns the scalar pokes.
              csp[p] = cb_new;
              msp[q] = Real{0};
              if (unmask_leaving) msp[leaving] = Real{1};
            } else {
              const Real f = asp[i] / alpha_p;
              if (f == Real{0}) continue;
              binv.read_range(i * m, i * m + m);
              binv.write_range(i * m, i * m + m);
              for (std::size_t j0 = 0; j0 < m; j0 += kEliminationTile) {
                const std::size_t j1 = std::min(m, j0 + kEliminationTile);
                for (std::size_t j = j0; j < j1; ++j) {
                  row[j] = row[j] - f * prow[j];
                }
              }
            }
          }
        });
  }

  /// Product-form: append the eta for this pivot instead of updating B^-1.
  /// The growth trigger's multiplier max(|1/alpha_p|, |alpha_i/alpha_p|) —
  /// the measure ProductFormOracle::update folds — is read from alpha
  /// through host_view(), outside the machine model (no PCIe charge).
  void append_eta(Workspace& ws, std::size_t p, Real alpha_p) {
    const std::span<const Real> ah = ws.alpha.host_view();
    const double inv_p = std::abs(1.0 / static_cast<double>(alpha_p));
    ws.eta_growth = std::max(ws.eta_growth, inv_p);
    for (std::size_t i = 0; i < ws.m; ++i) {
      if (i == p) continue;
      ws.eta_growth = std::max(
          ws.eta_growth, std::abs(static_cast<double>(ah[i]) * inv_p));
    }
    if (sparse_pf(ws)) {
      append_eta_sparse(ws, p, alpha_p);
      return;
    }
    vgpu::DeviceBuffer<Real> eta(dev_, ws.m);
    auto asp = ws.alpha.device_span();
    auto esp = eta.device_span();
    dev_.launch_blocks(
        "make_eta", ws.m, vgpu::Device::kBlockSize,
        {double(ws.m), bytes(2 * ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real inv = Real{1} / alpha_p;
          for (std::size_t i = lo; i < hi; ++i) {
            esp[i] = (i == p) ? inv : -asp[i] * inv;
          }
        });
    ws.etas.push_back({p, std::move(eta), std::nullopt, std::nullopt});
  }

  /// Sparse-kernel eta append: the support is alpha's nonzero pattern.
  /// The index list is host metadata (the CUDA original would run a
  /// stream compaction; like the CSR extents in SparseAt it is read
  /// outside the machine model), while the eta values themselves are
  /// computed on device from alpha so the arithmetic stays in-model.
  void append_eta_sparse(Workspace& ws, std::size_t p, Real alpha_p) {
    const std::span<const Real> ah = ws.alpha.host_view();
    std::vector<std::uint32_t> support;
    for (std::uint32_t i = 0; i < ws.m; ++i) {
      if (ah[i] != Real{0} || i == p) support.push_back(i);
    }
    const std::size_t nnz = support.size();
    vgpu::DeviceBuffer<std::uint32_t> idx(
        dev_, std::span<const std::uint32_t>(support));
    vgpu::DeviceBuffer<Real> val(dev_, nnz);
    auto asp = ws.alpha.device_span();
    auto isp = idx.device_span();
    auto vsp = val.device_span();
    dev_.launch_blocks(
        "make_eta", nnz, vgpu::Device::kBlockSize,
        {double(nnz),
         double(nnz * (2 * sizeof(Real) + sizeof(std::uint32_t))),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real inv = Real{1} / alpha_p;
          for (std::size_t k = lo; k < hi; ++k) {
            const std::size_t i = isp[k];
            vsp[k] = (i == p) ? inv : -asp[i] * inv;
          }
        });
    ws.etas.push_back({p, std::nullopt, std::move(idx), std::move(val)});
  }

  /// Assemble the current basis matrix from the augmented problem's rows.
  [[nodiscard]] vblas::Matrix<double> assemble_basis(const Workspace& ws) const {
    const std::size_t m = ws.m;
    std::vector<std::int64_t> pos_of_col(ws.n_aug, -1);
    for (std::size_t i = 0; i < m; ++i) {
      pos_of_col[ws.basic[i]] = std::int64_t(i);
    }
    vblas::Matrix<double> basis(m, m);
    const lp::StandardFormLp& sf = *ws.aug.source;
    for (std::size_t r = 0; r < m; ++r) {
      for (const lp::Term& t : sf.rows[r]) {
        const std::int64_t pos = pos_of_col[t.var];
        if (pos >= 0) basis(r, static_cast<std::size_t>(pos)) = t.coef;
      }
    }
    for (std::size_t k = 0; k < ws.aug.num_artificial; ++k) {
      const std::int64_t pos = pos_of_col[ws.aug.n + k];
      if (pos >= 0) {
        basis(ws.aug.artificial_rows[k], static_cast<std::size_t>(pos)) = 1.0;
      }
    }
    return basis;
  }

  /// Rebuild B^-1 from the current basis columns (host Gauss-Jordan in
  /// double for exactness; charged as a device O(m^3) elimination). Resets
  /// the eta file and refreshes beta = B^-1 b.
  void reinvert(Workspace& ws) {
    const std::size_t m = ws.m;
    const vblas::Matrix<double> inv = vblas::ref::invert(assemble_basis(ws));
    auto binv = ws.binv.device_span();
    dev_.launch_blocks(
        "reinvert", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m) * double(m), bytes(3 * m * m),
         sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
              binv[i * m + j] = static_cast<Real>(inv(i, j));
            }
          }
        });
    ws.etas.clear();
    ws.eta_growth = 0.0;
    ws.pivots_since_refactor = 0;
    // beta = B^-1 b (clamped: the basis is primal feasible by invariant).
    auto bsp = ws.b_dev.device_span();
    auto betasp = ws.beta.device_span();
    dev_.launch_blocks(
        "refresh_beta", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m), bytes(m * m + 2 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            binv.read_range(i * m, i * m + m);
            const Real* row = binv.data() + i * m;
            Real acc{0};
            for (std::size_t k = 0; k < m; ++k) acc += row[k] * bsp[k];
            betasp[i] = acc < Real{0} ? Real{0} : acc;
          }
        });
  }

  // ---------------------------------------------------------------------
  // Pricing
  // ---------------------------------------------------------------------

  /// Pick the entering column (or nullopt at optimality). `use_bland`
  /// overrides the configured rule during degeneracy streaks.
  [[nodiscard]] std::optional<std::size_t> select_entering(Workspace& ws,
                                                           bool use_bland) {
    const Real tol = static_cast<Real>(ws.options.opt_tol);
    if (use_bland || ws.options.pricing == PricingRule::kBland) {
      const auto hit = vgpu::find_first_below(ws.d, -tol);
      if (!hit.found()) return std::nullopt;
      return hit.index;
    }
    if (ws.options.pricing == PricingRule::kDevex) {
      auto dsp = ws.d.device_span();
      auto wsp = ws.devex_w.device_span();
      auto ssp = ws.col_work.device_span();
      dev_.launch_blocks(
          "devex_score", ws.n_aug, vgpu::Device::kBlockSize,
          {3.0 * double(ws.n_aug), bytes(3 * ws.n_aug), sizeof(Real)},
          [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t j = lo; j < hi; ++j) {
              ssp[j] = dsp[j] < -tol ? -(dsp[j] * dsp[j]) / wsp[j] : Real{0};
            }
          });
      const auto best = vgpu::argmin(ws.col_work);
      if (!best.found() || best.value >= Real{0}) return std::nullopt;
      return best.index;
    }
    // Dantzig: most negative reduced cost.
    const auto best = vgpu::argmin(ws.d);
    if (!best.found() || best.value >= -tol) return std::nullopt;
    return best.index;
  }

  /// pivot_row <- row `i` of B^-1 under the active basis scheme: a cheap
  /// row copy for the explicit inverse, a unit-vector BTRAN otherwise
  /// (the sparse eta chain writes its own unit seed).
  void compute_binv_row(Workspace& ws, std::size_t i) {
    if (ws.options.basis == BasisScheme::kExplicitInverse) {
      save_pivot_row(ws, i);
      return;
    }
    if (sparse_pf(ws)) {
      eta_btran_chain(ws, nullptr, i);
      btran_base(ws, ws.eta_work, ws.pivot_row, "sparse_btran",
                 support_size(ws.eta_work));
      return;
    }
    // ws.ratio is free at every call site; use it as the unit seed.
    auto seed = ws.ratio.device_span();
    dev_.launch_blocks(
        "unit_seed", ws.m, vgpu::Device::kBlockSize,
        {0.0, bytes(ws.m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            seed[k] = k == i ? Real{1} : Real{0};
          }
        });
    btran_generic(ws, ws.ratio, ws.pivot_row);
  }

  /// Devex weight maintenance (uses the pre-update B^-1 row p).
  void devex_update(Workspace& ws, std::size_t q, std::size_t p,
                    Real alpha_p) {
    // alpha-tilde_j = (B^-1 A)_pj for all columns: one pricing-shaped pass
    // against the pivot row of the current inverse.
    compute_binv_row(ws, p);
    ws.at.pivot_row_product(ws.pivot_row, ws.col_work);
    const Real wq = ws.devex_w.download_value(q);
    auto wsp = ws.devex_w.device_span();
    auto msp = ws.mask.device_span();
    auto rsp = ws.col_work.device_span();
    dev_.launch_blocks(
        "devex_update", ws.n_aug, vgpu::Device::kBlockSize,
        {4.0 * double(ws.n_aug), bytes(3 * ws.n_aug), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) {
            if (msp[j] == Real{0}) continue;
            const Real t = rsp[j] / alpha_p;
            const Real cand = t * t * wq;
            if (cand > wsp[j]) wsp[j] = cand;
          }
        });
    // The leaving variable re-enters the nonbasic pool with the reference
    // weight of the pivot.
    const Real w_leave = std::max(wq / (alpha_p * alpha_p), Real{1});
    ws.devex_w.upload_value(ws.basic[p], w_leave);
  }

  // ---------------------------------------------------------------------
  // Main loop
  // ---------------------------------------------------------------------

  /// Refactorization policy, mirrored from the host oracles. The explicit
  /// inverse refactors on the opt-in refactor_period to shed rounding
  /// error; the eta file is folded back every reinversion_period pivots
  /// (0 means every m) or as soon as an eta multiplier exceeds the growth
  /// limit.
  [[nodiscard]] static bool refactor_due(const Workspace& ws) noexcept {
    if (ws.options.basis == BasisScheme::kExplicitInverse) {
      const std::size_t period = ws.options.refactor_period;
      return period > 0 && ws.pivots_since_refactor >= period;
    }
    const std::size_t period = ws.options.reinversion_period > 0
                                   ? ws.options.reinversion_period
                                   : ws.m;
    return (period > 0 && ws.pivots_since_refactor >= period) ||
           ws.eta_growth > basis::kEtaGrowthLimit;
  }

  /// One primal loop's bookkeeping, shared by run_loop and run_loop_fused
  /// so both emit the same observer events in the same order: the per-op
  /// modeled-time laps on the simulated clock (`lap` advances at each op
  /// boundary, so scalar readbacks between ops are charged to the op that
  /// consumes them — the same tiling the trace's op spans produce) and the
  /// objective tracker behind the hybrid rule's Bland switch.
  struct Loop {
    SolverStats& stats;
    metrics::SimplexOpMetrics& om;
    metrics::HealthMonitor& health;
    std::uint8_t phase;
    double z;  ///< objective, advanced by theta * d_q per pivot
    double lap = 0.0;
    std::size_t since_improve = 0;
    bool bland_mode = false;  ///< hybrid rule: Bland during a stall streak
    bool bland = false;       ///< this iteration prices with Bland
  };

  /// Start an iteration (inside its trace span): resolve the pricing rule
  /// and restart the op lap clock.
  void begin_iteration(const Workspace& ws, Loop& loop) {
    if (ws.options.pricing == PricingRule::kHybrid) {
      loop.bland_mode = loop.since_improve >= ws.options.degeneracy_window;
    }
    loop.bland = loop.bland_mode || ws.options.pricing == PricingRule::kBland;
    if (loop.om.enabled()) loop.lap = dev_.sim_seconds();
  }

  /// Close the op that just ran on the metrics lap clock.
  void lap(Loop& loop, metrics::SimplexOp op) {
    if (!loop.om.enabled()) return;
    const double now = dev_.sim_seconds();
    loop.om.observe(op, now - loop.lap);
    loop.lap = now;
  }

  /// A loop pivot's ratio-test outcome, logged with its decision.
  struct Step {
    Real d_q;
    Real theta;
  };

  /// Log a pivot (column q enters at row p) to the attached recorder, if
  /// any. A loop pivot passes its Step and counts the rows tied at theta
  /// through host_view() — outside the machine model, so recording charges
  /// no PCIe time and perturbs nothing. An artificial drive-out has no
  /// ratio test: it logs one tie and no reduced cost or step.
  void record_pivot(const Workspace& ws, std::uint8_t phase, bool bland,
                    std::uint64_t iteration, std::size_t q, std::size_t p,
                    Real alpha_p, std::optional<Step> step) const {
    record::Recorder* rec = opt_.recorder;
    if (rec == nullptr) return;
    record::DecisionRecord r;
    r.phase = phase;
    r.bland = bland ? 1 : 0;
    r.iteration = iteration;  // global ordinal, pre-increment
    r.entering = static_cast<std::uint32_t>(q);
    r.leaving_row = static_cast<std::uint32_t>(p);
    r.leaving_col = ws.basic[p];
    r.ratio_ties = 1;
    r.pivot_value = static_cast<double>(alpha_p);
    if (step.has_value()) {
      const std::span<const Real> rv = ws.ratio.host_view();
      r.ratio_ties = static_cast<std::uint32_t>(
          std::count(rv.begin(), rv.end(), step->theta));
      r.reduced_cost = static_cast<double>(step->d_q);
      r.theta = static_cast<double>(step->theta);
    }
    rec->record_pivot(r);
  }

  /// Everything after a loop pivot, in the order both loops emit it: the
  /// iteration counters and health pivot, the hybrid rule's progress test,
  /// the objective counter and telemetry point, the refactor trigger, and
  /// the strided health/telemetry samples.
  void end_iteration(Workspace& ws, Loop& loop, std::size_t iter,
                     Real alpha_p, Step step) {
    ++loop.stats.iterations;
    loop.om.count_iteration();
    loop.health.record_pivot(static_cast<double>(alpha_p),
                             static_cast<double>(step.theta), loop.bland,
                             iter);

    const double dz =
        static_cast<double>(step.theta) * static_cast<double>(step.d_q);
    const double new_z = loop.z + dz;
    if (new_z < loop.z - 1e-12 * (1.0 + std::abs(loop.z))) {
      loop.since_improve = 0;
      loop.bland_mode = false;
    } else {
      ++loop.since_improve;
    }
    loop.z = new_z;
    const trace::Track& tr = dev_.trace();
    if (tr.enabled()) tr.counter("objective", dev_.sim_seconds(), loop.z);
    telemetry::Telemetry* tel = ws.options.telemetry;
    const bool want_tel = tel != nullptr && tel->want_iteration_sample(iter);
    if (want_tel) tel->record("engine.objective", dev_.sim_seconds(), loop.z);

    ++ws.pivots_since_refactor;
    if (refactor_due(ws)) {
      trace::ScopedSpan op(tr, "refactor", clock(), "op");
      reinvert(ws);
      lap(loop, metrics::SimplexOp::kRefactor);
      if (record::Recorder* rec = opt_.recorder) {
        rec->record_refactor(loop.stats.iterations);
      }
    }

    const bool want_health = loop.health.want_residual_sample(iter);
    if (want_health || want_tel) {
      sample_health(ws, loop.health, want_health, want_tel ? tel : nullptr,
                    iter);
    }
  }

  LoopExit run_loop(Workspace& ws, std::size_t budget, SolverStats& stats,
                    metrics::SimplexOpMetrics& om,
                    metrics::HealthMonitor& health, std::uint8_t phase) {
    if (ws.options.fused_iteration &&
        (ws.options.basis == BasisScheme::kExplicitInverse || sparse_pf(ws))) {
      return run_loop_fused(ws, budget, stats, om, health, phase);
    }
    const trace::Track& tr = dev_.trace();
    Loop loop{stats, om, health, phase, ws.current_objective()};
    for (std::size_t iter = 0; iter < budget; ++iter) {
      trace::ScopedSpan iter_span(tr, "iteration", clock(), "iteration",
                                  {{"iter", static_cast<double>(iter)}});
      begin_iteration(ws, loop);

      std::optional<std::size_t> entering;
      Real d_q{};
      {
        trace::ScopedSpan op(tr, "price", clock(), "op");
        btran(ws);
        ws.at.price(ws.pi, ws.c, ws.mask, ws.d);
        entering = select_entering(ws, loop.bland_mode);
        if (entering.has_value()) d_q = ws.d.download_value(*entering);
      }
      lap(loop, metrics::SimplexOp::kPrice);
      if (!entering.has_value()) return LoopExit::kOptimal;
      const std::size_t q = *entering;

      {
        trace::ScopedSpan op(tr, "ftran", clock(), "op");
        ftran(ws, q);
      }
      lap(loop, metrics::SimplexOp::kFtran);
      vgpu::ArgResult<Real> leave;
      {
        trace::ScopedSpan op(tr, "ratio", clock(), "op");
        ratio_test_kernel(ws);
        leave = vgpu::argmin(ws.ratio);
      }
      lap(loop, metrics::SimplexOp::kRatio);
      if (!leave.found() || leave.value == kInf) return LoopExit::kUnbounded;
      const std::size_t p = leave.index;
      const Step step{d_q, leave.value};
      const Real alpha_p = ws.alpha.download_value(p);
      record_pivot(ws, loop.phase, loop.bland, stats.iterations, q, p,
                   alpha_p, step);

      {
        trace::ScopedSpan op(tr, "update", clock(), "op");
        if (ws.options.pricing == PricingRule::kDevex) {
          devex_update(ws, q, p, alpha_p);
        }
        pivot(ws, q, p, step.theta, alpha_p);
      }
      lap(loop, metrics::SimplexOp::kUpdate);
      end_iteration(ws, loop, iter, alpha_p, step);
    }
    return LoopExit::kIterationLimit;
  }

  /// The fused twin of run_loop, for the explicit inverse and the sparse
  /// product form. Per iteration:
  ///   explicit inverse:  price_btran -> price_select -> ftran_ratio
  ///     -> [descriptor d2h] -> pivot_stage -> [devex_update_fused]
  ///     -> pivot_apply;
  ///   sparse product form:  [eta_btran_chain] -> sparse_btran
  ///     -> price_select -> sparse_ftran -> [eta_ftran_chain]
  ///     -> ratio_select -> [descriptor d2h] -> [devex row + update]
  ///     -> pivot_beta -> make_eta (+ the eta-support h2d).
  /// Selections spanning more than one block add a small combine launch.
  /// The pivot sequence is bit-identical to run_loop's — the fused
  /// selections share the primitives' block-scan semantics and the device-
  /// side acceptance tests mirror the host ones — so recordings diff clean
  /// against the reference path (tests/test_fusion.cpp). Observer side
  /// effects go through the same Loop helpers as run_loop's.
  LoopExit run_loop_fused(Workspace& ws, std::size_t budget,
                          SolverStats& stats, metrics::SimplexOpMetrics& om,
                          metrics::HealthMonitor& health, std::uint8_t phase) {
    const trace::Track& tr = dev_.trace();
    Loop loop{stats, om, health, phase, ws.current_objective()};
    const bool pf = sparse_pf(ws);
    std::array<Real, kDescSlots> desc_h{};
    for (std::size_t iter = 0; iter < budget; ++iter) {
      trace::ScopedSpan iter_span(tr, "iteration", clock(), "iteration",
                                  {{"iter", static_cast<double>(iter)}});
      begin_iteration(ws, loop);
      const EnteringRule rule =
          loop.bland ? EnteringRule::kBland
                     : (ws.options.pricing == PricingRule::kDevex
                            ? EnteringRule::kDevex
                            : EnteringRule::kDantzig);
      {
        trace::ScopedSpan op(tr, "price", clock(), "op");
        btran(ws);
        ws.at.price_select(ws.pi, ws.c, ws.mask, ws.d, ws.col_work,
                           ws.devex_w, ws.desc, rule,
                           static_cast<Real>(ws.options.opt_tol));
      }
      lap(loop, metrics::SimplexOp::kPrice);
      {
        // Speculative: issued before the host knows whether pricing found
        // a candidate; the kernels early-exit on-device when it did not.
        trace::ScopedSpan op(tr, "ftran", clock(), "op");
        if (pf) {
          ftran_speculative(ws);
        } else {
          ws.at.ftran_ratio_select(ws.binv, ws.beta, ws.alpha, ws.ratio,
                                   ws.desc,
                                   static_cast<Real>(ws.options.pivot_tol));
        }
      }
      lap(loop, metrics::SimplexOp::kFtran);
      {
        // The iteration's only d2h: one packed descriptor.
        trace::ScopedSpan op(tr, "ratio", clock(), "op");
        if (pf) ratio_select(ws);
        ws.desc.download(std::span<Real>(desc_h.data(), desc_h.size()));
      }
      lap(loop, metrics::SimplexOp::kRatio);
      if (desc_h[kDescQ] < Real{0}) return LoopExit::kOptimal;
      // Zero-row edge: the ratio kernel is an empty grid (never launched),
      // so the leaving slots are meaningless — no row can leave.
      if (ws.m == 0) return LoopExit::kUnbounded;
      const std::size_t q = static_cast<std::size_t>(desc_h[kDescQ]);
      const Step step{desc_h[kDescDq], desc_h[kDescTheta]};
      if (step.theta == kInf) return LoopExit::kUnbounded;
      const std::size_t p = static_cast<std::size_t>(desc_h[kDescP]);
      const Real alpha_p = desc_h[kDescAlphaP];
      record_pivot(ws, loop.phase, loop.bland, stats.iterations, q, p,
                   alpha_p, step);

      {
        trace::ScopedSpan op(tr, "update", clock(), "op");
        const std::uint32_t leaving = ws.basic[p];
        const bool devex = ws.options.pricing == PricingRule::kDevex;
        const Pokes pokes{q, leaving, static_cast<Real>(ws.c_host[q]),
                          !ws.aug.is_artificial[leaving]};
        if (pf) {
          if (devex) {
            // Row p of the pre-pivot B^-1 is a unit BTRAN here.
            compute_binv_row(ws, p);
            ws.at.devex_update(ws.pivot_row, ws.mask, ws.devex_w, q, leaving,
                               alpha_p);
          }
          update_beta(ws, p, step.theta, &pokes);
          append_eta(ws, p, alpha_p);
        } else {
          pivot_stage(ws, p, step.theta);
          if (devex) {
            ws.at.devex_update(ws.pivot_row, ws.mask, ws.devex_w, q, leaving,
                               alpha_p);
          }
          pivot_apply(ws, q, p, alpha_p, pokes.cb_new, leaving,
                      pokes.unmask_leaving);
        }
        ws.basic[p] = static_cast<std::uint32_t>(q);
        ws.in_basis[leaving] = false;
        ws.in_basis[q] = true;
      }
      lap(loop, metrics::SimplexOp::kUpdate);
      end_iteration(ws, loop, iter, alpha_p, step);
    }
    return LoopExit::kIterationLimit;
  }

  /// HealthMonitor sampling hook (strided; see HealthConfig). Reads device
  /// state through DeviceBuffer::host_view() — outside the machine model,
  /// so sampling charges no PCIe time and perturbs nothing.
  ///
  /// Explicit inverse: probe `residual_probes` entries of B·B⁻¹ − I — for
  /// a probed (i, j), row i of B comes straight from the standard form's
  /// sparse rows (plus any basic artificial on that row), so one probe is
  /// O(nnz(row i)); the max |probe| is a cheap lower-bound estimate of
  /// `‖B·B⁻¹ − I‖∞` that tracks drift in the rank-1 update. Growth is the
  /// max |B⁻¹| over the probed rows. The product form has no drifting
  /// inverse to probe; it reports the eta-file length instead.
  /// The health monitor and the telemetry sink sample on independent
  /// strides; each consumer is fed only when its own gate fired, so
  /// attaching telemetry never changes what the HealthMonitor records.
  void sample_health(Workspace& ws, metrics::HealthMonitor& health,
                     bool record_health, telemetry::Telemetry* tel,
                     std::size_t iter) {
    if (ws.options.basis != BasisScheme::kExplicitInverse) {
      if (record_health) health.record_eta_count(ws.etas.size());
      if (tel != nullptr) {
        tel->record("engine.eta_count", dev_.sim_seconds(),
                    static_cast<double>(ws.etas.size()));
      }
      return;
    }
    const std::size_t m = ws.m;
    const std::span<const Real> binv = ws.binv.buffer().host_view();
    std::vector<std::int64_t> pos_of_col(ws.n_aug, -1);
    for (std::size_t k = 0; k < m; ++k) {
      pos_of_col[ws.basic[k]] = static_cast<std::int64_t>(k);
    }
    const lp::StandardFormLp& sf = *ws.aug.source;
    const std::size_t probes =
        std::max<std::size_t>(1, health.config().residual_probes);
    const std::size_t step = std::max<std::size_t>(1, m / probes);
    double residual = 0.0;
    double growth = 0.0;
    for (std::size_t t = 0; t < probes; ++t) {
      // Rotate the probed rows with the iteration so successive samples
      // cover different parts of the inverse; alternate diagonal and
      // off-diagonal targets.
      const std::size_t i = (iter + t * step) % m;
      const std::size_t j = (t % 2 == 0) ? i : (i + 1) % m;
      double acc = 0.0;
      for (const lp::Term& term : sf.rows[i]) {
        const std::int64_t k = pos_of_col[term.var];
        if (k >= 0) {
          acc += term.coef * static_cast<double>(
                                 binv[static_cast<std::size_t>(k) * m + j]);
        }
      }
      for (std::size_t a = 0; a < ws.aug.num_artificial; ++a) {
        if (ws.aug.artificial_rows[a] != i) continue;
        const std::int64_t k = pos_of_col[ws.aug.n + a];
        if (k >= 0) {
          acc += static_cast<double>(binv[static_cast<std::size_t>(k) * m + j]);
        }
      }
      const double r = std::abs(acc - (i == j ? 1.0 : 0.0));
      if (r > residual) residual = r;
      for (std::size_t col = 0; col < m; ++col) {
        const double v = std::abs(static_cast<double>(binv[i * m + col]));
        if (v > growth) growth = v;
      }
    }
    if (record_health) {
      health.record_residual(residual, iter);
      health.record_growth(growth, iter);
    }
    if (tel != nullptr) {
      tel->record("engine.residual_inf", dev_.sim_seconds(), residual);
      tel->record("engine.binv_growth", dev_.sim_seconds(), growth);
    }
  }

  /// Apply one basis exchange: entering column q replaces row p's variable.
  void pivot(Workspace& ws, std::size_t q, std::size_t p, Real theta,
             Real alpha_p) {
    update_beta(ws, p, theta);
    if (ws.options.basis == BasisScheme::kExplicitInverse) {
      save_pivot_row(ws, p);
      update_binv(ws, p, alpha_p);
    } else {
      append_eta(ws, p, alpha_p);
    }
    const std::uint32_t leaving = ws.basic[p];
    ws.basic[p] = static_cast<std::uint32_t>(q);
    ws.in_basis[leaving] = false;
    ws.in_basis[q] = true;
    // Scalar traffic: c_B[p], mask[q] off, mask[leaving] on (unless it is an
    // artificial, which never re-enters).
    ws.cb.upload_value(p, static_cast<Real>(ws.c_host[q]));
    ws.mask.upload_value(q, Real{0});
    if (!ws.aug.is_artificial[leaving]) {
      ws.mask.upload_value(leaving, Real{1});
    }
  }

  /// After a degenerate phase 1, artificials can linger in the basis at
  /// level zero. Replace each with any non-artificial column that has a
  /// nonzero pivot in its row; rows with no such column are redundant and
  /// keep their (permanently zero) artificial.
  void drive_out_artificials(Workspace& ws, std::uint64_t iteration) {
    for (std::size_t i = 0; i < ws.m; ++i) {
      if (!ws.aug.is_artificial[ws.basic[i]]) continue;
      compute_binv_row(ws, i);
      ws.at.pivot_row_product(ws.pivot_row, ws.col_work);
      const std::vector<Real> w = ws.col_work.to_host();
      std::size_t q = ws.n_aug;
      for (std::size_t j = 0; j < ws.aug.n; ++j) {
        if (!ws.in_basis[j] && std::abs(static_cast<double>(w[j])) > 1e-7) {
          q = j;
          break;
        }
      }
      if (q == ws.n_aug) continue;  // redundant row: artificial stays at 0
      ftran(ws, q);
      const Real alpha_p = ws.alpha.download_value(i);
      if (std::abs(static_cast<double>(alpha_p)) <= ws.options.pivot_tol) {
        continue;
      }
      record_pivot(ws, 1, false, iteration, q, i, alpha_p, std::nullopt);
      pivot(ws, q, i, Real{0}, alpha_p);
    }
  }

  SolveResult& finish(SolveResult& result, SolveStatus status,
                      WallTimer& wall) {
    result.status = status;
    result.stats.wall_seconds = wall.seconds();
    result.stats.device_stats = dev_.stats();
    result.stats.sim_seconds = dev_.sim_seconds();
    return result;
  }

  [[nodiscard]] static constexpr double bytes(std::size_t n) noexcept {
    return static_cast<double>(n * sizeof(Real));
  }

  vgpu::Device& dev_;
  SolverOptions opt_;
};

/// The Ext. C sparse instantiation: CSR constraint matrix, dense B^-1.
template <typename Real>
using SparseRevisedSimplex = DeviceRevisedSimplex<Real, SparseAt>;

}  // namespace gs::simplex
