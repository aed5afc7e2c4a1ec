// The paper's contribution: revised simplex with every per-iteration
// linear-algebra operation executed as a data-parallel device kernel.
//
// State resident on the device across iterations (the design choice the
// paper's transfer analysis motivates):
//   * A^T           (dense or CSR via the At policy; transposed so column
//                   reads are contiguous)
//   * B^-1          dense m x m, updated in place by a rank-1 Gauss-Jordan
//                   elimination step each iteration (explicit-inverse
//                   scheme) -- or, under the product form (the Ext. B
//                   ablation), B0 as the host oracle's sparse LU factors
//                   plus its eta file, on either A^T layout
//   * beta = B^-1 b, pi, d, alpha, ratio vectors, pricing mask, c, c_B
//
// Per-iteration PCIe traffic is scalar-sized: one packed pivot descriptor
// read back, plus, under the product form, the new eta's support indices
// uploaded. That transfer latency is charged through the device's machine
// model and is a first-order term below the paper's crossover size.
//
// Template parameters: Real in {float, double} drives the Fig. 3 precision
// study; At in {DenseAt, SparseAt} selects the constraint-matrix storage
// (SparseRevisedSimplex below is the CSR instantiation, Ext. C).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "lp/problem.hpp"
#include "lp/standard_form.hpp"
#include "simplex/at_policy.hpp"
#include "simplex/basis/basis_oracle.hpp"
#include "simplex/basis/sparse_lu.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/solve_frame.hpp"
#include "simplex/types.hpp"
#include "telemetry/telemetry.hpp"
#include "vblas/containers.hpp"
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
    const AugmentedLp aug = augment(sf);
    SolveFrame frame(opt_, dev_, engine_name(), sizeof(Real) * 8, aug.m,
                     aug.n_aug, decision_digest(aug));
    Workspace ws(dev_, aug, opt_);
    if (ws.product_form) {
      // The crash basis is diagonal, so this factorization always succeeds.
      const bool ok = load_factors(ws);
      GS_CHECK_MSG(ok, "product-form: singular crash basis");
    }
    SolveResult result;
    const auto finish = [&](SolveStatus status) {
      return frame.close(std::move(result), status, ws.basic);
    };
    std::size_t budget = opt_.max_iterations;

    // ---- Phase 1: minimize the artificial sum, if any were needed. ----
    if (aug.num_artificial > 0) {
      const auto phase_span = frame.phase("phase1", 1);
      ws.load_costs(aug.c_phase1);
      const LoopExit exit = run_loop(ws, frame, budget, result.stats, 1);
      result.stats.phase1_iterations = result.stats.iterations;
      if (exit == LoopExit::kIterationLimit) {
        return finish(SolveStatus::kIterationLimit);
      }
      if (exit == LoopExit::kUnbounded) {
        // Phase-1 objective is bounded below by zero; reaching here means
        // the ratio test lost every pivot to numerics.
        return finish(SolveStatus::kNumericalTrouble);
      }
      const double z1 = ws.current_objective();
      const double feas_tol =
          1e-6 * (1.0 + *std::max_element(aug.b.begin(), aug.b.end()));
      if (z1 > feas_tol) {
        return finish(SolveStatus::kInfeasible);
      }
      drive_out_artificials(ws, frame, result.stats.iterations);
      budget -= std::min(budget, result.stats.iterations);
    }

    // ---- Phase 2: original costs, artificials permanently masked. ----
    LoopExit exit;
    {
      const auto phase_span = frame.phase("phase2", 2);
      ws.load_costs(aug.c_phase2);
      exit = run_loop(ws, frame, budget, result.stats, 2);
    }
    switch (exit) {
      case LoopExit::kOptimal:
        break;
      case LoopExit::kUnbounded:
        return finish(SolveStatus::kUnbounded);
      case LoopExit::kIterationLimit:
        return finish(SolveStatus::kIterationLimit);
    }

    // ws.pi still holds the optimal simplex multipliers (the loop priced,
    // found no entering candidate and stopped): they are the duals.
    const std::vector<Real> beta = ws.beta.to_host();
    const std::vector<Real> pi = ws.pi.to_host();
    recover_optimum<Real>(sf, ws.basic, beta, pi, result);
    return finish(SolveStatus::kOptimal);
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
          product_form(opt.basis == BasisScheme::kProductForm),
          at(dev, aug_in),
          binv(product_form ? std::nullopt
                            : std::optional<vblas::DeviceMatrix<Real>>(
                                  std::in_place, dev, m, m)),
          beta(dev, m),
          pi(dev, m),
          cb(dev, m),
          c(dev, n_aug),
          d(dev, n_aug),
          mask(dev, n_aug),
          alpha(dev, m),
          ratio(dev, m),
          pivot_row(dev, m),
          devex_w(dev, n_aug),
          col_work(dev, n_aug),
          desc(dev, desc_slots(m, n_aug)),
          basic(aug_in.basic),
          options(opt) {
      // Initial B^-1 and beta from the crash basis. The inverse starts
      // diagonal, so only the m diagonal entries cross PCIe; a device
      // kernel expands them into the dense m x m matrix (the full-matrix
      // upload was ~a third of all H2D bytes at bench scale). The product
      // form factors the crash basis instead (load_factors).
      std::vector<Real> diag0(m), beta0(m);
      for (std::size_t i = 0; i < m; ++i) {
        diag0[i] = static_cast<Real>(aug.binv_diag[i]);
        beta0[i] = static_cast<Real>(aug.beta_init[i]);
      }
      if (binv.has_value()) {
        vgpu::DeviceBuffer<Real> diag_dev(dev,
                                          std::span<const Real>(diag0));
        auto dsp = diag_dev.device_span();
        auto bi = binv->device_span();
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
      }
      beta.upload(beta0);
      if (product_form) {
        csr.emplace(aug.csr_at());
        sigma.emplace(dev, m);
        eta_work.emplace(dev, m);
      }
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
      pi_current = false;
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
    /// The basis scheme: B0's sparse LU plus an eta file, or the dense
    /// explicit inverse.
    bool product_form;

    At<Real> at;
    /// Dense B^-1: the explicit inverse only; the product form holds B0 as
    /// `lu` below instead.
    std::optional<vblas::DeviceMatrix<Real>> binv;
    vgpu::DeviceBuffer<Real> beta;
    vgpu::DeviceBuffer<Real> pi, cb, c, d, mask, alpha, ratio, pivot_row;
    vgpu::DeviceBuffer<Real> devex_w;
    vgpu::DeviceBuffer<Real> col_work;  ///< n_aug scratch (scores, rows)
    /// Pivot descriptor (desc_slots Reals): the iteration's
    /// entering/leaving decisions, filled on device, its prefix fetched
    /// with one d2h.
    vgpu::DeviceBuffer<Real> desc;

    /// Product-form eta file, one entry per pivot since the last
    /// refactorization, in the host oracle's format: the support {i != p :
    /// alpha_i != 0} as host metadata, its raw alpha_i on device as
    /// (idx, val) pairs (absent for an empty support), and pval = alpha_p.
    struct Eta {
      std::size_t p;
      Real pval;
      std::vector<std::uint32_t> support;
      std::optional<vgpu::DeviceBuffer<std::uint32_t>> idx;
      std::optional<vgpu::DeviceBuffer<Real>> val;
    };
    std::vector<Eta> etas;
    /// Largest eta multiplier since the last reinversion (growth trigger).
    double eta_growth = 0.0;

    /// Product form's B0: the host ProductFormOracle's SparseLu of the
    /// basis, factored over `csr` (the augmented A^T), as position etas
    /// (SparseLu::position_etas). sigma and the entries live on the
    /// device; p, pval and the per-eta offsets are host metadata, like
    /// the update etas' p and alpha_p. eta_work is the BTRAN chain's y.
    std::optional<sparse::CsrMatrix<double>> csr;
    basis::SparseLu::PositionEtas lu;
    std::optional<vgpu::DeviceBuffer<std::uint32_t>> sigma, lu_idx;
    std::optional<vgpu::DeviceBuffer<Real>> lu_val, eta_work;

    std::vector<std::uint32_t> basic;
    std::vector<bool> in_basis;
    std::vector<double> c_host;
    SolverOptions options;
    /// pi = (B^-1)^T c_B for the current basis and costs. The
    /// explicit-inverse pivot_apply keeps it current; anything else that
    /// moves B^-1 or c_B clears it, and the loop re-runs BTRAN.
    bool pi_current = false;
  };

  // ---------------------------------------------------------------------
  // Kernels (each one launch on the device, costed like its CUDA original)
  // ---------------------------------------------------------------------

  /// pi = (B^-1)^T c_B: one price_btran over the explicit inverse, or the
  /// BTRAN chain under the product form.
  void btran(Workspace& ws) {
    if (ws.product_form) {
      eta_btran_chain(ws, &ws.cb, 0, ws.pi);
    } else {
      price_btran(ws);
    }
    ws.pi_current = true;
  }

  /// pi = (B^-1)^T c_B as one "price_btran" launch over the dense inverse.
  /// Each lane sums its column over the nonzero rows of c_B (rows of B^-1
  /// stream contiguously) in a block-local accumulator and writes out
  /// once; the launch is declared from all m rows.
  void price_btran(Workspace& ws) {
    const std::size_t m = ws.m;
    auto binv = ws.binv->device_span();
    auto ysp = ws.cb.device_span();
    auto osp = ws.pi.device_span();
    dev_.launch_blocks(
        "price_btran", m, vgpu::Device::kBlockSize,
        {2.0 * double(m) * double(m), bytes(m * m + 2 * m), sizeof(Real)},
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

  /// alpha = B^-1 a_q (FTRAN) for a known column q, as the artificial
  /// drive-out needs it; the loop's FTRAN is speculative (run_loop).
  void ftran(Workspace& ws, std::size_t q) {
    if (ws.product_form) {
      eta_ftran_chain(ws, nullptr, q);
    } else {
      ws.at.ftran_alpha(*ws.binv, q, ws.alpha);
    }
  }

  // -------------------------------------------------------------------
  // Product form (either A^T layout): ONE single-block launch per
  // direction walks B0's factor etas (load_factors) and the update etas in
  // the host oracle's arithmetic, so device and host product forms are
  // bit-identical in double. A chain is charged one block's
  // occupancy on the roofline plus one dependent step
  // (KernelCost::dependent_steps) per level of its walk (chain_shape).
  // -------------------------------------------------------------------

  /// Visit every eta in walk order: FTRAN takes the factor etas, then the
  /// update etas oldest first; BTRAN (`transposed`) the exact reverse.
  template <typename Factor, typename Update>
  static void walk_etas(const Workspace& ws, bool transposed, Factor&& factor,
                        Update&& update) {
    const std::size_t nf = ws.lu.p.size();
    const std::size_t total = nf + ws.etas.size();
    for (std::size_t k = 0; k < total; ++k) {
      const std::size_t e = transposed ? total - 1 - k : k;
      if (e < nf) {
        factor(e);
      } else {
        update(ws.etas[e - nf]);
      }
    }
  }

  /// Size of one chain walk, from host metadata (the eta supports).
  struct ChainShape {
    std::size_t etas = 0;
    std::size_t entries = 0;
    std::size_t levels = 0;
  };

  /// An eta opens a new level only if it reads an element written at the
  /// current level (read after write). Within a level every eta reads
  /// first, then each element takes its writes in walk order, which is
  /// exactly the sequential walk's result; so the kernel body stays the
  /// sequential loop and only its declared steps follow the levels. An
  /// FTRAN eta reads x_p and writes x_p and its entries; a BTRAN eta reads
  /// y_p and its entries and writes y_p.
  [[nodiscard]] static ChainShape chain_shape(const Workspace& ws,
                                              bool transposed) {
    ChainShape shape;
    std::vector<std::size_t> written(ws.m, 0);  // level of the last write
    const auto eta = [&](std::size_t p,
                         std::span<const std::uint32_t> entries) {
      const std::size_t level = shape.levels;
      bool raw = level == 0 || written[p] == level;
      if (transposed) {
        for (const std::uint32_t i : entries) raw = raw || written[i] == level;
      }
      if (raw) ++shape.levels;
      written[p] = shape.levels;
      if (!transposed) {
        for (const std::uint32_t i : entries) written[i] = shape.levels;
      }
      ++shape.etas;
      shape.entries += entries.size();
    };
    const basis::SparseLu::PositionEtas& lu = ws.lu;
    walk_etas(
        ws, transposed,
        [&](std::size_t e) {
          eta(lu.p[e], std::span<const std::uint32_t>(lu.idx).subspan(
                           lu.offsets[e], lu.offsets[e + 1] - lu.offsets[e]));
        },
        [&](const typename Workspace::Eta& u) { eta(u.p, u.support); });
    return shape;
  }

  /// The walk inside a kernel body: `apply(p, pval, idx, val, lo, hi)`
  /// runs one eta over entries [lo, hi) of its device spans (the packed
  /// factor buffers, or an update eta's own).
  template <typename Apply>
  static void walk_device(const Workspace& ws, bool transposed,
                          Apply&& apply) {
    const basis::SparseLu::PositionEtas& lu = ws.lu;
    const auto fidx = ws.lu_idx->device_span();
    const auto fval = ws.lu_val->device_span();
    walk_etas(
        ws, transposed,
        [&](std::size_t e) {
          apply(lu.p[e], static_cast<Real>(lu.pval[e]), fidx, fval,
                lu.offsets[e], lu.offsets[e + 1]);
        },
        [&](const typename Workspace::Eta& u) {
          if (u.support.empty()) {
            apply(u.p, u.pval, vgpu::check::CheckedSpan<const std::uint32_t>{},
                  vgpu::check::CheckedSpan<const Real>{}, 0, 0);
          } else {
            apply(u.p, u.pval, u.idx->device_span(), u.val->device_span(), 0,
                  u.support.size());
          }
        });
  }

  /// alpha = B^-1 a_q in ONE launch: zero alpha, scatter a_q through
  /// sigma, walk the factor etas, then the update etas oldest first. Per
  /// eta, t = x_p / pval; if t != 0, x_i -= v_i * t over the entries;
  /// then x_p = t (ProductFormOracle::apply_etas and SparseLu::ftran).
  /// Without `select` it solves for the known column q (the drive-out).
  /// With it (the loop's speculative form) the launch first combines the
  /// pricing blocks' winners into the entering column, publishes it and
  /// exits when none may enter, declares the widest column, and after the
  /// walk runs the ratio test over all m rows into the descriptor's first
  /// leaving triple — one more dependent step behind the walk's barrier.
  void eta_ftran_chain(Workspace& ws, const EnteringSelect<Real>* select,
                       std::size_t q = 0) {
    const std::size_t m = ws.m;
    const auto cols = ws.at.columns();
    const std::size_t nnz_q =
        select == nullptr ? cols.column(q).nnz() : ws.at.max_col_nnz();
    const ChainShape shape = chain_shape(ws, false);
    constexpr double kIdx = sizeof(std::uint32_t);
    // Zeroing, the layout's scatter, then per entry idx + val + x read +
    // x written and per eta x_p read + write; the loop's form adds the
    // pricing winners, d_q, q and d_q written, and the ratio test (alpha
    // and beta read, ratio and the triple written).
    const double traffic =
        bytes(m) + decltype(cols.column(0))::scatter_bytes(nnz_q) +
        double(shape.entries) * (kIdx + 3.0 * sizeof(Real)) +
        bytes(2 * shape.etas) +
        (select == nullptr ? 0.0
                           : bytes(2 * select->blocks + 3 + 3 * m + 3));
    auto xsp = ws.alpha.device_span();
    auto dsp = ws.desc.device_span();
    const auto ssp = std::as_const(*ws.sigma).device_span();
    const auto rcsp = std::as_const(ws.d).device_span();
    const auto bsp = std::as_const(ws.beta).device_span();
    auto rsp = ws.ratio.device_span();
    const Real pivot_tol = static_cast<Real>(ws.options.pivot_tol);
    dev_.launch_blocks(
        "eta_ftran_chain", vgpu::Device::kBlockSize, vgpu::Device::kBlockSize,
        {2.0 * double(shape.entries) + double(shape.etas) +
             (select == nullptr ? 0.0 : double(m)),
         traffic, sizeof(Real), (select == nullptr ? 1 : 2) + shape.levels},
        [&](std::size_t, std::size_t, std::size_t) {
          std::size_t col = q;
          if (select != nullptr) {
            col = select->resolve(dsp);
            select->publish(col, rcsp, dsp);
            if (col == vgpu::detail::kNoIndex) return;  // optimal
          }
          const auto aq = cols.column(col);
          aq.annotate();
          for (std::size_t i = 0; i < m; ++i) xsp[i] = Real{0};
          aq.scatter(xsp, ssp);
          walk_device(ws, false,
                      [&](std::size_t p, Real pval, const auto& isp,
                          const auto& vsp, std::size_t lo, std::size_t hi) {
                        const Real t = xsp[p] / pval;
                        if (t != Real{0}) {
                          for (std::size_t k = lo; k < hi; ++k) {
                            xsp[isp[k]] -= vsp[k] * t;
                          }
                        }
                        xsp[p] = t;
                      });
          if (select != nullptr) {
            leaving_block(
                pivot_tol, 0, m, [&](std::size_t i) { return Real(xsp[i]); },
                bsp, rsp, xsp, dsp, kDescP);
          }
        });
  }

  /// out = (B^-1)^T y in ONE launch, where y is a copy of `seed` or, when
  /// `seed` is null, the unit vector e_{unit_row}: walk the update etas
  /// transposed newest first, then the factor etas transposed in reverse,
  /// then gather out[r] = y[sigma[r]]. Per eta, acc = y_p; acc -= v_k *
  /// y_{i_k} in entry order; then y_p = acc / pval
  /// (ProductFormOracle::apply_etas_transposed and SparseLu::btran).
  void eta_btran_chain(Workspace& ws, const vgpu::DeviceBuffer<Real>* seed,
                       std::size_t unit_row, vgpu::DeviceBuffer<Real>& out) {
    const std::size_t m = ws.m;
    const ChainShape shape = chain_shape(ws, true);
    constexpr double kIdx = sizeof(std::uint32_t);
    // The seed, per entry idx + val + y read, per eta y_p read + write,
    // and the gather (sigma + y read, out written).
    const double traffic =
        bytes(seed != nullptr ? 2 * m : m) +
        double(shape.entries) * (kIdx + 2.0 * sizeof(Real)) +
        bytes(2 * shape.etas) + double(m) * (kIdx + 2.0 * sizeof(Real));
    auto ysp = ws.eta_work->device_span();
    auto osp = out.device_span();
    const auto ssp = std::as_const(*ws.sigma).device_span();
    const auto csp = seed != nullptr ? seed->device_span()
                                     : vgpu::check::CheckedSpan<const Real>{};
    dev_.launch_blocks(
        "eta_btran_chain", vgpu::Device::kBlockSize, vgpu::Device::kBlockSize,
        {2.0 * double(shape.entries) + double(shape.etas), traffic,
         sizeof(Real), 2 + shape.levels},
        [&](std::size_t, std::size_t, std::size_t) {
          for (std::size_t i = 0; i < m; ++i) {
            ysp[i] = seed != nullptr ? Real(csp[i])
                                     : (i == unit_row ? Real{1} : Real{0});
          }
          walk_device(ws, true,
                      [&](std::size_t p, Real pval, const auto& isp,
                          const auto& vsp, std::size_t lo, std::size_t hi) {
                        Real acc = ysp[p];
                        for (std::size_t k = lo; k < hi; ++k) {
                          acc -= vsp[k] * ysp[isp[k]];
                        }
                        ysp[p] = acc / pval;
                      });
          for (std::size_t r = 0; r < m; ++r) osp[r] = ysp[ssp[r]];
        });
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

  /// The product form's pivot: beta_p = theta, beta_i -= theta * alpha_i,
  /// and the pivot lane writes the bookkeeping on device, as pivot_apply
  /// does for the explicit inverse.
  void pivot_beta(Workspace& ws, std::size_t p, Real theta,
                  const Pokes& pokes) {
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    auto csp = ws.cb.device_span();
    auto msp = ws.mask.device_span();
    dev_.launch_blocks(
        "pivot_beta", ws.m, vgpu::Device::kBlockSize,
        {2.0 * double(ws.m), bytes(3 * ws.m + 3), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const Real v = (i == p) ? theta : bsp[i] - theta * asp[i];
            // The ratio test guarantees v >= 0 in exact arithmetic; clamp
            // the rounding dust so the basis stays primal feasible.
            bsp[i] = v < Real{0} ? Real{0} : v;
            if (i == p) {
              csp[p] = pokes.cb_new;
              msp[pokes.q] = Real{0};
              if (pokes.unmask_leaving) msp[pokes.leaving] = Real{1};
            }
          }
        });
  }

  /// Copy row p of B^-1 into ws.pivot_row.
  void save_pivot_row(Workspace& ws, std::size_t p) {
    const std::size_t m = ws.m;
    auto binv = ws.binv->device_span();
    auto prow = ws.pivot_row.device_span();
    dev_.launch_blocks(
        "save_pivot_row", m, vgpu::Device::kBlockSize,
        {0.0, bytes(2 * m), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) prow[j] = binv[p * m + j];
        });
  }

  /// The whole explicit-inverse pivot in ONE m-lane launch (so an
  /// iteration costs 3 launches, 4 with Devex): the beta step,
  /// the rank-1 Gauss-Jordan update of B^-1, the pivot's scalar pokes and
  /// the next iteration's BTRAN pi = (B'^-1)^T c_B'. Lane j owns column j
  /// of B^-1. It snapshots B^-1[p][j] into pivot_row (the Devex update
  /// reads the pre-update row afterwards) and steps beta_j. Then it walks
  /// the rows in order: row p becomes prow / alpha_p, any other row loses
  /// (alpha_i / alpha_p) * prow, and pi_j sums c_B'[i] * B'^-1[i][j] over
  /// the rows with c_B'[i] != 0. That is price_btran's skip rule and
  /// summation order, so pi is bit-identical to a separate price_btran.
  /// c_B'[p] arrives as a kernel argument, so no lane reads the c_B[p]
  /// the pivot lane writes; that lane also writes the mask pokes.
  void pivot_apply(Workspace& ws, std::size_t p, Real theta, Real alpha_p,
                   const Pokes& pokes) {
    const std::size_t m = ws.m;
    auto binv = ws.binv->device_span();
    auto prow = ws.pivot_row.device_span();
    auto asp = ws.alpha.device_span();
    auto bsp = ws.beta.device_span();
    auto csp = ws.cb.device_span();
    auto msp = ws.mask.device_span();
    auto pisp = ws.pi.device_span();
    dev_.launch_blocks(
        "pivot_apply", m, vgpu::Device::kBlockSize,
        {4.0 * double(m) * double(m) + 2.0 * double(m),
         bytes(2 * m * m + 6 * m + 4), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const std::size_t w = hi - lo;
          std::array<Real, vgpu::Device::kBlockSize> saved{}, acc{};
          binv.read_range(p * m + lo, p * m + hi);
          for (std::size_t j = lo; j < hi; ++j) {
            saved[j - lo] = binv.data()[p * m + j];
            prow[j] = saved[j - lo];
            const Real v = (j == p) ? theta : bsp[j] - theta * asp[j];
            bsp[j] = v < Real{0} ? Real{0} : v;
            if (j == p) {
              // One writer each: the pivot lane owns the scalar pokes.
              csp[p] = pokes.cb_new;
              msp[pokes.q] = Real{0};
              if (pokes.unmask_leaving) msp[pokes.leaving] = Real{1};
            }
          }
          const Real inv = Real{1} / alpha_p;
          for (std::size_t i = 0; i < m; ++i) {
            Real* row = binv.data() + i * m + lo;
            const Real cbi = i == p ? pokes.cb_new : Real(csp[i]);
            if (i == p) {
              binv.write_range(i * m + lo, i * m + hi);
              for (std::size_t j = 0; j < w; ++j) row[j] = saved[j] * inv;
            } else if (const Real f = asp[i] / alpha_p; f != Real{0}) {
              binv.read_range(i * m + lo, i * m + hi);
              binv.write_range(i * m + lo, i * m + hi);
              for (std::size_t j = 0; j < w; ++j) {
                row[j] = row[j] - f * saved[j];
              }
            } else if (cbi != Real{0}) {
              binv.read_range(i * m + lo, i * m + hi);  // summed, unchanged
            }
            if (cbi == Real{0}) continue;
            for (std::size_t j = 0; j < w; ++j) acc[j] += cbi * row[j];
          }
          for (std::size_t j = lo; j < hi; ++j) pisp[j] = acc[j - lo];
        });
    ws.pi_current = true;
  }

  /// Product form: append the eta for this pivot instead of updating B^-1,
  /// in the host oracle's format. The support {i != p : alpha_i != 0} is
  /// host metadata (the CUDA original would run a stream compaction; like
  /// the CSR extents in SparseAt it is read outside the machine model) and
  /// crosses PCIe once, and `make_eta` gathers the raw alpha_i on device.
  /// pval = alpha_p. A pivot-only alpha uploads and launches nothing. The
  /// growth trigger's multiplier max(|1/alpha_p|, |alpha_i/alpha_p|) — the
  /// measure ProductFormOracle::update folds — is read from alpha through
  /// host_view() as well.
  void append_eta(Workspace& ws, std::size_t p, Real alpha_p) {
    ws.pi_current = false;
    const std::span<const Real> ah = ws.alpha.host_view();
    const double inv_p = std::abs(1.0 / static_cast<double>(alpha_p));
    ws.eta_growth = std::max(ws.eta_growth, inv_p);
    typename Workspace::Eta eta{p, alpha_p, {}, std::nullopt, std::nullopt};
    for (std::uint32_t i = 0; i < ws.m; ++i) {
      if (i == p) continue;
      ws.eta_growth = std::max(
          ws.eta_growth, std::abs(static_cast<double>(ah[i]) * inv_p));
      if (ah[i] != Real{0}) eta.support.push_back(i);
    }
    const std::size_t nnz = eta.support.size();
    if (nnz > 0) {
      eta.idx.emplace(dev_, std::span<const std::uint32_t>(eta.support));
      eta.val.emplace(dev_, nnz);
      const auto asp = std::as_const(ws.alpha).device_span();
      const auto isp = std::as_const(*eta.idx).device_span();
      auto vsp = eta.val->device_span();
      dev_.launch_blocks(
          "make_eta", nnz, vgpu::Device::kBlockSize,
          {0.0, double(nnz * (2 * sizeof(Real) + sizeof(std::uint32_t))),
           sizeof(Real)},
          [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k) vsp[k] = asp[isp[k]];
          });
    }
    ws.etas.push_back(std::move(eta));
  }

  /// Product form's (re)factorization: factor the basis with the
  /// host oracle's SparseLu over the same columns, then load its position
  /// etas with ONE single-block `sparse_refactor` launch, declared like
  /// ProductFormOracle::install's charge (4 nnz + 2m flops, 2 nnz + 2m
  /// elements) plus one dependent step per basis column. beta is not
  /// refreshed, as on the host. A singular basis keeps the current factors
  /// and eta file and returns false (host::maybe_refactor).
  [[nodiscard]] bool load_factors(Workspace& ws) {
    basis::SparseLu lu;
    if (!lu.factorize(basis::CsrColumnSource(*ws.csr), ws.basic)) {
      return false;
    }
    ws.lu = lu.position_etas();
    const std::size_t m = ws.m;
    const std::size_t entries = ws.lu.idx.size();
    ws.lu_idx.emplace(dev_, entries);
    ws.lu_val.emplace(dev_, entries);
    auto ssp = ws.sigma->device_span();
    auto isp = ws.lu_idx->device_span();
    auto vsp = ws.lu_val->device_span();
    dev_.launch_blocks(
        "sparse_refactor", vgpu::Device::kBlockSize, vgpu::Device::kBlockSize,
        {4.0 * double(lu.nnz()) + 2.0 * double(m), bytes(2 * lu.nnz() + 2 * m),
         sizeof(Real), m},
        [&](std::size_t, std::size_t, std::size_t) {
          for (std::size_t r = 0; r < m; ++r) ssp[r] = ws.lu.sigma[r];
          for (std::size_t k = 0; k < entries; ++k) {
            isp[k] = ws.lu.idx[k];
            vsp[k] = static_cast<Real>(ws.lu.val[k]);
          }
        });
    ws.etas.clear();
    ws.eta_growth = 0.0;
    ws.pi_current = false;
    return true;
  }

  // ---------------------------------------------------------------------
  // Pivot
  // ---------------------------------------------------------------------

  /// pivot_row <- row `i` of B^-1: a row copy for the explicit inverse, a
  /// unit-vector BTRAN chain (which writes its own seed) for the product
  /// form.
  void compute_binv_row(Workspace& ws, std::size_t i) {
    if (ws.product_form) {
      eta_btran_chain(ws, nullptr, i, ws.pivot_row);
    } else {
      save_pivot_row(ws, i);
    }
  }

  /// Apply one basis exchange, column q entering at row p, for the loop
  /// and the artificial drive-out alike. The explicit inverse runs
  /// pivot_apply, which leaves the pre-update row p in pivot_row for the
  /// Devex update after it. The product form solves for that row first,
  /// then steps beta and appends the eta. Either way devex_update leaves
  /// column q's weight alone (lane q skips itself; after pivot_apply the
  /// poked mask skips it too), and it is not read again until q leaves the
  /// basis and the leaving branch resets it.
  void apply_pivot(Workspace& ws, std::size_t q, std::size_t p, Real theta,
                   Real alpha_p, bool devex) {
    const std::uint32_t leaving = ws.basic[p];
    const Pokes pokes{q, leaving, static_cast<Real>(ws.c_host[q]),
                      !ws.aug.is_artificial[leaving]};
    if (ws.product_form) {
      if (devex) {
        compute_binv_row(ws, p);
        ws.at.devex_update(ws.pivot_row, ws.mask, ws.devex_w, q, leaving,
                           alpha_p);
      }
      pivot_beta(ws, p, theta, pokes);
      append_eta(ws, p, alpha_p);
    } else {
      pivot_apply(ws, p, theta, alpha_p, pokes);
      if (devex) {
        ws.at.devex_update(ws.pivot_row, ws.mask, ws.devex_w, q, leaving,
                           alpha_p);
      }
    }
    ws.basic[p] = static_cast<std::uint32_t>(q);
    ws.in_basis[leaving] = false;
    ws.in_basis[q] = true;
  }

  // ---------------------------------------------------------------------
  // Main loop
  // ---------------------------------------------------------------------

  /// Refactorization policy, mirrored from the host oracles. The explicit
  /// inverse never refactors (its rank-1 update is exact). The product form
  /// folds its eta file back every reinversion_period etas (0 means every
  /// m), drive-out pivots included, or as soon as an eta multiplier
  /// exceeds the growth limit, as ProductFormOracle::wants_refactor does.
  [[nodiscard]] static bool refactor_due(const Workspace& ws) noexcept {
    if (!ws.product_form) return false;
    const std::size_t period = ws.options.reinversion_period > 0
                                   ? ws.options.reinversion_period
                                   : ws.m;
    return (period > 0 && ws.etas.size() >= period) ||
           ws.eta_growth > basis::kEtaGrowthLimit;
  }

  /// One primal loop's bookkeeping: the frame whose op laps and probes it
  /// feeds, and the objective tracker behind the hybrid rule's Bland
  /// switch.
  struct Loop {
    SolveFrame& frame;
    SolverStats& stats;
    std::uint8_t phase;
    double z;  ///< objective, advanced by theta * d_q per pivot
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
    loop.frame.lap_start();
  }

  /// A loop pivot's ratio-test outcome, logged with its decision.
  struct Step {
    Real d_q;
    Real theta;
  };

  /// Everything after a loop pivot, in order: the iteration counters and
  /// health pivot, the hybrid rule's progress test, the objective counter
  /// and telemetry point, the refactor trigger, and the strided
  /// health/telemetry samples.
  void end_iteration(Workspace& ws, Loop& loop, std::size_t iter,
                     Real alpha_p, Step step) {
    ++loop.stats.iterations;
    loop.frame.op_metrics().count_iteration();
    metrics::HealthMonitor& health = loop.frame.health();
    health.record_pivot(static_cast<double>(alpha_p),
                        static_cast<double>(step.theta), loop.bland, iter);

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
    telemetry::Telemetry* tel = loop.frame.telemetry();
    const bool want_tel = tel != nullptr && tel->want_iteration_sample(iter);
    if (want_tel) tel->record("engine.objective", dev_.sim_seconds(), loop.z);

    if (refactor_due(ws)) {
      trace::ScopedSpan op(tr, "refactor", clock(), "op");
      const bool refactored = load_factors(ws);
      loop.frame.lap(metrics::SimplexOp::kRefactor);
      if (refactored) loop.frame.record_refactor(loop.stats.iterations);
    }

    const bool want_health = health.want_residual_sample(iter);
    if (want_health || want_tel) {
      sample_health(ws, health, want_health, want_tel ? tel : nullptr, iter);
    }
  }

  /// The primal loop. Per iteration:
  ///   explicit inverse:  [price_btran] -> price_select -> ftran_ratio
  ///     -> [descriptor d2h] -> pivot_apply -> [devex_update_fused];
  ///     pivot_apply also sums the next iteration's pi, so price_btran
  ///     runs only at loop entry;
  ///   product form:  eta_btran_chain -> price_select -> eta_ftran_chain
  ///     (with the ratio test) -> [descriptor d2h] -> [devex row + update]
  ///     -> pivot_beta -> [make_eta (+ the eta-support h2d), skipped for a
  ///     pivot-only alpha]; the chains are the only basis launches.
  /// Every selection runs inside the launch that computes its input, at
  /// any grid width: price_select's blocks leave their winners in the
  /// descriptor, the FTRAN launch combines them into the entering column,
  /// and the host reduces its per-block leaving triples from the one d2h.
  /// The combines keep the primitives' block-scan order and tie rules, so
  /// the pivot sequence is the one vgpu::argmin / find_first_below would
  /// pick; tests/golden/ pins it bit for bit.
  LoopExit run_loop(Workspace& ws, SolveFrame& frame, std::size_t budget,
                    SolverStats& stats, std::uint8_t phase) {
    const trace::Track& tr = dev_.trace();
    Loop loop{frame, stats, phase, ws.current_objective()};
    // The product form's chain writes one leaving triple; ftran_ratio
    // writes one per block.
    const std::size_t triples = ws.product_form ? 1 : select_blocks(ws.m);
    std::vector<Real> desc_h(desc_prefix(triples));
    for (std::size_t iter = 0; iter < budget; ++iter) {
      trace::ScopedSpan iter_span(tr, "iteration", clock(), "iteration",
                                  {{"iter", static_cast<double>(iter)}});
      begin_iteration(ws, loop);
      const EnteringSelect<Real> entering(
          loop.bland ? EnteringRule::kBland
                     : (ws.options.pricing == PricingRule::kDevex
                            ? EnteringRule::kDevex
                            : EnteringRule::kDantzig),
          static_cast<Real>(ws.options.opt_tol), ws.m, ws.n_aug);
      {
        trace::ScopedSpan op(tr, "price", clock(), "op");
        if (!ws.pi_current) btran(ws);
        ws.at.price_select(entering, ws.pi, ws.c, ws.mask, ws.d, ws.col_work,
                           ws.devex_w, ws.desc);
      }
      frame.lap(metrics::SimplexOp::kPrice);
      {
        // Speculative: issued before the host knows whether pricing found
        // a candidate; the kernels early-exit on-device when it did not.
        trace::ScopedSpan op(tr, "ftran", clock(), "op");
        if (ws.product_form) {
          eta_ftran_chain(ws, &entering);
        } else {
          ws.at.ftran_ratio_select(entering, ws.d, *ws.binv, ws.beta,
                                   ws.alpha, ws.ratio, ws.desc,
                                   static_cast<Real>(ws.options.pivot_tol));
        }
      }
      frame.lap(metrics::SimplexOp::kFtran);
      {
        // The iteration's only d2h: the descriptor's prefix.
        trace::ScopedSpan op(tr, "ratio", clock(), "op");
        ws.desc.download(std::span<Real>(desc_h));
      }
      frame.lap(metrics::SimplexOp::kRatio);
      if (desc_h[kDescQ] < Real{0}) return LoopExit::kOptimal;
      // Zero-row edge: no ratio block ran, so no row can leave.
      if (ws.m == 0) return LoopExit::kUnbounded;
      const std::size_t q = static_cast<std::size_t>(desc_h[kDescQ]);
      const auto [p, theta, alpha_p] =
          reduce_leaving(std::span<const Real>(desc_h), triples);
      const Step step{desc_h[kDescDq], theta};
      if (step.theta == kInf) return LoopExit::kUnbounded;
      // Ties are counted through host_view(), outside the machine model,
      // so recording charges no PCIe time.
      frame.record_pivot(
          {.phase = loop.phase, .bland = loop.bland,
           .iteration = stats.iterations, .q = q, .p = p,
           .leaving = ws.basic[p], .d_q = static_cast<double>(step.d_q),
           .alpha_p = static_cast<double>(alpha_p),
           .theta = static_cast<double>(step.theta)},
          [&] {
            const std::span<const Real> rv = ws.ratio.host_view();
            return static_cast<std::uint32_t>(
                std::count(rv.begin(), rv.end(), step.theta));
          });
      {
        trace::ScopedSpan op(tr, "update", clock(), "op");
        apply_pivot(ws, q, p, step.theta, alpha_p,
                    ws.options.pricing == PricingRule::kDevex);
      }
      frame.lap(metrics::SimplexOp::kUpdate);
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
    const std::span<const Real> binv = ws.binv->buffer().host_view();
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

  /// After a degenerate phase 1, artificials can linger in the basis at
  /// level zero. Replace each with any non-artificial column that has a
  /// nonzero pivot in its row, through the loop's apply_pivot (theta = 0,
  /// no Devex update); rows with no such column are redundant and keep
  /// their (permanently zero) artificial.
  void drive_out_artificials(Workspace& ws, const SolveFrame& frame,
                             std::uint64_t iteration) {
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
      frame.record_pivot({.phase = 1, .iteration = iteration, .q = q, .p = i,
                          .leaving = ws.basic[i],
                          .alpha_p = static_cast<double>(alpha_p)});
      apply_pivot(ws, q, i, Real{0}, alpha_p, false);
    }
  }

  [[nodiscard]] static constexpr double bytes(std::size_t n) noexcept {
    return static_cast<double>(n * sizeof(Real));
  }

  vgpu::Device& dev_;
  SolverOptions opt_;
};

/// The Ext. C sparse instantiation: CSR constraint matrix; dense B^-1
/// under the explicit inverse, the host oracle's sparse LU plus an eta
/// file under the product form (as on the dense layout).
template <typename Real>
using SparseRevisedSimplex = DeviceRevisedSimplex<Real, SparseAt>;

}  // namespace gs::simplex
