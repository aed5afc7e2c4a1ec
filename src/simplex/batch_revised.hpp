// Batched revised simplex: K same-shape LPs advance in lock step with every
// per-iteration operation fused into one wide kernel (K*m or K*n threads).
// A round is three launches and one d2h: batch_price (one block of n
// lanes per problem: reduced costs and the problem's entering pick),
// batch_ftran (one block of m lanes per problem: FTRAN, ratio test and
// leaving pick), the packed decisions' readback, and batch_pivot_apply
// (the pivot and the next round's BTRAN). Each problem picks its pivot
// inside its own block, as batched GPU simplex solvers do, so no
// selection runs as a narrow launch of its own.
//
// Motivation (the paper's own small-problem weakness): below the crossover
// size a single LP cannot occupy the device — launch latency and idle SMs
// dominate. Batching K independent instances multiplies the thread count
// per launch and amortizes both the launch overhead and the per-iteration
// PCIe scalar traffic across the batch, which is how later GPU LP systems
// made small problems profitable. Ext. E quantifies the effect.
//
// Scope (deliberately the paper's synthetic setting): every problem must be
// "slack-startable" — its standard form gives every row a crash slack (pure
// '<=' rows, b >= 0), so no phase 1 is needed — and all problems must share
// the same standard-form dimensions. Pricing is Dantzig; the basis inverse
// is explicit. Problems that finish early go inactive; their lanes idle
// (and are still paid for) until the whole batch terminates.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "lp/problem.hpp"
#include "lp/standard_form.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/solve_frame.hpp"
#include "simplex/types.hpp"
#include "trace/trace.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace gs::simplex {

template <typename Real>
class BatchRevisedSimplex {
 public:
  explicit BatchRevisedSimplex(vgpu::Device& device, SolverOptions options = {})
      : dev_(device), opt_(options) {}

  /// Solve all problems; result k corresponds to problems[k]. Throws
  /// gs::Error if any problem needs phase 1 or the shapes differ.
  [[nodiscard]] std::vector<SolveResult> solve(
      std::span<const lp::LpProblem> problems) {
    GS_CHECK_MSG(!problems.empty(), "empty batch");

    // ---- Convert and validate the batch. ----
    const std::size_t batch = problems.size();
    std::vector<lp::StandardFormLp> sfs;
    sfs.reserve(batch);
    std::vector<AugmentedLp> augs;
    augs.reserve(batch);
    for (const auto& problem : problems) {
      sfs.push_back(lp::to_standard_form(problem));
      augs.push_back(augment(sfs.back()));
      GS_CHECK_MSG(augs.back().num_artificial == 0,
                   "batch solver requires slack-startable problems "
                   "(pure '<=' rows)");
      GS_CHECK_MSG(augs.back().m == augs.front().m &&
                       augs.back().n_aug == augs.front().n_aug,
                   "batch solver requires identical problem shapes");
    }
    const std::size_t m = augs.front().m;
    const std::size_t n = augs.front().n_aug;

    // One decision log for the whole batch: pivots carry their lane index,
    // and the header digest folds every instance's digest together.
    std::uint64_t digest = 1469598103934665603ull;
    for (const AugmentedLp& a : augs) {
      digest ^= decision_digest(a);
      digest *= 1099511628211ull;
    }
    // The per-problem pivot streams are fused into wide kernels here, so
    // the batch engine reports round granularity, not per-pivot metrics.
    SolveFrame frame(opt_, dev_,
                     std::string("batch-revised<") +
                         (sizeof(Real) == 4 ? "float" : "double") + ">",
                     sizeof(Real) * 8, m, n, digest, /*pivot_metrics=*/false);
    frame.record_phase(2);  // slack-startable batches skip phase 1
    // Batch-level metrics: lock-step rounds and the shrinking active set.
    metrics::Counter* rounds_metric = nullptr;
    metrics::Gauge* active_metric = nullptr;
    if (metrics::MetricsRegistry* reg = frame.metrics()) {
      rounds_metric = &reg->counter("batch.rounds");
      active_metric = &reg->gauge("batch.active_problems");
    }
    const trace::Track& tr = frame.track();
    const auto clock = [this] { return dev_.sim_seconds(); };

    // ---- Flatten batch state into device arrays. ----
    // at[k*n*m + j*m + i] = A^T_k(j, i); binv[k*m*m + i*m + j]; beta[k*m+i].
    // The initial inverses are diagonal, so only the batch*m diagonal
    // entries cross PCIe; a device kernel expands them in place.
    std::vector<Real> at_h(batch * n * m), diag_h(batch * m),
        beta_h(batch * m), c_h(batch * n), cb_h(batch * m, Real{0}),
        mask_h(batch * n);
    std::vector<std::uint32_t> basic_h(batch * m);
    for (std::size_t k = 0; k < batch; ++k) {
      const auto at64 = augs[k].dense_at();
      for (std::size_t e = 0; e < n * m; ++e) {
        at_h[k * n * m + e] = static_cast<Real>(at64.flat()[e]);
      }
      for (std::size_t i = 0; i < m; ++i) {
        diag_h[k * m + i] = static_cast<Real>(augs[k].binv_diag[i]);
        beta_h[k * m + i] = static_cast<Real>(augs[k].beta_init[i]);
        basic_h[k * m + i] = augs[k].basic[i];
      }
      for (std::size_t j = 0; j < n; ++j) {
        c_h[k * n + j] = static_cast<Real>(augs[k].c_phase2[j]);
        mask_h[k * n + j] = Real{1};
      }
      for (std::size_t i = 0; i < m; ++i) {
        mask_h[k * n + augs[k].basic[i]] = Real{0};
      }
    }
    vgpu::DeviceBuffer<Real> at(dev_, at_h), diag(dev_, diag_h),
        binv(dev_, batch * m * m), beta(dev_, beta_h), c(dev_, c_h),
        cb(dev_, cb_h), mask(dev_, mask_h);
    vgpu::DeviceBuffer<Real> pi(dev_, batch * m), d(dev_, batch * n),
        alpha(dev_, batch * m);
    // Per-problem selection outputs, written by the problem's block. The
    // q/p/theta triple the host needs each round is additionally packed
    // into one Real buffer so the whole batch's decisions come back in a
    // single d2h (indices encoded as Real, -1 = none; exact up to 2^24 in
    // float).
    vgpu::DeviceBuffer<Real> sel_d(dev_, batch), sel_theta(dev_, batch),
        sel_alpha_p(dev_, batch), sel_pack(dev_, 3 * batch);
    vgpu::DeviceBuffer<std::uint32_t> sel_q(dev_, batch), sel_p(dev_, batch);
    // Device-resident basis map: lets the pivot-apply kernel do the mask /
    // cb / basic bookkeeping on device instead of per-pivot H2D pokes.
    vgpu::DeviceBuffer<std::uint32_t> basic_dev(
        dev_, std::span<const std::uint32_t>(basic_h));

    std::vector<char> active(batch, 1);
    std::vector<SolveResult> results(batch);
    std::vector<std::size_t> iters(batch, 0);
    std::size_t n_active = batch;

    const Real opt_tol = static_cast<Real>(opt_.opt_tol);
    const Real pivot_tol = static_cast<Real>(opt_.pivot_tol);
    constexpr Real kInf = std::numeric_limits<Real>::infinity();
    constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

    auto at_s = at.device_span();
    auto binv_s = binv.device_span();
    auto beta_s = beta.device_span();
    auto c_s = c.device_span();
    auto cb_s = cb.device_span();
    auto mask_s = mask.device_span();
    auto pi_s = pi.device_span();
    auto d_s = d.device_span();
    auto alpha_s = alpha.device_span();
    auto seld_s = sel_d.device_span();
    auto selth_s = sel_theta.device_span();
    auto selap_s = sel_alpha_p.device_span();
    auto selq_s = sel_q.device_span();
    auto selp_s = sel_p.device_span();
    auto pack_s = sel_pack.device_span();
    auto basic_s = basic_dev.device_span();
    auto diag_s = diag.device_span();
    // One block per problem in the pricing and FTRAN launches (a
    // zero-row or zero-column shape still gets one lane per problem).
    const std::size_t lanes_n = std::max<std::size_t>(n, 1);
    const std::size_t lanes_m = std::max<std::size_t>(m, 1);

    // Expand the uploaded diagonals into the dense inverses on device.
    dev_.launch_blocks(
        "batch_binv_init", batch * m, vgpu::Device::kBlockSize,
        {0.0, double(batch * (m * m + 2 * m) * sizeof(Real)), sizeof(Real)},
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t g = lo; g < hi; ++g) {
            const std::size_t k = g / m, i = g % m;
            binv_s.write_range(k * m * m + i * m, k * m * m + (i + 1) * m);
            Real* row = binv_s.data() + k * m * m + i * m;
            for (std::size_t j = 0; j < m; ++j) row[j] = Real{0};
            row[i] = diag_s[g];
          }
        });

    // Host mirror of the active mask, uploaded once per status change; the
    // kernels read it through this device buffer.
    vgpu::DeviceBuffer<Real> active_dev(dev_, batch);
    auto upload_active = [&] {
      std::vector<Real> a(batch);
      for (std::size_t k = 0; k < batch; ++k) a[k] = active[k] ? Real{1} : Real{0};
      active_dev.upload(a);
    };
    upload_active();
    auto act_s = active_dev.device_span();

    for (std::size_t iter = 0; iter < opt_.max_iterations && n_active > 0;
         ++iter) {
      trace::ScopedSpan iter_span(
          tr, "iteration", clock, "iteration",
          {{"iter", static_cast<double>(iter)},
           {"active", static_cast<double>(n_active)}});
      // -- BTRAN: pi_k = (B_k^-1)^T cB_k, fused over K*m lanes. Only the
      // crash basis needs it: every later round's batch_pivot_apply leaves
      // the next pi summed. --
      if (iter == 0) {
        dev_.launch_blocks(
            "batch_btran", batch * m, vgpu::Device::kBlockSize,
            {2.0 * double(batch) * double(m) * double(m),
             double(batch * (m * m + 2 * m) * sizeof(Real)), sizeof(Real)},
            [&](std::size_t, std::size_t lo, std::size_t hi) {
              for (std::size_t g = lo; g < hi; ++g) {
                const std::size_t k = g / m, j = g % m;
                Real acc{0};
                for (std::size_t i = 0; i < m; ++i) {
                  acc += cb_s[k * m + i] * binv_s[k * m * m + i * m + j];
                }
                pi_s[g] = acc;
              }
            });
      }
      // -- Pricing and the entering pick: block k prices problem k's n
      // columns, then scans them (strict <, starting from -opt_tol, first
      // index wins). The vgpu has no block-size cap; a CUDA port would
      // stride each problem's lanes within a block of at most 1024
      // threads, here and in batch_ftran. --
      dev_.launch_blocks(
          "batch_price", batch * lanes_n, lanes_n,
          {2.0 * double(batch) * double(n) * double(m) + double(batch * n),
           double(batch * (n * m + 3 * n + 2) * sizeof(Real)), sizeof(Real)},
          [&](std::size_t k, std::size_t, std::size_t) {
            Real* dk = d_s.data() + k * n;
            d_s.write_range(k * n, (k + 1) * n);
            if (act_s[k] == Real{0}) {
              for (std::size_t j = 0; j < n; ++j) dk[j] = Real{0};
              return;
            }
            for (std::size_t j = 0; j < n; ++j) {
              if (mask_s[k * n + j] == Real{0}) {
                dk[j] = Real{0};
                continue;
              }
              at_s.read_range(k * n * m + j * m, k * n * m + (j + 1) * m);
              const Real* col = at_s.data() + k * n * m + j * m;
              Real acc{0};
              for (std::size_t i = 0; i < m; ++i) acc += col[i] * pi_s[k * m + i];
              dk[j] = c_s[k * n + j] - acc;
            }
            std::uint32_t best = kNone;
            Real best_d = -opt_tol;
            for (std::size_t j = 0; j < n; ++j) {
              if (dk[j] < best_d) {
                best_d = dk[j];
                best = static_cast<std::uint32_t>(j);
              }
            }
            selq_s[k] = best;
            seld_s[k] = best_d;
          });
      // -- FTRAN, ratio test and the leaving pick: block k computes
      // problem k's m rows of alpha, then scans them (alpha > pivot_tol,
      // strict <, starting from +inf, first index wins) and packs its
      // q/p/theta triple. --
      dev_.launch_blocks(
          "batch_ftran", batch * lanes_m, lanes_m,
          {2.0 * double(batch) * double(m) * double(m) +
               2.0 * double(batch) * double(m),
           double(batch * (m * m + 4 * m + 7) * sizeof(Real)), sizeof(Real)},
          [&](std::size_t k, std::size_t, std::size_t) {
            if (act_s[k] == Real{0}) return;
            const std::uint32_t sq = selq_s[k];
            pack_s[3 * k] = sq == kNone ? Real{-1} : static_cast<Real>(sq);
            if (sq == kNone) return;
            at_s.read_range(k * n * m + sq * m, k * n * m + (sq + 1) * m);
            const Real* aq = at_s.data() + k * n * m + sq * m;
            for (std::size_t i = 0; i < m; ++i) {
              binv_s.read_range(k * m * m + i * m, k * m * m + (i + 1) * m);
              const Real* row = binv_s.data() + k * m * m + i * m;
              Real acc{0};
              for (std::size_t t = 0; t < m; ++t) acc += row[t] * aq[t];
              alpha_s[k * m + i] = acc;
            }
            std::uint32_t p = kNone;
            Real theta = kInf;
            for (std::size_t i = 0; i < m; ++i) {
              const Real a = alpha_s[k * m + i];
              if (a > pivot_tol) {
                const Real r = beta_s[k * m + i] / a;
                if (r < theta) {
                  theta = r;
                  p = static_cast<std::uint32_t>(i);
                }
              }
            }
            selp_s[k] = p;
            selth_s[k] = theta;
            selap_s[k] = p == kNone ? Real{0} : alpha_s[k * m + p];
            pack_s[3 * k + 1] = p == kNone ? Real{-1} : static_cast<Real>(p);
            pack_s[3 * k + 2] = theta;
          });
      // -- ONE readback for the whole batch: the packed q/p/theta triples
      // (was three separate copies; latency is the term that matters). --
      std::vector<Real> pack_h(3 * batch);
      sel_pack.download(std::span<Real>(pack_h));
      std::vector<std::uint32_t> q_h(batch, kNone), p_h(batch, kNone);
      std::vector<Real> theta_h(batch, kInf);
      for (std::size_t k = 0; k < batch; ++k) {
        if (!active[k]) continue;  // stale pack lanes: never decoded
        if (pack_h[3 * k] >= Real{0}) {
          q_h[k] = static_cast<std::uint32_t>(pack_h[3 * k]);
          if (pack_h[3 * k + 1] >= Real{0}) {
            p_h[k] = static_cast<std::uint32_t>(pack_h[3 * k + 1]);
          }
          theta_h[k] = pack_h[3 * k + 2];
        }
      }

      // Record this round's pivots before the update kernels overwrite
      // beta/binv. Reads go through host_view() — outside the machine
      // model, so recording charges no PCIe time and perturbs nothing.
      if (frame.recording()) {
        const std::span<const Real> seld_h = sel_d.host_view();
        const std::span<const Real> selap_h = sel_alpha_p.host_view();
        const std::span<const Real> alpha_h = alpha.host_view();
        const std::span<const Real> beta_hv = beta.host_view();
        for (std::size_t k = 0; k < batch; ++k) {
          if (!active[k] || q_h[k] == kNone || p_h[k] == kNone) continue;
          const Real theta = theta_h[k];
          frame.record_pivot(
              {.lane = k, .iteration = iters[k], .q = q_h[k], .p = p_h[k],
               .leaving = basic_h[k * m + p_h[k]],
               .d_q = static_cast<double>(seld_h[k]),
               .alpha_p = static_cast<double>(selap_h[k]),
               .theta = static_cast<double>(theta)},
              [&] {
                std::uint32_t ties = 0;
                for (std::size_t i = 0; i < m; ++i) {
                  const Real a = alpha_h[k * m + i];
                  if (a > pivot_tol && beta_hv[k * m + i] / a == theta) {
                    ++ties;
                  }
                }
                return ties;
              });
        }
      }

      // -- The pivot, fused over K*m lanes: beta step, rank-1 inverse
      // update, basis bookkeeping and the next round's BTRAN. Lane (k, j)
      // owns column j of problem k's inverse. It snapshots its pivot-row
      // element, steps beta_j, updates its column row by row and sums
      // pi_j = sum_i c_B'[i] * B'^-1[i][j] in batch_btran's order. The
      // pivot lane (j == p) swaps basic/mask/cb in device memory, so no
      // per-pivot upload_value round trip is needed; every lane takes
      // c_B'[p] from c, so none reads the poked cb. --
      dev_.launch_blocks(
          "batch_pivot_apply", batch * m, vgpu::Device::kBlockSize,
          {4.0 * double(batch) * double(m) * double(m) +
               2.0 * double(batch) * double(m),
           double(batch * (2 * m * m + 6 * m + 4) * sizeof(Real)),
           sizeof(Real)},
          [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t g = lo; g < hi; ++g) {
              const std::size_t k = g / m, j = g % m;
              if (act_s[k] == Real{0} || selq_s[k] == kNone ||
                  selp_s[k] == kNone) {
                continue;
              }
              const std::size_t p = selp_s[k];
              const std::size_t sq = selq_s[k];
              const Real ap = selap_s[k];
              const Real theta = selth_s[k];
              const Real v =
                  (j == p) ? theta : beta_s[g] - theta * alpha_s[g];
              beta_s[g] = v < Real{0} ? Real{0} : v;
              const Real saved = binv_s[k * m * m + p * m + j];
              const Real cb_p = c_s[k * n + sq];
              const Real inv = Real{1} / ap;
              Real acc{0};
              for (std::size_t i = 0; i < m; ++i) {
                const std::size_t e = k * m * m + i * m + j;
                Real b;
                if (i == p) {
                  b = saved * inv;
                  binv_s[e] = b;
                } else {
                  b = binv_s[e];
                  const Real f = alpha_s[k * m + i] / ap;
                  if (f != Real{0}) {
                    b = b - f * saved;
                    binv_s[e] = b;
                  }
                }
                acc += (i == p ? cb_p : Real(cb_s[k * m + i])) * b;
              }
              pi_s[g] = acc;
              if (j == p) {
                // One writer per problem: lane p owns the basis swap.
                const std::uint32_t leaving = basic_s[k * m + p];
                basic_s[k * m + p] = static_cast<std::uint32_t>(sq);
                mask_s[k * n + sq] = Real{0};
                mask_s[k * n + leaving] = Real{1};
                cb_s[k * m + p] = cb_p;
              }
            }
          });

      // -- Host bookkeeping: statuses and the host basis mirror (kept in
      // lock step with basic_dev at zero transfer cost). --
      bool mask_dirty = false;
      for (std::size_t k = 0; k < batch; ++k) {
        if (!active[k]) continue;
        if (q_h[k] == kNone || p_h[k] == kNone) {
          // An optimal lane's x and duals are filled after the last round.
          results[k].status = q_h[k] == kNone ? SolveStatus::kOptimal
                                              : SolveStatus::kUnbounded;
          results[k].stats.iterations = iters[k];
          active[k] = 0;
          --n_active;
          mask_dirty = true;
          continue;
        }
        (void)theta_h;
        ++iters[k];
        basic_h[k * m + p_h[k]] = q_h[k];
      }
      if (mask_dirty) upload_active();
      if (tr.enabled()) {
        tr.counter("active_problems", dev_.sim_seconds(),
                   static_cast<double>(n_active));
      }
      if (rounds_metric != nullptr) {
        rounds_metric->inc();
        active_metric->set(static_cast<double>(n_active));
      }
    }

    // Finished lanes are never touched again on device, so ONE readback
    // each of beta and pi fills every optimal lane (not one per lane).
    bool all_optimal = true;
    bool any_optimal = false;
    for (const SolveResult& r : results) {
      all_optimal &= r.optimal();
      any_optimal |= r.optimal();
    }
    std::vector<Real> beta_fin, pi_fin;
    if (any_optimal) {
      beta_fin = beta.to_host();
      pi_fin = pi.to_host();
    }
    for (std::size_t k = 0; k < batch; ++k) {
      // Problems still active hit the iteration limit.
      if (active[k]) {
        results[k].status = SolveStatus::kIterationLimit;
        results[k].stats.iterations = iters[k];
      }
      const auto lane = [k, m](const auto& v) {
        return std::span(v).subspan(k * m, m);
      };
      if (results[k].optimal()) {
        recover_optimum<Real>(sfs[k], lane(basic_h), lane(beta_fin),
                              lane(pi_fin), results[k]);
      }
      frame.stamp(results[k], results[k].status, lane(basic_h));
    }
    frame.end_record(all_optimal ? "optimal" : "mixed", all_optimal, basic_h);
    return results;
  }

 private:
  vgpu::Device& dev_;
  SolverOptions opt_;
};

}  // namespace gs::simplex
