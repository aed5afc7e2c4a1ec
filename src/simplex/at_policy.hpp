// Constraint-matrix access policies for the device revised simplex engine.
//
// The engine is generic over how the (augmented, transposed) constraint
// matrix A^T is stored on the device:
//   * DenseAt  — dense n_aug x m row-major (the paper's layout), and
//   * SparseAt — CSR (the follow-on sparse variant, Ext. C).
// A policy supplies only what the storage changes: column access — the
// product a_j . y, the entering column a_q against one row of B^-1, and
// a_q scattered into a product-form FTRAN, each with the format's own
// read_range annotations and summation order — plus the cost terms its
// launches declare. AtKernels writes every kernel once on top of that:
// the pricing+selection, FTRAN+ratio+selection and Devex launches of the
// device loop, which write the on-device PivotDescriptor instead of
// round-tripping scalars over PCIe, and the FTRAN and pivot-row product
// the artificial drive-out uses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "simplex/phase_setup.hpp"
#include "sparse/device_csr.hpp"
#include "vblas/containers.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/primitives.hpp"

namespace gs::simplex {

// ---------------------------------------------------------------------
// Pivot descriptor.
//
// All per-iteration decisions accumulate in a 5-slot device buffer and
// cross PCIe as ONE packed d2h per iteration. Indices are encoded as Real
// (exact up to 2^24 even in float); kDescNone (-1) marks "no candidate".
// ---------------------------------------------------------------------
inline constexpr std::size_t kDescQ = 0;       ///< entering column, or -1
inline constexpr std::size_t kDescDq = 1;      ///< reduced cost d_q
inline constexpr std::size_t kDescP = 2;       ///< leaving row, or -1
inline constexpr std::size_t kDescTheta = 3;   ///< ratio-test step length
inline constexpr std::size_t kDescAlphaP = 4;  ///< pivot element alpha_p
inline constexpr std::size_t kDescSlots = 5;
// (Ratio ties are observational — the recorder counts them through
// host_view() outside the machine model, so they never ride in the
// descriptor or cost a device-side rescan.)

/// Entering-variable rule for one pricing launch (the hybrid rule resolves
/// to Dantzig or Bland per iteration on the host).
enum class EnteringRule { kDantzig, kBland, kDevex };

namespace fused_detail {

/// Per-block winners of one selection launch over n lanes, kept host-side
/// like the primitives' reductions (invisible to the machine model).
template <typename Real>
struct BlockPartials {
  explicit BlockPartials(std::size_t n)
      : idx((n + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize,
            vgpu::detail::kNoIndex),
        val(idx.size(), Real{0}) {}

  /// The winner with the primitives' combine semantics: block order,
  /// strict <.
  [[nodiscard]] std::pair<std::size_t, Real> argmin() const {
    std::size_t best = idx[0];
    Real v = val[0];
    for (std::size_t b = 1; b < idx.size(); ++b) {
      if (val[b] < v) {
        best = idx[b];
        v = val[b];
      }
    }
    return {best, v};
  }

  std::vector<std::size_t> idx;
  std::vector<Real> val;
};

/// Entering-column selection of one pricing launch. Each block scans its
/// columns with the rule's block primitive. A one-block grid writes the
/// descriptor inline; a wider one keeps BlockPartials that finish()
/// reduces in a small combine launch (argmin, or the first hit for
/// Bland), so the winner is bit-identical to vgpu::argmin /
/// find_first_below over the full buffer. d_q is reported from the
/// reduced-cost span.
template <typename Real>
class EnteringSelect {
 public:
  EnteringSelect(std::size_t n, EnteringRule rule, Real tol)
      : rule_(rule), tol_(tol), parts_(n) {}

  /// Select among columns [lo, hi) of block `blk`. Devex first writes its
  /// scores -d_j^2 / w_j into `score`.
  template <typename DSpan, typename SSpan, typename WSpan, typename DescSpan>
  void block(std::size_t blk, std::size_t lo, std::size_t hi, const DSpan& d,
             const SSpan& score, const WSpan& devex_w, const DescSpan& desc) {
    std::size_t best = vgpu::detail::kNoIndex;
    Real val{0};
    if (rule_ == EnteringRule::kBland) {
      best = vgpu::detail::block_first_below(d, lo, hi, -tol_);
    } else if (rule_ == EnteringRule::kDevex) {
      for (std::size_t j = lo; j < hi; ++j) {
        score[j] = d[j] < -tol_ ? -(d[j] * d[j]) / devex_w[j] : Real{0};
      }
      best = vgpu::detail::block_argmin(score, lo, hi);
      val = score[best];
    } else {
      best = vgpu::detail::block_argmin(d, lo, hi);
      val = d[best];
    }
    if (parts_.idx.size() == 1) {
      write(best, val, d, desc);
    } else {
      parts_.idx[blk] = best;
      parts_.val[blk] = val;
    }
  }

  /// The "price_select_final" combine, launched only for multi-block grids.
  template <typename DSpan, typename DescSpan>
  void finish(vgpu::Device& dev, const DSpan& d, const DescSpan& desc) {
    const std::size_t blocks = parts_.idx.size();
    if (blocks <= 1) return;
    dev.launch_blocks(
        "price_select_final", 1, 1,
        {static_cast<double>(blocks),
         static_cast<double>(blocks * (sizeof(Real) + sizeof(std::size_t)) +
                             2 * sizeof(Real)),
         sizeof(Real)},
        [&](std::size_t, std::size_t, std::size_t) {
          if (rule_ == EnteringRule::kBland) {
            const auto hit = std::find_if(
                parts_.idx.begin(), parts_.idx.end(),
                [](std::size_t i) { return i != vgpu::detail::kNoIndex; });
            write(hit == parts_.idx.end() ? vgpu::detail::kNoIndex : *hit,
                  Real{0}, d, desc);
          } else {
            const auto [best, val] = parts_.argmin();
            write(best, val, d, desc);
          }
        });
  }

 private:
  template <typename DSpan, typename DescSpan>
  void write(std::size_t best, Real val, const DSpan& d,
             const DescSpan& desc) const {
    bool none = false;
    switch (rule_) {
      case EnteringRule::kBland:
        none = best == vgpu::detail::kNoIndex;
        break;
      case EnteringRule::kDevex:
        none = val >= Real{0};  // best devex score
        break;
      case EnteringRule::kDantzig:
        none = val >= -tol_;  // most negative reduced cost
        break;
    }
    if (none) {
      desc[kDescQ] = Real{-1};
      desc[kDescDq] = Real{0};
    } else {
      desc[kDescQ] = static_cast<Real>(best);
      desc[kDescDq] = d[best];
    }
  }

  EnteringRule rule_;
  Real tol_;
  BlockPartials<Real> parts_;
};

/// Leaving-row selection of one ratio launch: the ratio test, the
/// block argmin, and the descriptor write (inline for a one-block grid,
/// else the "ftran_ratio_final" combine of the BlockPartials).
template <typename Real>
class LeavingSelect {
 public:
  LeavingSelect(std::size_t m, Real pivot_tol) : tol_(pivot_tol), parts_(m) {}

  /// Rows [lo, hi) of block `blk`: ratio_i = beta_i / alpha_i where
  /// alpha_i = alpha_of(i) exceeds the pivot tolerance, +inf otherwise;
  /// then the block's selection.
  template <typename AlphaOf, typename BSpan, typename RSpan, typename ASpan,
            typename DescSpan>
  void block(std::size_t blk, std::size_t lo, std::size_t hi,
             AlphaOf&& alpha_of, const BSpan& beta, const RSpan& ratio,
             const ASpan& alpha, const DescSpan& desc) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Real a = alpha_of(i);
      ratio[i] = a > tol_ ? beta[i] / a : kInf;
    }
    const std::size_t best = vgpu::detail::block_argmin(ratio, lo, hi);
    if (parts_.idx.size() == 1) {
      write(best, ratio, alpha, desc);
    } else {
      parts_.idx[blk] = best;
      parts_.val[blk] = ratio[best];
    }
  }

  template <typename RSpan, typename ASpan, typename DescSpan>
  void finish(vgpu::Device& dev, const RSpan& ratio, const ASpan& alpha,
              const DescSpan& desc) {
    const std::size_t blocks = parts_.idx.size();
    if (blocks <= 1) return;
    dev.launch_blocks(
        "ftran_ratio_final", 1, 1,
        {static_cast<double>(blocks),
         static_cast<double>(blocks * (sizeof(Real) + sizeof(std::size_t)) +
                             5 * sizeof(Real)),
         sizeof(Real)},
        [&](std::size_t, std::size_t, std::size_t) {
          if (desc[kDescQ] < Real{0}) return;  // speculative: nothing entered
          write(parts_.argmin().first, ratio, alpha, desc);
        });
  }

 private:
  static constexpr Real kInf = std::numeric_limits<Real>::infinity();

  template <typename RSpan, typename ASpan, typename DescSpan>
  static void write(std::size_t best, const RSpan& ratio, const ASpan& alpha,
                    const DescSpan& desc) {
    desc[kDescP] = static_cast<Real>(best);
    desc[kDescTheta] = ratio[best];
    desc[kDescAlphaP] = alpha[best];
  }

  Real tol_;
  BlockPartials<Real> parts_;
};

}  // namespace fused_detail

/// Every A^T-dependent kernel, written once over a storage policy
/// (DenseAt / SparseAt derive from this). The policy provides m(),
/// n_aug(), max_col_nnz(), device(), columns() — the per-launch column
/// access — and the declared cost terms sweep_cost, ftran_cost and
/// ftran_ratio_cost.
template <typename Real, typename Policy>
class AtKernels {
 public:
  /// out_j = a_j . y for every column j (the drive-out's pivot row).
  void pivot_row_product(const vgpu::DeviceBuffer<Real>& y,
                         vgpu::DeviceBuffer<Real>& out) const {
    const auto cols = policy().columns();
    auto ys = y.device_span();
    auto os = out.device_span();
    const std::size_t n = policy().n_aug();
    policy().device().launch_blocks(
        "pivot_row_product", n, vgpu::Device::kBlockSize,
        policy().sweep_cost(0.0, 3 * n),
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) os[j] = cols.dot(j, ys);
        });
  }

  /// alpha = B^-1 a_q against the dense inverse.
  void ftran_alpha(const vblas::DeviceMatrix<Real>& binv, std::size_t q,
                   vgpu::DeviceBuffer<Real>& alpha) const {
    const std::size_t m = policy().m();
    const auto cols = policy().columns();
    // The column extent is read host-side (a scalar lookup, like the
    // pivot index).
    const auto aq = cols.column(q);
    auto bs = binv.device_span();
    auto as = alpha.device_span();
    policy().device().launch_blocks(
        "ftran", m, vgpu::Device::kBlockSize,
        policy().ftran_cost(aq.nnz(), 0.0, m),
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          aq.annotate();
          for (std::size_t i = lo; i < hi; ++i) as[i] = aq.binv_row_dot(bs, i);
        });
  }

  /// Pricing: reduced costs d_j = mask_j ? c_j - a_j . pi : 0, the
  /// rule-specific selection scan and the entering decision in ONE launch.
  /// Writes desc[kDescQ] and desc[kDescDq]; the block-scan semantics match
  /// the primitives', so the chosen column is the one vgpu::argmin /
  /// find_first_below would pick.
  void price_select(const vgpu::DeviceBuffer<Real>& pi,
                    const vgpu::DeviceBuffer<Real>& c,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& d,
                    vgpu::DeviceBuffer<Real>& score,
                    const vgpu::DeviceBuffer<Real>& devex_w,
                    vgpu::DeviceBuffer<Real>& desc, EnteringRule rule,
                    Real tol) const {
    const std::size_t n = policy().n_aug();
    fused_detail::EnteringSelect<Real> select(n, rule, tol);
    const auto cols = policy().columns();
    auto ys = pi.device_span();
    auto cs = c.device_span();
    auto ms = mask.device_span();
    auto ds = d.device_span();
    auto ss = score.device_span();
    auto wsp = devex_w.device_span();
    auto desc_s = desc.device_span();
    policy().device().launch_blocks(
        "price_select", n, vgpu::Device::kBlockSize,
        policy().sweep_cost(4.0 * double(n), 6 * n),
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          // Reduced costs.
          for (std::size_t j = lo; j < hi; ++j) {
            if (ms[j] == Real{0}) {
              ds[j] = Real{0};
              continue;
            }
            const Real acc = cols.dot(j, ys);
            ds[j] = cs[j] - acc;
          }
          select.block(blk, lo, hi, ds, ss, wsp, desc_s);
        });
    select.finish(policy().device(), ds, desc_s);
  }

  /// FTRAN + ratio test + leaving selection in ONE launch. The
  /// entering column index is read from the descriptor ON DEVICE — the
  /// launch is speculative (issued before the host has seen whether
  /// pricing found a candidate) and early-exits when desc[kDescQ] < 0.
  /// Writes desc[kDescP/kDescTheta/kDescAlphaP]; alpha and ratio are
  /// still materialized for the basis update and observers.
  void ftran_ratio_select(const vblas::DeviceMatrix<Real>& binv,
                          const vgpu::DeviceBuffer<Real>& beta,
                          vgpu::DeviceBuffer<Real>& alpha,
                          vgpu::DeviceBuffer<Real>& ratio,
                          vgpu::DeviceBuffer<Real>& desc,
                          Real pivot_tol) const {
    const std::size_t m = policy().m();
    fused_detail::LeavingSelect<Real> select(m, pivot_tol);
    const auto cols = policy().columns();
    auto bs = binv.device_span();
    auto be = beta.device_span();
    auto as = alpha.device_span();
    auto rs = ratio.device_span();
    auto desc_s = desc.device_span();
    policy().device().launch_blocks(
        "ftran_ratio", m, vgpu::Device::kBlockSize,
        policy().ftran_ratio_cost(),
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          if (desc_s[kDescQ] < Real{0}) return;  // optimal: nothing entered
          const auto aq = cols.column(static_cast<std::size_t>(desc_s[kDescQ]));
          aq.annotate();
          const auto alpha_of = [&](std::size_t i) {
            const Real acc = aq.binv_row_dot(bs, i);
            as[i] = acc;
            return acc;
          };
          select.block(blk, lo, hi, alpha_of, be, rs, as, desc_s);
        });
    select.finish(policy().device(), rs, as, desc_s);
  }

  /// Devex weight maintenance: the pivot-row products against the
  /// pre-update row p of B^-1, the masked weight update, and the leaving
  /// variable's re-entry weight in ONE launch. The reference weight w_q is
  /// read on-device; the candidate test `cand > w_q` is false at j == q,
  /// so w_q is never written while lanes read it.
  void devex_update(const vgpu::DeviceBuffer<Real>& prow,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& devex_w, std::size_t q,
                    std::size_t leaving, Real alpha_p) const {
    const std::size_t n = policy().n_aug();
    const auto cols = policy().columns();
    auto ps = prow.device_span();
    auto ms = mask.device_span();
    auto wsp = devex_w.device_span();
    policy().device().launch_blocks(
        "devex_update_fused", n, vgpu::Device::kBlockSize,
        policy().sweep_cost(4.0 * double(n), 4 * n),
        [&](std::size_t, std::size_t lo, std::size_t hi) {
          const Real wq = wsp[q];
          for (std::size_t j = lo; j < hi; ++j) {
            if (j == leaving) {
              // The leaving variable re-enters the nonbasic pool with the
              // reference weight of the pivot (its mask is still 0 here).
              wsp[j] = std::max(wq / (alpha_p * alpha_p), Real{1});
              continue;
            }
            if (ms[j] == Real{0}) continue;
            const Real t = cols.dot(j, ps) / alpha_p;
            const Real cand = t * t * wq;
            if (cand > wsp[j]) wsp[j] = cand;
          }
        });
  }

 private:
  [[nodiscard]] const Policy& policy() const noexcept {
    return static_cast<const Policy&>(*this);
  }
};

/// Dense A^T policy: contiguous column reads, BLAS-2-shaped kernels.
template <typename Real>
class DenseAt : public AtKernels<Real, DenseAt<Real>> {
 public:
  DenseAt(vgpu::Device& dev, const AugmentedLp& aug)
      : m_(aug.m), n_aug_(aug.n_aug), at_(dev, host_at(aug)) {}

  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t n_aug() const noexcept { return n_aug_; }
  [[nodiscard]] vgpu::Device& device() const noexcept { return at_.device(); }
  /// Every column holds m entries.
  [[nodiscard]] std::size_t max_col_nnz() const noexcept { return m_; }

  /// Column access for one launch: column j is row j of A^T, contiguous,
  /// annotated in bulk and read through a raw pointer.
  struct Columns {
    vgpu::check::CheckedSpan<const Real> at;
    std::size_t m;

    /// The entering column a_q (all m entries).
    struct Entering {
      vgpu::check::CheckedSpan<const Real> at;
      std::size_t q, m;

      [[nodiscard]] std::size_t nnz() const noexcept { return m; }
      /// Declare the block's a_q read (cached across the block).
      void annotate() const { at.read_range(q * m, q * m + m); }
      /// Bytes scatter() moves for `nnz` rows: per row sigma[i], a_q[i]
      /// and the x element written (the row is the loop index).
      [[nodiscard]] static constexpr double scatter_bytes(std::size_t nnz) {
        return double(nnz) *
               (double(sizeof(std::uint32_t)) + 2.0 * sizeof(Real));
      }
      /// x[sigma[i]] = a_q[i] for every row i (after annotate()).
      template <typename XSpan, typename SSpan>
      void scatter(const XSpan& x, const SSpan& sigma) const {
        const Real* aq = at.data() + q * m;
        for (std::size_t i = 0; i < m; ++i) x[sigma[i]] = aq[i];
      }
      /// (B^-1 a_q)_i: row i of B^-1 against a_q, summed in row order.
      template <typename BSpan>
      [[nodiscard]] Real binv_row_dot(const BSpan& binv, std::size_t i) const {
        binv.read_range(i * m, i * m + m);
        const Real* row = binv.data() + i * m;
        const Real* aq = at.data() + q * m;
        Real acc{0};
        for (std::size_t k = 0; k < m; ++k) acc += row[k] * aq[k];
        return acc;
      }
    };

    /// a_j . y, summed in row order.
    template <typename YSpan>
    [[nodiscard]] Real dot(std::size_t j, const YSpan& y) const {
      at.read_range(j * m, (j + 1) * m);
      const Real* col = at.data() + j * m;
      Real acc{0};
      for (std::size_t i = 0; i < m; ++i) acc += col[i] * y[i];
      return acc;
    }

    [[nodiscard]] Entering column(std::size_t q) const { return {at, q, m}; }
  };

  [[nodiscard]] Columns columns() const { return {at_.device_span(), m_}; }

  /// a_j . y over every column (A^T plus y), plus the kernel's own `flops`
  /// and `elems` Real-sized vector touches.
  [[nodiscard]] vgpu::KernelCost sweep_cost(double flops,
                                            std::size_t elems) const {
    return {2.0 * double(n_aug_) * double(m_) + flops,
            double((n_aug_ * m_ + m_ + elems) * sizeof(Real)), sizeof(Real)};
  }
  /// B^-1 a_q (B^-1 plus a_q; every column holds m entries), plus extras.
  [[nodiscard]] vgpu::KernelCost ftran_cost(std::size_t /*nnz_q*/,
                                            double flops,
                                            std::size_t elems) const {
    return {2.0 * double(m_) * double(m_) + flops,
            double((m_ * m_ + m_ + elems) * sizeof(Real)), sizeof(Real)};
  }
  /// The FTRAN + ratio launch: B^-1 plus 7m + 2 vector elements.
  /// Unlike ftran_cost and the CSR twin, it counts no separate a_q read.
  [[nodiscard]] vgpu::KernelCost ftran_ratio_cost() const {
    return {2.0 * double(m_) * double(m_) + 3.0 * double(m_),
            double((m_ * m_ + 7 * m_ + 2) * sizeof(Real)), sizeof(Real)};
  }

 private:
  [[nodiscard]] static vblas::Matrix<Real> host_at(const AugmentedLp& aug) {
    const vblas::Matrix<double> at64 = aug.dense_at();
    vblas::Matrix<Real> out(at64.rows(), at64.cols());
    for (std::size_t i = 0; i < at64.size(); ++i) {
      out.flat()[i] = static_cast<Real>(at64.flat()[i]);
    }
    return out;
  }

  std::size_t m_, n_aug_;
  vblas::DeviceMatrix<Real> at_;
};

/// CSR A^T policy: kernel cost scales with nnz instead of n_aug * m.
template <typename Real>
class SparseAt : public AtKernels<Real, SparseAt<Real>> {
 public:
  SparseAt(vgpu::Device& dev, const AugmentedLp& aug)
      : m_(aug.m), n_aug_(aug.n_aug), at_(dev, host_csr(aug)) {
    // Widest column, for declaring kernel costs when the entering
    // column index lives on the device (host metadata, like nnz()).
    const std::span<const std::uint32_t> offs = at_.row_offsets().host_view();
    for (std::size_t j = 0; j < n_aug_; ++j) {
      max_col_nnz_ = std::max<std::size_t>(max_col_nnz_, offs[j + 1] - offs[j]);
    }
  }

  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t n_aug() const noexcept { return n_aug_; }
  [[nodiscard]] vgpu::Device& device() const noexcept { return at_.device(); }
  [[nodiscard]] std::size_t max_col_nnz() const noexcept { return max_col_nnz_; }

  /// Column access for one launch: element-wise CSR reads.
  struct Columns {
    vgpu::check::CheckedSpan<const std::uint32_t> offs, cols;
    vgpu::check::CheckedSpan<const Real> vals;
    std::size_t m;

    /// The entering column a_q: entries [k_lo, k_hi) of vals/cols.
    struct Entering {
      vgpu::check::CheckedSpan<const std::uint32_t> cols;
      vgpu::check::CheckedSpan<const Real> vals;
      std::uint32_t k_lo, k_hi;
      std::size_t m;

      [[nodiscard]] std::size_t nnz() const noexcept { return k_hi - k_lo; }
      /// Declare the block's a_q read: the values and indices are read
      /// once and reused across the block (cached on a real GPU).
      void annotate() const {
        vals.read_range(k_lo, k_hi);
        cols.read_range(k_lo, k_hi);
      }
      /// Bytes scatter() moves for `nnz` entries: per entry its row
      /// index, sigma[row], the value and the x element written.
      [[nodiscard]] static constexpr double scatter_bytes(std::size_t nnz) {
        return double(nnz) *
               (2.0 * double(sizeof(std::uint32_t)) + 2.0 * sizeof(Real));
      }
      /// x[sigma[row_k]] = a_q[k] over the column's entries (after
      /// annotate()).
      template <typename XSpan, typename SSpan>
      void scatter(const XSpan& x, const SSpan& sigma) const {
        for (std::uint32_t k = k_lo; k < k_hi; ++k) {
          x[sigma[cols.data()[k]]] = vals.data()[k];
        }
      }
      /// (B^-1 a_q)_i = sum_k a_q[k] * binv(i, row_k): m * nnz(a_q) over
      /// the grid.
      template <typename BSpan>
      [[nodiscard]] Real binv_row_dot(const BSpan& binv, std::size_t i) const {
        const Real* vp = vals.data();
        const std::uint32_t* cp = cols.data();
        Real acc{0};
        for (std::uint32_t k = k_lo; k < k_hi; ++k) {
          acc += vp[k] * binv[i * m + cp[k]];
        }
        return acc;
      }
    };

    /// a_j . y, summed in CSR order.
    template <typename YSpan>
    [[nodiscard]] Real dot(std::size_t j, const YSpan& y) const {
      Real acc{0};
      for (std::uint32_t k = offs[j]; k < offs[j + 1]; ++k) {
        acc += vals[k] * y[cols[k]];
      }
      return acc;
    }

    [[nodiscard]] Entering column(std::size_t q) const {
      return {cols, vals, offs[q], offs[q + 1], m};
    }
  };

  [[nodiscard]] Columns columns() const {
    return {at_.row_offsets().device_span(), at_.col_indices().device_span(),
            at_.values().device_span(), m_};
  }

  /// a_j . y over every column (value + index + gathered y per nonzero),
  /// plus the kernel's own `flops` and `elems` Real-sized vector touches.
  [[nodiscard]] vgpu::KernelCost sweep_cost(double flops,
                                            std::size_t elems) const {
    const double nnz = static_cast<double>(at_.nnz());
    return {2.0 * nnz + flops,
            nnz * double(2 * sizeof(Real) + sizeof(std::uint32_t)) +
                double(elems * sizeof(Real)),
            sizeof(Real)};
  }
  /// B^-1 a_q for a column of nnz_q entries (m gathered rows of B^-1 per
  /// entry, plus a_q itself), plus extras.
  [[nodiscard]] vgpu::KernelCost ftran_cost(std::size_t nnz_q, double flops,
                                            std::size_t elems) const {
    return {2.0 * double(m_) * double(nnz_q) + flops,
            double(m_ * nnz_q * sizeof(Real) +
                   nnz_q * (sizeof(Real) + sizeof(std::uint32_t)) +
                   elems * sizeof(Real)),
            sizeof(Real)};
  }
  /// The FTRAN + ratio launch, declared from the widest column (the
  /// entering index is device-resident, so the exact nnz(a_q) is unknown
  /// host-side; over-declaring is safe, the cost lint only flags observed
  /// > declared drift).
  [[nodiscard]] vgpu::KernelCost ftran_ratio_cost() const {
    return ftran_cost(max_col_nnz_, 3.0 * double(m_), 7 * m_ + 2);
  }

 private:
  [[nodiscard]] static sparse::CsrMatrix<Real> host_csr(
      const AugmentedLp& aug) {
    const sparse::CsrMatrix<double> at64 = aug.csr_at();
    std::vector<Real> vals(at64.values().size());
    for (std::size_t k = 0; k < vals.size(); ++k) {
      vals[k] = static_cast<Real>(at64.values()[k]);
    }
    return sparse::CsrMatrix<Real>(at64.rows(), at64.cols(),
                                   at64.row_offsets(), at64.col_indices(),
                                   std::move(vals));
  }

  std::size_t m_, n_aug_;
  sparse::DeviceCsr<Real> at_;
  std::size_t max_col_nnz_ = 0;
};

}  // namespace gs::simplex
