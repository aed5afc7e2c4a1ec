// Constraint-matrix access policies for the device revised simplex engine.
//
// The engine is generic over how the (augmented, transposed) constraint
// matrix A^T is stored on the device:
//   * DenseAt  — dense row-major (the paper's layout), with the trailing
//                single-entry columns (every logical column) stored as
//                (row, value) pairs, and
//   * SparseAt — CSR (the follow-on sparse variant, Ext. C).
// A policy supplies only what the storage changes: column access — the
// product a_j . y, the entering column a_q against one row of B^-1, and
// a_q scattered into a product-form FTRAN, each with the format's own
// read_range annotations and summation order — plus the cost terms its
// launches declare. AtKernels writes every kernel once on top of that:
// the pricing, FTRAN + ratio and Devex launches of the device loop, and
// the FTRAN and pivot-row product the artificial drive-out uses. The
// loop's pivot selections run inside the launches that compute their
// inputs and meet in the on-device pivot descriptor, so no selection or
// combine step is a launch of its own and no scalar round-trips over
// PCIe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
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
// One device buffer holds every per-iteration decision, and its prefix
// crosses PCIe as ONE packed d2h per iteration: the entering column and
// d_q, then one leaving triple (p, theta, alpha_p) per ratio block, which
// the host reduces (reduce_leaving). Behind the prefix (desc_partials),
// price_select leaves one (index, value) winner per pricing block for the
// launch that consumes the entering column to combine. Indices are
// encoded as Real (exact up to 2^24 even in float); -1 marks "no
// candidate".
// ---------------------------------------------------------------------
inline constexpr std::size_t kDescQ = 0;       ///< entering column, or -1
inline constexpr std::size_t kDescDq = 1;      ///< reduced cost d_q
inline constexpr std::size_t kDescP = 2;       ///< first leaving triple
inline constexpr std::size_t kDescTriple = 3;  ///< slots per leaving triple
// (Ratio ties are observational — the recorder counts them through
// host_view() outside the machine model, so they never ride in the
// descriptor or cost a device-side rescan.)

/// Blocks of a selection launch over `lanes` lanes.
[[nodiscard]] constexpr std::size_t select_blocks(std::size_t lanes) noexcept {
  return (lanes + vgpu::Device::kBlockSize - 1) / vgpu::Device::kBlockSize;
}

/// Descriptor slots the host reads: q, d_q and `triples` leaving triples.
[[nodiscard]] constexpr std::size_t desc_prefix(std::size_t triples) noexcept {
  return kDescP + kDescTriple * triples;
}

/// Offset of the pricing blocks' winners: behind room for one leaving
/// triple per ratio block of an m-row problem (at least one, the product
/// form's).
[[nodiscard]] constexpr std::size_t desc_partials(std::size_t m) noexcept {
  return desc_prefix(std::max<std::size_t>(select_blocks(m), 1));
}

/// The whole descriptor of an m-row, n_aug-column problem.
[[nodiscard]] constexpr std::size_t desc_slots(std::size_t m,
                                               std::size_t n_aug) noexcept {
  return desc_partials(m) + 2 * select_blocks(n_aug);
}

/// Entering-variable rule for one pricing launch (the hybrid rule resolves
/// to Dantzig or Bland per iteration on the host).
enum class EnteringRule { kDantzig, kBland, kDevex };

/// One iteration's entering-column selection, split across two launches.
/// Each price_select block scans its columns with the rule's block
/// primitive and writes its winner to the descriptor's partials (block);
/// the launch that consumes the column combines them in block order with
/// strict < (the first hit for Bland) and applies the rule's optimality
/// test (resolve). The column is the one vgpu::argmin / find_first_below
/// would pick over the whole buffer.
template <typename Real>
struct EnteringSelect {
  EnteringRule rule;
  Real tol;            ///< optimality tolerance: d_j < -tol may enter
  std::size_t parts;   ///< descriptor offset of the block winners
  std::size_t blocks;  ///< pricing blocks

  EnteringSelect(EnteringRule r, Real t, std::size_t m, std::size_t n_aug)
      : rule(r),
        tol(t),
        parts(desc_partials(m)),
        blocks(select_blocks(n_aug)) {}

  /// Block `blk`'s winner among columns [lo, hi). Devex first writes its
  /// scores -d_j^2 / w_j into `score`.
  template <typename DSpan, typename SSpan, typename WSpan, typename DescSpan>
  void block(std::size_t blk, std::size_t lo, std::size_t hi, const DSpan& d,
             const SSpan& score, const WSpan& devex_w,
             const DescSpan& desc) const {
    std::size_t best = vgpu::detail::kNoIndex;
    Real val{0};
    if (rule == EnteringRule::kBland) {
      best = vgpu::detail::block_first_below(d, lo, hi, -tol);
    } else if (rule == EnteringRule::kDevex) {
      for (std::size_t j = lo; j < hi; ++j) {
        score[j] = d[j] < -tol ? -(d[j] * d[j]) / devex_w[j] : Real{0};
      }
      best = vgpu::detail::block_argmin(score, lo, hi);
      val = score[best];
    } else {
      best = vgpu::detail::block_argmin(d, lo, hi);
      val = d[best];
    }
    desc[parts + 2 * blk] =
        best == vgpu::detail::kNoIndex ? Real{-1} : static_cast<Real>(best);
    desc[parts + 2 * blk + 1] = val;
  }

  /// The entering column, or kNoIndex when none may enter: the first
  /// block's hit under Bland; else the block winners' argmin (block order,
  /// strict <), if its value passes the rule's test (a negative Devex
  /// score, or d_q < -tol).
  template <typename DescSpan>
  [[nodiscard]] std::size_t resolve(const DescSpan& desc) const {
    if (rule == EnteringRule::kBland) {
      for (std::size_t b = 0; b < blocks; ++b) {
        const Real idx = desc[parts + 2 * b];
        if (idx >= Real{0}) return static_cast<std::size_t>(idx);
      }
      return vgpu::detail::kNoIndex;
    }
    std::size_t best = vgpu::detail::kNoIndex;
    Real val{0};
    for (std::size_t b = 0; b < blocks; ++b) {
      const Real v = desc[parts + 2 * b + 1];
      if (b == 0 || v < val) {
        best = static_cast<std::size_t>(desc[parts + 2 * b]);
        val = v;
      }
    }
    const bool none =
        rule == EnteringRule::kDevex ? val >= Real{0} : val >= -tol;
    return none ? vgpu::detail::kNoIndex : best;
  }

  /// Publish the resolved column and its d_q (-1 and 0 when none).
  template <typename DSpan, typename DescSpan>
  static void publish(std::size_t q, const DSpan& d, const DescSpan& desc) {
    const bool none = q == vgpu::detail::kNoIndex;
    desc[kDescQ] = none ? Real{-1} : static_cast<Real>(q);
    desc[kDescDq] = none ? Real{0} : Real(d[q]);
  }
};

/// Ratio test and leaving pick over rows [lo, hi): ratio_i = beta_i /
/// alpha_i where alpha_i = alpha_of(i) exceeds the pivot tolerance, +inf
/// otherwise; the first smallest ratio's (row, ratio, alpha) goes to the
/// triple at desc[slot]. An empty range (a zero-row LP) writes nothing.
template <typename Real, typename AlphaOf, typename BSpan, typename RSpan,
          typename ASpan, typename DescSpan>
void leaving_block(Real pivot_tol, std::size_t lo, std::size_t hi,
                   AlphaOf&& alpha_of, const BSpan& beta, const RSpan& ratio,
                   const ASpan& alpha, const DescSpan& desc,
                   std::size_t slot) {
  if (lo == hi) return;
  for (std::size_t i = lo; i < hi; ++i) {
    const Real a = alpha_of(i);
    ratio[i] = a > pivot_tol ? beta[i] / a
                             : std::numeric_limits<Real>::infinity();
  }
  const std::size_t best = vgpu::detail::block_argmin(ratio, lo, hi);
  desc[slot] = static_cast<Real>(best);
  desc[slot + 1] = ratio[best];
  desc[slot + 2] = alpha[best];
}

/// One leaving decision: the row, the step length and the pivot element.
template <typename Real>
struct Leaving {
  std::size_t p;
  Real theta;
  Real alpha_p;
};

/// The host's reduction of the descriptor's `triples` leaving triples:
/// the first strictly smallest theta in block order, as the primitives'
/// block combine picks it.
template <typename Real>
[[nodiscard]] Leaving<Real> reduce_leaving(std::span<const Real> desc,
                                           std::size_t triples) {
  std::size_t best = kDescP;
  for (std::size_t t = 1; t < triples; ++t) {
    const std::size_t slot = kDescP + kDescTriple * t;
    if (desc[slot + 1] < desc[best + 1]) best = slot;
  }
  return {static_cast<std::size_t>(desc[best]), desc[best + 1],
          desc[best + 2]};
}

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

  /// Pricing: reduced costs d_j = mask_j ? c_j - a_j . pi : 0 and each
  /// block's entering candidate in ONE launch; the block winners land in
  /// the descriptor's partials for the next launch to combine
  /// (EnteringSelect).
  void price_select(const EnteringSelect<Real>& select,
                    const vgpu::DeviceBuffer<Real>& pi,
                    const vgpu::DeviceBuffer<Real>& c,
                    const vgpu::DeviceBuffer<Real>& mask,
                    vgpu::DeviceBuffer<Real>& d,
                    vgpu::DeviceBuffer<Real>& score,
                    const vgpu::DeviceBuffer<Real>& devex_w,
                    vgpu::DeviceBuffer<Real>& desc) const {
    const std::size_t n = policy().n_aug();
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
        policy().sweep_cost(4.0 * double(n), 6 * n + 2 * select.blocks),
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
  }

  /// FTRAN + ratio test + leaving selection in ONE launch, issued before
  /// the host has seen pricing's outcome. Every block combines the pricing
  /// blocks' winners into the entering column; block 0 publishes it
  /// (desc[kDescQ], desc[kDescDq]), and when none may enter every block
  /// exits. Each block then computes its rows of alpha = B^-1 a_q and
  /// ratio and writes its leaving triple, for the host to reduce
  /// (reduce_leaving). A zero-row LP still launches one lane, so the
  /// entering column is published.
  void ftran_ratio_select(const EnteringSelect<Real>& select,
                          const vgpu::DeviceBuffer<Real>& d,
                          const vblas::DeviceMatrix<Real>& binv,
                          const vgpu::DeviceBuffer<Real>& beta,
                          vgpu::DeviceBuffer<Real>& alpha,
                          vgpu::DeviceBuffer<Real>& ratio,
                          vgpu::DeviceBuffer<Real>& desc,
                          Real pivot_tol) const {
    const std::size_t m = policy().m();
    const auto cols = policy().columns();
    auto ds = d.device_span();
    auto bs = binv.device_span();
    auto be = beta.device_span();
    auto as = alpha.device_span();
    auto rs = ratio.device_span();
    auto desc_s = desc.device_span();
    // Per block: the pricing winners read and the leaving triple written;
    // block 0 also reads d_q and writes q and d_q.
    const std::size_t select_elems =
        select_blocks(m) * (2 * select.blocks + kDescTriple) + 3;
    policy().device().launch_blocks(
        "ftran_ratio", std::max<std::size_t>(m, 1), vgpu::Device::kBlockSize,
        policy().ftran_ratio_cost(select_elems),
        [&](std::size_t blk, std::size_t lo, std::size_t hi) {
          const std::size_t q = select.resolve(desc_s);
          if (blk == 0) select.publish(q, ds, desc_s);
          if (q == vgpu::detail::kNoIndex) return;  // optimal
          const auto aq = cols.column(q);
          aq.annotate();
          const auto alpha_of = [&](std::size_t i) {
            const Real acc = aq.binv_row_dot(bs, i);
            as[i] = acc;
            return acc;
          };
          leaving_block(pivot_tol, lo, std::min(hi, m), alpha_of, be, rs, as,
                        desc_s, kDescP + kDescTriple * blk);
        });
  }

  /// Devex weight maintenance: the pivot-row products against the
  /// pre-update row p of B^-1, the masked weight update, and the leaving
  /// variable's re-entry weight in ONE launch. Every block reads the
  /// reference weight w_q, so lane q skips its own update: under the
  /// product form q is still unmasked here, and its t = (a_q . row p) /
  /// alpha_p is 1 only in exact arithmetic, so rounding could raise w_q
  /// while other blocks read it. Column q is basic after the pivot, so its
  /// weight is not read again until it leaves and the leaving branch
  /// resets it.
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
            if (j == q || ms[j] == Real{0}) continue;
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

/// Dense A^T policy: contiguous column reads, BLAS-2-shaped kernels. The
/// buffer holds A^T in two parts (AugmentedLp::two_part_at): the columns
/// before the trailing run of single-entry columns as dense rows of m
/// entries, then each column of that run (every slack, surplus and
/// artificial column) as one (row, value) pair, so no kernel streams the
/// identity. A pair column's read is the dense loop's sum: the terms it
/// skips are products with zero, which add signed zeros, so for finite
/// operands every result has the dense loop's bits.
template <typename Real>
class DenseAt : public AtKernels<Real, DenseAt<Real>> {
 public:
  DenseAt(vgpu::Device& dev, const AugmentedLp& aug)
      : m_(aug.m),
        n_aug_(aug.n_aug),
        n_dense_(aug.single_entry_tail()),
        at_(dev, std::span<const Real>(aug.two_part_at<Real>(n_dense_))) {}

  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t n_aug() const noexcept { return n_aug_; }
  [[nodiscard]] vgpu::Device& device() const noexcept { return at_.device(); }
  /// m while any column is stored densely, else a pair's one entry.
  [[nodiscard]] std::size_t max_col_nnz() const noexcept {
    return n_dense_ > 0 ? m_ : 1;
  }

  /// Column access for one launch: a dense column is a contiguous row of
  /// A^T, annotated in bulk and read through a raw pointer; a pair column
  /// is its two stored elements.
  struct Columns {
    vgpu::check::CheckedSpan<const Real> at;
    std::size_t m, n_dense;

    /// The entering column a_q: m entries from `lo`, or the pair at `lo`.
    struct Entering {
      vgpu::check::CheckedSpan<const Real> at;
      std::size_t lo, m;
      bool pair;

      [[nodiscard]] std::size_t nnz() const noexcept { return pair ? 1 : m; }
      /// Declare the block's a_q read (cached across the block).
      void annotate() const { at.read_range(lo, lo + (pair ? 2 : m)); }
      /// Bytes scatter() moves for `nnz` rows: per row sigma[i], a_q[i]
      /// and the x element written, plus a pair's stored row.
      [[nodiscard]] static constexpr double scatter_bytes(std::size_t nnz) {
        return double(nnz) *
                   (double(sizeof(std::uint32_t)) + 2.0 * sizeof(Real)) +
               (nnz == 1 ? double(sizeof(Real)) : 0.0);
      }
      /// x[sigma[i]] = a_q[i] for every row i (after annotate()). A pair
      /// writes its one row: the chain has already zeroed x.
      template <typename XSpan, typename SSpan>
      void scatter(const XSpan& x, const SSpan& sigma) const {
        const Real* aq = at.data() + lo;
        if (pair) {
          x[sigma[row()]] = aq[1];
          return;
        }
        for (std::size_t i = 0; i < m; ++i) x[sigma[i]] = aq[i];
      }
      /// (B^-1 a_q)_i: row i of B^-1 against a_q, summed in row order (a
      /// pair reads its one element of the row).
      template <typename BSpan>
      [[nodiscard]] Real binv_row_dot(const BSpan& binv, std::size_t i) const {
        const Real* aq = at.data() + lo;
        Real acc{0};
        if (pair) {
          acc += binv[i * m + row()] * aq[1];
          return acc;
        }
        binv.read_range(i * m, i * m + m);
        const Real* bi = binv.data() + i * m;
        for (std::size_t k = 0; k < m; ++k) acc += bi[k] * aq[k];
        return acc;
      }
      /// A pair column's row.
      [[nodiscard]] std::size_t row() const {
        return static_cast<std::size_t>(at.data()[lo]);
      }
    };

    /// a_j . y, summed in row order; both footprints are declared once (a
    /// pair column's y read is its one element).
    template <typename YSpan>
    [[nodiscard]] Real dot(std::size_t j, const YSpan& y) const {
      const Entering col = column(j);
      col.annotate();
      const Real* aj = at.data() + col.lo;
      Real acc{0};
      if (col.pair) {
        acc += aj[1] * y[col.row()];
        return acc;
      }
      y.read_range(0, m);
      const Real* ys = y.data();
      for (std::size_t i = 0; i < m; ++i) acc += aj[i] * ys[i];
      return acc;
    }

    [[nodiscard]] Entering column(std::size_t q) const {
      if (q < n_dense) return {at, q * m, m, false};
      return {at, n_dense * m + 2 * (q - n_dense), m, true};
    }
  };

  [[nodiscard]] Columns columns() const {
    return {at_.device_span(), m_, n_dense_};
  }

  /// a_j . y over every column (A^T's two parts plus y), plus the kernel's
  /// own `flops` and `elems` Real-sized vector touches.
  [[nodiscard]] vgpu::KernelCost sweep_cost(double flops,
                                            std::size_t elems) const {
    const std::size_t pairs = n_aug_ - n_dense_;
    return {2.0 * (double(n_dense_) * double(m_) + double(pairs)) + flops,
            double((n_dense_ * m_ + 2 * pairs + m_ + elems) * sizeof(Real)),
            sizeof(Real)};
  }
  /// B^-1 a_q for a column of nnz_q entries (m of B^-1's elements per
  /// entry, plus a_q's storage: its m entries, or a pair), plus extras.
  [[nodiscard]] vgpu::KernelCost ftran_cost(std::size_t nnz_q, double flops,
                                            std::size_t elems) const {
    const std::size_t aq = nnz_q == 1 ? 2 : nnz_q;
    return {2.0 * double(m_) * double(nnz_q) + flops,
            double((m_ * nnz_q + aq + elems) * sizeof(Real)), sizeof(Real)};
  }
  /// The FTRAN + ratio launch: 7m + 2 vector elements and the selection's
  /// `select_elems`, declared from the widest column (the entering index
  /// is device-resident), as the CSR twin does.
  [[nodiscard]] vgpu::KernelCost ftran_ratio_cost(
      std::size_t select_elems) const {
    return ftran_cost(max_col_nnz(), 3.0 * double(m_),
                      7 * m_ + 2 + select_elems);
  }

 private:
  std::size_t m_, n_aug_;
  std::size_t n_dense_;  ///< columns stored densely; pairs after them
  vgpu::DeviceBuffer<Real> at_;
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

    /// a_j . y, summed in CSR order. The column's values and indices are
    /// declared once; the scattered y reads stay per element.
    template <typename YSpan>
    [[nodiscard]] Real dot(std::size_t j, const YSpan& y) const {
      const std::uint32_t lo = offs[j], hi = offs[j + 1];
      vals.read_range(lo, hi);
      cols.read_range(lo, hi);
      const Real* vp = vals.data();
      const std::uint32_t* cp = cols.data();
      Real acc{0};
      for (std::uint32_t k = lo; k < hi; ++k) acc += vp[k] * y[cp[k]];
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
  /// The FTRAN + ratio launch with the selection's `select_elems`,
  /// declared from the widest column (the entering index is
  /// device-resident, so the exact nnz(a_q) is unknown host-side;
  /// over-declaring is safe, the cost lint only flags observed > declared
  /// drift).
  [[nodiscard]] vgpu::KernelCost ftran_ratio_cost(
      std::size_t select_elems) const {
    return ftran_cost(max_col_nnz_, 3.0 * double(m_),
                      7 * m_ + 2 + select_elems);
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
