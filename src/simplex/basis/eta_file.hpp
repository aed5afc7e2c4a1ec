// EtaFile: the product form's one basis representation on both machines,
// B_k^-1 = E_k ... E_1 B_0^-1 (DESIGN.md, "Basis oracles").
//
// B_0's sparse LU (SparseLu) arrives as position etas: sigma maps original
// row r to basis position sigma[r], and every L or U column that is not the
// identity is one eta indexed by basis position. Each pivot appends one
// update eta. The host ProductFormOracle walks the entries in host memory
// and the device chains walk their device copies with the same two loops
// (apply, apply_transposed: templates over the span type), so the machines
// agree bit for bit in double. The file also owns the update append with
// its growth measure, the refactor policy and B_0's factorization charge.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "vgpu/ledger.hpp"

namespace gs::simplex::basis {

/// Eta-file conditioning guard: refactor as soon as an update eta's
/// multiplier (|1/alpha_p| or |alpha_i/alpha_p|) exceeds it; a huge
/// multiplier means the represented inverse is drifting.
inline constexpr double kEtaGrowthLimit = 1e8;

/// One eta's entries as a walk reads them: positions idx[lo, hi) with
/// values val[lo, hi), over host or device spans.
template <typename Idx, typename Val>
struct EtaEntries {
  Idx idx;
  Val val;
  std::size_t lo = 0, hi = 0;

  /// Declare the entries' read once on a device span, whose walk then reads
  /// them through data(); a host std::span has nothing to declare.
  void declare() const {
    if constexpr (requires(const Idx& s) { s.read_range(lo, hi); }) {
      idx.read_range(lo, hi);
      val.read_range(lo, hi);
    }
  }
};

class EtaFile {
 public:
  using HostEntries =
      EtaEntries<std::span<const std::uint32_t>, std::span<const double>>;

  EtaFile() = default;

  [[nodiscard]] std::size_t dim() const noexcept { return sigma_.size(); }
  /// All etas: B_0's first, then the updates oldest first.
  [[nodiscard]] std::size_t size() const noexcept { return p_.size(); }
  [[nodiscard]] std::size_t factor_etas() const noexcept {
    return p_.size() - updates_;
  }
  [[nodiscard]] std::size_t updates() const noexcept { return updates_; }
  /// nnz(L+U) of B_0, its unit and U diagonals included.
  [[nodiscard]] std::size_t factor_nnz() const noexcept {
    return dim() + offsets_[factor_etas()];
  }
  /// Entries of the update etas plus one pivot each.
  [[nodiscard]] std::size_t update_nnz() const noexcept {
    return idx_.size() - offsets_[factor_etas()] + updates_;
  }

  [[nodiscard]] std::span<const std::uint32_t> sigma() const noexcept {
    return sigma_;
  }
  [[nodiscard]] std::uint32_t pivot(std::size_t e) const { return p_[e]; }
  /// Eta e's entries in host memory.
  [[nodiscard]] HostEntries entries(std::size_t e) const {
    return {idx_, val_, offsets_[e], offsets_[e + 1]};
  }
  /// B_0's entries, packed in eta order.
  [[nodiscard]] HostEntries factor_entries() const {
    return {idx_, val_, 0, offsets_[factor_etas()]};
  }
  /// Positions eta e writes (FTRAN) or reads (BTRAN) besides its pivot.
  [[nodiscard]] std::span<const std::uint32_t> support(std::size_t e) const {
    return std::span<const std::uint32_t>(idx_).subspan(
        offsets_[e], offsets_[e + 1] - offsets_[e]);
  }

  /// x := E_n ... E_1 x over basis positions: per eta in file order,
  /// t = x_p / pval, x_i -= v * t over its entries unless t is zero, and
  /// x_p = t. `entries(e)` gives eta e's entries on the machine that walks.
  /// An L eta divides by 1.0, which is exact, so B_0's etas repeat the
  /// triangular solves operation for operation.
  template <typename X, typename Entries>
  void apply(const X& x, Entries&& entries) const {
    using Real = std::remove_cv_t<std::remove_pointer_t<decltype(x.data())>>;
    for (std::size_t e = 0; e < p_.size(); ++e) {
      const auto eta = entries(e);
      const Real t = x[p_[e]] / static_cast<Real>(pval_[e]);
      if (t != Real{0}) {
        eta.declare();
        const auto* idx = eta.idx.data();
        const auto* val = eta.val.data();
        for (std::size_t k = eta.lo; k < eta.hi; ++k) {
          x[idx[k]] -= val[k] * t;
        }
      }
      x[p_[e]] = t;
    }
  }

  /// y := E_1^T ... E_n^T y: per eta in reverse file order,
  /// y_p = (y_p - sum v * y_i) / pval, summing in entry order.
  template <typename Y, typename Entries>
  void apply_transposed(const Y& y, Entries&& entries) const {
    using Real = std::remove_cv_t<std::remove_pointer_t<decltype(y.data())>>;
    for (std::size_t e = p_.size(); e-- > 0;) {
      const auto eta = entries(e);
      eta.declare();
      const auto* idx = eta.idx.data();
      const auto* val = eta.val.data();
      Real acc = y[p_[e]];
      for (std::size_t k = eta.lo; k < eta.hi; ++k) acc -= val[k] * y[idx[k]];
      y[p_[e]] = acc / static_cast<Real>(pval_[e]);
    }
  }

  /// x = B^-1 a: a (by original row) scattered through sigma into x (by
  /// basis position), then apply(). `a` and `x` must not overlap.
  void ftran(std::span<const double> a, std::span<double> x) const {
    for (std::size_t r = 0; r < dim(); ++r) x[sigma_[r]] = a[r];
    apply(x, [this](std::size_t e) { return entries(e); });
  }

  /// y = B^-T c: apply_transposed() over c (by basis position), then the
  /// gather y[r] = w[sigma[r]] back to original rows.
  void btran(std::span<const double> c, std::span<double> y) const {
    work_.assign(c.begin(), c.end());
    apply_transposed(std::span<double>(work_),
                     [this](std::size_t e) { return entries(e); });
    for (std::size_t r = 0; r < dim(); ++r) y[r] = work_[sigma_[r]];
  }

  /// Append the update eta of a pivot on position p whose FTRAN'd entering
  /// column is `alpha` (host memory, either precision): pval = alpha_p and
  /// the entries {(i, alpha_i) : i != p, alpha_i != 0}. Its multipliers
  /// |1/alpha_p| and |alpha_i/alpha_p| join the growth measure. Returns its
  /// entry count.
  template <typename T>
  std::size_t append(std::size_t p, std::span<const T> alpha) {
    const double inv_p = std::abs(1.0 / static_cast<double>(alpha[p]));
    growth_ = std::max(growth_, inv_p);
    for (std::size_t i = 0; i < dim(); ++i) {
      if (i == p || alpha[i] == T{0}) continue;
      const double v = static_cast<double>(alpha[i]);
      growth_ = std::max(growth_, std::abs(v * inv_p));
      push(static_cast<std::uint32_t>(i), v);
    }
    close(static_cast<std::uint32_t>(p), static_cast<double>(alpha[p]));
    ++updates_;
    return support(p_.size() - 1).size();
  }

  /// The refactor policy, the same on both machines: fold the updates back
  /// into a fresh B_0 once there are `period` of them (0 means one per
  /// basis row), or as soon as an update's multiplier exceeds
  /// kEtaGrowthLimit.
  [[nodiscard]] bool refactor_due(std::size_t period) const noexcept {
    const std::size_t interval = period > 0 ? period : dim();
    return (interval > 0 && updates_ >= interval) || growth_ > kEtaGrowthLimit;
  }

  /// B_0's factorization charge (`sparse_refactor` on either machine):
  /// 4 nnz(L+U) + 2m flops and 2 nnz(L+U) + 2m elements of `scalar_bytes`.
  [[nodiscard]] vgpu::KernelCost factor_cost(
      std::size_t scalar_bytes) const noexcept {
    const std::size_t nnz = factor_nnz();
    return {4.0 * double(nnz) + 2.0 * double(dim()),
            double((2 * nnz + 2 * dim()) * scalar_bytes), scalar_bytes};
  }

 private:
  friend struct SparseLu;

  /// B_0 = I with original row r at basis position sigma[r]; the
  /// factorization then adds B_0's etas in file order.
  explicit EtaFile(std::vector<std::uint32_t> sigma)
      : sigma_(std::move(sigma)) {}

  /// An eta is its entries (push), then its pivot (close).
  void push(std::uint32_t i, double v) {
    idx_.push_back(i);
    val_.push_back(v);
  }
  void close(std::uint32_t p, double pval) {
    p_.push_back(p);
    pval_.push_back(pval);
    offsets_.push_back(idx_.size());
  }

  std::vector<std::uint32_t> sigma_;  ///< original row -> basis position
  std::vector<std::uint32_t> p_;      ///< pivot position of each eta
  std::vector<double> pval_;          ///< pivot value of each eta
  /// Eta e owns entries [offsets_[e], offsets_[e + 1]) of idx_ / val_.
  std::vector<std::size_t> offsets_{0};
  std::vector<std::uint32_t> idx_;
  std::vector<double> val_;
  std::size_t updates_ = 0;
  /// Largest update multiplier since B_0 (the growth trigger).
  double growth_ = 0.0;
  mutable std::vector<double> work_;  ///< btran's position-space y
};

}  // namespace gs::simplex::basis
