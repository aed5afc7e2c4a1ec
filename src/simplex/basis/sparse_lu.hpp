// Sparse LU factorization of the basis matrix B (the B0 of the product
// form), left-looking with threshold-Markowitz pivoting.
//
// Columns are factored in ascending-nnz order (the cheap Markowitz
// column heuristic); within a column the pivot row is chosen, among rows
// whose magnitude is within `kPivotThreshold` of the column max, as the
// one with the fewest nonzeros in B (the Markowitz row count) — fill
// control first, stability floor second, exactly the trade Huangfu &
// Hall describe for the dual revised method's B0. L is unit-diagonal and
// stored by columns over original row indices; U is stored by columns
// over elimination steps with a separate diagonal.
//
// Solves:
//   B x = a  (ftran):  L y = a forward, U z = y backward, x = Pc z
//   B^T y = c (btran): U^T w = Pc^T c forward, L^T y = w backward
// All dense-workspace, O(nnz(L+U)) flops plus an O(m) sweep.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "simplex/basis/basis_oracle.hpp"

namespace gs::simplex::basis {

class SparseLu {
 public:
  static constexpr double kPivotThreshold = 0.1;  ///< stability floor

  /// Factor B whose column at basis position j is column `basis[j]` of A.
  /// Returns false (leaving any prior factors untouched) when B is
  /// numerically singular.
  [[nodiscard]] bool factorize(const ColumnSource& cols,
                               std::span<const std::uint32_t> basis) {
    const std::size_t m = basis.size();
    // Gather all basis columns once (sparse, original row indices).
    std::vector<std::vector<Entry>> bcols(m);
    std::vector<std::uint32_t> rcount(m, 0);
    std::vector<double> buf(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      cols.gather(basis[j], buf);
      for (std::size_t i = 0; i < m; ++i) {
        if (buf[i] != 0.0) {
          bcols[j].push_back({static_cast<std::uint32_t>(i), buf[i]});
          ++rcount[i];
          buf[i] = 0.0;
        }
      }
    }
    // Markowitz column order: ascending nnz, stable on position.
    std::vector<std::uint32_t> corder(m);
    std::iota(corder.begin(), corder.end(), 0u);
    std::stable_sort(corder.begin(), corder.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return bcols[a].size() < bcols[b].size();
                     });

    std::vector<std::vector<Entry>> lcols(m), ucols(m);
    std::vector<double> udiag(m, 0.0);
    std::vector<std::uint32_t> rperm(m, 0);
    std::vector<bool> pivoted(m, false);
    std::vector<double>& x = buf;  // dense SPA, zeroed between columns

    for (std::size_t j = 0; j < m; ++j) {
      for (const Entry& e : bcols[corder[j]]) x[e.row] = e.val;
      // Left-looking elimination: consume prior pivots in step order.
      for (std::size_t t = 0; t < j; ++t) {
        const double v = x[rperm[t]];
        if (v == 0.0) continue;
        ucols[j].push_back({static_cast<std::uint32_t>(t), v});
        for (const Entry& e : lcols[t]) x[e.row] -= e.val * v;
      }
      // Threshold-Markowitz pivot among not-yet-pivoted rows.
      double maxabs = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        if (!pivoted[r]) maxabs = std::max(maxabs, std::abs(x[r]));
      }
      if (maxabs <= kSingularTol) {
        std::fill(x.begin(), x.end(), 0.0);
        return false;  // structurally or numerically singular
      }
      std::size_t prow = m;
      std::uint32_t best_count = 0;
      for (std::size_t r = 0; r < m; ++r) {
        if (pivoted[r] || std::abs(x[r]) < kPivotThreshold * maxabs) continue;
        if (prow == m || rcount[r] < best_count) {
          prow = r;
          best_count = rcount[r];
        }
      }
      const double piv = x[prow];
      rperm[j] = static_cast<std::uint32_t>(prow);
      pivoted[prow] = true;
      udiag[j] = piv;
      x[prow] = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        if (x[r] != 0.0) {
          if (!pivoted[r]) {
            lcols[j].push_back({static_cast<std::uint32_t>(r), x[r] / piv});
          }
          x[r] = 0.0;
        }
      }
    }

    m_ = m;
    lcols_ = std::move(lcols);
    ucols_ = std::move(ucols);
    udiag_ = std::move(udiag);
    rperm_ = std::move(rperm);
    cperm_ = std::move(corder);
    nnz_ = m_;  // U diagonal
    for (const auto& c : lcols_) nnz_ += c.size();
    for (const auto& c : ucols_) nnz_ += c.size();
    work_.assign(m_, 0.0);
    return true;
  }

  /// x := B^-1 x. Input indexed by original row, output by basis position.
  void ftran(std::span<double> x) const {
    std::vector<double>& y = work_;
    for (std::size_t t = 0; t < m_; ++t) {
      const double v = x[rperm_[t]];
      y[t] = v;
      if (v != 0.0) {
        for (const Entry& e : lcols_[t]) x[e.row] -= e.val * v;
      }
    }
    for (std::size_t j = m_; j-- > 0;) {
      const double z = y[j] / udiag_[j];
      y[j] = z;
      if (z != 0.0) {
        for (const Entry& e : ucols_[j]) y[e.row] -= e.val * z;
      }
    }
    for (std::size_t j = 0; j < m_; ++j) x[cperm_[j]] = y[j];
  }

  /// x := B^-T x. Input indexed by basis position, output by original row.
  void btran(std::span<double> x) const {
    std::vector<double>& w = work_;
    for (std::size_t j = 0; j < m_; ++j) {
      double acc = x[cperm_[j]];
      for (const Entry& e : ucols_[j]) acc -= e.val * w[e.row];
      w[j] = acc / udiag_[j];
    }
    for (std::size_t t = m_; t-- > 0;) {
      double acc = w[t];
      for (const Entry& e : lcols_[t]) acc -= e.val * x[e.row];
      x[rperm_[t]] = acc;
    }
  }

  /// The factors as position etas, indexed by basis position: the layout
  /// the device product form walks. Eta e maps x_p to t = x_p / pval and
  /// x_i -= v * t over its entries (i, v) (FTRAN), or y_p to
  /// (y_p - sum v * y_i) / pval in entry order (BTRAN).
  struct PositionEtas {
    std::vector<std::uint32_t> sigma;  ///< original row -> basis position
    std::vector<std::uint32_t> p;      ///< pivot position of each eta
    std::vector<double> pval;          ///< pivot value of each eta
    /// Eta e owns entries [offsets[e], offsets[e + 1]) of idx / val.
    std::vector<std::size_t> offsets{0};
    std::vector<std::uint32_t> idx;  ///< entry positions
    std::vector<double> val;         ///< entry values
  };

  /// Every L column with entries in step order (p = cperm[t], pval = 1),
  /// then every U column that is not the identity in descending step
  /// order (p = cperm[j], pval = udiag[j]); sigma[rperm[t]] = cperm[t].
  /// FTRAN of x[sigma[r]] = a[r] through the etas in order repeats ftran()
  /// operation for operation; BTRAN through them in reverse, then the
  /// gather out[r] = y[sigma[r]], repeats btran().
  [[nodiscard]] PositionEtas position_etas() const {
    PositionEtas out;
    out.sigma.resize(m_);
    for (std::size_t t = 0; t < m_; ++t) out.sigma[rperm_[t]] = cperm_[t];
    const auto push = [&](std::uint32_t p, double pval,
                          const std::vector<Entry>& entries, bool by_step) {
      out.p.push_back(p);
      out.pval.push_back(pval);
      for (const Entry& e : entries) {
        out.idx.push_back(by_step ? cperm_[e.row] : out.sigma[e.row]);
        out.val.push_back(e.val);
      }
      out.offsets.push_back(out.idx.size());
    };
    for (std::size_t t = 0; t < m_; ++t) {
      if (!lcols_[t].empty()) push(cperm_[t], 1.0, lcols_[t], false);
    }
    for (std::size_t j = m_; j-- > 0;) {
      if (!ucols_[j].empty() || udiag_[j] != 1.0) {
        push(cperm_[j], udiag_[j], ucols_[j], true);
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t dim() const noexcept { return m_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }

 private:
  struct Entry {
    std::uint32_t row;
    double val;
  };

  std::size_t m_ = 0;
  std::size_t nnz_ = 0;
  std::vector<std::vector<Entry>> lcols_;  ///< unit-lower, original rows
  std::vector<std::vector<Entry>> ucols_;  ///< strict upper, step indices
  std::vector<double> udiag_;
  std::vector<std::uint32_t> rperm_;  ///< pivot row of each step
  std::vector<std::uint32_t> cperm_;  ///< basis position of each step
  mutable std::vector<double> work_;
};

}  // namespace gs::simplex::basis
