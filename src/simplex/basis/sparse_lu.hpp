// Sparse LU factorization of the basis matrix B (the B0 of the product
// form), left-looking with threshold-Markowitz pivoting.
//
// Columns are factored in ascending-nnz order (the cheap Markowitz
// column heuristic); within a column the pivot row is chosen, among rows
// whose magnitude is within `kPivotThreshold` of the column max, as the
// one with the fewest nonzeros in B (the Markowitz row count) — fill
// control first, stability floor second, exactly the trade Huangfu &
// Hall describe for the dual revised method's B0. L is unit-diagonal over
// original row indices; U runs over elimination steps with a separate
// diagonal.
//
// The factors leave as B0's position etas (EtaFile, which solves with
// them): every L column with entries in step order, then every U column
// that is not the identity in descending step order. Walking them in order
// repeats the forward L and backward U solves, and in reverse the
// transposed ones; the L and U columns themselves are not kept.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "simplex/basis/basis_oracle.hpp"
#include "simplex/basis/eta_file.hpp"

namespace gs::simplex::basis {

struct SparseLu {
  static constexpr double kPivotThreshold = 0.1;  ///< stability floor

  /// Factor B whose column at basis position j is column `basis[j]` of A,
  /// into B's position etas. Empty when B is numerically singular.
  [[nodiscard]] static std::optional<EtaFile> factorize(
      const ColumnSource& cols, std::span<const std::uint32_t> basis) {
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
      if (maxabs <= kSingularTol) return std::nullopt;
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

    // Step t pivots on original row rperm[t] at basis position corder[t].
    std::vector<std::uint32_t> sigma(m);
    for (std::size_t t = 0; t < m; ++t) sigma[rperm[t]] = corder[t];
    EtaFile out(sigma);
    for (std::size_t t = 0; t < m; ++t) {
      if (lcols[t].empty()) continue;
      for (const Entry& e : lcols[t]) out.push(sigma[e.row], e.val);
      out.close(corder[t], 1.0);
    }
    for (std::size_t j = m; j-- > 0;) {
      if (ucols[j].empty() && udiag[j] == 1.0) continue;
      for (const Entry& e : ucols[j]) out.push(corder[e.row], e.val);
      out.close(corder[j], udiag[j]);
    }
    return out;
  }

 private:
  struct Entry {
    std::uint32_t row;
    double val;
  };
};

}  // namespace gs::simplex::basis
