#include "simplex/phase_setup.hpp"

#include <cstring>

#include "support/error.hpp"

namespace gs::simplex {

namespace {

// FNV-1a, 64-bit. Hashing the exact double bit patterns keeps the digest
// independent of engine and working precision (every engine augments the
// same double-precision standard form).
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
};

}  // namespace

std::uint64_t decision_digest(const AugmentedLp& lp) {
  GS_CHECK_MSG(lp.source != nullptr, "AugmentedLp not initialized");
  Fnv f;
  f.mix(static_cast<std::uint64_t>(lp.m));
  f.mix(static_cast<std::uint64_t>(lp.n));
  f.mix(static_cast<std::uint64_t>(lp.n_aug));
  for (std::size_t i = 0; i < lp.m; ++i) {
    for (const lp::Term& t : lp.source->rows[i]) {
      f.mix(static_cast<std::uint64_t>(t.var));
      f.mix(t.coef);
    }
    f.mix(lp.b[i]);
  }
  for (double c : lp.c_phase2) f.mix(c);
  return f.h;
}

AugmentedLp augment(const lp::StandardFormLp& sf) {
  AugmentedLp out;
  out.m = sf.num_rows();
  out.n = sf.num_cols();
  out.b = sf.b;
  out.source = &sf;

  out.basic.resize(out.m);
  out.binv_diag.resize(out.m);
  out.beta_init.resize(out.m);

  // Crash basis: a row's own slack if present (its coefficient is the row's
  // only entry in that column and stays positive under scaling), otherwise a
  // fresh artificial unit column.
  std::vector<std::uint32_t> artificial_rows;
  for (std::size_t i = 0; i < out.m; ++i) {
    GS_CHECK_MSG(sf.b[i] >= 0.0, "standard form violated: negative rhs");
    const std::int64_t slack = sf.slack_col[i];
    if (slack >= 0) {
      double coef = 0.0;
      for (const lp::Term& t : sf.rows[i]) {
        if (t.var == static_cast<std::uint32_t>(slack)) coef = t.coef;
      }
      GS_CHECK_MSG(coef > 0.0, "slack column lost its positive coefficient");
      out.basic[i] = static_cast<std::uint32_t>(slack);
      out.binv_diag[i] = 1.0 / coef;
      out.beta_init[i] = sf.b[i] / coef;
    } else {
      const auto art_col = static_cast<std::uint32_t>(
          out.n + artificial_rows.size());
      artificial_rows.push_back(static_cast<std::uint32_t>(i));
      out.basic[i] = art_col;
      out.binv_diag[i] = 1.0;
      out.beta_init[i] = sf.b[i];
    }
  }
  out.num_artificial = artificial_rows.size();
  out.artificial_rows = std::move(artificial_rows);
  out.n_aug = out.n + out.num_artificial;

  out.is_artificial.assign(out.n_aug, false);
  for (std::size_t k = 0; k < out.num_artificial; ++k) {
    out.is_artificial[out.n + k] = true;
  }

  out.c_phase1.assign(out.n_aug, 0.0);
  for (std::size_t k = 0; k < out.num_artificial; ++k) {
    out.c_phase1[out.n + k] = 1.0;
  }
  out.c_phase2.assign(out.n_aug, 0.0);
  for (std::size_t j = 0; j < out.n; ++j) out.c_phase2[j] = sf.c[j];

  // Remember which row each artificial column covers (needed to rebuild
  // dense/CSR forms without keeping artificial_rows in the public struct:
  // the artificial for row i is exactly the k-th appended one).
  return out;
}

vblas::Matrix<double> AugmentedLp::dense_at() const {
  GS_CHECK_MSG(source != nullptr, "AugmentedLp not initialized");
  vblas::Matrix<double> at(n_aug, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (const lp::Term& t : source->rows[i]) at(t.var, i) = t.coef;
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (is_artificial[basic[i]]) at(n + k++, i) = 1.0;
  }
  GS_CHECK(k == num_artificial);
  return at;
}

std::size_t AugmentedLp::single_entry_tail() const {
  GS_CHECK_MSG(source != nullptr, "AugmentedLp not initialized");
  std::vector<std::size_t> count(n, 0);
  for (const auto& row : source->rows) {
    for (const lp::Term& t : row) ++count[t.var];
  }
  std::size_t tail = n;  // every artificial column has one entry
  while (tail > 0 && count[tail - 1] == 1) --tail;
  return tail;
}

template <typename Real>
std::vector<Real> AugmentedLp::two_part_at(std::size_t n_dense) const {
  GS_CHECK_MSG(source != nullptr, "AugmentedLp not initialized");
  GS_CHECK_MSG(n_dense <= n_aug && m <= (std::size_t{1} << 24),
               "two-part A^T: bad split or row index not exact");
  std::vector<Real> at(n_dense * m + 2 * (n_aug - n_dense), Real{0});
  const auto put = [&](std::size_t j, std::size_t i, double coef) {
    if (j < n_dense) {
      at[j * m + i] = static_cast<Real>(coef);
    } else {
      const std::size_t k = n_dense * m + 2 * (j - n_dense);
      at[k] = static_cast<Real>(i);
      at[k + 1] = static_cast<Real>(coef);
    }
  };
  std::size_t k = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (const lp::Term& t : source->rows[i]) put(t.var, i, t.coef);
    if (is_artificial[basic[i]]) put(n + k++, i, 1.0);
  }
  GS_CHECK(k == num_artificial);
  return at;
}

template std::vector<float> AugmentedLp::two_part_at<float>(std::size_t) const;
template std::vector<double> AugmentedLp::two_part_at<double>(
    std::size_t) const;

sparse::CsrMatrix<double> AugmentedLp::csr_at() const {
  GS_CHECK_MSG(source != nullptr, "AugmentedLp not initialized");
  // Column-major walk of the standard form: transpose the row lists first.
  std::vector<std::uint32_t> offsets(n_aug + 1, 0);
  for (const auto& row : source->rows) {
    for (const lp::Term& t : row) ++offsets[t.var + 1];
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (is_artificial[basic[i]]) {
      ++offsets[n + k + 1];
      ++k;
    }
  }
  for (std::size_t j = 1; j <= n_aug; ++j) offsets[j] += offsets[j - 1];
  const std::size_t nnz = offsets[n_aug];
  std::vector<std::uint32_t> cols(nnz);
  std::vector<double> vals(nnz);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    for (const lp::Term& t : source->rows[i]) {
      const std::uint32_t pos = cursor[t.var]++;
      cols[pos] = static_cast<std::uint32_t>(i);
      vals[pos] = t.coef;
    }
  }
  k = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (is_artificial[basic[i]]) {
      const std::uint32_t pos = cursor[n + k]++;
      cols[pos] = static_cast<std::uint32_t>(i);
      vals[pos] = 1.0;
      ++k;
    }
  }
  return sparse::CsrMatrix<double>(n_aug, m, std::move(offsets),
                                   std::move(cols), std::move(vals));
}

vblas::Matrix<double> AugmentedLp::dense_a() const {
  GS_CHECK_MSG(source != nullptr, "AugmentedLp not initialized");
  vblas::Matrix<double> a(m, n_aug);
  for (std::size_t i = 0; i < m; ++i) {
    for (const lp::Term& t : source->rows[i]) a(i, t.var) = t.coef;
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (is_artificial[basic[i]]) a(i, n + k++) = 1.0;
  }
  return a;
}

}  // namespace gs::simplex
