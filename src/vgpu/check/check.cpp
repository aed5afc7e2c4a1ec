#include "vgpu/check/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace gs::vgpu::check {

namespace {

/// Load element `i` of a float-kind span as double (for the NaN scan).
double load_value(const std::byte* base, ElemKind kind, std::size_t i) {
  if (kind == ElemKind::kF64) {
    double v;
    std::memcpy(&v, base + i * sizeof(double), sizeof(double));
    return v;
  }
  float v;
  std::memcpy(&v, base + i * sizeof(float), sizeof(float));
  return static_cast<double>(v);
}

/// True, with its index in `where`, if an element of `ivals` is `bad`.
template <typename Pred>
bool find_value(const SpanLog& log, const std::vector<detail::Interval>& ivals,
                Pred bad, std::size_t* where) {
  if (log.kind == ElemKind::kOther) return false;
  for (const auto& iv : ivals) {
    for (std::size_t i = iv.lo; i < iv.hi && i < log.extent; ++i) {
      if (bad(load_value(log.base, log.kind, i))) {
        *where = i;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::string_view to_string(FindingKind kind) {
  switch (kind) {
    case FindingKind::kRace: return "race";
    case FindingKind::kOutOfBounds: return "out-of-bounds";
    case FindingKind::kNonFinite: return "non-finite";
    case FindingKind::kCostMismatch: return "cost-mismatch";
  }
  return "unknown";
}

void Checker::reset() {
  findings_.clear();
  dropped_ = 0;
  launches_ = 0;
}

std::string Checker::report() const {
  std::ostringstream os;
  for (const Finding& f : findings_) {
    os << "[" << to_string(f.kind) << "] kernel=" << f.kernel << ": "
       << f.detail;
    if (f.count > 1) os << " (x" << f.count << ")";
    os << "\n";
  }
  os << "checked " << launches_ << " launches; " << findings_.size()
     << " finding(s)";
  if (dropped_ > 0) os << " (+" << dropped_ << " dropped)";
  os << "\n";
  return os.str();
}

void Checker::check_launch(std::string_view kernel,
                           const std::vector<const SpanLog*>& spans) {
  ++launches_;
  for (const SpanLog* log : spans) check_races(kernel, *log);
  check_non_finite(kernel, spans);
}

void Checker::add_finding(FindingKind kind, std::string_view kernel,
                          std::string detail) {
  for (Finding& f : findings_) {
    if (f.kind == kind && f.kernel == kernel) {
      ++f.count;
      return;
    }
  }
  if (findings_.size() >= kMaxFindings) {
    ++dropped_;
    return;
  }
  findings_.push_back({kind, std::string(kernel), std::move(detail), 1});
}

void Checker::check_races(std::string_view kernel, const SpanLog& log) {
  if (log.writes.empty()) return;
  // Merge reads and writes into one lo-sorted list and sweep, tracking
  // the furthest-reaching write and read seen so far (with their block
  // ids). Any interval that starts before the frontier of the *other*
  // access kind — or before the write frontier, for writes — from a
  // different block overlaps a conflicting access: on a GPU (and under a
  // multi-worker pool) blocks are unordered, so that is a data race.
  struct Tagged {
    detail::Interval iv;
    bool is_write;
  };
  std::vector<Tagged> all;
  all.reserve(log.reads.size() + log.writes.size());
  for (const auto& iv : log.writes) all.push_back({iv, true});
  for (const auto& iv : log.reads) all.push_back({iv, false});
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return a.iv.lo != b.iv.lo ? a.iv.lo < b.iv.lo : (a.is_write && !b.is_write);
  });

  std::size_t write_hi = 0, read_hi = 0;
  std::uint32_t write_block = 0, read_block = 0;
  bool have_write = false, have_read = false;
  for (const Tagged& t : all) {
    const auto& iv = t.iv;
    if (t.is_write) {
      if (have_write && iv.lo < write_hi && iv.block != write_block) {
        std::ostringstream os;
        os << "write-write overlap at element " << iv.lo << " (blocks "
           << iv.block << " and " << write_block << ")";
        add_finding(FindingKind::kRace, kernel, os.str());
        return;
      }
      if (have_read && iv.lo < read_hi && iv.block != read_block) {
        std::ostringstream os;
        os << "read-write overlap at element " << iv.lo << " (write block "
           << iv.block << ", read block " << read_block << ")";
        add_finding(FindingKind::kRace, kernel, os.str());
        return;
      }
      if (!have_write || iv.hi > write_hi) {
        write_hi = iv.hi;
        write_block = iv.block;
      }
      have_write = true;
    } else {
      if (have_write && iv.lo < write_hi && iv.block != write_block) {
        std::ostringstream os;
        os << "read-write overlap at element " << iv.lo << " (read block "
           << iv.block << ", write block " << write_block << ")";
        add_finding(FindingKind::kRace, kernel, os.str());
        return;
      }
      if (!have_read || iv.hi > read_hi) {
        read_hi = iv.hi;
        read_block = iv.block;
      }
      have_read = true;
    }
  }
}

void Checker::check_non_finite(std::string_view kernel,
                               const std::vector<const SpanLog*>& spans) {
  // Values are inspected after the launch completes, so reads of spans
  // the kernel also wrote reflect post-launch contents; those spans are
  // excluded from the "were the inputs finite?" test (documented
  // limitation for in-place kernels in CHECKING.md). Inf is not flagged:
  // the ratio-test kernel legitimately writes +inf for ineligible rows.
  std::size_t at = 0;
  const auto non_finite = [](double v) { return !std::isfinite(v); };
  for (const SpanLog* log : spans) {
    if (log->writes.empty() && find_value(*log, log->reads, non_finite, &at)) {
      return;  // propagation, not introduction
    }
  }
  const auto nan = [](double v) { return std::isnan(v); };
  for (const SpanLog* log : spans) {
    if (find_value(*log, log->writes, nan, &at)) {
      std::ostringstream os;
      os << "wrote NaN at element " << at << " with all-finite inputs";
      add_finding(FindingKind::kNonFinite, kernel, os.str());
      return;
    }
  }
}

}  // namespace gs::vgpu::check
