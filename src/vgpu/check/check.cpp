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
  std::lock_guard<std::mutex> lock(mu_);
  findings_.clear();
  dropped_ = 0;
  launches_ = 0;
  logs_.clear();
  in_launch_ = false;
  kernel_ = "<host>";
}

std::string Checker::report() const {
  std::lock_guard<std::mutex> lock(mu_);
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

void Checker::begin_launch(std::string_view kernel, double declared_flops,
                           double declared_bytes, std::size_t threads,
                           std::size_t block_size) {
  (void)declared_flops;  // flops are not observable from element traffic
  (void)threads;
  (void)block_size;
  std::lock_guard<std::mutex> lock(mu_);
  in_launch_ = true;
  kernel_.assign(kernel);
  declared_bytes_ = declared_bytes;
  logs_.clear();
}

void Checker::end_launch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++launches_;
  if (cfg_.races) {
    for (const auto& [base, log] : logs_) analyze_races(log);
  }
  if (cfg_.non_finite) analyze_non_finite();
  if (cfg_.cost_lint) analyze_cost();
  logs_.clear();
  in_launch_ = false;
  kernel_ = "<host>";
}

void Checker::note_range(const void* base, std::size_t extent, ElemKind kind,
                         std::size_t elem_size, std::size_t lo, std::size_t hi,
                         bool is_write) {
  std::lock_guard<std::mutex> lock(mu_);
  // Host-side span accesses between launches model the substrate's
  // "unified memory" convenience — only bounds are enforced there.
  if (!in_launch_ || lo >= hi) return;
  SpanLog& log = logs_[base];
  if (log.base == nullptr) {
    log.kind = kind;
    log.elem_size = elem_size;
    log.base = static_cast<const std::byte*>(base);
    log.extent = extent;
  }
  std::vector<detail::Interval>& side = is_write ? log.writes : log.reads;
  const std::uint32_t block = detail::tls_block;
  // Consecutive accesses from a streaming loop coalesce into one
  // interval; anything else appends. Interleaved kernels interleave
  // across *different* spans, so the common case stays O(1).
  if (!side.empty()) {
    detail::Interval& last = side.back();
    if (last.block == block && last.hi == lo) {
      last.hi = hi;
      return;
    }
  }
  side.push_back({lo, hi, block});
}

void Checker::note_oob(std::size_t index, std::size_t extent, bool is_write) {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << (is_write ? "write" : "read") << " at index " << index
     << " in span of size " << extent;
  add_finding(FindingKind::kOutOfBounds, kernel_, os.str());
}

void Checker::add_finding(FindingKind kind, const std::string& kernel,
                          std::string detail) {
  for (Finding& f : findings_) {
    if (f.kind == kind && f.kernel == kernel) {
      ++f.count;
      return;
    }
  }
  if (findings_.size() >= cfg_.max_findings) {
    ++dropped_;
    return;
  }
  findings_.push_back({kind, kernel, std::move(detail), 1});
}

void Checker::analyze_races(const SpanLog& log) {
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

  constexpr std::size_t kNone = static_cast<std::size_t>(0);
  std::size_t write_hi = kNone, read_hi = kNone;
  std::uint32_t write_block = 0, read_block = 0;
  bool have_write = false, have_read = false;
  for (const Tagged& t : all) {
    const auto& iv = t.iv;
    if (t.is_write) {
      if (have_write && iv.lo < write_hi && iv.block != write_block) {
        std::ostringstream os;
        os << "write-write overlap at element " << iv.lo << " (blocks "
           << iv.block << " and " << write_block << ")";
        add_finding(FindingKind::kRace, kernel_, os.str());
        return;
      }
      if (have_read && iv.lo < read_hi && iv.block != read_block) {
        std::ostringstream os;
        os << "read-write overlap at element " << iv.lo << " (write block "
           << iv.block << ", read block " << read_block << ")";
        add_finding(FindingKind::kRace, kernel_, os.str());
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
        add_finding(FindingKind::kRace, kernel_, os.str());
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

bool Checker::span_has_non_finite(const SpanLog& log,
                                  const std::vector<detail::Interval>& ivals,
                                  std::size_t* where) const {
  if (log.kind == ElemKind::kOther) return false;
  for (const auto& iv : ivals) {
    for (std::size_t i = iv.lo; i < iv.hi && i < log.extent; ++i) {
      if (!std::isfinite(load_value(log.base, log.kind, i))) {
        if (where != nullptr) *where = i;
        return true;
      }
    }
  }
  return false;
}

void Checker::analyze_non_finite() {
  // Values are inspected after the launch completes, so reads of spans
  // the kernel also wrote reflect post-launch contents; those spans are
  // excluded from the "were the inputs finite?" test (documented
  // limitation for in-place kernels in CHECKING.md).
  bool inputs_non_finite = false;
  for (const auto& [base, log] : logs_) {
    if (!log.writes.empty() || log.reads.empty()) continue;
    if (span_has_non_finite(log, log.reads, nullptr)) {
      inputs_non_finite = true;
      break;
    }
  }
  if (inputs_non_finite) return;  // propagation, not introduction

  for (const auto& [base, log] : logs_) {
    if (log.writes.empty() || log.kind == ElemKind::kOther) continue;
    for (const auto& iv : log.writes) {
      for (std::size_t i = iv.lo; i < iv.hi && i < log.extent; ++i) {
        const double v = load_value(log.base, log.kind, i);
        const bool bad =
            std::isnan(v) || (cfg_.flag_infinite && std::isinf(v));
        if (bad) {
          std::ostringstream os;
          os << "wrote " << (std::isnan(v) ? "NaN" : "Inf") << " at element "
             << i << " with all-finite inputs";
          add_finding(FindingKind::kNonFinite, kernel_, os.str());
          return;
        }
      }
    }
  }
}

void Checker::analyze_cost() {
  double observed = 0.0;
  for (const auto& [base, log] : logs_) {
    for (const auto& iv : log.reads) {
      observed += static_cast<double>(iv.hi - iv.lo) *
                  static_cast<double>(log.elem_size);
    }
    for (const auto& iv : log.writes) {
      observed += static_cast<double>(iv.hi - iv.lo) *
                  static_cast<double>(log.elem_size);
    }
  }
  // Nothing recorded: either an uninstrumented kernel (host-vector
  // outputs only) or an account-only charge. Nothing to lint.
  if (observed == 0.0) return;
  if (observed < cfg_.cost_min_bytes && declared_bytes_ < cfg_.cost_min_bytes) {
    return;
  }
  const bool under_declared =
      declared_bytes_ <= 0.0 ||
      observed > declared_bytes_ * cfg_.cost_ratio_tol;
  if (under_declared) {
    std::ostringstream os;
    os << "observed " << observed << " bytes of element traffic vs declared "
       << declared_bytes_ << " (tolerance x" << cfg_.cost_ratio_tol << ")";
    add_finding(FindingKind::kCostMismatch, kernel_, os.str());
  }
}

}  // namespace gs::vgpu::check
