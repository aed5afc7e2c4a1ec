// Shared scaffolding of the two-clock benchmark: options, metric sets,
// quantiles, the benchmark's own span log, and answer verification.
//
// Everything here sits outside the library: the benchmark times calls
// into public functions and reads the results and stats they return.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lp/problem.hpp"
#include "simplex/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall seconds elapsed since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed-region length (whole passes, at least one)
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  /// Self-check hooks: "negate-objective" flips the sign of one primary
  /// objective before verification (must be caught as a wrong answer);
  /// "iteration-limit" relabels one primary result as an iteration-limit
  /// stall (must be counted as a failure).
  std::string doctor;
  bool small = false;     ///< shrunken shapes for the benchmark's own tests
  std::string spans_out;  ///< traced run: write the span log here
};

/// SplitMix64 finalizer: derives independent generator seeds from the
/// workload seed and an instance coordinate.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                                       std::uint64_t b = 0) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
                    b * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) | 1;
}

/// Nearest-rank quantile (the library's metrics::quantile_rank rule).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}
[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Ordered name -> (value, unit) set; set() overwrites an existing name.
class MetricSet {
 public:
  struct Item {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(std::string_view name, double value, std::string_view unit);
  [[nodiscard]] const std::vector<Item>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<Item> items_;
};

/// The benchmark's own spans, one per call into a library layer. Each span
/// has a name, a layer, start/end (steady-clock ns from the log's start), a
/// parent and a request id. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(SpanLog* log, std::ptrdiff_t index) : log_(log), index_(index) {}
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::ptrdiff_t index_;
  };

  [[nodiscard]] Scope span(std::string_view name, std::string_view layer,
                           std::uint64_t request = 0);

  /// Self time per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, std::int64_t> self_ns_by_layer() const;
  /// Summed duration of the top-level spans.
  [[nodiscard]] std::int64_t root_ns() const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name, layer;
    std::int64_t start = 0, end = 0;
    std::ptrdiff_t parent = -1;
    std::uint64_t request = 0;
  };
  [[nodiscard]] std::int64_t now_ns() const;
  void close(std::ptrdiff_t index);

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::ptrdiff_t> open_;
};

/// Outcome of checking one answer against the host reference.
enum class Verdict { kOk, kFailed, kWrong };

struct Check {
  Verdict verdict = Verdict::kOk;
  std::string why;
};

/// Check `got` against `ref` (a host revised-simplex solve of the same,
/// feasible and bounded, instance). A definite verdict (optimal,
/// infeasible, unbounded) that disagrees with the reference, or an optimal
/// point that is infeasible or whose objective is inconsistent, is wrong;
/// a result without a verdict (iteration limit, numerical trouble) is a
/// failure.
[[nodiscard]] Check verify(const gs::lp::LpProblem& problem,
                           const gs::simplex::SolveResult& got,
                           const gs::simplex::SolveResult& ref);

/// True iff two results are bit-identical (status, objective, x, y, basis).
[[nodiscard]] bool bit_identical(const gs::simplex::SolveResult& a,
                                 const gs::simplex::SolveResult& b);

/// The per-layer metric names every traced run reports, in output order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog();

/// Outcome of one workload run.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> wrong;  ///< one line per wrong answer
  MetricSet end_to_end;
  MetricSet per_layer;
};

}  // namespace perfbench
