#include "bench.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "metrics/quantile.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return gs::metrics::quantile_sorted(v, q);
}

void MetricSet::set(std::string_view name, double value,
                    std::string_view unit) {
  for (Item& it : items_) {
    if (it.name == name) {
      it.value = value;
      it.unit = unit;
      return;
    }
  }
  items_.push_back({std::string(name), value, std::string(unit)});
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

SpanLog::Scope SpanLog::span(std::string_view name, std::string_view layer,
                             std::uint64_t request) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<std::ptrdiff_t>(spans_.size()) - 1);
  return Scope(this, open_.back());
}

void SpanLog::close(std::ptrdiff_t index) {
  spans_[static_cast<std::size_t>(index)].end = now_ns();
  open_.pop_back();
}

std::map<std::string, std::int64_t> SpanLog::self_ns_by_layer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[std::size_t(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += self[i];
  }
  return out;
}

std::int64_t SpanLog::root_ns() const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end - s.start;
  }
  return total;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"layer\":\"" << s.layer
        << "\",\"request\":" << s.request << ",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << "}\n";
  }
}

Check verify(const gs::lp::LpProblem& problem,
             const gs::simplex::SolveResult& got,
             const gs::simplex::SolveResult& ref) {
  using gs::simplex::SolveStatus;
  using gs::simplex::to_string;
  if (!ref.optimal()) {
    return {Verdict::kWrong,
            "reference did not solve: " + std::string(to_string(ref.status))};
  }
  switch (got.status) {
    case SolveStatus::kIterationLimit:
    case SolveStatus::kNumericalTrouble:
      return {Verdict::kFailed, std::string(to_string(got.status))};
    case SolveStatus::kInfeasible:
    case SolveStatus::kUnbounded:
      return {Verdict::kWrong, "status " + std::string(to_string(got.status)) +
                                   " but the reference is optimal"};
    case SolveStatus::kOptimal:
      break;
  }
  const double tol = 1e-6 * std::max(1.0, std::abs(ref.objective));
  if (std::abs(got.objective - ref.objective) > tol) {
    return {Verdict::kWrong, "objective " + std::to_string(got.objective) +
                                 " != reference " +
                                 std::to_string(ref.objective)};
  }
  if (!problem.is_feasible(got.x)) {
    return {Verdict::kWrong, "reported optimal point is infeasible"};
  }
  if (std::abs(problem.objective_value(got.x) - got.objective) > tol) {
    return {Verdict::kWrong, "objective does not match the reported point"};
  }
  return {};
}

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

bool bit_identical(const gs::simplex::SolveResult& a,
                   const gs::simplex::SolveResult& b) {
  return a.status == b.status &&
         std::memcmp(&a.objective, &b.objective, sizeof(double)) == 0 &&
         same_bits(a.x, b.x) && same_bits(a.y, b.y) && a.basis == b.basis;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"bench.wall_ops_per_s", "1/s"},
        {"bench.wall_ms_p50", "ms"},
        {"lp.generate_ms", "ms"},
        {"lp.standard_form_us", "us"},
        {"vgpu.launches_per_solve", "count"},
        {"vgpu.launch_bound_frac", "fraction"},
        {"vgpu.kernel_modeled_ms", "ms"},
        {"vgpu.transfer_modeled_ms", "ms"},
        {"vgpu.h2d_bytes", "bytes"},
        {"vgpu.d2h_bytes", "bytes"},
        {"vgpu.bw_frac", "fraction"},
        {"vgpu.wall_per_modeled", "ratio"},
        {"vgpu.kernel.top1.share", "fraction"},
        {"vgpu.kernel.top2.share", "fraction"},
        {"vgpu.kernel.top3.share", "fraction"},
        {"vgpu.argmin_us", "us"},
        {"vgpu.argmin.wall_per_modeled", "ratio"},
        {"vgpu.reduce_sum_us", "us"},
        {"vgpu.reduce_sum.wall_per_modeled", "ratio"},
        {"vblas.gemv_us", "us"},
        {"vblas.gemv.wall_per_modeled", "ratio"},
        {"vblas.ger_us", "us"},
        {"vblas.ger.wall_per_modeled", "ratio"},
        {"sparse.spmv_us", "us"},
        {"sparse.spmv.wall_per_modeled", "ratio"},
        {"simplex.iterations_p50", "count"},
        {"simplex.phase1_iterations", "count"},
        {"simplex.wall_per_iter_us", "us"},
    };
    for (const char* op : {"price", "ftran", "ratio", "update", "refactor"}) {
      c.emplace_back(std::string("simplex.op.") + op + ".share", "fraction");
    }
    c.emplace_back("basis.eta_count", "count");
    c.emplace_back("basis.refactor_count", "count");
    for (const char* oracle : {"explicit", "product_form"}) {
      for (const char* call : {"ftran", "btran", "update"}) {
        c.emplace_back(std::string("basis.") + oracle + "." + call + "_us",
                       "us");
      }
      c.emplace_back(std::string("basis.") + oracle + ".wall_per_modeled",
                     "ratio");
    }
    c.emplace_back("service.submit_us", "us");
    c.emplace_back("service.drain_ms", "ms");
    c.emplace_back("service.overhead_frac", "fraction");
    for (const char* route :
         {"host", "device", "batch", "warm_hit", "warm_basis", "observed"}) {
      c.emplace_back(std::string("service.route.") + route + ".share",
                     "fraction");
    }
    c.emplace_back("service.batch_fill", "fraction");
    c.emplace_back("service.warm_hit_ratio", "fraction");
    c.emplace_back("service.warm_basis_ok_ratio", "fraction");
    for (const char* q : {"queue_ms_p50", "queue_ms_p99", "engine_ms_p50",
                          "engine_ms_p99"}) {
      c.emplace_back(std::string("service.") + q, "ms");
    }
    for (const char* o : {"trace", "metrics", "recorder", "profiler",
                          "telemetry", "checker", "analyzer", "all"}) {
      c.emplace_back(std::string("obs.") + o + ".overhead_frac", "fraction");
    }
    c.emplace_back("bench.trace_overhead_frac", "fraction");
    c.emplace_back("error_rate", "fraction");
    return c;
  }();
  return kCatalog;
}

}  // namespace perfbench
