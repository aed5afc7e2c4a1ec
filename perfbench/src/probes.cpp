#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "lp/standard_form.hpp"
#include "metrics/metrics.hpp"
#include "profile/profile.hpp"
#include "record/record.hpp"
#include "simplex/basis/explicit_inverse.hpp"
#include "simplex/basis/product_form.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/solver.hpp"
#include "sparse/device_csr.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_sink.hpp"
#include "vblas/blas1.hpp"
#include "vblas/blas2.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/check/check.hpp"
#include "vgpu/primitives.hpp"

namespace perfbench {

namespace {

using gs::vgpu::Device;
using gs::vgpu::DeviceBuffer;

/// Deterministic fill in [0.5, 1.5): probes time the kernels, not data.
std::vector<double> fill(std::size_t n, std::uint64_t salt) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 0.5 + double(mix(salt, i) >> 11) / double(1ULL << 53);
  }
  return v;
}

/// Times `reps` calls of `call` on `dev`, each inside its own span, and
/// records `<name>_us` (median wall per call) and
/// `<name>.wall_per_modeled` (total wall / total modeled).
template <typename F>
void probe_device(Device& dev, std::string_view name, std::string_view layer,
                  std::size_t reps, SpanLog& spans, MetricSet& out, F&& call) {
  std::vector<double> walls;
  const double sim0 = dev.sim_seconds();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto scope = spans.span(name, layer);
    const auto t0 = Clock::now();
    call();
    walls.push_back(since(t0));
  }
  const double modeled = dev.sim_seconds() - sim0;
  out.set(std::string(name) + "_us", median(walls) * 1e6, "us");
  out.set(std::string(name) + ".wall_per_modeled", ratio(sum(walls), modeled),
          "ratio");
}

/// Drives both basis oracles through the same pivot sequence on the crash
/// basis of `aug`: per pivot one FTRAN of an entering structural column,
/// one BTRAN of a cost vector and one update, refactorizing whenever the
/// oracle asks. Each call is a span; modeled time comes from the meters.
void probe_basis(const gs::simplex::AugmentedLp& aug, SpanLog& spans,
                 MetricSet& out) {
  namespace basis = gs::simplex::basis;
  const std::size_t m = aug.m;
  const auto at = aug.csr_at();
  const basis::CsrColumnSource cols(at);
  const gs::simplex::SolverOptions sopt;
  gs::simplex::CostMeter meter_e(gs::vgpu::cpu2009_model());
  gs::simplex::CostMeter meter_p(gs::vgpu::cpu2009_model());
  basis::ExplicitInverseOracle explicit_inv(m, aug.binv_diag, cols, meter_e,
                                            sopt);
  basis::ProductFormOracle product_form(m, aug.basic, cols, meter_p, sopt);

  struct Lane {
    basis::BasisOracle* oracle;
    gs::simplex::CostMeter* meter;
    std::string prefix;
    std::vector<std::uint32_t> basic;
    std::vector<double> ftran, btran, update;
    double wall = 0.0;
  };
  Lane lanes[] = {
      {&explicit_inv, &meter_e, "basis.explicit", aug.basic, {}, {}, {}},
      {&product_form, &meter_p, "basis.product_form", aug.basic, {}, {}, {}}};

  const std::vector<double> cb = fill(m, 7);
  std::vector<double> col(m), alpha(m), pi(m);
  // Columns [0, n - m) are structural; the crash basis holds the slacks.
  for (std::size_t k = 0; k + m < aug.n; ++k) {
    const auto q = static_cast<std::uint32_t>(k);
    std::fill(col.begin(), col.end(), 0.0);
    cols.gather(q, col);
    for (Lane& lane : lanes) {
      const auto timed = [&](const char* call, std::vector<double>& walls,
                             const auto& body) {
        const auto scope = spans.span(lane.prefix + "." + call, "basis");
        const auto t0 = Clock::now();
        body();
        walls.push_back(since(t0));
        lane.wall += walls.back();
      };
      timed("ftran", lane.ftran, [&] { lane.oracle->ftran(col, alpha); });
      timed("btran", lane.btran, [&] { lane.oracle->btran(cb, pi); });
      // Pivot on the largest |alpha| whose row still holds its crash
      // column, so the basis stays nonsingular.
      std::size_t p = m;
      for (std::size_t i = 0; i < m; ++i) {
        if (lane.basic[i] != aug.basic[i]) continue;
        if (p == m || std::abs(alpha[i]) > std::abs(alpha[p])) p = i;
      }
      if (p == m || std::abs(alpha[p]) < 1e-9) continue;
      timed("update", lane.update, [&] { lane.oracle->update(p, alpha); });
      lane.basic[p] = q;
      if (lane.oracle->wants_refactor()) {
        // Untimed per call, but inside the wall/modeled ratio: the meter
        // charges refactorizations too.
        const auto scope = spans.span(lane.prefix + ".refactorize", "basis");
        const auto t0 = Clock::now();
        if (!lane.oracle->refactorize(lane.basic)) {
          throw std::runtime_error(lane.prefix + ": singular refactorization");
        }
        lane.wall += since(t0);
      }
    }
  }
  for (Lane& lane : lanes) {
    out.set(lane.prefix + ".ftran_us", median(lane.ftran) * 1e6, "us");
    out.set(lane.prefix + ".btran_us", median(lane.btran) * 1e6, "us");
    out.set(lane.prefix + ".update_us", median(lane.update) * 1e6, "us");
    out.set(lane.prefix + ".wall_per_modeled",
            ratio(lane.wall, lane.meter->sim_seconds()), "ratio");
  }
}

}  // namespace

void run_layer_probes(const ProbeShapes& shapes, SpanLog& spans,
                      MetricSet& out) {
  Device dev(gs::vgpu::gtx280_model());
  {
    DeviceBuffer<double> v(dev, std::span<const double>(fill(shapes.vector_n, 1)));
    probe_device(dev, "vgpu.argmin", "vgpu", 200, spans, out,
                 [&] { (void)gs::vgpu::argmin(v); });
    probe_device(dev, "vgpu.reduce_sum", "vgpu", 200, spans, out,
                 [&] { (void)gs::vgpu::reduce_sum(v); });
  }
  {
    const std::size_t m = shapes.dense_m;
    gs::vblas::Matrix<double> host(m, m);
    const std::vector<double> vals = fill(m * m, 2);
    std::copy(vals.begin(), vals.end(), host.flat().begin());
    gs::vblas::DeviceMatrix<double> a(dev, host);
    DeviceBuffer<double> x(dev, std::span<const double>(fill(m, 3)));
    DeviceBuffer<double> y(dev, std::span<const double>(fill(m, 4)));
    probe_device(dev, "vblas.gemv", "vblas", 30, spans, out,
                 [&] { gs::vblas::gemv(1.0, a, x, 0.0, y); });
    // alpha tiny keeps A bounded over the repetitions.
    probe_device(dev, "vblas.ger", "vblas", 30, spans, out,
                 [&] { gs::vblas::ger(1e-9, x, y, a); });
  }
  const gs::lp::StandardFormLp sf = gs::lp::to_standard_form(*shapes.sparse);
  const gs::simplex::AugmentedLp aug = gs::simplex::augment(sf);
  {
    const auto at = aug.csr_at();
    gs::sparse::DeviceCsr<double> a(dev, at);
    DeviceBuffer<double> x(dev, std::span<const double>(fill(at.cols(), 5)));
    DeviceBuffer<double> y(dev, at.rows());
    probe_device(dev, "sparse.spmv", "sparse", 200, spans, out,
                 [&] { gs::sparse::spmv(1.0, a, x, 0.0, y); });
  }
  probe_basis(aug, spans, out);
}

void run_obs_probes(std::size_t m, SpanLog& spans, MetricSet& out) {
  const gs::lp::LpProblem problem =
      gs::lp::random_dense_lp({.rows = m, .cols = m, .seed = 512});
  static constexpr const char* kConfigs[] = {
      "none",      "trace",   "metrics",  "recorder", "profiler",
      "telemetry", "checker", "analyzer", "all"};
  constexpr std::size_t kReps = 3;
  std::vector<std::vector<double>> walls(std::size(kConfigs));
  // Round-robin over configurations so slow drift in machine load hits
  // every configuration alike.
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t c = 0; c < std::size(kConfigs); ++c) {
      const std::string cfg = kConfigs[c];
      const bool all = cfg == "all";
      gs::trace::ChromeTraceSink sink;
      gs::metrics::MetricsRegistry registry;
      gs::record::Recorder recorder;
      gs::profile::Profiler profiler;
      gs::telemetry::Telemetry telemetry;
      gs::vgpu::check::Checker checker;
      gs::vgpu::analyze::CaptureLog capture;
      gs::simplex::SolverOptions opt;
      if (all || cfg == "trace") opt.trace_sink = &sink;
      if (all || cfg == "metrics") opt.metrics = &registry;
      if (all || cfg == "recorder") opt.recorder = &recorder;
      if (all || cfg == "profiler") opt.profiler = &profiler;
      if (all || cfg == "telemetry") opt.telemetry = &telemetry;
      if (cfg == "checker") opt.checker = &checker;
      if (cfg == "analyzer") opt.analyzer = &capture;
      const auto scope = spans.span("obs." + cfg + ".solve", "obs");
      const auto t0 = Clock::now();
      const auto r =
          gs::simplex::solve(problem, gs::simplex::Engine::kDeviceRevised, opt);
      walls[c].push_back(since(t0));
      if (!r.optimal()) throw std::runtime_error("observer probe did not solve");
    }
  }
  const double base = median(walls[0]);
  for (std::size_t c = 1; c < std::size(kConfigs); ++c) {
    out.set(std::string("obs.") + kConfigs[c] + ".overhead_frac",
            ratio(median(walls[c]), base) - 1.0, "fraction");
  }
}

}  // namespace perfbench
