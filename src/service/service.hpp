// SolveService: the multi-tenant front end that turns four engines into
// one system (SERVICE.md).
//
//   submit() --> [bounded admission queue] --> drain():
//     scheduler   groups same-shape slack-startable requests into
//                 batch-engine rounds (up to DispatchPolicy::batch_target
//                 lanes; partial rounds are flushed, never starved),
//     dispatcher  routes the rest by the measured GPU/CPU crossover
//                 (m < crossover_m => host engine, else the device route:
//                 float device iterations finished in double by the host
//                 dual engine, simplex::solve_float_then_double),
//     warm cache  serves exact repeats (same decision digest) from the
//                 memoized optimal result and seeds perturbed repeats
//                 (same shape, different digest) with the prior optimal
//                 basis via SolverOptions::warm_basis, dispatched to the
//                 dual revised engine (a cached optimal basis stays dual
//                 feasible under rhs perturbation, so the re-solve skips
//                 phase 1 entirely).
//
// The service is drain-driven: requests are admitted at any time from any
// thread; drain() processes everything admitted so far and blocks until
// every result is available. DispatchPolicy::workers parallelizes the
// wall-clock execution of a drain's jobs, but every modelled quantity —
// pivot sequences, solutions, per-request latencies, metrics counters —
// depends only on the admitted request sequence, so results are
// bit-identical for any worker count (tests/test_service.cpp).
//
// Modelled latency: batch rounds and device singles (their host
// continuation included) are serialized on one modelled device timeline
// (one GPU, jobs in scheduling order); host singles run on
// max(1, workers) modelled host lanes (least-loaded-lane assignment in
// scheduling order). A request's latency_seconds is its
// queue wait plus its job's modelled engine time — the numbers behind the
// service bench's p50/p99 (bench/svc_traffic.cpp).
//
// Observability composes per request: a request may carry its own
// recorder/trace sink/metrics registry in SolveRequest::options, in which
// case it is dispatched as a single solve (never batched, never served
// from the cache) so the attached observers see exactly one engine run —
// one recorder per request (OBSERVABILITY.md). The registry passed to the
// service constructor is the service's own (queue/dispatch/cache/latency
// metrics) and is never attached to engines; null keeps the service
// metrics-free like every other layer.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "lp/problem.hpp"
#include "metrics/metrics.hpp"
#include "service/policy.hpp"
#include "simplex/types.hpp"
#include "trace/trace.hpp"
#include "vgpu/machine_model.hpp"

namespace gs::profile {
class Profiler;
}  // namespace gs::profile

namespace gs::telemetry {
class Telemetry;
}  // namespace gs::telemetry

namespace gs::service {

/// Why submit() refused a request.
enum class RejectReason : std::uint8_t {
  kNone,             ///< accepted
  kQueueFull,        ///< pending depth reached DispatchPolicy::queue_capacity
  kDeadlineExpired,  ///< deadline_seconds <= 0 at submission
};

[[nodiscard]] constexpr std::string_view to_string(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kDeadlineExpired: return "deadline-expired";
  }
  return "?";
}

/// How the dispatcher served a request.
enum class Route : std::uint8_t {
  kHost,       ///< single solve, host engine (m below the crossover)
  kDevice,     ///< single solve, device engine (m at/above the crossover)
  kBatch,      ///< lane of a batch-engine round
  kWarmHit,    ///< exact digest repeat: memoized result, no solve ran
  kWarmBasis,  ///< perturbed repeat: dual engine warm-started from a
               ///< cached optimal basis (dual feasible under rhs drift)
};

[[nodiscard]] constexpr std::string_view to_string(Route r) noexcept {
  switch (r) {
    case Route::kHost: return "host";
    case Route::kDevice: return "device";
    case Route::kBatch: return "batch";
    case Route::kWarmHit: return "warm-hit";
    case Route::kWarmBasis: return "warm-basis";
  }
  return "?";
}

/// One unit of tenant work: a problem, per-request solver options (the
/// observability pointers compose per request), and a latency budget in
/// modelled seconds measured from admission.
struct SolveRequest {
  lp::LpProblem problem;
  simplex::SolverOptions options = {};
  double deadline_seconds = std::numeric_limits<double>::infinity();
};

/// Admission outcome. `id` is valid iff accepted; pass it to result()
/// after the next drain().
struct Ticket {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  std::uint64_t id = 0;
};

/// A completed request: the engine result plus how it was served and the
/// modelled service-level timings.
struct ServiceResult {
  simplex::SolveResult solve;
  Route route = Route::kHost;
  std::size_t batch_lanes = 0;   ///< round width when route == kBatch
  std::uint64_t digest = 0;      ///< decision digest (the warm-cache key)
  double queue_seconds = 0.0;    ///< modelled wait before the job started
  double engine_seconds = 0.0;   ///< modelled time of the request's job
  double latency_seconds = 0.0;  ///< queue_seconds + engine_seconds
  bool deadline_missed = false;  ///< latency exceeded the request deadline
};

class SolveService {
 public:
  explicit SolveService(
      DispatchPolicy policy = {}, metrics::MetricsRegistry* metrics = nullptr,
      vgpu::MachineModel device_model = vgpu::gtx280_model(),
      vgpu::MachineModel host_model = vgpu::cpu2009_model());

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admission control: bounded queue depth, reject-with-reason. Thread
  /// safe; O(1).
  [[nodiscard]] Ticket submit(SolveRequest request);

  /// Schedule, dispatch and execute every admitted request; blocks until
  /// all their results are available via result(). Call from one thread
  /// at a time.
  void drain();

  /// Completed result for an accepted ticket id. Throws gs::Error if the
  /// request has not been drained yet.
  [[nodiscard]] const ServiceResult& result(std::uint64_t id) const;

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const DispatchPolicy& policy() const noexcept {
    return policy_;
  }
  /// Warm-cache occupancy (entries currently held).
  [[nodiscard]] std::size_t warm_cache_size() const;

  /// Attach a service-level trace sink (OBSERVABILITY.md). While attached,
  /// drain() replays every unobserved job's engine events onto the shared
  /// modelled timelines (one device track, one host track per lane, named
  /// via process_name/thread_name metadata) and emits a span tree per
  /// request on its own `kServicePid` track: admitted -> queued ->
  /// dispatched -> engine_solve (or cache_hit), with the stage slices
  /// tiling `ServiceResult::latency_seconds` exactly. Timestamps continue
  /// across drains (each drain advances the epoch by its makespan). Null
  /// (the default) disables service tracing; results and latencies are
  /// bit-identical either way. Borrowed, not owned.
  void set_trace(trace::TraceSink* sink) noexcept { trace_sink_ = sink; }

  /// Attach a roofline profiler (OBSERVABILITY.md, "Profiler"). The
  /// profiler is interposed over any `set_trace` sink and consumes the
  /// same replayed stream, so per-request stage attribution (p50/p99
  /// decomposition, the 1e-9 tiling gate) and per-kernel roofline
  /// aggregates come from one source of truth. Null (the default)
  /// disables profiling; bit-identical either way. Borrowed, not owned.
  void set_profiler(profile::Profiler* profiler) noexcept {
    profiler_ = profiler;
  }

  /// Attach a time-series telemetry pipeline (OBSERVABILITY.md, "Telemetry
  /// & SLOs"). While attached, drain() slices its modelled makespan into
  /// fixed `kSampleIntervalSeconds` intervals on the epoch clock and
  /// emits one ServiceSample per interval — completions, deadline misses,
  /// rejects, in-flight depth, warm-cache lookups and a latency histogram
  /// — feeding the service.* series and, when an SLO spec is attached,
  /// the burn-rate alert engine. Everything is derived from the modelled
  /// timeline, so the series are byte-identical for any worker count, and
  /// results/latencies are bit-identical with and without the sink, the
  /// same guarantee set_trace gives. Borrowed, not owned.
  void set_telemetry(telemetry::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

 private:
  struct Pending {
    std::uint64_t id = 0;
    SolveRequest request;
  };

  /// LRU entry: the memoized optimal result of one solved digest.
  struct CacheEntry {
    std::uint64_t digest = 0;
    std::size_t m = 0, n_aug = 0;
    simplex::SolveResult result;
  };

  DispatchPolicy policy_;
  metrics::MetricsRegistry* metrics_ = nullptr;  // borrowed; may be null
  trace::TraceSink* trace_sink_ = nullptr;       // borrowed; may be null
  profile::Profiler* profiler_ = nullptr;        // borrowed; may be null
  telemetry::Telemetry* telemetry_ = nullptr;    // borrowed; may be null
  bool trace_named_ = false;   // track-naming metadata emitted once
  double trace_epoch_ = 0.0;   // modelled start of the next drain
  std::uint64_t rejected_since_drain_ = 0;  // submit() rejects, under mutex_
  vgpu::MachineModel device_model_;
  vgpu::MachineModel host_model_;

  mutable std::mutex mutex_;  // queue, results, cache, metrics writes
  std::vector<Pending> pending_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, ServiceResult> results_;
  std::vector<CacheEntry> cache_;  // front = most recently used
};

}  // namespace gs::service
