#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "lp/standard_form.hpp"
#include "profile/profile.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/phase_setup.hpp"
#include "simplex/solve_frame.hpp"
#include "simplex/solver.hpp"
#include "support/error.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_sink.hpp"

namespace gs::service {

namespace {

/// Bucket ladder for the batch fill-ratio histogram (quarters of a round).
constexpr double kFillBuckets[] = {0.25, 0.5, 0.75, 1.0};

/// Per-request analysis computed once per drain, before routing.
struct Item {
  bool ok = false;          ///< standard form + augmentation succeeded
  bool observed = false;    ///< request carries its own observers/warm seed
  bool batchable = false;   ///< slack-startable and unobserved
  std::size_t m = 0, n_aug = 0;
  std::uint64_t digest = 0;
  Route route = Route::kHost;
  bool served_from_cache = false;
  std::ptrdiff_t job = -1;   ///< index into the drain's job list
  std::size_t lane = 0;      ///< position within the job (batch lane)
  simplex::SolveResult hit_result;  ///< memoized copy for kWarmHit
};

/// One schedulable unit: a batch round or a single solve.
struct Job {
  bool batch = false;
  bool on_device = false;  ///< shares the modelled device timeline
  Route route = Route::kHost;
  std::vector<std::size_t> items;  ///< indices into the drain's item list
  std::vector<std::uint32_t> warm_basis;  ///< kWarmBasis seed (copy)
  std::vector<simplex::SolveResult> results;  ///< one per item
  double sim_seconds = 0.0;  ///< modelled engine time of the whole job
  double start_seconds = 0.0;  ///< modelled start on its timeline
  /// Per-job engine-event collector (service tracing only): each job runs
  /// with a private sink so worker threads never share one, then the drain
  /// thread replays the events onto the shared timelines in scheduling
  /// order — deterministic for any worker count.
  std::unique_ptr<trace::ChromeTraceSink> collect;
  /// Modelled host lane track (a device job's: its continuation track).
  std::uint32_t host_tid = trace::kEngineTid;
};

}  // namespace

SolveService::SolveService(DispatchPolicy policy,
                           metrics::MetricsRegistry* metrics,
                           vgpu::MachineModel device_model,
                           vgpu::MachineModel host_model)
    : policy_(policy),
      metrics_(metrics),
      device_model_(std::move(device_model)),
      host_model_(std::move(host_model)) {}

Ticket SolveService::submit(SolveRequest request) {
  std::lock_guard lock(mutex_);
  Ticket ticket;
  if (request.deadline_seconds <= 0.0) {
    ticket.reason = RejectReason::kDeadlineExpired;
  } else if (pending_.size() >= policy_.queue_capacity) {
    ticket.reason = RejectReason::kQueueFull;
  } else {
    ticket.accepted = true;
    ticket.id = next_id_++;
    pending_.push_back(Pending{ticket.id, std::move(request)});
  }
  if (!ticket.accepted) ++rejected_since_drain_;
  if (metrics_ != nullptr) {
    if (ticket.accepted) {
      metrics_->counter("service.accepted").inc();
    } else {
      metrics_->counter("service.rejected").inc();
      metrics_
          ->counter(std::string("service.rejected.") +
                    std::string(to_string(ticket.reason)))
          .inc();
    }
    metrics_->gauge("service.queue_depth")
        .set(static_cast<double>(pending_.size()));
  }
  return ticket;
}

std::size_t SolveService::queue_depth() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

std::size_t SolveService::warm_cache_size() const {
  std::lock_guard lock(mutex_);
  return cache_.size();
}

const ServiceResult& SolveService::result(std::uint64_t id) const {
  std::lock_guard lock(mutex_);
  const auto it = results_.find(id);
  GS_CHECK_MSG(it != results_.end(),
               "service: unknown or not-yet-drained request id");
  return it->second;
}

void SolveService::drain() {
  std::vector<Pending> work;
  std::uint64_t rejected_before = 0;
  {
    std::lock_guard lock(mutex_);
    work.swap(pending_);
    if (metrics_ != nullptr) metrics_->gauge("service.queue_depth").set(0.0);
    // Rejects since the last drain are attributed to this drain's first
    // telemetry interval; an empty drain leaves them for the next one.
    if (!work.empty()) {
      rejected_before = std::exchange(rejected_since_drain_, 0);
    }
  }
  if (work.empty()) return;

  // ---- Analysis: shape, digest and batchability, in submission order. ----
  std::vector<Item> items(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    const SolveRequest& req = work[i].request;
    Item& it = items[i];
    bool slack_startable = false;
    try {
      const lp::StandardFormLp sf = lp::to_standard_form(req.problem);
      const simplex::AugmentedLp aug = simplex::augment(sf);
      it.m = aug.m;
      it.n_aug = aug.n_aug;
      it.digest = simplex::decision_digest(aug);
      slack_startable = aug.num_artificial == 0;
      it.ok = true;
    } catch (const gs::Error&) {
      it.ok = false;  // malformed request: dispatched cold, fails in-engine
    }
    it.observed = simplex::observed(req.options) ||
                  req.options.warm_basis != nullptr;
    it.batchable = it.ok && slack_startable && !it.observed;
  }

  // ---- Scheduling + dispatch (cache reads need the lock). ----
  std::vector<Job> jobs;
  const bool cache_on = policy_.warm_cache_capacity > 0;
  {
    std::lock_guard lock(mutex_);
    // Exact-digest repeats are served from the memoized result and leave
    // the scheduling problem entirely. Observed requests always run so
    // their per-request observers see a real solve.
    for (Item& it : items) {
      if (!cache_on || !it.ok || it.observed) continue;
      const auto hit =
          std::find_if(cache_.begin(), cache_.end(), [&](const CacheEntry& e) {
            return e.digest == it.digest;
          });
      if (hit == cache_.end()) continue;
      it.route = Route::kWarmHit;
      it.served_from_cache = true;
      it.hit_result = hit->result;
      std::rotate(cache_.begin(), hit, hit + 1);  // refresh LRU
    }

    // Same-shape packing: slack-startable groups of at least
    // batch_min_fill become batch rounds of up to batch_target lanes;
    // the trailing partial round is flushed, not starved.
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
        groups;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].batchable && !items[i].served_from_cache) {
        groups[{items[i].m, items[i].n_aug}].push_back(i);
      }
    }
    for (const auto& [shape, members] : groups) {
      if (members.size() < policy_.batch_min_fill) continue;
      for (std::size_t lo = 0; lo < members.size();
           lo += policy_.batch_target) {
        const std::size_t hi =
            std::min(members.size(), lo + policy_.batch_target);
        Job job;
        job.batch = true;
        job.on_device = true;
        job.route = Route::kBatch;
        job.items.assign(members.begin() + std::ptrdiff_t(lo),
                         members.begin() + std::ptrdiff_t(hi));
        for (std::size_t lane = 0; lane < job.items.size(); ++lane) {
          items[job.items[lane]].job = std::ptrdiff_t(jobs.size());
          items[job.items[lane]].lane = lane;
          items[job.items[lane]].route = Route::kBatch;
        }
        jobs.push_back(std::move(job));
      }
    }

    // Crossover-aware singles, in submission order. A cached optimal
    // basis of the same shape (different digest: a perturbed repeat)
    // routes to the dual engine as a warm start; otherwise the measured
    // crossover decides host vs device.
    for (std::size_t i = 0; i < items.size(); ++i) {
      Item& it = items[i];
      if (it.served_from_cache || it.job >= 0) continue;
      Job job;
      job.items.push_back(i);
      if (cache_on && it.ok && !it.observed) {
        const auto family = std::find_if(
            cache_.begin(), cache_.end(), [&](const CacheEntry& e) {
              return e.m == it.m && e.n_aug == it.n_aug &&
                     e.digest != it.digest && !e.result.basis.empty();
            });
        if (family != cache_.end()) {
          job.route = Route::kWarmBasis;
          job.warm_basis = family->result.basis;
        }
      }
      if (job.route != Route::kWarmBasis) {
        job.route = (it.ok && it.m >= policy_.crossover_m) ? Route::kDevice
                                                           : Route::kHost;
      }
      job.on_device = job.route == Route::kDevice;
      it.job = std::ptrdiff_t(jobs.size());
      it.lane = 0;
      it.route = job.route;
      jobs.push_back(std::move(job));
    }
  }

  // Service-level tracing/profiling: the drain replays engine events and
  // emits per-request span trees into this sink. The profiler (when
  // attached) is interposed over the trace sink and both machine models
  // are bound so the replayed kernel stream classifies correctly.
  trace::TraceSink* obs =
      profile::chain(profiler_, trace_sink_, trace::kDevicePid, device_model_);
  if (profiler_ != nullptr) {
    profiler_->bind_machine(trace::kHostPid, host_model_);
  }

  // ---- Execute. Each job owns a fresh Device / meter, so jobs are
  // independent and the worker count is a pure wall-clock knob. ----
  const auto run_job = [&](Job& job) {
    // Observed requests route their events to their own per-request sink;
    // everything else is collected for the service timelines.
    if (obs != nullptr && !items[job.items.front()].observed) {
      job.collect = std::make_unique<trace::ChromeTraceSink>();
    }
    try {
      if (job.batch) {
        std::vector<lp::LpProblem> round;
        round.reserve(job.items.size());
        for (const std::size_t i : job.items) {
          round.push_back(work[i].request.problem);
        }
        vgpu::Device dev(device_model_);
        // Batchable requests carry no observers; the round runs with the
        // first member's numeric options (tolerances, iteration cap).
        simplex::SolverOptions batch_opt =
            work[job.items.front()].request.options;
        if (job.collect) batch_opt.trace_sink = job.collect.get();
        simplex::BatchRevisedSimplex<double> engine(dev, batch_opt);
        job.results = engine.solve(round);
      } else {
        const Pending& p = work[job.items.front()];
        simplex::SolverOptions opt = p.request.options;
        if (job.collect) opt.trace_sink = job.collect.get();
        if (job.route == Route::kDevice) {
          // Float iterations on the device, finished in double by the host
          // dual engine from the float basis; the whole job is charged to
          // the device timeline.
          job.results.push_back(simplex::solve_float_then_double(
              p.request.problem, opt, device_model_, host_model_));
        } else {
          simplex::Engine engine = simplex::Engine::kHostRevised;
          if (job.route == Route::kWarmBasis) {
            // Perturbed repeats go to the dual engine: a neighbour's
            // optimal basis stays dual feasible under rhs drift, so the
            // re-solve repairs primal feasibility in a few dual pivots
            // instead of re-running phase 1 (the dual engine itself falls
            // back to the primal host engine when the cached basis is
            // rejected).
            opt.warm_basis = &job.warm_basis;
            engine = simplex::Engine::kDualRevised;
          }
          job.results.push_back(simplex::solve(p.request.problem, engine, opt,
                                               device_model_, host_model_));
        }
      }
      job.sim_seconds = job.results.front().stats.sim_seconds;
    } catch (const gs::Error&) {
      // Engine-level failure: every lane reports numerical trouble (the
      // default-constructed status) rather than taking the service down.
      job.results.assign(job.items.size(), simplex::SolveResult{});
      job.sim_seconds = 0.0;
    }
  };
  if (policy_.workers > 1 && jobs.size() > 1) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    const std::size_t n_threads = std::min(policy_.workers, jobs.size());
    pool.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      pool.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= jobs.size()) break;
          run_job(jobs[i]);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  } else {
    for (Job& job : jobs) run_job(job);
  }

  // ---- Modelled timeline: one device, max(1, workers) host lanes,
  // stamped in scheduling order — deterministic for any worker count. ----
  double device_clock = 0.0;
  std::vector<double> host_lanes(std::max<std::size_t>(1, policy_.workers),
                                 0.0);
  // A device-route job's host continuation replays onto its own CPU
  // track, one past the host lanes: device jobs never overlap in time.
  const auto continuation_tid =
      trace::kEngineTid + static_cast<std::uint32_t>(host_lanes.size());
  for (Job& job : jobs) {
    if (job.on_device) {
      job.start_seconds = device_clock;
      job.host_tid = continuation_tid;
      device_clock += job.sim_seconds;
    } else {
      const auto lane =
          std::min_element(host_lanes.begin(), host_lanes.end());
      job.start_seconds = *lane;
      job.host_tid = trace::kEngineTid + static_cast<std::uint32_t>(
                                             lane - host_lanes.begin());
      *lane += job.sim_seconds;
    }
  }
  // The drain's modelled makespan and its start on the epoch clock: both
  // the trace replay and the telemetry sampler place this drain at
  // [epoch, epoch + makespan]; the epoch advances by the makespan whether
  // or not any observer is attached (inert either way — the clock is only
  // read by observers).
  double makespan = device_clock;
  for (const double lane : host_lanes) makespan = std::max(makespan, lane);
  const double epoch = trace_epoch_;
  trace_epoch_ += makespan;

  // ---- Service trace/profile emission (drain thread, scheduling order:
  // deterministic for any worker count). Engine events replay onto the
  // shared modelled timelines at their stamped offsets; every request gets
  // a span tree on its own kServicePid track whose stage slices tile
  // latency_seconds exactly (queued.dur + engine_solve.dur is the same
  // expression that computes the published latency). ----
  if (obs != nullptr) {
    if (!trace_named_) {
      trace_named_ = true;
      trace::Track dev_track(obs, trace::kDevicePid, trace::kEngineTid);
      dev_track.name_process("vgpu: " + device_model_.name);
      dev_track.name_thread("service device timeline");
      for (std::size_t k = 0; k < host_lanes.size(); ++k) {
        trace::Track lane_track(obs, trace::kHostPid,
                                trace::kEngineTid +
                                    static_cast<std::uint32_t>(k));
        lane_track.name_process("cpu: " + host_model_.name);
        lane_track.name_thread("service host lane " + std::to_string(k));
      }
      trace::Track(obs, trace::kHostPid, continuation_tid)
          .name_thread("service device-route continuation");
      trace::Track svc_track(obs, trace::kServicePid, 0);
      svc_track.name_process("service: requests");
    }
    for (Job& job : jobs) {
      if (!job.collect) continue;
      for (const trace::TraceEvent& ev : job.collect->events()) {
        // Track naming is emitted once above; per-job metadata would
        // rename the shared lanes after every job.
        if (ev.phase == trace::EventPhase::kMetadata) continue;
        trace::TraceEvent out = ev;
        out.ts += epoch + job.start_seconds;
        if (out.pid == trace::kHostPid) out.tid = job.host_tid;
        obs->emit(std::move(out));
      }
      job.collect.reset();
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      const std::uint64_t id = work[i].id;
      trace::Track req(obs, trace::kServicePid,
                       static_cast<std::uint32_t>(id));
      req.name_thread("req " + std::to_string(id) + " [" +
                      std::string(to_string(it.route)) + "]");
      double latency = 0.0;
      req.begin("request", epoch, "request",
                {{"id", static_cast<double>(id)}});
      req.instant("admitted", epoch, "request");
      if (it.served_from_cache) {
        req.complete("cache_hit", epoch, 0.0, "stage",
                     {{"latency_seconds", 0.0}});
      } else {
        const Job& job = jobs[std::size_t(it.job)];
        latency = job.start_seconds + job.sim_seconds;
        req.complete("queued", epoch, job.start_seconds, "stage");
        req.instant("dispatched", epoch + job.start_seconds,
                    "request");
        req.complete(
            "engine_solve", epoch + job.start_seconds,
            job.sim_seconds, "stage",
            {{"route", static_cast<double>(static_cast<int>(it.route))},
             {"batch_lanes",
              job.batch ? static_cast<double>(job.items.size()) : 0.0},
             {"queue_seconds", job.start_seconds},
             {"engine_seconds", job.sim_seconds},
             {"latency_seconds", latency}});
      }
      if (latency > work[i].request.deadline_seconds) {
        req.instant("deadline_missed", epoch + latency, "request");
      }
      req.end(epoch + latency);
    }
  }

  // ---- Telemetry sampling (drain thread, derived purely from the
  // modelled timeline stamped above — deterministic for any worker
  // count). The drain's [epoch, epoch + makespan] span is sliced into
  // fixed sample_interval_seconds intervals; each completion lands in the
  // interval containing its latency offset (warm hits at offset zero),
  // in-flight depth counts requests completing in a later interval, and
  // rejects since the last drain are attributed to the first interval. ----
  if (telemetry_ != nullptr) {
    struct Done {
      double latency = 0.0;
      bool missed = false;
      bool warm_lookup = false;
      bool warm_hit = false;
    };
    std::vector<Done> done;
    done.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      Done d;
      if (!it.served_from_cache) {
        const Job& job = jobs[std::size_t(it.job)];
        d.latency = job.start_seconds + job.sim_seconds;
      }
      d.missed = d.latency > work[i].request.deadline_seconds;
      d.warm_lookup = cache_on && it.ok && !it.observed;
      d.warm_hit = it.served_from_cache;
      done.push_back(d);
    }
    const double dt = telemetry_->config().sample_interval_seconds;
    const std::size_t n_samples = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(makespan / dt)));
    const std::span<const double> ladder = metrics::seconds_buckets();
    const auto interval_of = [&](double off) {
      return std::min(n_samples - 1, static_cast<std::size_t>(off / dt));
    };
    for (std::size_t k = 0; k < n_samples; ++k) {
      telemetry::ServiceSample smp;
      smp.t = epoch + (k + 1 == n_samples ? makespan
                                          : static_cast<double>(k + 1) * dt);
      smp.interval_seconds = dt;
      smp.latency_counts.assign(ladder.size() + 1, 0);
      if (k == 0) smp.rejected = rejected_before;
      for (const Done& d : done) {
        const std::size_t idx = interval_of(d.latency);
        if (idx > k) {
          ++smp.inflight;
          continue;
        }
        if (idx < k) continue;
        ++smp.completed;
        if (d.missed) ++smp.deadline_missed;
        // Warm-cache accounting rides the completion's interval (a hit
        // completes instantly, so hits always land in interval 0).
        if (d.warm_lookup) {
          ++smp.warm_lookups;
          if (d.warm_hit) ++smp.warm_hits;
        }
        std::size_t b = 0;
        while (b < ladder.size() && d.latency > ladder[b]) ++b;
        ++smp.latency_counts[b];
        if (smp.completed == 1 || d.latency < smp.latency_min) {
          smp.latency_min = d.latency;
        }
        if (smp.completed == 1 || d.latency > smp.latency_max) {
          smp.latency_max = d.latency;
        }
      }
      telemetry_->observe_service_sample(smp);
    }
    telemetry_->event("drain", epoch + makespan,
                      std::to_string(items.size()) + " request(s)");
  }

  // ---- Publish results, service metrics and warm-cache updates. ----
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& it = items[i];
    ServiceResult sr;
    sr.digest = it.digest;
    sr.route = it.route;
    if (it.served_from_cache) {
      sr.solve = std::move(it.hit_result);
      // A hit performs no solve: the memoized result is returned at zero
      // modelled cost (its stats still describe the original cold solve).
    } else {
      Job& job = jobs[std::size_t(it.job)];
      sr.solve = std::move(job.results[it.lane]);
      sr.batch_lanes = job.batch ? job.items.size() : 0;
      sr.queue_seconds = job.start_seconds;
      sr.engine_seconds = job.sim_seconds;
      sr.latency_seconds = job.start_seconds + job.sim_seconds;
    }
    sr.deadline_missed =
        sr.latency_seconds > work[i].request.deadline_seconds;

    if (metrics_ != nullptr) {
      switch (sr.route) {
        case Route::kHost:
          metrics_->counter("service.dispatch.host").inc();
          break;
        case Route::kDevice:
          metrics_->counter("service.dispatch.device").inc();
          break;
        case Route::kBatch:
          metrics_->counter("service.dispatch.batch").inc();
          break;
        case Route::kWarmHit:
          metrics_->counter("service.warm.hit").inc();
          break;
        case Route::kWarmBasis:
          metrics_->counter("service.dispatch.warm-basis").inc();
          break;
      }
      if (cache_on && it.ok && !it.observed &&
          sr.route != Route::kWarmHit) {
        metrics_->counter("service.warm.miss").inc();
      }
      if (sr.route == Route::kWarmBasis && !sr.solve.stats.warm_started) {
        metrics_->counter("service.warm.fallback").inc();
      }
      if (sr.deadline_missed) {
        metrics_->counter("service.deadline.missed").inc();
      }
      metrics_->histogram("service.queue_seconds", metrics::seconds_buckets())
          .observe(sr.queue_seconds);
      metrics_
          ->histogram("service.latency_seconds", metrics::seconds_buckets())
          .observe(sr.latency_seconds);
    }

    // Every optimal solve (cold or warm-started) refreshes the cache so
    // the next exact repeat is a hit and the next perturbed repeat has a
    // fresh basis to start from.
    if (cache_on && it.ok && !it.served_from_cache && sr.solve.optimal() &&
        !sr.solve.basis.empty()) {
      const auto existing = std::find_if(
          cache_.begin(), cache_.end(),
          [&](const CacheEntry& e) { return e.digest == it.digest; });
      if (existing != cache_.end()) cache_.erase(existing);
      cache_.insert(cache_.begin(),
                    CacheEntry{it.digest, it.m, it.n_aug, sr.solve});
      while (cache_.size() > policy_.warm_cache_capacity) {
        cache_.pop_back();
        if (metrics_ != nullptr) {
          metrics_->counter("service.warm.evict").inc();
        }
      }
    }

    results_[work[i].id] = std::move(sr);
  }
  if (metrics_ != nullptr) {
    for (const Job& job : jobs) {
      if (!job.batch) continue;
      metrics_->counter("service.batch.rounds").inc();
      metrics_->histogram("service.batch.fill", kFillBuckets)
          .observe(double(job.items.size()) /
                   double(std::max<std::size_t>(1, policy_.batch_target)));
    }
  }
  // Registry sampling comes last so the per-drain counter deltas include
  // everything this drain published (still under the lock: submit() may be
  // writing the same registry from other threads).
  if (telemetry_ != nullptr && metrics_ != nullptr) {
    telemetry_->sample_registry(epoch + makespan, *metrics_);
  }
}

}  // namespace gs::service
