#include "profile/profile.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "metrics/metrics.hpp"
#include "metrics/quantile.hpp"
#include "support/table.hpp"

namespace gs::profile {

namespace {

double arg_value(const trace::TraceEvent& e, std::string_view key,
                 double fallback) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  return fallback;
}

bool has_arg(const trace::TraceEvent& e, std::string_view key) {
  for (const auto& [k, _] : e.args) {
    if (k == key) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Profiler: event consumption

void Profiler::emit(trace::TraceEvent event) {
  const std::uint64_t key = track_key(event.pid, event.tid);
  switch (event.phase) {
    case trace::EventPhase::kBegin: {
      Frame f;
      f.name = event.name;
      f.begin_ts = event.ts;
      auto& stack = stacks_[key];
      f.path = stack.empty() ? event.name : stack.back().path + ";" + event.name;
      stack.push_back(std::move(f));
      break;
    }
    case trace::EventPhase::kEnd: {
      auto it = stacks_.find(key);
      if (it != stacks_.end() && !it->second.empty()) {
        Frame top = std::move(it->second.back());
        it->second.pop_back();
        const double dur = event.ts - top.begin_ts;
        auto& agg = phases_[top.name];
        ++agg.count;
        agg.total_seconds += dur;
        double self = dur - top.child_seconds;
        if (self < 0) self = 0;
        agg.self_seconds += self;
        flame_[top.path] += self;
        if (!it->second.empty()) it->second.back().child_seconds += dur;
      }
      break;
    }
    case trace::EventPhase::kComplete:
      on_complete(event);
      break;
    case trace::EventPhase::kInstant:
      if (event.pid == trace::kServicePid && event.name == "deadline_missed") {
        requests_[event.tid].deadline_missed = true;
      }
      break;
    case trace::EventPhase::kMetadata:
      if (event.name == "thread_name") {
        thread_labels_[key] = event.label;
      }
      break;
    case trace::EventPhase::kCounter:
      break;
  }
  if (downstream_ != nullptr) downstream_->emit(std::move(event));
}

void Profiler::on_complete(const trace::TraceEvent& e) {
  if (e.category == "kernel") {
    on_kernel_slice(e);
  } else if (e.category == "transfer") {
    transfer_seconds_[e.pid] += e.dur;
    attribute_child(track_key(e.pid, e.tid), e.name, e.dur);
  } else if (e.category == "stage") {
    on_stage_slice(e);
  } else {
    // Generic slice (e.g. a phase emitted as X): count it as a phase with
    // no nesting information beyond the current stack.
    auto& agg = phases_[e.name];
    ++agg.count;
    agg.total_seconds += e.dur;
    agg.self_seconds += e.dur;
    const std::string path =
        attribute_child(track_key(e.pid, e.tid), e.name, e.dur);
    flame_[path] += e.dur;
  }
}

void Profiler::on_kernel_slice(const trace::TraceEvent& e) {
  // The accumulation below folds the same `dur` doubles, in the same
  // emission order, as vgpu::Ledger::kernel folds into
  // DeviceStats::kernel_seconds / per_kernel sim_seconds — which is what
  // makes report() bit-exact against DeviceStats for a single-engine run.
  kernel_seconds_[e.pid] += e.dur;
  auto& agg = kernels_[e.pid][e.name];
  ++agg.calls;
  agg.seconds += e.dur;
  const double flops = arg_value(e, "flops", 0.0);
  const double bytes = arg_value(e, "bytes", 0.0);
  agg.flops += flops;
  agg.bytes += bytes;
  const auto threads = static_cast<std::size_t>(arg_value(e, "threads", 0.0));
  if (has_arg(e, "scalar_bytes")) {
    agg.scalar_bytes =
        static_cast<std::size_t>(arg_value(e, "scalar_bytes", 8.0));
  }
  auto mit = machines_.find(e.pid);
  if (mit != machines_.end()) {
    // The roofline terms of this launch, as MachineModel::kernel_seconds
    // composed them.
    const vgpu::MachineModel& m = mit->second;
    const vgpu::MachineModel::LaunchTerms t = m.launch_terms(
        flops, bytes, threads, agg.scalar_bytes,
        static_cast<std::size_t>(arg_value(e, "dependent_steps", 0.0)));
    // Dependent steps are latency, not work: they join the launch term.
    const double t_latency = m.launch_overhead_s + t.steps;
    agg.launch_seconds += t_latency;
    agg.compute_seconds += t.compute;
    agg.memory_seconds += t.memory;
    BoundClass cls;
    if (t_latency >= std::max(t.compute, t.memory)) {
      cls = BoundClass::kLaunch;
    } else if (t.memory >= t.compute) {
      cls = BoundClass::kBandwidth;
    } else {
      cls = BoundClass::kCompute;
    }
    agg.class_seconds[static_cast<std::size_t>(cls)] += e.dur;
  }
  const std::string path =
      attribute_child(track_key(e.pid, e.tid), e.name, e.dur);
  flame_[path] += e.dur;
}

void Profiler::on_stage_slice(const trace::TraceEvent& e) {
  auto& sagg = stages_[e.name];
  ++sagg.count;
  sagg.seconds += e.dur;
  auto& req = requests_[e.tid];
  req.stages.emplace_back(e.name, e.dur);
  req.stage_sum += e.dur;
  if (has_arg(e, "latency_seconds")) {
    req.latency_seconds = arg_value(e, "latency_seconds", 0.0);
    req.has_latency = true;
  }
  const std::string path =
      attribute_child(track_key(e.pid, e.tid), e.name, e.dur);
  flame_[path] += e.dur;
}

std::string Profiler::attribute_child(std::uint64_t key, std::string_view name,
                                      double dur) {
  auto it = stacks_.find(key);
  if (it != stacks_.end() && !it->second.empty()) {
    Frame& top = it->second.back();
    top.child_seconds += dur;
    return top.path + ";" + std::string(name);
  }
  return std::string(name);
}

void Profiler::clear() {
  kernels_.clear();
  kernel_seconds_.clear();
  transfer_seconds_.clear();
  phases_.clear();
  stages_.clear();
  requests_.clear();
  thread_labels_.clear();
  stacks_.clear();
  flame_.clear();
}

// ---------------------------------------------------------------------------
// Report assembly

ProfileReport Profiler::report() const {
  ProfileReport r;
  double launch_bound = 0.0, kernel_total = 0.0;
  for (const auto& [pid, by_name] : kernels_) {
    const auto mit = machines_.find(pid);
    for (const auto& [name, agg] : by_name) {
      KernelProfile k;
      k.name = name;
      k.pid = pid;
      k.calls = agg.calls;
      k.seconds = agg.seconds;
      k.flops = agg.flops;
      k.bytes = agg.bytes;
      k.launch_seconds = agg.launch_seconds;
      k.compute_seconds = agg.compute_seconds;
      k.memory_seconds = agg.memory_seconds;
      if (agg.seconds > 0) {
        k.achieved_gflops = agg.flops / agg.seconds / 1e9;
        k.achieved_gbps = agg.bytes / agg.seconds / 1e9;
      }
      if (mit != machines_.end()) {
        const vgpu::MachineModel& m = mit->second;
        const double peak = m.peak_gflops(agg.scalar_bytes);
        if (peak > 0) k.compute_fraction = k.achieved_gflops / peak;
        if (m.mem_gbps > 0) k.bandwidth_fraction = k.achieved_gbps / m.mem_gbps;
      }
      // Bound class of the kernel = the class its launches spent the most
      // modeled time in; ties resolve launch > bandwidth > compute (the
      // order cheapest to fix ranks first).
      std::size_t best = 0;
      for (std::size_t c = 1; c < 3; ++c) {
        if (agg.class_seconds[c] > agg.class_seconds[best]) best = c;
      }
      k.bound = static_cast<BoundClass>(best);
      launch_bound +=
          agg.class_seconds[static_cast<std::size_t>(BoundClass::kLaunch)];
      kernel_total += agg.seconds;
      r.kernels.push_back(std::move(k));
    }
  }
  std::stable_sort(r.kernels.begin(), r.kernels.end(),
                   [](const KernelProfile& a, const KernelProfile& b) {
                     if (a.seconds != b.seconds) return a.seconds > b.seconds;
                     return a.name < b.name;
                   });
  if (kernel_total > 0) r.launch_bound_fraction = launch_bound / kernel_total;

  for (const auto& [name, agg] : phases_) {
    r.phases.push_back({name, agg.count, agg.total_seconds, agg.self_seconds});
  }
  std::stable_sort(r.phases.begin(), r.phases.end(),
                   [](const PhaseProfile& a, const PhaseProfile& b) {
                     if (a.total_seconds != b.total_seconds) {
                       return a.total_seconds > b.total_seconds;
                     }
                     return a.name < b.name;
                   });

  for (const auto& [name, agg] : stages_) {
    r.stages.push_back({name, agg.count, agg.seconds});
  }

  for (const auto& [tid, agg] : requests_) {
    RequestProfile q;
    q.tid = tid;
    const auto lit =
        thread_labels_.find(track_key(trace::kServicePid, tid));
    if (lit != thread_labels_.end()) q.label = lit->second;
    q.stages = agg.stages;
    q.stage_sum = agg.stage_sum;
    q.latency_seconds = agg.latency_seconds;
    q.has_latency = agg.has_latency;
    q.deadline_missed = agg.deadline_missed;
    r.requests.push_back(std::move(q));
  }

  r.flamegraph.assign(flame_.begin(), flame_.end());
  r.kernel_seconds_by_pid = kernel_seconds_;
  r.transfer_seconds_by_pid = transfer_seconds_;
  return r;
}

// ---------------------------------------------------------------------------
// ProfileReport queries

double ProfileReport::kernel_seconds() const noexcept {
  double total = 0.0;
  for (const auto& [_, s] : kernel_seconds_by_pid) total += s;
  return total;
}

double ProfileReport::transfer_seconds() const noexcept {
  double total = 0.0;
  for (const auto& [_, s] : transfer_seconds_by_pid) total += s;
  return total;
}

const KernelProfile* ProfileReport::find_kernel(
    std::string_view name) const noexcept {
  for (const KernelProfile& k : kernels) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

double ProfileReport::max_stage_tiling_error() const noexcept {
  double worst = 0.0;
  for (const RequestProfile& q : requests) {
    worst = std::max(worst, q.tiling_error());
  }
  return worst;
}

RequestSummary ProfileReport::request_summary() const {
  RequestSummary s;
  s.count = requests.size();
  if (requests.empty()) return s;
  // Sort request indices by latency; percentile ranks are the shared
  // nearest-rank ones (metrics::quantile_rank), as in bench/svc_common.hpp,
  // so --profile output matches the service bench's reported p50/p99.
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return requests[a].latency_seconds <
                            requests[b].latency_seconds;
                   });
  const RequestProfile& q50 =
      requests[order[metrics::quantile_rank(order.size(), 0.5)]];
  const RequestProfile& q99 =
      requests[order[metrics::quantile_rank(order.size(), 0.99)]];
  s.p50_seconds = q50.latency_seconds;
  s.p99_seconds = q99.latency_seconds;
  s.p50_stages = q50.stages;
  s.p99_stages = q99.stages;
  return s;
}

// ---------------------------------------------------------------------------
// Exports

std::string ProfileReport::table(std::size_t top_n) const {
  const double total = kernel_seconds();
  Table t({"kernel", "pid", "calls", "ms", "share", "gflops", "gbps",
           "peak_c", "peak_b", "bound"});
  std::size_t shown = 0;
  for (const KernelProfile& k : kernels) {
    if (shown++ == top_n) break;
    t.new_row()
        .add(k.name)
        .add(static_cast<long>(k.pid))
        .add(k.calls)
        .add(k.seconds * 1e3)
        .add(total > 0 ? k.seconds / total : 0.0)
        .add(k.achieved_gflops)
        .add(k.achieved_gbps)
        .add(k.compute_fraction)
        .add(k.bandwidth_fraction)
        .add(std::string(to_string(k.bound)));
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

std::string ProfileReport::flamegraph_text() const {
  std::string out;
  for (const auto& [path, seconds] : flamegraph) {
    out += path;
    out += ' ';
    out += std::to_string(std::llround(seconds * 1e9));
    out += '\n';
  }
  return out;
}

std::string ProfileReport::to_json() const {
  using metrics::json_write_number;
  using metrics::json_write_string;
  std::string out;
  out += "{\n  \"schema\": \"gs-profile-v1\",\n";

  out += "  \"totals\": {\n    \"kernel_seconds\": ";
  json_write_number(out, kernel_seconds());
  out += ",\n    \"transfer_seconds\": ";
  json_write_number(out, transfer_seconds());
  out += ",\n    \"launch_bound_fraction\": ";
  json_write_number(out, launch_bound_fraction);
  out += ",\n    \"kernel_seconds_by_pid\": {";
  bool first = true;
  for (const auto& [pid, s] : kernel_seconds_by_pid) {
    if (!first) out += ", ";
    first = false;
    json_write_string(out, std::to_string(pid));
    out += ": ";
    json_write_number(out, s);
  }
  out += "}\n  },\n";

  out += "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelProfile& k = kernels[i];
    out += "    {\"name\": ";
    json_write_string(out, k.name);
    out += ", \"pid\": " + std::to_string(k.pid);
    out += ", \"calls\": " + std::to_string(k.calls);
    out += ", \"seconds\": ";
    json_write_number(out, k.seconds);
    out += ", \"flops\": ";
    json_write_number(out, k.flops);
    out += ", \"bytes\": ";
    json_write_number(out, k.bytes);
    out += ", \"launch_seconds\": ";
    json_write_number(out, k.launch_seconds);
    out += ", \"compute_seconds\": ";
    json_write_number(out, k.compute_seconds);
    out += ", \"memory_seconds\": ";
    json_write_number(out, k.memory_seconds);
    out += ", \"achieved_gflops\": ";
    json_write_number(out, k.achieved_gflops);
    out += ", \"achieved_gbps\": ";
    json_write_number(out, k.achieved_gbps);
    out += ", \"compute_fraction\": ";
    json_write_number(out, k.compute_fraction);
    out += ", \"bandwidth_fraction\": ";
    json_write_number(out, k.bandwidth_fraction);
    out += ", \"bound\": ";
    json_write_string(out, to_string(k.bound));
    out += i + 1 < kernels.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";

  out += "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseProfile& p = phases[i];
    out += "    {\"name\": ";
    json_write_string(out, p.name);
    out += ", \"count\": " + std::to_string(p.count);
    out += ", \"total_seconds\": ";
    json_write_number(out, p.total_seconds);
    out += ", \"self_seconds\": ";
    json_write_number(out, p.self_seconds);
    out += i + 1 < phases.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";

  out += "  \"stages\": [\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageProfile& s = stages[i];
    out += "    {\"name\": ";
    json_write_string(out, s.name);
    out += ", \"count\": " + std::to_string(s.count);
    out += ", \"seconds\": ";
    json_write_number(out, s.seconds);
    out += i + 1 < stages.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";

  const RequestSummary rs = request_summary();
  out += "  \"requests\": {\n    \"count\": " + std::to_string(rs.count);
  out += ",\n    \"max_tiling_error\": ";
  json_write_number(out, max_stage_tiling_error());
  out += ",\n    \"p50_seconds\": ";
  json_write_number(out, rs.p50_seconds);
  out += ",\n    \"p99_seconds\": ";
  json_write_number(out, rs.p99_seconds);
  auto write_stages =
      [&out](const std::vector<std::pair<std::string, double>>& st) {
        out += "{";
        for (std::size_t i = 0; i < st.size(); ++i) {
          if (i) out += ", ";
          json_write_string(out, st[i].first);
          out += ": ";
          json_write_number(out, st[i].second);
        }
        out += "}";
      };
  out += ",\n    \"p50_stages\": ";
  write_stages(rs.p50_stages);
  out += ",\n    \"p99_stages\": ";
  write_stages(rs.p99_stages);
  out += ",\n    \"per_request\": [\n";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestProfile& q = requests[i];
    out += "      {\"tid\": " + std::to_string(q.tid);
    if (!q.label.empty()) {
      out += ", \"label\": ";
      json_write_string(out, q.label);
    }
    out += ", \"latency_seconds\": ";
    json_write_number(out, q.latency_seconds);
    out += ", \"stage_sum\": ";
    json_write_number(out, q.stage_sum);
    out += ", \"deadline_missed\": ";
    out += q.deadline_missed ? "true" : "false";
    out += ", \"stages\": ";
    write_stages(q.stages);
    out += i + 1 < requests.size() ? "},\n" : "}\n";
  }
  out += "    ]\n  },\n";

  out += "  \"flamegraph\": [\n";
  for (std::size_t i = 0; i < flamegraph.size(); ++i) {
    out += "    {\"stack\": ";
    json_write_string(out, flamegraph[i].first);
    out += ", \"seconds\": ";
    json_write_number(out, flamegraph[i].second);
    out += i + 1 < flamegraph.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace gs::profile
