#include "telemetry/telemetry.hpp"

#include <cctype>
#include <fstream>

#include "metrics/quantile.hpp"
#include "support/error.hpp"

namespace gs::telemetry {

void Telemetry::record(std::string_view series, double t, double v) {
  auto it = series_.find(series);
  if (it == series_.end()) {
    it = series_.emplace(std::string(series), Series(kSeriesCapacity))
             .first;
  }
  it->second.record(t + time_offset_, v);
}

void Telemetry::event(std::string_view name, double t, std::string detail) {
  if (events_.size() >= kEventCapacity) {
    ++events_dropped_;
    return;
  }
  events_.push_back(
      {t + time_offset_, std::string(name), std::move(detail)});
}

void Telemetry::sample_registry(double t,
                                const metrics::MetricsRegistry& registry) {
  auto snap = registry.snapshot();
  const metrics::MetricsSnapshot delta =
      last_registry_ ? snap.diff(*last_registry_) : snap;
  for (const auto& [name, value] : delta.counters) {
    record(std::string("registry.") + name, t, value);
  }
  for (const auto& [name, g] : delta.gauges) {
    record(std::string("registry.") + name, t, g.value);
  }
  last_registry_.emplace(std::move(snap));
}

void Telemetry::observe_service_sample(const ServiceSample& sample) {
  const double t = sample.t;
  record("service.completed", t, static_cast<double>(sample.completed));
  record("service.deadline_missed", t,
         static_cast<double>(sample.deadline_missed));
  record("service.rejected", t, static_cast<double>(sample.rejected));
  record("service.inflight", t, static_cast<double>(sample.inflight));
  if (sample.warm_lookups > 0) {
    record("service.warm_hit_rate", t,
           static_cast<double>(sample.warm_hits) /
               static_cast<double>(sample.warm_lookups));
  }
  if (sample.completed > 0) {
    record("service.latency_p50_seconds", t,
           metrics::quantile_histogram(metrics::seconds_buckets(),
                                       sample.latency_counts, 0.50,
                                       sample.latency_min,
                                       sample.latency_max));
    record("service.latency_p99_seconds", t,
           metrics::quantile_histogram(metrics::seconds_buckets(),
                                       sample.latency_counts, 0.99,
                                       sample.latency_min,
                                       sample.latency_max));
  }
  if (slo_) {
    for (const SloTransition& edge : slo_->observe(sample)) {
      event(edge.firing ? "slo-firing" : "slo-resolved", edge.t,
            edge.objective);
    }
  }
}

std::string Telemetry::to_json() const {
  using metrics::json_write_number;
  using metrics::json_write_string;
  std::string out;
  out += "{\n  \"schema\": ";
  json_write_string(out, kSchema);
  out += ",\n  \"sample_interval_seconds\": ";
  json_write_number(out, kSampleIntervalSeconds);

  out += ",\n  \"series\": {";
  bool first = true;
  for (const auto& [name, s] : series_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_write_string(out, name);
    out += ": {\"stride\": " + std::to_string(s.stride());
    out += ", \"points\": [";
    const auto& pts = s.points();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (i > 0) out += ',';
      out += '[';
      json_write_number(out, pts[i].t);
      out += ',';
      json_write_number(out, pts[i].v);
      out += ']';
    }
    out += "]}";
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"events\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TimedEvent& e = events_[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{\"t\": ";
    json_write_number(out, e.t);
    out += ", \"name\": ";
    json_write_string(out, e.name);
    out += ", \"detail\": ";
    json_write_string(out, e.detail);
    out += "}";
  }
  out += events_.empty() ? "]" : "\n  ]";
  out += ",\n  \"events_dropped\": " + std::to_string(events_dropped_);

  if (slo_) {
    out += ",\n  \"slo\": [";
    const auto verdicts = slo_->attainment();
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const SloAttainment& a = verdicts[i];
      out += i == 0 ? "\n    " : ",\n    ";
      out += "{\"objective\": ";
      json_write_string(out, a.name);
      out += ", \"target\": ";
      json_write_number(out, a.target);
      out += ", \"observed\": ";
      json_write_number(out, a.observed);
      out += ", \"attainment\": ";
      json_write_number(out, a.attainment);
      out += ", \"budget_consumed\": ";
      json_write_number(out, a.budget_consumed);
      out += ", \"alerts_fired\": " + std::to_string(a.alerts_fired);
      out += std::string(", \"violated\": ") +
             (a.violated ? "true" : "false") + "}";
    }
    out += verdicts.empty() ? "]" : "\n  ]";
  }
  out += "\n}\n";
  return out;
}

std::string Telemetry::to_prometheus() const {
  std::string out;
  for (const auto& [name, s] : series_) {
    if (s.points().empty()) continue;
    std::string mangled = "gs_";
    for (const char c : name) {
      mangled += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
    }
    out += "# TYPE " + mangled + " gauge\n";
    out += mangled + " ";
    metrics::json_write_number(out, s.points().back().v);
    out += '\n';
  }
  out += "# TYPE gs_telemetry_events_total counter\n";
  out += "gs_telemetry_events_total " +
         std::to_string(events_.size() + events_dropped_) + "\n";
  return out;
}

void Telemetry::write_file(const std::string& path) const {
  std::ofstream out(path);
  GS_CHECK_MSG(out.good(), "cannot open telemetry file for writing: " + path);
  out << to_json();
  out.flush();
  GS_CHECK_MSG(out.good(), "failed writing telemetry file: " + path);
}

}  // namespace gs::telemetry
