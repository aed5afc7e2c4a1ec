// perfbench: the two-clock benchmark binary (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE] [--doctor negate-objective|iteration-limit]
//             [--small]
//   perfbench --list-workloads
//
// Prints human-readable lines, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics when
// untraced, per-layer metrics when traced). Exits 1 on a wrong answer or a
// failed reconciliation, 2 on a usage error.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using perfbench::MetricSet;

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "error: " << msg
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE] "
               "[--doctor negate-objective|iteration-limit] [--small]\n"
               "       perfbench --list-workloads\n";
  std::exit(2);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string json_metrics(const MetricSet& metrics) {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  bool first = true;
  for (const auto& it : metrics.items()) {
    if (!std::isfinite(it.value)) {
      throw std::runtime_error("metric " + it.name + " is not finite");
    }
    os << (first ? "" : ", ") << "\"" << it.name << "\": {\"value\": "
       << it.value << ", \"unit\": \"" << it.unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

/// Every catalogued per-layer metric, zero where the workload does not
/// exercise the layer; a name outside the catalogue is a programming error.
MetricSet full_per_layer(const MetricSet& measured) {
  MetricSet out;
  for (const auto& [name, unit] : perfbench::per_layer_catalog()) {
    out.set(name, 0.0, unit);
  }
  for (const auto& it : measured.items()) {
    bool known = false;
    for (const auto& entry : perfbench::per_layer_catalog()) {
      known = known || entry.first == it.name;
    }
    if (!known) throw std::runtime_error("uncatalogued metric " + it.name);
    out.set(it.name, it.value, it.unit);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--list-workloads") {
        for (const auto& w : perfbench::workloads()) {
          std::cout << w.name << "\t" << w.why << "\n";
        }
        return 0;
      } else if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = opt.seconds >= 0.0;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--spans") {
        opt.spans_out = value();
      } else if (arg == "--doctor") {
        opt.doctor = value();
        if (opt.doctor != "negate-objective" &&
            opt.doctor != "iteration-limit") {
          usage("unknown --doctor " + opt.doctor);
        }
      } else if (arg == "--small") {
        opt.small = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  const perfbench::WorkloadDef* def = nullptr;
  for (const auto& w : perfbench::workloads()) {
    if (opt.workload == w.name) def = &w;
  }
  if (def == nullptr) usage("unknown workload '" + opt.workload + "'");

  try {
    std::cout << "workload " << def->name << " (seed " << opt.seed
              << (opt.trace ? ", traced" : "") << "): " << def->why << "\n";
    perfbench::RunResult r = def->run(opt);
    r.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
    for (const std::string& w : r.wrong) std::cout << "WRONG: " << w << "\n";
    std::cout << "attempted " << r.attempted << ", failed " << r.failed
              << ", error_rate "
              << perfbench::ratio(double(r.failed), double(r.attempted))
              << "\n";
    // Every measured metric is logged; the JSON line carries one set.
    for (const MetricSet* set : {&r.end_to_end, &r.per_layer}) {
      for (const auto& it : set->items()) {
        std::cout << it.name << " = " << it.value << " " << it.unit << "\n";
      }
    }
    const MetricSet per_layer = full_per_layer(r.per_layer);
    const bool correct = r.wrong.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": "
              << json_metrics(opt.trace ? per_layer : r.end_to_end) << "}"
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
