// The benchmark's workloads. Each is a closed loop from one process: the
// next solve (or the next wave of requests) is sent only after the
// previous one completed.
#pragma once

#include <vector>

#include "bench.hpp"

namespace perfbench {

struct WorkloadDef {
  const char* name;
  const char* why;  ///< one line; mirrored in BENCHMARK.json
  RunResult (*run)(const Options&);
};

[[nodiscard]] const std::vector<WorkloadDef>& workloads();

}  // namespace perfbench
