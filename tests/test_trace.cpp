// Trace-layer tests: span nesting, Chrome JSON well-formedness, stats
// reconciliation, and the zero-overhead-when-disabled guarantee. These
// exercise exactly the API documented in OBSERVABILITY.md — if a name in
// that document stops compiling, it fails here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lp/generators.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/cost_meter.hpp"
#include "simplex/solver.hpp"
#include "trace/chrome_sink.hpp"
#include "trace/ring_sink.hpp"

namespace {

using namespace gs;
using trace::EventPhase;
using trace::TraceEvent;

lp::LpProblem tiny_lp() {
  return lp::random_dense_lp({.rows = 8, .cols = 8, .seed = 7});
}

simplex::SolveResult solve_device_traced(trace::TraceSink* sink,
                                         const lp::LpProblem& problem) {
  simplex::SolverOptions opt;
  opt.trace_sink = sink;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<double> solver(dev, opt);
  return solver.solve(problem);
}

// ---------------------------------------------------------------------
// Ring-buffer sink: span nesting of a tiny LP solve.
// ---------------------------------------------------------------------

TEST(TraceRing, SpanNestingForTinyLp) {
  trace::RingBufferSink sink;
  const auto result = solve_device_traced(&sink, tiny_lp());
  ASSERT_TRUE(result.optimal());

  const auto events = sink.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(sink.dropped(), 0u);

  // B/E balance and depth bookkeeping.
  std::vector<std::string> stack;
  std::size_t iterations = 0, solves = 0;
  bool saw_price = false, saw_ftran = false, saw_ratio = false,
       saw_update = false;
  for (const TraceEvent& e : events) {
    if (e.phase == EventPhase::kBegin) {
      if (e.name == "solve") {
        EXPECT_TRUE(stack.empty()) << "solve span must be top-level";
        ++solves;
      }
      if (e.name == "iteration") {
        ASSERT_FALSE(stack.empty());
        EXPECT_TRUE(stack.back() == "phase1" || stack.back() == "phase2")
            << "iteration must nest inside a phase span, got "
            << stack.back();
        ++iterations;
      }
      if (e.name == "price" || e.name == "ftran" || e.name == "ratio" ||
          e.name == "update") {
        ASSERT_FALSE(stack.empty());
        EXPECT_EQ(stack.back(), "iteration")
            << e.name << " must nest inside an iteration span";
        saw_price |= e.name == "price";
        saw_ftran |= e.name == "ftran";
        saw_ratio |= e.name == "ratio";
        saw_update |= e.name == "update";
      }
      stack.push_back(e.name);
    } else if (e.phase == EventPhase::kEnd) {
      ASSERT_FALSE(stack.empty()) << "unbalanced end event";
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed spans: " << stack.size();
  EXPECT_EQ(solves, 1u);
  // The optimality-detecting final iteration prices but does not pivot, so
  // the trace holds one more iteration span than stats.iterations.
  EXPECT_EQ(iterations, result.stats.iterations + 1);
  EXPECT_TRUE(saw_price && saw_ftran && saw_ratio && saw_update);
}

TEST(TraceRing, KernelSlicesNestInsideTheirSpans) {
  trace::RingBufferSink sink;
  (void)solve_device_traced(&sink, tiny_lp());
  // Every complete slice must lie within every span open at its emission.
  std::vector<double> open_begin_ts;
  for (const TraceEvent& e : sink.events()) {
    if (e.phase == EventPhase::kBegin) open_begin_ts.push_back(e.ts);
    if (e.phase == EventPhase::kEnd) open_begin_ts.pop_back();
    if (e.phase == EventPhase::kComplete && !open_begin_ts.empty()) {
      EXPECT_GE(e.ts, open_begin_ts.back() - 1e-15);
    }
  }
}

TEST(TraceRing, CapacityBoundsRetentionButCountsTotals) {
  trace::RingBufferSink sink(16);
  (void)solve_device_traced(&sink, tiny_lp());
  EXPECT_EQ(sink.capacity(), 16u);
  EXPECT_EQ(sink.events().size(), 16u);
  EXPECT_GT(sink.total_events(), 16u);
  EXPECT_EQ(sink.dropped(), sink.total_events() - 16u);
  // The retained suffix is the newest events: its last entry must be the
  // final event of the solve (the solve span's end).
  EXPECT_EQ(sink.events().back().phase, EventPhase::kEnd);
  sink.clear();
  EXPECT_EQ(sink.total_events(), 0u);
  EXPECT_TRUE(sink.events().empty());
}

// ---------------------------------------------------------------------
// Chrome sink: JSON validity and timestamp ordering.
// ---------------------------------------------------------------------

/// Minimal JSON well-formedness scan: balanced {} / [] outside strings,
/// legal escapes, non-empty.
void expect_balanced_json(const std::string& text) {
  ASSERT_FALSE(text.empty());
  int depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    ASSERT_GE(depth_obj, 0);
    ASSERT_GE(depth_arr, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
}

/// Extract every `"ts":<number>` in file order.
std::vector<double> extract_timestamps(const std::string& text) {
  std::vector<double> out;
  const std::string key = "\"ts\":";
  std::size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    pos += key.size();
    out.push_back(std::stod(text.substr(pos)));
  }
  return out;
}

TEST(TraceChrome, JsonParsesAndTimestampsAreMonotone) {
  trace::ChromeTraceSink sink;
  const auto result = solve_device_traced(&sink, tiny_lp());
  ASSERT_TRUE(result.optimal());
  EXPECT_FALSE(sink.empty());

  std::ostringstream os;
  sink.write(os);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);

  const auto ts = extract_timestamps(json);
  ASSERT_GT(ts.size(), 10u);
  // Metadata events (ts 0) lead; timeline events follow non-decreasing.
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()))
      << "timestamps must be monotonically non-decreasing in file order";
}

TEST(TraceChrome, WriteFileRoundTrip) {
  trace::ChromeTraceSink sink;
  (void)solve_device_traced(&sink, tiny_lp());
  const auto path =
      std::filesystem::temp_directory_path() / "gs_trace_test.json";
  sink.write_file(path.string());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  expect_balanced_json(buf.str());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Reconciliation: trace slices tile the DeviceStats aggregates.
// ---------------------------------------------------------------------

TEST(TraceReconcile, DeviceKernelAndTransferSlicesMatchStats) {
  trace::ChromeTraceSink sink;
  const auto result = solve_device_traced(
      &sink, lp::random_dense_lp({.rows = 24, .cols = 32, .seed = 3}));
  ASSERT_TRUE(result.optimal());
  const auto& ds = result.stats.device_stats;
  EXPECT_NEAR(sink.category_seconds("kernel"), ds.kernel_seconds, 1e-9);
  EXPECT_NEAR(sink.category_seconds("transfer"), ds.transfer_seconds(), 1e-9);
  EXPECT_NEAR(sink.category_seconds("kernel") +
                  sink.category_seconds("transfer"),
              ds.sim_seconds(), 1e-9);
  // Slice count matches launch/copy counts.
  std::size_t kernels = 0, transfers = 0;
  for (const TraceEvent& e : sink.events()) {
    if (e.phase != EventPhase::kComplete) continue;
    if (e.category == "kernel") ++kernels;
    if (e.category == "transfer") ++transfers;
  }
  EXPECT_EQ(kernels, ds.kernel_launches);
  EXPECT_EQ(transfers, ds.h2d_count + ds.d2h_count);
}

TEST(TraceReconcile, HostEngineSlicesMatchMeterStats) {
  trace::ChromeTraceSink sink;
  simplex::SolverOptions opt;
  opt.trace_sink = &sink;
  const auto result =
      simplex::HostRevisedSimplex(opt).solve(tiny_lp());
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(sink.category_seconds("kernel"),
              result.stats.device_stats.kernel_seconds, 1e-9);
  // Host engines move no PCIe traffic.
  EXPECT_EQ(sink.category_seconds("transfer"), 0.0);
  // Host spans land on the host pid, distinct from the device pid.
  for (const TraceEvent& e : sink.events()) {
    EXPECT_EQ(e.pid, trace::kHostPid);
  }
}

// Both machines emit their kernel slices through one vgpu::Ledger, so a
// host step carries the same args as a device launch (threads = 1).
TEST(TraceReconcile, KernelSlicesCarryOneArgSetOnBothMachines) {
  trace::ChromeTraceSink sink;
  simplex::SolverOptions opt;
  opt.trace_sink = &sink;
  const lp::LpProblem lp = tiny_lp();
  ASSERT_TRUE(simplex::HostRevisedSimplex(opt).solve(lp).optimal());
  ASSERT_TRUE(solve_device_traced(&sink, lp).optimal());

  const std::set<std::string> expected = {"flops", "bytes", "threads",
                                          "scalar_bytes", "sim_seconds"};
  std::map<std::uint32_t, std::size_t> slices;
  for (const TraceEvent& e : sink.events()) {
    if (e.phase != EventPhase::kComplete || e.category != "kernel") continue;
    std::set<std::string> keys;
    for (const auto& [key, value] : e.args) {
      keys.insert(key);
      if (key == "threads" && e.pid == trace::kHostPid) {
        EXPECT_EQ(value, 1.0) << e.name;  // one host thread
      }
    }
    EXPECT_EQ(keys, expected) << e.name << " on pid " << e.pid;
    ++slices[e.pid];
  }
  EXPECT_GT(slices[trace::kHostPid], 0u);
  EXPECT_GT(slices[trace::kDevicePid], 0u);
}

TEST(TraceReconcile, BatchEngineEmitsIterationSpans) {
  trace::ChromeTraceSink sink;
  simplex::SolverOptions opt;
  opt.trace_sink = &sink;
  std::vector<lp::LpProblem> batch;
  for (std::uint64_t k = 0; k < 4; ++k) {
    batch.push_back(lp::random_dense_lp({.rows = 6, .cols = 6, .seed = k + 1}));
  }
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::BatchRevisedSimplex<double> solver(dev, opt);
  const auto results = solver.solve(batch);
  for (const auto& r : results) EXPECT_TRUE(r.optimal());

  std::size_t iteration_spans = 0, counters = 0;
  for (const TraceEvent& e : sink.events()) {
    if (e.phase == EventPhase::kBegin && e.name == "iteration") {
      ++iteration_spans;
    }
    if (e.phase == EventPhase::kCounter && e.name == "active_problems") {
      ++counters;
    }
  }
  EXPECT_GT(iteration_spans, 0u);
  EXPECT_EQ(iteration_spans, counters);
  EXPECT_NEAR(sink.category_seconds("kernel") +
                  sink.category_seconds("transfer"),
              results.front().stats.sim_seconds, 1e-9);
}

// ---------------------------------------------------------------------
// API-surface compile check for OBSERVABILITY.md.
// ---------------------------------------------------------------------

TEST(TraceApi, DocumentedNamesCompileAndBehave) {
  // Event model.
  TraceEvent event;
  event.name = "k";
  event.category = "kernel";
  event.phase = EventPhase::kComplete;
  event.ts = 1.0;
  event.dur = 0.5;
  event.pid = trace::kDevicePid;
  event.tid = trace::kEngineTid;
  event.args.push_back(trace::TraceArg{"flops", 12.0});
  EXPECT_EQ(to_char(EventPhase::kBegin), 'B');
  EXPECT_EQ(to_char(EventPhase::kEnd), 'E');
  EXPECT_EQ(to_char(EventPhase::kCounter), 'C');

  // Sink interface + Track emission helpers.
  trace::RingBufferSink ring(4);
  trace::Track track(&ring, trace::kDevicePid, trace::kEngineTid);
  EXPECT_TRUE(track.enabled());
  track.name_process("proc");
  track.name_thread("thread");
  track.begin("span", 0.0, "op");
  track.complete("slice", 0.0, 0.25, "kernel", {{"bytes", 64.0}});
  track.instant("marker", 0.1);
  track.end(0.5);
  EXPECT_EQ(ring.total_events(), 6u);

  // A default-constructed track is disabled and ignores every call.
  trace::Track off;
  EXPECT_FALSE(off.enabled());
  off.begin("x", 0.0);
  off.end(1.0);
  off.counter("c", 0.0, 1.0);
  EXPECT_EQ(ring.total_events(), 6u);

  // ScopedSpan against an arbitrary clock.
  double now = 2.0;
  {
    trace::ScopedSpan span(track, "scoped", [&now] { return now; }, "op");
    now = 3.0;
  }

  // SolverOptions wiring + Device/CostMeter attachment points.
  simplex::SolverOptions options;
  options.trace_sink = &ring;
  vgpu::Device device(vgpu::gtx280_model());
  device.set_trace(&ring);
  EXPECT_TRUE(device.trace().enabled());
  device.set_trace(nullptr);
  EXPECT_FALSE(device.trace().enabled());
  simplex::CostMeter meter(vgpu::cpu2009_model());
  meter.set_trace(&ring);
  EXPECT_TRUE(meter.trace().enabled());
  meter.charge("step", 10.0, 10.0);

  // Chrome sink surface.
  trace::ChromeTraceSink chrome;
  chrome.emit(event);
  EXPECT_EQ(chrome.events().size(), 1u);
  EXPECT_NEAR(chrome.category_seconds("kernel"), 0.5, 1e-12);
  std::ostringstream os;
  chrome.write(os);
  EXPECT_FALSE(os.str().empty());
  chrome.clear();
  EXPECT_TRUE(chrome.empty());
}

}  // namespace
