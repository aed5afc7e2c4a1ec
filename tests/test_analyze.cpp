// Launch-graph static analyzer tests (CHECKING.md, "Static analysis").
//
// Mirrors test_check.cpp's two halves for the offline analyzer: a
// seeded-defect corpus the detectors MUST flag — a missing ordering edge
// between streams, a dead store, a redundant h2d, an uninitialized device
// read, a cost under-declaration — each with exact node/buffer
// attribution, and the negative half: every engine's real launch stream
// analyzes clean, and attaching a capture perturbs neither results nor
// the decision log (record::diff zero divergence) nor device stats.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "lp/generators.hpp"
#include "metrics/metrics.hpp"
#include "record/record.hpp"
#include "service/service.hpp"
#include "simplex/batch_revised.hpp"
#include "simplex/solver.hpp"
#include "vgpu/analyze/analyze.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/machine_model.hpp"

namespace gs {
namespace {

using vgpu::Device;
using vgpu::DeviceBuffer;
using vgpu::KernelCost;
using vgpu::analyze::CaptureLog;
using vgpu::analyze::IntervalSet;
using vgpu::analyze::Report;

lp::LpProblem dense(std::size_t m, std::uint64_t seed) {
  return lp::random_dense_lp({.rows = m, .cols = m, .seed = seed});
}

// ------------------------------------------------------------ IntervalSet

TEST(IntervalSet, MergesTouchingAndOverlappingRanges) {
  IntervalSet s;
  s.add(0, 8);
  s.add(16, 24);
  EXPECT_FALSE(s.covers(0, 24));
  s.add(8, 16);  // touching ranges coalesce into one
  EXPECT_TRUE(s.covers(0, 24));
  EXPECT_TRUE(s.covers(3, 21));
  EXPECT_FALSE(s.covers(0, 25));
}

TEST(IntervalSet, FirstGapFindsUncoveredBytes) {
  IntervalSet s;
  s.add(0, 8);
  s.add(16, 24);
  const auto gap = s.first_gap(0, 24);
  EXPECT_EQ(gap.first, 8u);
  EXPECT_EQ(gap.second, 16u);
  const auto none = s.first_gap(0, 8);
  EXPECT_EQ(none.first, none.second);  // fully covered => empty gap
}

// --------------------------------------------------- seeded-defect corpus

/// Two kernels touch the same buffer from different streams with no fence:
/// the writer->reader dependency has no ordering edge, so the analyzer
/// must report a RAW hazard naming both kernels and the buffer.
TEST(Analyzer, DetectsMissingOrderingEdgeBetweenStreams) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  DeviceBuffer<double> buf(dev, 64);
  cap.set_label(buf.host_view().data(), "shared");
  auto sp = buf.device_span();

  cap.set_stream(0);
  dev.launch_blocks("producer", 64, 64, KernelCost{0.0, 64.0 * 8.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) sp[i] = 1.0;
                    });
  cap.set_stream(1);  // concurrent stream, no fence: racy by construction
  double sum = 0.0;
  dev.launch_blocks("consumer", 64, 64, KernelCost{64.0, 64.0 * 8.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) sum += sp[i];
                    });

  const Report rep = vgpu::analyze::analyze(cap);
  ASSERT_EQ(rep.hazards.size(), 1u);
  EXPECT_EQ(rep.hazards[0].kind, "RAW");
  EXPECT_EQ(rep.hazards[0].first, "producer");
  EXPECT_EQ(rep.hazards[0].second, "consumer");
  EXPECT_EQ(rep.buffer_table[rep.hazards[0].buffer].label, "shared");
  EXPECT_EQ(rep.hazards[0].lo, 0u);
  EXPECT_EQ(rep.hazards[0].hi, 64u * sizeof(double));
  EXPECT_FALSE(rep.gate_clean());
}

/// The same two-stream pair with a fence between them is ordered: clean.
TEST(Analyzer, FenceRestoresOrderingBetweenStreams) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  DeviceBuffer<double> buf(dev, 64);
  auto sp = buf.device_span();

  cap.set_stream(0);
  dev.launch_blocks("producer", 64, 64, KernelCost{0.0, 64.0 * 8.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) sp[i] = 1.0;
                    });
  cap.fence();
  cap.set_stream(1);
  double sum = 0.0;
  dev.launch_blocks("consumer", 64, 64, KernelCost{64.0, 64.0 * 8.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) sum += sp[i];
                    });

  const Report rep = vgpu::analyze::analyze(cap);
  EXPECT_TRUE(rep.hazards.empty());
  EXPECT_GE(rep.raw_edges, 1u);
}

/// A write fully overwritten before anything reads it is a dead store,
/// attributed to the writing kernel with the exact wasted byte count.
TEST(Analyzer, DetectsDeadStoreWithAttribution) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  DeviceBuffer<double> buf(dev, 32);
  cap.set_label(buf.host_view().data(), "scratch");
  auto sp = buf.device_span();

  const auto fill = [&](const char* name, double v) {
    dev.launch_blocks(name, 32, 32, KernelCost{0.0, 32.0 * 8.0},
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) sp[i] = v;
                      });
  };
  fill("wasted_writer", 1.0);    // never read before...
  fill("second_writer", 2.0);    // ...this full overwrite
  double sum = 0.0;
  dev.launch_blocks("reader", 32, 32, KernelCost{32.0, 32.0 * 8.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) sum += sp[i];
                    });

  const Report rep = vgpu::analyze::analyze(cap);
  ASSERT_EQ(rep.dead_stores.size(), 1u);
  EXPECT_EQ(rep.dead_stores[0].kernel, "wasted_writer");
  EXPECT_EQ(rep.buffer_table[rep.dead_stores[0].buffer].label, "scratch");
  EXPECT_EQ(rep.dead_stores[0].bytes, 32u * sizeof(double));
  EXPECT_EQ(rep.dead_store_bytes, 32u * sizeof(double));
  // Dead stores are reported, not gated (final-iteration writes are
  // legitimately dead), so the stream is still gate-clean.
  EXPECT_TRUE(rep.gate_clean());
}

/// Re-uploading identical bytes with no intervening device write is a
/// redundant h2d; the wasted bytes must count against the transfer budget.
TEST(Analyzer, DetectsRedundantHostToDeviceTransfer) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  const std::vector<double> host(64, 3.25);
  DeviceBuffer<double> buf(dev, 64);
  cap.set_label(buf.host_view().data(), "coeffs");

  buf.upload(host);
  buf.upload(host);  // same bytes, nothing written in between

  const Report rep = vgpu::analyze::analyze(cap);
  ASSERT_EQ(rep.redundant_transfers.size(), 1u);
  EXPECT_EQ(rep.redundant_transfers[0].dir, "h2d");
  EXPECT_EQ(rep.redundant_transfers[0].bytes, 64u * sizeof(double));
  EXPECT_EQ(rep.buffer_table[rep.redundant_transfers[0].buffer].label,
            "coeffs");
  EXPECT_EQ(rep.redundant_h2d_bytes, 64u * sizeof(double));
  // Half the uploaded traffic was wasted: far over the 1% gate budget.
  EXPECT_FALSE(rep.gate_clean());
  EXPECT_NEAR(rep.dead_transfer_fraction(), 0.5, 1e-12);
}

/// Uploading different content is NOT redundant.
TEST(Analyzer, FreshContentUploadIsNotRedundant) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  std::vector<double> host(64, 3.25);
  DeviceBuffer<double> buf(dev, 64);
  buf.upload(host);
  host[0] = -1.0;
  buf.upload(host);
  const Report rep = vgpu::analyze::analyze(cap);
  EXPECT_TRUE(rep.redundant_transfers.empty());
  EXPECT_TRUE(rep.gate_clean());
}

/// A kernel reading a freshly allocated, never-written buffer reads
/// uninitialized memory — attributed to the kernel and byte range.
TEST(Analyzer, DetectsUninitializedDeviceRead) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  DeviceBuffer<double> buf(dev, 16);
  cap.set_label(buf.host_view().data(), "fresh");
  auto sp = buf.device_span();
  double sum = 0.0;
  dev.launch_blocks("eager_reader", 16, 16, KernelCost{16.0, 16.0 * 8.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) sum += sp[i];
                    });

  const Report rep = vgpu::analyze::analyze(cap);
  ASSERT_EQ(rep.uninit_reads.size(), 1u);
  EXPECT_EQ(rep.uninit_reads[0].kernel, "eager_reader");
  EXPECT_EQ(rep.buffer_table[rep.uninit_reads[0].buffer].label, "fresh");
  EXPECT_EQ(rep.uninit_reads[0].lo, 0u);
  EXPECT_EQ(rep.uninit_reads[0].hi, 16u * sizeof(double));
  EXPECT_FALSE(rep.gate_clean());
}

/// A read of an uninitialized element below one the same block read
/// before it is still an uninitialized read.
TEST(Analyzer, DetectsUninitializedReadBelowAnEarlierRead) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  DeviceBuffer<double> buf(dev, 16);
  auto sp = buf.device_span();
  dev.launch_blocks("init_element_10", 1, 1, KernelCost{0.0, 8.0},
                    [&](std::size_t, std::size_t, std::size_t) {
                      sp[10] = 1.0;
                    });
  double sum = 0.0;
  dev.launch_blocks("descending_reader", 1, 1, KernelCost{0.0, 16.0},
                    [&](std::size_t, std::size_t, std::size_t) {
                      sum += sp[10];
                      sum += sp[2];
                    });

  const Report rep = vgpu::analyze::analyze(cap);
  ASSERT_EQ(rep.uninit_reads.size(), 1u);
  EXPECT_EQ(rep.uninit_reads[0].kernel, "descending_reader");
  EXPECT_EQ(rep.uninit_reads[0].lo, 2u * sizeof(double));
  EXPECT_EQ(rep.uninit_reads[0].hi, 3u * sizeof(double));
}

/// The fused-kernel scratch pattern — write a block-local range, then
/// reduce over it in the SAME launch — is initialized-before-read and
/// must NOT be flagged.
TEST(Analyzer, BlockLocalWriteThenReadIsNotUninitialized) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  DeviceBuffer<double> buf(dev, 64);
  auto sp = buf.device_span();
  double best = 0.0;
  dev.launch_blocks("fill_then_reduce", 64, 64,
                    KernelCost{128.0, 2.0 * 64.0 * 8.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        sp[i] = static_cast<double>(i);
                      }
                      for (std::size_t i = lo; i < hi; ++i) {
                        if (sp[i] > best) best = sp[i];
                      }
                    });
  const Report rep = vgpu::analyze::analyze(cap);
  EXPECT_TRUE(rep.uninit_reads.empty());
}

/// A kernel whose merged byte footprint exceeds its declared KernelCost
/// by more than 2x is a cost-declaration finding.
TEST(Analyzer, FlagsCostUnderDeclaration) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  DeviceBuffer<double> buf(dev, 256);
  auto sp = buf.device_span();

  const auto touch_all = [&](const char* name) {
    // Declares 8 bytes, touches 2 KiB: ratio 256x.
    dev.launch_blocks(name, 256, 256, KernelCost{0.0, 8.0},
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) sp[i] = 1.0;
                      });
  };
  touch_all("underdeclared");

  const Report rep = vgpu::analyze::analyze(cap);
  ASSERT_EQ(rep.cost_findings.size(), 1u);
  EXPECT_EQ(rep.cost_findings[0].kernel, "underdeclared");
  EXPECT_GT(rep.cost_findings[0].ratio, 2.0);
  EXPECT_FALSE(rep.gate_clean());
}

// ------------------------------------------------------- lifetime + JSON

TEST(Analyzer, TracksBufferLifetimeAndPeakLiveBytes) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  dev.set_capture(&cap);
  {
    DeviceBuffer<double> a(dev, 128);  // 1 KiB
    {
      DeviceBuffer<double> b(dev, 64);  // +512 B => peak 1.5 KiB
    }
    DeviceBuffer<double> c(dev, 32);  // b freed first: peak stays 1.5 KiB
    (void)a;
    (void)c;
  }
  const Report rep = vgpu::analyze::analyze(cap);
  EXPECT_EQ(rep.alloc_count, 3u);
  EXPECT_EQ(rep.free_count, 3u);
  EXPECT_EQ(rep.live_at_end, 0u);
  EXPECT_EQ(rep.peak_live_bytes, 128u * 8u + 64u * 8u);
}

TEST(Analyzer, JsonReportIsWellFormed) {
  Device dev(vgpu::gtx280_model());
  CaptureLog cap;
  vgpu::analyze::CaptureLog* capp = &cap;
  simplex::SolverOptions opt;
  opt.analyzer = capp;
  simplex::DeviceRevisedSimplex<double> solver(dev, opt);
  ASSERT_TRUE(solver.solve(dense(24, 1)).optimal());
  const std::string json = vgpu::analyze::analyze(cap).to_json();
  EXPECT_NE(json.find("\"schema\": \"gs-analyze-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"hazard_count\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_live_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"buffers\""), std::string::npos);
  // Balanced braces/brackets without a JSON parser on hand.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ----------------------------------------------- engines analyze clean

TEST(Analyzer, EngineStreamsAreGateClean) {
  const vgpu::MachineModel model = vgpu::gtx280_model();
  for (const simplex::BasisScheme basis :
       {simplex::BasisScheme::kExplicitInverse,
        simplex::BasisScheme::kProductForm}) {
    CaptureLog cap;
    simplex::SolverOptions opt;
    opt.basis = basis;
    opt.analyzer = &cap;
    vgpu::Device dev(model);
    simplex::DeviceRevisedSimplex<double> solver(dev, opt);
    ASSERT_TRUE(solver.solve(dense(32, 1)).optimal());
    const Report rep = vgpu::analyze::analyze(cap);
    EXPECT_TRUE(rep.gate_clean()) << to_string(basis) << "\n"
                                  << rep.summary();
    EXPECT_GT(rep.kernel_nodes, 0u);
    EXPECT_GT(rep.peak_live_bytes, 0u);
    EXPECT_EQ(rep.live_at_end, 0u);
  }
}

TEST(Analyzer, BatchEngineStreamIsGateClean) {
  CaptureLog cap;
  simplex::SolverOptions opt;
  opt.analyzer = &cap;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::BatchRevisedSimplex<double> engine(dev, opt);
  std::vector<lp::LpProblem> round;
  for (std::uint64_t s = 1; s <= 4; ++s) round.push_back(dense(16, s));
  for (const auto& r : engine.solve(round)) ASSERT_TRUE(r.optimal());
  const Report rep = vgpu::analyze::analyze(cap);
  EXPECT_TRUE(rep.gate_clean()) << rep.summary();
}

/// One CaptureLog may span several solves on the same engine (the log
/// accumulates until reset()).
TEST(Analyzer, CaptureAccumulatesAcrossSolvesUntilReset) {
  CaptureLog cap;
  simplex::SolverOptions opt;
  opt.analyzer = &cap;
  vgpu::Device dev(vgpu::gtx280_model());
  simplex::DeviceRevisedSimplex<double> solver(dev, opt);
  ASSERT_TRUE(solver.solve(dense(16, 1)).optimal());
  const std::size_t after_first = cap.launches_captured();
  ASSERT_TRUE(solver.solve(dense(16, 2)).optimal());
  EXPECT_GT(cap.launches_captured(), after_first);
  EXPECT_TRUE(vgpu::analyze::analyze(cap).gate_clean());
  cap.reset();
  EXPECT_EQ(cap.launches_captured(), 0u);
}

/// A stream with one cross-block race (every block of `racy_accumulate`
/// writes element 0) and one uninitialized read (`eager_reader` reads a
/// buffer nothing wrote).
void seeded_stream(Device& dev) {
  DeviceBuffer<double> acc(dev, 64), fresh(dev, 16);
  auto a = acc.device_span();
  auto f = fresh.device_span();
  dev.launch_blocks("racy_accumulate", 64, 8, KernelCost{0.0, 64.0 * 8.0},
                    [&](std::size_t b, std::size_t, std::size_t) {
                      a[0] = static_cast<double>(b);
                    });
  double sum = 0.0;
  dev.launch_blocks("eager_reader", 16, 16, KernelCost{16.0, 16.0 * 8.0},
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) sum += f[i];
                    });
}

/// The checker and the analyzer are two reports over one access stream:
/// with both on one capture, the checker reports the race and analyze()
/// the uninitialized read, and each report equals its solo run.
TEST(Analyzer, CheckerAndCaptureReportOneStream) {
  const auto run = [](CaptureLog& cap, vgpu::check::Checker* chk) {
    Device dev(vgpu::gtx280_model());
    cap.set_checker(chk);
    dev.set_capture(&cap);
    seeded_stream(dev);
  };
  vgpu::check::Checker solo_checker, checker;
  CaptureLog solo_checker_capture, solo_capture, capture;
  run(solo_checker_capture, &solo_checker);
  run(solo_capture, nullptr);
  run(capture, &checker);

  ASSERT_EQ(checker.findings().size(), 1u) << checker.report();
  EXPECT_EQ(checker.findings()[0].kind, vgpu::check::FindingKind::kRace);
  EXPECT_EQ(checker.findings()[0].kernel, "racy_accumulate");
  EXPECT_EQ(checker.report(), solo_checker.report());
  const Report rep = vgpu::analyze::analyze(capture);
  ASSERT_EQ(rep.uninit_reads.size(), 1u);
  EXPECT_EQ(rep.uninit_reads[0].kernel, "eager_reader");
  EXPECT_TRUE(rep.hazards.empty());
  EXPECT_EQ(rep.to_json(), vgpu::analyze::analyze(solo_capture).to_json());
  EXPECT_EQ(rep.summary(), vgpu::analyze::analyze(solo_capture).summary());
}

// ------------------------------------------------------- service routing

/// A request carrying an analyzer is observed: it must run as a real
/// single solve (never batched, never served from the warm cache), and
/// its capture must hold the solve's launch stream when routed to the
/// device engine.
TEST(Analyzer, ServiceRoutesAnalyzerRequestsAsObserved) {
  service::DispatchPolicy policy;
  policy.crossover_m = 32;  // force the device route for m=64
  metrics::MetricsRegistry reg;
  service::SolveService svc(policy, &reg);

  CaptureLog cap;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    service::SolveRequest req;
    req.problem = dense(64, seed);
    ids.push_back(svc.submit(std::move(req)).id);
  }
  service::SolveRequest observed;
  observed.problem = dense(64, 1);  // same shape as the batchable trio
  observed.options.analyzer = &cap;
  const auto oid = svc.submit(std::move(observed)).id;
  svc.drain();

  EXPECT_NE(svc.result(oid).route, service::Route::kBatch);
  EXPECT_TRUE(svc.result(oid).solve.optimal());
  EXPECT_GT(cap.launches_captured(), 0u);
  EXPECT_TRUE(vgpu::analyze::analyze(cap).gate_clean());
  // The plain trio still batches; the observed request never joins.
  for (const auto id : ids) {
    EXPECT_EQ(svc.result(id).route, service::Route::kBatch);
  }
}

}  // namespace
}  // namespace gs
