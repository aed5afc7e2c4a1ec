// Unit tests for the virtual-GPU substrate: machine models, thread pool,
// device accounting, buffers, and the data-parallel primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/ring_sink.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/machine_model.hpp"
#include "vgpu/primitives.hpp"
#include "vgpu/thread_pool.hpp"

namespace gs::vgpu {
namespace {

// ---------------------------------------------------------------- models

TEST(MachineModel, KernelTimeIncludesLaunchOverhead) {
  const MachineModel m = gtx280_model();
  EXPECT_DOUBLE_EQ(m.kernel_seconds(0, 0, 1, 8), m.launch_overhead_s);
}

TEST(MachineModel, KernelTimeMonotonicInWork) {
  const MachineModel m = gtx280_model();
  const double small = m.kernel_seconds(1e6, 1e6, 1 << 20, 8);
  const double big = m.kernel_seconds(1e9, 1e9, 1 << 20, 8);
  EXPECT_GT(big, small);
}

TEST(MachineModel, OccupancyPenalizesSmallLaunches) {
  const MachineModel m = gtx280_model();
  const double starved = m.kernel_seconds(1e6, 1e6, 32, 8);
  const double saturated = m.kernel_seconds(1e6, 1e6, m.saturation_threads, 8);
  EXPECT_GT(starved, saturated);
}

TEST(MachineModel, SinglePrecisionIsFasterOnComputeBoundWork) {
  const MachineModel m = gtx280_model();
  // Pure-compute kernel (no bytes): SP peak >> DP peak on GT200.
  const double sp = m.kernel_seconds(1e9, 0, m.saturation_threads, 4);
  const double dp = m.kernel_seconds(1e9, 0, m.saturation_threads, 8);
  EXPECT_LT(sp, dp);
}

TEST(MachineModel, TransferHasLatencyFloor) {
  const MachineModel m = gtx280_model();
  EXPECT_GE(m.transfer_seconds(1), m.xfer_latency_s);
  EXPECT_GT(m.transfer_seconds(1 << 24), m.transfer_seconds(1));
}

TEST(MachineModel, HostModelHasNoTransferCost) {
  const MachineModel m = cpu2009_model();
  EXPECT_DOUBLE_EQ(m.transfer_seconds(1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(m.launch_overhead_s, 0.0);
}

TEST(MachineModel, GpuHasBandwidthAdvantageOverHost) {
  // The ratio that produces the paper's large-LP speedup.
  EXPECT_GT(gtx280_model().mem_gbps / cpu2009_model().mem_gbps, 5.0);
}

TEST(MachineModel, PresetsAreOrderedByGeneration) {
  EXPECT_LT(gtx280_model().peak_gflops_sp, gtx570_model().peak_gflops_sp);
  EXPECT_LT(gtx570_model().peak_gflops_sp, titan_model().peak_gflops_sp);
}

// Every existing kernel declares zero dependent steps; the term must then
// vanish without a trace, not merely round away.
TEST(MachineModel, ZeroDependentStepsLeaveKernelTimeBitIdentical) {
  for (const MachineModel& m :
       {gtx280_model(), gtx570_model(), titan_model(), cpu2009_model()}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{256},
                                      std::size_t{1} << 20}) {
      EXPECT_EQ(m.kernel_seconds(3e6, 7e5, threads, 8, 0),
                m.kernel_seconds(3e6, 7e5, threads, 8))
          << m.name;
      EXPECT_EQ(m.kernel_seconds(0, 0, threads, 4, 0), m.launch_overhead_s)
          << m.name;
    }
  }
}

TEST(MachineModel, DependentStepsAddExactlyTheStepLatency) {
  const MachineModel m = gtx280_model();
  EXPECT_EQ(m.dependent_step_s, 0.5e-6);
  for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
    EXPECT_EQ(m.kernel_seconds(2e4, 1e5, 256, 8, k),
              m.kernel_seconds(2e4, 1e5, 256, 8) +
                  static_cast<double>(k) * m.dependent_step_s)
        << k;
  }
  // A host core pays its dependencies in its flop/byte terms already.
  const MachineModel cpu = cpu2009_model();
  EXPECT_EQ(cpu.dependent_step_s, 0.0);
  EXPECT_EQ(cpu.kernel_seconds(2e4, 1e5, 1, 8, 1000),
            cpu.kernel_seconds(2e4, 1e5, 1, 8));
  EXPECT_GT(gtx570_model().dependent_step_s, 0.0);
  EXPECT_GT(titan_model().dependent_step_s, 0.0);
}

// ------------------------------------------------------------ thread pool

class ThreadPoolTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadPoolTest, ExecutesEveryChunkExactlyOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(257);
  pool.run_chunks(257, [&](std::size_t c) { ++hits[c]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ThreadPoolTest, SupportsRepeatedJobs) {
  ThreadPool pool(GetParam());
  std::atomic<long> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.run_chunks(64, [&](std::size_t c) { total += long(c); });
  }
  EXPECT_EQ(total.load(), 10 * (63 * 64 / 2));
}

TEST_P(ThreadPoolTest, ZeroChunksIsANoop) {
  ThreadPool pool(GetParam());
  bool ran = false;
  pool.run_chunks(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThreadPoolTest,
                         ::testing::Values(1, 2, 4));

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
}

// Stress the off-inline path: with workers > 1 every run_chunks goes
// through the mutex/condvar dispatch, so this exercises concurrent chunk
// claiming, the completion barrier, and pool reuse across many launches
// back-to-back. (Run under -DGS_SANITIZE=thread this is the TSan probe
// for the pool internals.)
TEST(ThreadPool, StressConcurrentDispatchAndReuse) {
  ThreadPool pool(4);
  ASSERT_GT(pool.worker_count(), 1u);
  std::vector<std::atomic<int>> slots(97);
  std::atomic<int> inflight{0};
  std::atomic<bool> overlap_ok{true};
  for (int round = 1; round <= 200; ++round) {
    pool.run_chunks(slots.size(), [&](std::size_t c) {
      const int now = ++inflight;
      if (now < 1) overlap_ok = false;
      slots[c] += 1;
      --inflight;
    });
    // Completion barrier: when run_chunks returns, every chunk of this
    // round has executed exactly once and no worker is still in-flight.
    EXPECT_EQ(inflight.load(), 0) << "round " << round;
    for (const auto& s : slots) ASSERT_EQ(s.load(), round);
  }
  EXPECT_TRUE(overlap_ok.load());
}

// Alternating wide and narrow jobs: narrow jobs take the inline
// single-chunk shortcut, wide ones re-enter the sleeping pool — the
// generation counter must keep the two from cross-talking.
TEST(ThreadPool, ReuseAcrossMixedJobShapes) {
  ThreadPool pool(3);
  long checksum = 0;
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    const std::size_t chunks = (round % 2 == 0) ? 512 : 1;
    pool.run_chunks(chunks, [&](std::size_t c) { total += long(c) + 1; });
    checksum += (round % 2 == 0) ? (512L * 513L) / 2 : 1L;
    ASSERT_EQ(total.load(), checksum);
  }
}

// ---------------------------------------------------------------- device

TEST(Device, LaunchCoversExactIndexRange) {
  Device dev(gtx280_model());
  std::vector<int> hits(1000, 0);
  dev.parallel_for("cover", hits.size(), {}, [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Device, EmptyLaunchChargesNothing) {
  // A zero-block grid never reaches the device (the CUDA driver rejects
  // it before submission), so an empty launch must not pay overhead —
  // a zero-row LP edge must not inflate kernel_launches.
  Device dev(gtx280_model());
  dev.parallel_for("empty", 0, {1e6, 1e6, 8}, [](std::size_t) {});
  dev.launch_blocks("empty_blocks", 0, Device::kBlockSize, {1e6, 1e6, 8},
                    [](std::size_t, std::size_t, std::size_t) {});
  EXPECT_EQ(dev.stats().kernel_launches, 0u);
  EXPECT_DOUBLE_EQ(dev.stats().kernel_seconds, 0.0);
  EXPECT_DOUBLE_EQ(dev.stats().total_flops, 0.0);
  EXPECT_TRUE(dev.stats().per_kernel.empty());
}

TEST(Device, StatsAccumulatePerKernel) {
  Device dev(gtx280_model());
  dev.parallel_for("k1", 10, {100.0, 200.0, 8}, [](std::size_t) {});
  dev.parallel_for("k1", 10, {100.0, 200.0, 8}, [](std::size_t) {});
  dev.parallel_for("k2", 10, {50.0, 10.0, 8}, [](std::size_t) {});
  const DeviceStats& s = dev.stats();
  EXPECT_EQ(s.kernel_launches, 3u);
  EXPECT_DOUBLE_EQ(s.total_flops, 250.0);
  ASSERT_TRUE(s.per_kernel.contains("k1"));
  EXPECT_EQ(s.per_kernel.at("k1").launches, 2u);
  EXPECT_DOUBLE_EQ(s.per_kernel.at("k1").flops, 200.0);
}

TEST(Device, ResetClearsStats) {
  Device dev(gtx280_model());
  dev.parallel_for("k", 10, {1.0, 1.0, 8}, [](std::size_t) {});
  dev.reset_stats();
  EXPECT_EQ(dev.stats().kernel_launches, 0u);
  EXPECT_DOUBLE_EQ(dev.sim_seconds(), 0.0);
}

TEST(Device, SimTimeGrowsWithLaunches) {
  Device dev(gtx280_model());
  dev.parallel_for("k", 256, {1e6, 1e6, 8}, [](std::size_t) {});
  const double t1 = dev.sim_seconds();
  dev.parallel_for("k", 256, {1e6, 1e6, 8}, [](std::size_t) {});
  EXPECT_GT(dev.sim_seconds(), t1);
}

// A launch that declares dependent steps is charged the roofline time plus
// exactly steps x dependent_step_s, and only such launches carry the
// "dependent_steps" trace argument.
TEST(Device, DependentStepsChargedAndTracedOnlyWhenNonzero) {
  Device dev(gtx280_model());
  trace::RingBufferSink sink;
  dev.set_trace(&sink);
  dev.launch_blocks("plain", 256, 256, {.flops = 1e3, .bytes = 4e3},
                    [](std::size_t, std::size_t, std::size_t) {});
  dev.launch_blocks("chain", 256, 256,
                    {.flops = 1e3, .bytes = 4e3, .dependent_steps = 40},
                    [](std::size_t, std::size_t, std::size_t) {});
  const MachineModel& m = dev.model();
  const double roofline = m.kernel_seconds(1e3, 4e3, 256, 8);
  const DeviceStats& s = dev.stats();
  EXPECT_EQ(s.per_kernel.at("plain").sim_seconds, roofline);
  EXPECT_EQ(s.per_kernel.at("chain").sim_seconds,
            roofline + 40.0 * m.dependent_step_s);
  std::size_t slices = 0;
  for (const trace::TraceEvent& e : sink.events()) {
    if (e.category != "kernel") continue;
    ++slices;
    const auto steps =
        std::find_if(e.args.begin(), e.args.end(),
                     [](const auto& a) { return a.first == "dependent_steps"; });
    if (e.name == "plain") {
      EXPECT_EQ(steps, e.args.end());
    } else {
      ASSERT_NE(steps, e.args.end());
      EXPECT_EQ(steps->second, 40.0);
    }
  }
  EXPECT_EQ(slices, 2u);
}

// ---------------------------------------------------------------- buffer

TEST(DeviceBuffer, UploadDownloadRoundTrip) {
  Device dev(gtx280_model());
  std::vector<double> host{1.0, 2.0, 3.0, 4.0};
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  EXPECT_EQ(buf.to_host(), host);
}

TEST(DeviceBuffer, ZeroInitialized) {
  Device dev(gtx280_model());
  DeviceBuffer<double> buf(dev, 16);
  for (double v : buf.to_host()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(DeviceBuffer, TransfersAreAccounted) {
  Device dev(gtx280_model());
  std::vector<float> host(100, 1.0f);
  DeviceBuffer<float> buf(dev, std::span<const float>(host));
  EXPECT_EQ(dev.stats().h2d_bytes, 100 * sizeof(float));
  EXPECT_EQ(dev.stats().h2d_count, 1u);
  (void)buf.to_host();
  EXPECT_EQ(dev.stats().d2h_bytes, 100 * sizeof(float));
  EXPECT_GT(dev.stats().d2h_seconds, 0.0);
}

TEST(DeviceBuffer, ScalarValueOps) {
  Device dev(gtx280_model());
  DeviceBuffer<double> buf(dev, 4);
  buf.upload_value(2, 7.5);
  EXPECT_DOUBLE_EQ(buf.download_value(2), 7.5);
  EXPECT_THROW((void)buf.download_value(4), Error);
  EXPECT_THROW(buf.upload_value(4, 0.0), Error);
}

TEST(DeviceBuffer, PartialUploadWithOffset) {
  Device dev(gtx280_model());
  DeviceBuffer<int> buf(dev, 5);
  const std::vector<int> part{9, 8};
  buf.upload(part, 2);
  const auto out = buf.to_host();
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(out[3], 8);
  EXPECT_EQ(out[0], 0);
}

TEST(DeviceBuffer, OutOfRangeUploadThrows) {
  Device dev(gtx280_model());
  DeviceBuffer<int> buf(dev, 2);
  const std::vector<int> three{1, 2, 3};
  EXPECT_THROW(buf.upload(three), Error);
}

TEST(DeviceBuffer, OffsetOverflowIsRejected) {
  // offset + host.size() wraps around SIZE_MAX; the naive check would
  // pass and memcpy into the weeds. The hardened check compares against
  // remaining capacity instead.
  Device dev(gtx280_model());
  DeviceBuffer<int> buf(dev, 4);
  const std::vector<int> two{1, 2};
  std::vector<int> sink(2);
  const std::size_t huge = std::numeric_limits<std::size_t>::max() - 1;
  EXPECT_THROW(buf.upload(two, huge), Error);
  EXPECT_THROW(buf.download(sink, huge), Error);
  EXPECT_THROW(buf.upload(two, 3), Error);  // offset in range, tail is not
  EXPECT_THROW(buf.download(sink, 3), Error);
}

TEST(DeviceBuffer, ZeroByteCopiesAreNotCharged) {
  Device dev(gtx280_model());
  DeviceBuffer<double> buf(dev, 4);
  const std::size_t h2d0 = dev.stats().h2d_count;
  const std::size_t d2h0 = dev.stats().d2h_count;
  buf.upload(std::span<const double>{});
  std::span<double> empty;
  buf.download(empty);
  buf.upload(std::span<const double>{}, 4);  // offset == size, empty: legal
  EXPECT_EQ(dev.stats().h2d_count, h2d0);
  EXPECT_EQ(dev.stats().d2h_count, d2h0);
  EXPECT_EQ(dev.stats().h2d_bytes, 0u);
  EXPECT_EQ(dev.stats().d2h_bytes, 0u);
}

TEST(Device, ZeroByteAccountedTransfersAreUncharged) {
  // Regression: the sparse compaction path (indices_where with no hits)
  // used to call account_d2h(0), which charged the full PCIe latency
  // floor and bumped d2h_count for a transfer that never reaches the
  // driver. Zero-byte accounting must now be a no-op, matching the
  // DeviceBuffer empty upload/download behavior.
  Device dev(gtx280_model());
  dev.account_h2d(0);
  dev.account_d2h(0);
  EXPECT_EQ(dev.stats().h2d_count, 0u);
  EXPECT_EQ(dev.stats().d2h_count, 0u);
  EXPECT_EQ(dev.stats().h2d_seconds, 0.0);
  EXPECT_EQ(dev.stats().d2h_seconds, 0.0);
  // The end-to-end site: an all-miss compaction returns no indices and
  // must leave the transfer ledger untouched.
  std::vector<double> host{1.0, 2.0, 3.0, 4.0};
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  const std::size_t d2h0 = dev.stats().d2h_count;
  const double d2h_s0 = dev.stats().d2h_seconds;
  const auto none = indices_where(buf, [](double v) { return v < 0.0; });
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(dev.stats().d2h_count, d2h0);
  EXPECT_EQ(dev.stats().d2h_seconds, d2h_s0);
}

TEST(DeviceBuffer, CopyFromIsDeviceSide) {
  Device dev(gtx280_model());
  std::vector<double> host{1, 2, 3};
  DeviceBuffer<double> a(dev, std::span<const double>(host));
  DeviceBuffer<double> b(dev, 3);
  const std::size_t h2d_before = dev.stats().h2d_count;
  b.copy_from(a);
  EXPECT_EQ(dev.stats().h2d_count, h2d_before);  // no PCIe traffic
  EXPECT_EQ(b.to_host(), host);
}

// ------------------------------------------------------------ primitives

class PrimitiveSizes : public ::testing::TestWithParam<std::size_t> {
 protected:
  Device dev_{gtx280_model()};
};

TEST_P(PrimitiveSizes, ReduceSumMatchesSerial) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n + 1);
  std::vector<double> host(n);
  for (auto& v : host) v = rng.uniform(-1.0, 1.0);
  DeviceBuffer<double> buf(dev_, std::span<const double>(host));
  const double expect = std::accumulate(host.begin(), host.end(), 0.0);
  EXPECT_NEAR(reduce_sum(buf), expect, 1e-9 * (1.0 + n));
}

TEST_P(PrimitiveSizes, ArgminMatchesSerial) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  Xoshiro256 rng(n + 2);
  std::vector<double> host(n);
  for (auto& v : host) v = rng.uniform(-10.0, 10.0);
  DeviceBuffer<double> buf(dev_, std::span<const double>(host));
  const auto r = argmin(buf);
  ASSERT_TRUE(r.found());
  const auto it = std::min_element(host.begin(), host.end());
  EXPECT_EQ(r.index, static_cast<std::size_t>(it - host.begin()));
  EXPECT_DOUBLE_EQ(r.value, *it);
}

TEST_P(PrimitiveSizes, ArgmaxMatchesSerial) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  Xoshiro256 rng(n + 3);
  std::vector<double> host(n);
  for (auto& v : host) v = rng.uniform(-10.0, 10.0);
  DeviceBuffer<double> buf(dev_, std::span<const double>(host));
  const auto r = argmax(buf);
  const auto it = std::max_element(host.begin(), host.end());
  EXPECT_EQ(r.index, static_cast<std::size_t>(it - host.begin()));
}

TEST_P(PrimitiveSizes, InclusiveScanMatchesSerial) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(n + 4);
  std::vector<double> host(n);
  for (auto& v : host) v = rng.uniform(0.0, 1.0);
  DeviceBuffer<double> in(dev_, std::span<const double>(host));
  DeviceBuffer<double> out(dev_, n);
  inclusive_scan(in, out);
  std::vector<double> expect(n);
  std::partial_sum(host.begin(), host.end(), expect.begin());
  const auto got = out.to_host();
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], expect[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrimitiveSizes,
                         ::testing::Values(0, 1, 2, 7, 255, 256, 257, 1000,
                                           4096));

TEST(Primitives, ArgminTieBreaksToLowestIndex) {
  Device dev(gtx280_model());
  std::vector<double> host{3.0, 1.0, 2.0, 1.0, 1.0};
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  EXPECT_EQ(argmin(buf).index, 1u);
}

TEST(Primitives, ArgminTieBreakAcrossBlocks) {
  Device dev(gtx280_model());
  std::vector<double> host(1000, 5.0);
  host[300] = -1.0;
  host[700] = -1.0;  // second block, same value
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  EXPECT_EQ(argmin(buf).index, 300u);
}

TEST(Primitives, FindFirstBelowFindsLowestIndex) {
  Device dev(gtx280_model());
  std::vector<double> host(600, 1.0);
  host[400] = -0.5;
  host[123] = -0.2;
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  const auto r = find_first_below(buf, 0.0);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.index, 123u);
  EXPECT_DOUBLE_EQ(r.value, -0.2);
}

TEST(Primitives, FindFirstBelowReportsMiss) {
  Device dev(gtx280_model());
  std::vector<double> host(100, 1.0);
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  EXPECT_FALSE(find_first_below(buf, 0.0).found());
}

TEST(Primitives, FillAndIota) {
  Device dev(gtx280_model());
  DeviceBuffer<double> buf(dev, 100);
  fill(buf, 2.5);
  for (double v : buf.to_host()) EXPECT_DOUBLE_EQ(v, 2.5);
  iota(buf, 10.0);
  const auto out = buf.to_host();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], 10.0 + double(i));
  }
}

TEST(Primitives, CountIfAndIndicesWhere) {
  Device dev(gtx280_model());
  std::vector<double> host(500);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = double(i % 5);
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  const auto is_zero = [](double v) { return v == 0.0; };
  EXPECT_EQ(count_if(buf, is_zero), 100u);
  const auto idx = indices_where(buf, is_zero);
  ASSERT_EQ(idx.size(), 100u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 5u);
  EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
}

TEST(Primitives, ResultsIndependentOfWorkerCount) {
  // Determinism requirement: the same bits regardless of parallelism.
  std::vector<float> host(3000);
  Xoshiro256 rng(99);
  for (auto& v : host) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  Device dev1(gtx280_model(), 1);
  Device dev4(gtx280_model(), 4);
  DeviceBuffer<float> b1(dev1, std::span<const float>(host));
  DeviceBuffer<float> b4(dev4, std::span<const float>(host));
  EXPECT_EQ(reduce_sum(b1), reduce_sum(b4));
  EXPECT_EQ(argmin(b1).index, argmin(b4).index);
}

TEST(Primitives, ScalarReadbacksAreCharged) {
  Device dev(gtx280_model());
  std::vector<double> host(100, 1.0);
  DeviceBuffer<double> buf(dev, std::span<const double>(host));
  const std::size_t before = dev.stats().d2h_count;
  (void)reduce_sum(buf);
  EXPECT_GT(dev.stats().d2h_count, before);
}

}  // namespace
}  // namespace gs::vgpu
