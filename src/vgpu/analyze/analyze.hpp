// Launch-graph static analyzer for the virtual GPU (CHECKING.md, "Static
// analysis").
//
// The dynamic checker (src/vgpu/check) validates each launch while it
// runs; nothing there proves properties of the launch *stream* — that the
// issue order covers every data dependency, that no transferred byte is
// wasted, that buffers are not leaked or churned. This subsystem adds an
// offline pass over a captured trace of the stream:
//
//   CaptureLog  — a check::AccessSink that records every kernel launch,
//                 PCIe transfer, allocation, and free as a node carrying
//                 its merged byte-range footprint per buffer. Capture is
//                 attach-and-forget (SolverOptions::analyzer or
//                 Device::set_capture) and bit-identical-when-off like
//                 every other observer.
//   analyze()   — builds the buffer-level dependency DAG over the nodes
//                 and reports:
//                   (a) RAW/WAR/WAW hazards: conflicting accesses between
//                       nodes with no ordering edge (different streams, no
//                       fence). All engines issue on one stream, so they
//                       are machine-checked hazard-free; the stream/fence
//                       API exists for seeded defects today and the
//                       multi-device sharding work (ROADMAP item 4).
//                   (b) dead stores (bytes written, never read before
//                       overwrite or free) and redundant transfers (h2d of
//                       bytes whose content is unchanged since the last
//                       upload, d2h of a range the device has not written
//                       since it was last downloaded), with wasted-bytes
//                       totals;
//                   (c) uninitialized device reads — a kernel reading
//                       bytes never written by a kernel or upload since
//                       allocation. The substrate zero-fills allocations,
//                       but real device allocators do not; relying on the
//                       zero-fill is a latent porting bug.
//                   (d) buffer-lifetime stats: peak live bytes, alloc/free
//                       churn, leaks — the gated baseline for ROADMAP
//                       item 5's arena allocator;
//                   (e) static cost-declaration consistency: merged
//                       footprint bytes vs the declared KernelCost, the
//                       offline twin of the checker's dynamic 2x lint.
//
// The capture drops per-block detail (cross-block races inside one launch
// stay the dynamic checker's domain) and keeps only merged per-buffer
// intervals, so capture cost is far below checked execution. At most one
// sink (checker or capture) can be attached to a Device at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vgpu/check/check.hpp"

namespace gs::vgpu::analyze {

/// Sorted, disjoint, half-open byte intervals. Small helper shared by the
/// capture (footprint merging) and the analyzer (initialized-byte sets).
class IntervalSet {
 public:
  void add(std::uint64_t lo, std::uint64_t hi);
  /// True iff every byte of [lo, hi) is contained.
  [[nodiscard]] bool covers(std::uint64_t lo, std::uint64_t hi) const;
  /// First sub-range of [lo, hi) NOT contained (valid when !covers).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> first_gap(
      std::uint64_t lo, std::uint64_t hi) const;
  [[nodiscard]] bool empty() const { return ivals_.empty(); }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
  intervals() const {
    return ivals_;
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ivals_;
};

enum class NodeKind : std::uint8_t {
  kKernel,  ///< launch_blocks / parallel_for
  kHost,    ///< CheckedSpan accesses outside any launch (scalar glue)
  kH2d,     ///< DeviceBuffer::upload / upload_value
  kD2h,     ///< DeviceBuffer::download / download_value
  kAlloc,
  kFree,
  kFence,   ///< CaptureLog::fence() — global ordering barrier
};

std::string_view to_string(NodeKind kind);

/// One byte-range access of a node into one buffer.
struct Access {
  std::uint32_t buffer;     ///< index into CaptureLog::buffers()
  std::uint64_t lo, hi;     ///< half-open byte range within the buffer
};

/// One event in the captured stream, in issue order (seq).
struct Node {
  NodeKind kind = NodeKind::kKernel;
  std::string name;              ///< kernel name; "h2d"/"d2h"/"alloc"/...
  std::uint64_t seq = 0;         ///< position in the stream
  std::uint32_t stream = 0;      ///< issue stream (engines use 0)
  std::uint32_t buffer = kNoBuffer;  ///< transfer/alloc/free target
  double declared_flops = 0.0;   ///< kernel nodes: declared KernelCost
  double declared_bytes = 0.0;
  std::size_t threads = 0;
  std::uint64_t content_hash = 0;  ///< h2d nodes: FNV-1a of staged bytes
  std::vector<Access> reads, writes;  ///< merged byte footprints
  /// Reads of PRE-launch state: bytes read before any write by the same
  /// block within this launch. Kernels that fill a block-local scratch
  /// range and then reduce over it (the fused price_select/ftran_ratio
  /// pattern) read their own fresh writes — those bytes appear in
  /// `reads` (full footprint, used for dependencies/hazards) but not
  /// here. The uninitialized-read detector checks this list only. A
  /// read of ANOTHER block's same-launch write still lands here: there
  /// is no intra-launch cross-block ordering, so such a read observes
  /// pre-launch state on real hardware too.
  std::vector<Access> prior_reads;

  static constexpr std::uint32_t kNoBuffer = 0xffffffffu;
};

/// Identity and lifetime of one device buffer seen by the capture.
struct BufferInfo {
  std::string label;        ///< "#<id>" unless set_label() named it
  std::uint64_t bytes = 0;  ///< allocation size (grown to max touched byte
                            ///< for pre-existing buffers)
  std::size_t elem_size = 0;
  bool preexisting = false;  ///< first seen mid-stream: allocated before
                             ///< capture attached; assumed initialized
  std::uint64_t alloc_seq = 0;
  std::int64_t free_seq = -1;  ///< -1: still live when capture ended
};

/// Access-stream recorder. Attach to a Device with set_capture() (or let
/// an engine do it via SolverOptions::analyzer), run the workload, then
/// hand the log to analyze(). The log is borrowed by the device and must
/// outlive the attachment; it may span multiple solves and accumulates
/// until reset(). Recording is mutex-serialised (launch bodies touch
/// spans from every pool worker).
class CaptureLog : public check::AccessSink {
 public:
  CaptureLog() = default;
  CaptureLog(const CaptureLog&) = delete;
  CaptureLog& operator=(const CaptureLog&) = delete;

  // ---- AccessSink interface (Device / DeviceBuffer / CheckedSpan). -------
  void begin_launch(std::string_view kernel, double declared_flops,
                    double declared_bytes, std::size_t threads,
                    std::size_t block_size) override;
  void end_launch() override;
  void note_range(const void* base, std::size_t extent, check::ElemKind kind,
                  std::size_t elem_size, std::size_t lo, std::size_t hi,
                  bool is_write) override;
  /// Bounds violations are the dynamic checker's job; the capture ignores
  /// them (the access is redirected to scratch and never lands here).
  void note_oob(std::size_t index, std::size_t extent, bool is_write) override;
  void on_alloc(const void* base, std::size_t bytes,
                std::size_t elem_size) override;
  void on_free(const void* base) override;
  void on_h2d(const void* base, std::size_t lo_byte, std::size_t hi_byte,
              const void* host_data) override;
  void on_d2h(const void* base, std::size_t lo_byte,
              std::size_t hi_byte) override;

  // ---- Stream model. -----------------------------------------------------
  /// Subsequent nodes are issued on `stream`. Engines never call this
  /// (everything rides stream 0, totally ordered); seeded-defect tests and
  /// future multi-device work use it to express concurrency.
  void set_stream(std::uint32_t stream);
  /// Global ordering barrier: every node issued before the fence happens
  /// before every node issued after it, across all streams.
  void fence();

  /// Name the buffer at `base` for reports (defaults to "#<id>").
  void set_label(const void* base, std::string label);

  /// Drop all captured state (labels included).
  void reset();

  // ---- Analyzer-facing view. ---------------------------------------------
  /// Flush any pending host-access node and return the stream. Call after
  /// the workload is done; analyze() does this for you.
  const std::vector<Node>& nodes();
  [[nodiscard]] const std::vector<BufferInfo>& buffers() const {
    return buffers_;
  }
  [[nodiscard]] std::size_t launches_captured() const { return launches_; }
  [[nodiscard]] std::uint32_t stream_count() const { return stream_count_; }

 private:
  std::uint32_t id_for_locked(const void* base, std::uint64_t min_bytes,
                              std::size_t elem_size);
  void flush_host_locked();
  Node& append_locked(NodeKind kind, std::string name);

  mutable std::mutex mu_;
  std::vector<Node> nodes_;
  std::vector<BufferInfo> buffers_;
  std::unordered_map<const void*, std::uint32_t> live_;  ///< base -> id
  std::uint64_t seq_ = 0;
  std::uint32_t stream_ = 0;
  std::uint32_t stream_count_ = 1;
  std::size_t launches_ = 0;

  // In-flight launch (or pending host) footprint: per buffer, raw
  // append-or-extend interval lists, merged when the node retires.
  struct PendingAccess {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reads, writes;
    /// Subranges of `reads` not preceded by a same-block write in this
    /// launch (feeds Node::prior_reads).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> prior_reads;
    /// Bytes written so far in this launch, keyed by block id
    /// (check::detail::tls_block) — block-local program order is the
    /// only intra-launch ordering the capture may assume.
    std::map<std::uint32_t, IntervalSet> block_writes;
  };
  bool in_launch_ = false;
  Node pending_;
  std::map<std::uint32_t, PendingAccess> pending_access_;
  bool host_pending_ = false;

  void note_range_locked(std::uint32_t id, std::uint64_t lo, std::uint64_t hi,
                         bool is_write);
  void retire_pending_locked();
};

// ---- Analysis results. ---------------------------------------------------

struct Hazard {
  std::string kind;  ///< "RAW" | "WAR" | "WAW"
  std::uint64_t first_seq, second_seq;
  std::string first, second;  ///< node names
  std::uint32_t buffer;
  std::uint64_t lo, hi;  ///< overlapping byte range
};

/// Dead stores aggregated per (writer kernel, buffer).
struct DeadStore {
  std::string kernel;
  std::uint32_t buffer;
  std::uint64_t bytes = 0;   ///< written-never-read bytes
  std::size_t count = 0;     ///< distinct dead write ranges
  std::uint64_t first_seq = 0;
};

/// Redundant transfers aggregated per (direction, buffer).
struct RedundantTransfer {
  std::string dir;  ///< "h2d" | "d2h"
  std::uint32_t buffer;
  std::uint64_t bytes = 0;
  std::size_t count = 0;
  std::uint64_t first_seq = 0;
};

struct UninitRead {
  std::string kernel;
  std::uint32_t buffer;
  std::uint64_t lo, hi;  ///< first uninitialized byte range read
  std::uint64_t seq;
};

struct CostFinding {
  std::string kernel;
  double declared_bytes;
  double footprint_bytes;
  double ratio;
  std::size_t count = 0;  ///< launches of this kernel over the tolerance
};

struct AnalyzeConfig {
  /// Flag kernels whose merged footprint exceeds declared bytes by this
  /// factor. Matches the dynamic checker's tightened lint; the static
  /// footprint is merged (re-touches collapse), so dynamic-clean implies
  /// static-clean.
  double cost_ratio_tol = 2.0;
  /// Ignore launches whose declared and footprint bytes are both below
  /// this (fixed-size seeds, scalar postludes).
  double cost_min_bytes = 64.0;
  /// Cap per report list; totals always cover everything.
  std::size_t max_findings = 64;
};

struct Report {
  // (a) ordering hazards + the dependency DAG they are checked against.
  std::vector<Hazard> hazards;
  std::size_t raw_edges = 0;  ///< writer->reader edges discovered
  // (b) wasted bytes.
  std::vector<DeadStore> dead_stores;
  std::uint64_t dead_store_bytes = 0;
  std::vector<RedundantTransfer> redundant_transfers;
  std::uint64_t redundant_h2d_bytes = 0;
  std::uint64_t redundant_d2h_bytes = 0;
  std::uint64_t h2d_bytes = 0;  ///< total captured transfer traffic
  std::uint64_t d2h_bytes = 0;
  // (c) uninitialized reads.
  std::vector<UninitRead> uninit_reads;
  // (d) buffer lifetime.
  std::uint64_t peak_live_bytes = 0;
  std::size_t alloc_count = 0;      ///< allocations captured
  std::size_t free_count = 0;
  std::size_t preexisting_count = 0;  ///< buffers allocated before attach
  std::size_t live_at_end = 0;        ///< captured allocs never freed
  // (e) cost-declaration consistency.
  std::vector<CostFinding> cost_findings;
  // Stream shape.
  std::size_t node_count = 0;
  std::size_t kernel_nodes = 0;
  /// Buffer table echoed for attribution (label, size, lifetime).
  std::vector<BufferInfo> buffer_table;

  /// Wasted transfer bytes as a fraction of total captured traffic
  /// (0 when nothing was transferred).
  [[nodiscard]] double dead_transfer_fraction() const;
  /// The CI gate: no hazards, no uninitialized reads, no cost drift, and
  /// dead-transfer bytes within `dead_transfer_budget` (fraction of total
  /// traffic). Dead stores are reported but not gated: a solve's final
  /// iteration legitimately writes state nothing reads back.
  [[nodiscard]] bool gate_clean(double dead_transfer_budget = 0.01) const;

  /// Human-readable multi-line summary.
  [[nodiscard]] std::string summary() const;
  /// Machine-readable report, schema "gs-analyze-v1".
  [[nodiscard]] std::string to_json() const;
};

/// Run every detector over the captured stream. Flushes the log's pending
/// host node; the log itself is not consumed and may keep accumulating.
Report analyze(CaptureLog& log, const AnalyzeConfig& config = {});

}  // namespace gs::vgpu::analyze
