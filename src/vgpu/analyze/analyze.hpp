// The device's access stream and the launch-graph analyzer over it
// (CHECKING.md, "Static analysis").
//
// `CaptureLog` is the one sink the substrate reports to: every kernel
// launch, PCIe transfer, allocation, free and element access through a
// DeviceBuffer span. It records each launch, transfer, allocation and
// free as a node carrying its merged byte-range footprint per buffer,
// and as each launch retires it runs the one cost lint and, with a
// `check::Checker` attached, hands the launch's block-tagged footprints
// to the checker (races, NaN introduction; out-of-bounds accesses go to
// the checker as they happen). Attach it with `Device::set_capture` or
// through `SolverOptions::analyzer`; like every observer it leaves
// results bit-identical.
//
// `analyze()` builds the buffer-level dependency DAG over the nodes and
// reports:
//   (a) RAW/WAR/WAW hazards: conflicting accesses between nodes with no
//       ordering edge (different streams, no fence). All engines issue on
//       one stream, so they are machine-checked hazard-free; the
//       stream/fence API exists for seeded defects and multi-stream work;
//   (b) dead stores (bytes written, never read before overwrite or free)
//       and redundant transfers (h2d of bytes whose content is unchanged
//       since the last upload, d2h of a range the device has not written
//       since it was last downloaded), with wasted-bytes totals;
//   (c) uninitialized device reads — a kernel reading bytes never written
//       by a kernel or upload since allocation. The substrate zero-fills
//       allocations, but real device allocators do not; relying on the
//       zero-fill is a latent porting bug;
//   (d) buffer-lifetime stats: peak live bytes, alloc/free churn, leaks;
//   (e) the cost lint's findings: kernels whose recorded traffic exceeds
//       the declared KernelCost bytes.
//
// Recording costs about as much as checked execution (OBSERVABILITY.md
// measures both): every element access takes the capture's lock.
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

/// Sorted, disjoint, half-open intervals. Small helper shared by the
/// capture (each block's written elements) and the analyzer
/// (initialized-byte sets).
class IntervalSet {
 public:
  void add(std::uint64_t lo, std::uint64_t hi);
  /// True iff every byte of [lo, hi) is contained.
  [[nodiscard]] bool covers(std::uint64_t lo, std::uint64_t hi) const;
  /// First sub-range of [lo, hi) NOT contained (valid when !covers).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> first_gap(
      std::uint64_t lo, std::uint64_t hi) const;

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

/// The cost lint's record of one kernel (analyze::Report).
struct CostFinding {
  std::string kernel;
  double declared_bytes;
  double footprint_bytes;  ///< bytes of every recorded access in the launch
  double ratio;
  std::size_t count = 0;  ///< launches of this kernel over the tolerance
};

/// The cost lint flags a launch whose recorded traffic (the bytes of
/// every element access, re-touches included) exceeds its declared bytes
/// by this factor. Declarations are worst-case dense models, so less
/// traffic than declared is legitimate (early-outs, sparsity);
/// under-declaration is the bug.
inline constexpr double kCostRatioTol = 2.0;
/// Launches whose declared and recorded traffic are both below this are
/// not linted (fixed-size seeds, scalar postludes).
inline constexpr double kCostMinBytes = 64.0;

/// The device's access stream. Attach to a Device with set_capture() (or
/// let an engine do it via SolverOptions::analyzer), run the workload,
/// then hand the log to analyze(). The log is borrowed by the device and
/// must outlive the attachment; it may span multiple solves and
/// accumulates until reset(). Recording is mutex-serialised (launch
/// bodies touch spans from every pool worker).
class CaptureLog {
 public:
  CaptureLog() = default;
  CaptureLog(const CaptureLog&) = delete;
  CaptureLog& operator=(const CaptureLog&) = delete;

  /// Feed `checker` (nullptr: no checker) every launch that retires from
  /// now on, every out-of-bounds access and every cost-lint hit. The
  /// checker is borrowed and must outlive the attachment.
  void set_checker(check::Checker* checker);

  // ---- Substrate hooks (Device / DeviceBuffer / CheckedSpan). -------------
  /// Device brackets every launch body with these.
  void begin_launch(std::string_view kernel, double declared_bytes);
  void end_launch();
  /// An access to elements [lo, hi) of the `extent`-element span at
  /// `base`, from the block in check::detail::tls_block.
  void note_range(const void* base, std::size_t extent, check::ElemKind kind,
                  std::size_t elem_size, std::size_t lo, std::size_t hi,
                  bool is_write);
  /// An out-of-bounds access, inside a launch or outside one; CheckedSpan
  /// redirects the access itself to scratch.
  void note_oob(std::size_t index, std::size_t extent, bool is_write);
  // Buffer lifetime and PCIe transfers (DeviceBuffer). `bytes` may be zero
  // for empty buffers; `host_data` holds the staged upload bytes for the
  // duration of the call (hashed, not retained).
  void on_alloc(const void* base, std::size_t bytes, std::size_t elem_size);
  void on_free(const void* base);
  void on_h2d(const void* base, std::size_t lo_byte, std::size_t hi_byte,
              const void* host_data);
  void on_d2h(const void* base, std::size_t lo_byte, std::size_t hi_byte);

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

  /// Drop all captured state (labels and cost-lint hits included; the
  /// checker stays attached).
  void reset();

  // ---- Analyzer-facing view. ---------------------------------------------
  /// Flush any pending host-access node and return the stream. Call after
  /// the workload is done; analyze() does this for you.
  const std::vector<Node>& nodes();
  [[nodiscard]] const std::vector<BufferInfo>& buffers() const {
    return buffers_;
  }
  /// The cost lint's hits so far, by kernel name.
  [[nodiscard]] const std::map<std::string, CostFinding>& cost_findings()
      const {
    return cost_;
  }
  [[nodiscard]] std::size_t launches_captured() const { return launches_; }
  [[nodiscard]] std::uint32_t stream_count() const { return stream_count_; }

 private:
  std::uint32_t id_for_locked(const void* base, std::uint64_t min_bytes,
                              std::size_t elem_size);
  void flush_host_locked();
  Node& append_locked(NodeKind kind, std::string name);
  void retire_pending_locked();
  void lint_cost_locked(double traffic);

  mutable std::mutex mu_;
  check::Checker* checker_ = nullptr;
  std::vector<Node> nodes_;
  std::vector<BufferInfo> buffers_;
  std::unordered_map<const void*, std::uint32_t> live_;  ///< base -> id
  std::map<std::string, CostFinding> cost_;
  std::uint64_t seq_ = 0;
  std::uint32_t stream_ = 0;
  std::uint32_t stream_count_ = 1;
  std::size_t launches_ = 0;

  // In-flight launch (or pending host) footprint per buffer: the
  // block-tagged element intervals, merged into byte ranges when the node
  // retires.
  struct PendingAccess {
    check::SpanLog log;
    /// Subranges of `log.reads` not preceded by a same-block write in this
    /// launch (feeds Node::prior_reads).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> prior_reads;
    /// Elements written so far in this launch, keyed by block id —
    /// block-local program order is the only intra-launch ordering the
    /// capture may assume.
    std::map<std::uint32_t, IntervalSet> block_writes;
  };
  bool in_launch_ = false;
  double declared_bytes_ = 0.0;
  Node pending_;
  std::map<std::uint32_t, PendingAccess> pending_access_;
  bool host_pending_ = false;
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
/// Each report list holds at most check::kMaxFindings entries; totals
/// always cover everything.
Report analyze(CaptureLog& log);

}  // namespace gs::vgpu::analyze
