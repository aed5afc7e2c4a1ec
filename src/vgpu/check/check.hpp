// Kernel-safety checker for the virtual GPU: an opt-in checked execution
// mode that enforces CUDA kernel semantics on the substrate.
//
// The vgpu executes kernels functionally on the host, so defects that
// would corrupt results on a real GPU — cross-block data races,
// out-of-bounds indexing, NaN generation — are latent here, especially on
// a single-worker pool where blocks happen to run in order. A `Checker`
// attached to a `Device` records the per-block element footprint of every
// `launch_blocks` / `parallel_for` and, after each launch, reports:
//
//   1. data races   — element-level write-write or read-write overlap
//                     between *different* blocks (blocks are unordered on
//                     a GPU and under a multi-worker ThreadPool);
//   2. out-of-bounds — any access at index >= span size, with kernel name
//                     and index (the access is redirected to a scratch
//                     cell so checked runs never corrupt memory);
//   3. NaN introduction — a kernel whose outputs contain NaN while every
//                     value it read was finite (Inf optionally too);
//   4. cost lint    — observed element traffic vs. the declared
//                     KernelCost{flops, bytes}, flagging kernels whose
//                     roofline accounting drifted beyond a tolerance.
//
// Zero-overhead-when-off policy: like the trace sink, checking is a
// branch on a pointer. `DeviceBuffer::device_span()` returns a
// `CheckedSpan<T>` that holds the device's checker pointer; when no
// checker is attached every access is a single predictable null test
// around the raw load/store, and results are bit-identical to an
// unchecked build. See CHECKING.md for the full rules and limitations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace gs::vgpu::check {

/// Element type tag carried by a CheckedSpan so the checker can inspect
/// written values (NaN scan) without templates in its own interface.
enum class ElemKind : std::uint8_t { kF32, kF64, kOther };

template <typename T>
constexpr ElemKind elem_kind_of() {
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_same_v<U, float>) {
    return ElemKind::kF32;
  } else if constexpr (std::is_same_v<U, double>) {
    return ElemKind::kF64;
  } else {
    return ElemKind::kOther;
  }
}

enum class FindingKind : std::uint8_t {
  kRace,
  kOutOfBounds,
  kNonFinite,
  kCostMismatch,
};

std::string_view to_string(FindingKind kind);

/// One deduplicated defect report. Findings are keyed by (kind, kernel);
/// repeated occurrences bump `count` and keep the first `detail`.
struct Finding {
  FindingKind kind;
  std::string kernel;  ///< launch name ("<host>" for accesses outside one)
  std::string detail;  ///< human-readable specifics (index, blocks, ratio)
  std::size_t count = 1;
};

struct CheckConfig {
  bool races = true;
  bool non_finite = true;
  /// Flag Inf as well as NaN. Off by default: the ratio-test kernel
  /// legitimately writes +inf for ineligible rows.
  bool flag_infinite = false;
  bool cost_lint = true;
  /// Lint fires when observed bytes exceed declared bytes by this factor.
  /// Declarations are worst-case dense models, so observed < declared is
  /// legitimate (early-outs, sparsity); under-declaration is the bug.
  /// Tightened from 4x to 2x once the static analyzer started
  /// cross-checking declarations offline (CHECKING.md "Static analysis");
  /// all shipped kernels hold at 2x.
  double cost_ratio_tol = 2.0;
  /// Launches whose declared *and* observed traffic are both below this
  /// are ignored by the lint (fixed-size seeds, scalar postludes).
  double cost_min_bytes = 64.0;
  /// Stop growing the findings list after this many distinct entries.
  std::size_t max_findings = 64;
};

namespace detail {

/// Block id of the chunk currently executing on this thread. Set by the
/// Device's checked launch path before invoking the kernel body.
inline thread_local std::uint32_t tls_block = 0;

/// Out-of-bounds accesses are redirected here so a checked run reports
/// the defect instead of corrupting neighbouring storage (or crashing).
template <typename T>
inline T& oob_cell() {
  thread_local T cell{};
  return cell;
}

struct Interval {
  std::size_t lo, hi;  // half-open element range [lo, hi)
  std::uint32_t block;
};

}  // namespace detail

/// Abstract consumer of the substrate's access stream. `Device`,
/// `DeviceBuffer`, and `CheckedSpan` funnel every launch boundary, element
/// footprint, allocation, and transfer through the one sink attached to
/// the device. Two implementations exist:
///
///   * `Checker` (below)            — dynamic per-launch validation;
///   * `analyze::CaptureLog`        — static launch-graph capture
///                                    (src/vgpu/analyze, CHECKING.md
///                                    "Static analysis").
///
/// At most one sink is attached at a time, so the zero-overhead-when-off
/// contract is unchanged: every hook site is a single branch on one
/// pointer. The lifetime/transfer hooks default to no-ops because the
/// dynamic checker only cares about in-launch footprints.
class AccessSink {
 public:
  virtual ~AccessSink() = default;

  /// Device calls this before running the launch body across the pool.
  virtual void begin_launch(std::string_view kernel, double declared_flops,
                            double declared_bytes, std::size_t threads,
                            std::size_t block_size) = 0;
  /// Device calls this after the pool barrier.
  virtual void end_launch() = 0;

  /// Record a half-open element range [lo, hi). Kernels that operate on
  /// raw pointers for vectorisation annotate their footprint with
  /// CheckedSpan::read_range / write_range, which land here.
  virtual void note_range(const void* base, std::size_t extent, ElemKind kind,
                          std::size_t elem_size, std::size_t lo,
                          std::size_t hi, bool is_write) = 0;

  /// Record an out-of-bounds access (checked even outside launches).
  virtual void note_oob(std::size_t index, std::size_t extent,
                        bool is_write) = 0;

  // ---- Buffer lifetime + PCIe transfers (DeviceBuffer). ------------------
  // elem_size lets the capture log report element-typed ranges; bytes may
  // be zero for empty buffers (still a distinct live allocation).
  virtual void on_alloc(const void* base, std::size_t bytes,
                        std::size_t elem_size) {
    (void)base, (void)bytes, (void)elem_size;
  }
  virtual void on_free(const void* base) { (void)base; }
  /// Host-to-device copy of byte range [lo_byte, hi_byte) into the buffer
  /// at `base`; `host_data` points at the staged bytes (valid only for the
  /// duration of the call — hash, don't retain).
  virtual void on_h2d(const void* base, std::size_t lo_byte,
                      std::size_t hi_byte, const void* host_data) {
    (void)base, (void)lo_byte, (void)hi_byte, (void)host_data;
  }
  /// Device-to-host copy of byte range [lo_byte, hi_byte).
  virtual void on_d2h(const void* base, std::size_t lo_byte,
                      std::size_t hi_byte) {
    (void)base, (void)lo_byte, (void)hi_byte;
  }

  /// Record a single-element access from the current block (see
  /// detail::tls_block). Convenience shim over note_range.
  void note_access(const void* base, std::size_t extent, ElemKind kind,
                   std::size_t elem_size, std::size_t index, bool is_write) {
    note_range(base, extent, kind, elem_size, index, index + 1, is_write);
  }
};

/// Records per-block access footprints during a launch and analyses them
/// when the launch retires. Attach with `Device::set_checker`; the same
/// checker may outlive many launches and accumulates findings until
/// `reset()`. Recording is mutex-serialised, so multi-worker pools are
/// safe (checked mode trades speed for validation).
class Checker : public AccessSink {
 public:
  explicit Checker(CheckConfig config = {}) : cfg_(std::move(config)) {}

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  const CheckConfig& config() const { return cfg_; }
  const std::vector<Finding>& findings() const { return findings_; }
  bool clean() const { return findings_.empty(); }
  std::size_t launches_checked() const { return launches_; }

  /// Drop all findings and footprint state (config is kept).
  void reset();

  /// Multi-line human-readable report of every finding plus a summary.
  std::string report() const;

  // ---- Substrate-facing interface (Device / CheckedSpan). ----------------

  /// Device calls this before running the launch body across the pool.
  void begin_launch(std::string_view kernel, double declared_flops,
                    double declared_bytes, std::size_t threads,
                    std::size_t block_size) override;
  /// Device calls this after the pool barrier; runs race / NaN / cost
  /// analysis over the recorded footprints, then clears them.
  void end_launch() override;

  /// Record a half-open element range [lo, hi). No-op outside a launch:
  /// host-side span accesses between launches model the substrate's
  /// "unified memory" convenience and are not kernel semantics.
  void note_range(const void* base, std::size_t extent, ElemKind kind,
                  std::size_t elem_size, std::size_t lo, std::size_t hi,
                  bool is_write) override;

  /// Record an out-of-bounds access (checked even outside launches).
  void note_oob(std::size_t index, std::size_t extent, bool is_write) override;

 private:
  struct SpanLog {
    ElemKind kind = ElemKind::kOther;
    std::size_t elem_size = 0;
    const std::byte* base = nullptr;
    std::size_t extent = 0;
    std::vector<detail::Interval> reads, writes;
  };

  void add_finding(FindingKind kind, const std::string& kernel,
                   std::string detail);
  void analyze_races(const SpanLog& log);
  void analyze_non_finite();
  void analyze_cost();
  bool span_has_non_finite(const SpanLog& log,
                           const std::vector<detail::Interval>& ivals,
                           std::size_t* where) const;

  CheckConfig cfg_;
  mutable std::mutex mu_;
  std::vector<Finding> findings_;
  std::size_t dropped_ = 0;

  // Per-launch state.
  bool in_launch_ = false;
  std::string kernel_ = "<host>";
  double declared_bytes_ = 0.0;
  std::size_t launches_ = 0;
  std::unordered_map<const void*, SpanLog> logs_;
};

template <typename T>
class CheckedSpan;

/// Proxy returned by `CheckedSpan<T>::operator[]` for mutable spans: it
/// must observe whether the element is read or written, which a plain
/// `T&` cannot. Converts to T on read; assignment records a write.
template <typename T>
class ElemRef {
 public:
  ElemRef(const CheckedSpan<T>* span, std::size_t index)
      : span_(span), index_(index) {}
  ElemRef(const ElemRef&) = default;

  operator T() const { return span_->read(index_); }  // NOLINT(google-explicit-constructor)

  ElemRef& operator=(T value) {
    span_->write(index_, value);
    return *this;
  }
  ElemRef& operator=(const ElemRef& other) {
    span_->write(index_, static_cast<T>(other));
    return *this;
  }
  ElemRef& operator+=(T value) { return *this = static_cast<T>(*this) + value; }
  ElemRef& operator-=(T value) { return *this = static_cast<T>(*this) - value; }
  ElemRef& operator*=(T value) { return *this = static_cast<T>(*this) * value; }
  ElemRef& operator/=(T value) { return *this = static_cast<T>(*this) / value; }

 private:
  const CheckedSpan<T>* span_;
  std::size_t index_;
};

/// Span over device storage that funnels every element access through an
/// optional AccessSink (the dynamic Checker or the static-analysis
/// CaptureLog). With no sink attached (`chk_ == nullptr`) each access
/// costs one predictable branch around the raw load/store — the
/// zero-overhead-when-off contract shared with the trace sink.
///
/// Kernels that keep raw `data()` pointers in their hot loops (for
/// vectorisation) declare their footprint in bulk with `read_range` /
/// `write_range` instead; the checker treats both identically.
template <typename T>
class CheckedSpan {
 public:
  using Elem = std::remove_const_t<T>;

  CheckedSpan() = default;
  CheckedSpan(T* data, std::size_t size, AccessSink* sink)
      : data_(data), size_(size), chk_(sink) {}

  /// Mutable spans convert to const views (mirrors std::span).
  operator CheckedSpan<const Elem>() const  // NOLINT(google-explicit-constructor)
    requires(!std::is_const_v<T>)
  {
    return {data_, size_, chk_};
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() const { return data_; }

  decltype(auto) operator[](std::size_t i) const {
    if constexpr (std::is_const_v<T>) {
      return read(i);
    } else {
      return ElemRef<T>(this, i);
    }
  }

  Elem read(std::size_t i) const {
    if (chk_ != nullptr) {
      if (i >= size_) {
        chk_->note_oob(i, size_, /*is_write=*/false);
        return Elem{};
      }
      chk_->note_access(data_, size_, check::elem_kind_of<T>(), sizeof(Elem),
                        i, /*is_write=*/false);
    }
    return data_[i];
  }

  void write(std::size_t i, Elem value) const
    requires(!std::is_const_v<T>)
  {
    if (chk_ != nullptr) {
      if (i >= size_) {
        chk_->note_oob(i, size_, /*is_write=*/true);
        detail::oob_cell<Elem>() = value;
        return;
      }
      chk_->note_access(data_, size_, check::elem_kind_of<T>(), sizeof(Elem),
                        i, /*is_write=*/true);
    }
    data_[i] = value;
  }

  /// Bulk footprint annotations for kernels indexing through raw
  /// pointers. [lo, hi) is clamped to the span; the out-of-span part is
  /// reported as OOB.
  void read_range(std::size_t lo, std::size_t hi) const {
    if (chk_ != nullptr) annotate(lo, hi, /*is_write=*/false);
  }
  void write_range(std::size_t lo, std::size_t hi) const
    requires(!std::is_const_v<T>)
  {
    if (chk_ != nullptr) annotate(lo, hi, /*is_write=*/true);
  }

 private:
  void annotate(std::size_t lo, std::size_t hi, bool is_write) const {
    if (lo > size_ || hi > size_) {
      chk_->note_oob(hi > size_ ? hi - 1 : lo, size_, is_write);
    }
    lo = lo < size_ ? lo : size_;
    hi = hi < size_ ? hi : size_;
    if (lo < hi) {
      chk_->note_range(data_, size_, check::elem_kind_of<T>(), sizeof(Elem),
                       lo, hi, is_write);
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  AccessSink* chk_ = nullptr;
};

}  // namespace gs::vgpu::check
