// Kernel-safety checker for the virtual GPU: the per-launch report of an
// opt-in checked execution mode that enforces CUDA kernel semantics on
// the substrate.
//
// The vgpu executes kernels functionally on the host, so defects that
// would corrupt results on a real GPU — cross-block data races,
// out-of-bounds indexing, NaN generation — are latent here, especially on
// a single-worker pool where blocks happen to run in order. The device's
// one access sink, `analyze::CaptureLog`, records the per-block element
// footprint of every `launch_blocks` / `parallel_for`; with a `Checker`
// attached it hands each launch over as the launch retires, and the
// checker reports:
//
//   1. data races   — element-level write-write or read-write overlap
//                     between *different* blocks (blocks are unordered on
//                     a GPU and under a multi-worker ThreadPool);
//   2. out-of-bounds — any access at index >= span size, with kernel name
//                     and index (the access is redirected to a scratch
//                     cell so checked runs never corrupt memory);
//   3. NaN introduction — a kernel whose outputs contain NaN while every
//                     value it read was finite;
//   4. cost lint    — the capture's one lint of recorded element traffic
//                     against the declared KernelCost bytes, which feeds
//                     the analyzer's report too.
//
// See CHECKING.md for the full rules and limitations, and check/span.hpp
// for the span that records the accesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
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

/// Each findings list (the checker's, and each of the analyzer's report
/// lists) stops growing after this many distinct entries.
inline constexpr std::size_t kMaxFindings = 64;

namespace detail {

/// Block id of the chunk currently executing on this thread. Set by the
/// Device's captured launch path before invoking the kernel body.
inline thread_local std::uint32_t tls_block = 0;

struct Interval {
  std::size_t lo, hi;  // half-open element range [lo, hi)
  std::uint32_t block;
};

}  // namespace detail

/// One buffer's accesses in one launch, as the capture records them:
/// block-tagged element intervals in access order, where a block's
/// sequential sweep extends one interval.
struct SpanLog {
  const std::byte* base = nullptr;  ///< the buffer's storage
  std::size_t extent = 0;           ///< elements
  std::size_t elem_size = 0;
  ElemKind kind = ElemKind::kOther;
  std::vector<detail::Interval> reads, writes;
};

/// The kernel-safety report. `SolverOptions::checker` (or
/// `analyze::CaptureLog::set_checker`) attaches it to the capture the
/// device's access stream runs into; the capture feeds it every retired
/// launch, every out-of-bounds access and every cost-lint hit, and
/// serialises those calls. Findings accumulate until `reset()`.
class Checker {
 public:
  Checker() = default;
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  const std::vector<Finding>& findings() const { return findings_; }
  bool clean() const { return findings_.empty(); }
  std::size_t launches_checked() const { return launches_; }

  /// Drop all findings and the launch count.
  void reset();

  /// Multi-line human-readable report of every finding plus a summary.
  std::string report() const;

  // ---- Capture-facing interface. ------------------------------------------

  /// Check one retired launch's footprints for cross-block races and NaN
  /// introduction. Values are read from the spans' storage, post-launch.
  void check_launch(std::string_view kernel,
                    const std::vector<const SpanLog*>& spans);

  /// Record a finding; a repeat of (kind, kernel) bumps its count.
  void add_finding(FindingKind kind, std::string_view kernel,
                   std::string detail);

 private:
  void check_races(std::string_view kernel, const SpanLog& log);
  void check_non_finite(std::string_view kernel,
                        const std::vector<const SpanLog*>& spans);

  std::vector<Finding> findings_;
  std::size_t dropped_ = 0;
  std::size_t launches_ = 0;
};

}  // namespace gs::vgpu::check
