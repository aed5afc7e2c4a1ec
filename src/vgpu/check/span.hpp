// The span every DeviceBuffer hands to kernels: element access through
// the device's access sink, analyze::CaptureLog (CHECKING.md).
#pragma once

#include <cstddef>
#include <type_traits>

#include "vgpu/analyze/analyze.hpp"
#include "vgpu/check/check.hpp"

namespace gs::vgpu::check {

namespace detail {

/// Out-of-bounds accesses are redirected here so a checked run reports
/// the defect instead of corrupting neighbouring storage (or crashing).
template <typename T>
inline T& oob_cell() {
  thread_local T cell{};
  return cell;
}

}  // namespace detail

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

/// Span over device storage that funnels every element access through
/// the device's capture, if one is attached. With none (`log_ ==
/// nullptr`) each access costs one predictable branch around the raw
/// load/store — the zero-overhead-when-off contract shared with the trace
/// sink.
///
/// Kernels that keep raw `data()` pointers in their hot loops (for
/// vectorisation) declare their footprint in bulk with `read_range` /
/// `write_range` instead; the capture treats both identically.
template <typename T>
class CheckedSpan {
 public:
  using Elem = std::remove_const_t<T>;

  CheckedSpan() = default;
  CheckedSpan(T* data, std::size_t size, analyze::CaptureLog* log)
      : data_(data), size_(size), log_(log) {}

  /// Mutable spans convert to const views (mirrors std::span).
  operator CheckedSpan<const Elem>() const  // NOLINT(google-explicit-constructor)
    requires(!std::is_const_v<T>)
  {
    return {data_, size_, log_};
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
    if (log_ != nullptr) {
      if (i >= size_) {
        log_->note_oob(i, size_, /*is_write=*/false);
        return Elem{};
      }
      note(i, i + 1, /*is_write=*/false);
    }
    return data_[i];
  }

  void write(std::size_t i, Elem value) const
    requires(!std::is_const_v<T>)
  {
    if (log_ != nullptr) {
      if (i >= size_) {
        log_->note_oob(i, size_, /*is_write=*/true);
        detail::oob_cell<Elem>() = value;
        return;
      }
      note(i, i + 1, /*is_write=*/true);
    }
    data_[i] = value;
  }

  /// Bulk footprint annotations for kernels indexing through raw
  /// pointers. [lo, hi) is clamped to the span; the out-of-span part is
  /// reported as OOB.
  void read_range(std::size_t lo, std::size_t hi) const {
    if (log_ != nullptr) annotate(lo, hi, /*is_write=*/false);
  }
  void write_range(std::size_t lo, std::size_t hi) const
    requires(!std::is_const_v<T>)
  {
    if (log_ != nullptr) annotate(lo, hi, /*is_write=*/true);
  }

 private:
  void note(std::size_t lo, std::size_t hi, bool is_write) const {
    log_->note_range(data_, size_, elem_kind_of<T>(), sizeof(Elem), lo, hi,
                     is_write);
  }

  void annotate(std::size_t lo, std::size_t hi, bool is_write) const {
    if (lo > size_ || hi > size_) {
      log_->note_oob(hi > size_ ? hi - 1 : lo, size_, is_write);
    }
    lo = lo < size_ ? lo : size_;
    hi = hi < size_ ? hi : size_;
    if (lo < hi) note(lo, hi, is_write);
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  analyze::CaptureLog* log_ = nullptr;
};

}  // namespace gs::vgpu::check
