// ZeroPageArray: a fixed-size integer array on its own anonymous mapping.
//
// The engine's per-block arrays (one entry per logical or physical block)
// are its largest structures, and a run reaches only part of them. Mapped
// from the kernel, every entry starts as 0 on a page that is not faulted
// in yet, so building the array writes nothing: a page costs its
// first-touch fault when an op first reaches it. Each owner makes 0 its
// empty value (by storing, for example, the complement of a value whose
// sentinel is all ones), so no constructor fills its array.
//
// The mapping is the array's own, outside glibc's heap: destroying the
// array hands its pages straight back to the kernel, and no heap trim can
// return pages that the next build would fault in again.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <utility>

namespace adapt {

namespace detail {
/// Maps `count * elem_bytes` bytes of zeroed anonymous memory; nullptr when
/// that is 0. Throws std::bad_alloc when the size overflows or the kernel
/// refuses the mapping.
void* map_zero_pages(std::size_t count, std::size_t elem_bytes);
/// Unmaps a map_zero_pages result of `bytes` bytes (nullptr is a no-op).
void unmap_zero_pages(void* data, std::size_t bytes) noexcept;
}  // namespace detail

template <typename T>
class ZeroPageArray {
  static_assert(std::is_integral_v<T>, "all-zero bytes must read as T{0}");

 public:
  ZeroPageArray() noexcept = default;
  /// `size` entries, every one 0, none of them touched yet.
  explicit ZeroPageArray(std::size_t size)
      : data_(static_cast<T*>(detail::map_zero_pages(size, sizeof(T)))),
        size_(size) {}
  ~ZeroPageArray() { detail::unmap_zero_pages(data_, bytes()); }

  ZeroPageArray(ZeroPageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  ZeroPageArray& operator=(ZeroPageArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ZeroPageArray(const ZeroPageArray&) = delete;
  ZeroPageArray& operator=(const ZeroPageArray&) = delete;

  std::size_t size() const noexcept { return size_; }
  /// Bytes the entries span (the mapping rounds them up to whole pages).
  std::size_t bytes() const noexcept { return size_ * sizeof(T); }
  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }

  T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace adapt
