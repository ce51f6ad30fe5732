// Cache-aligned raw storage for SoA pools.
//
// AlignedBuffer is the allocation substrate under coflow::FlowPool: one
// ::operator new block aligned to the cache line, carved into parallel
// arrays that each start on their own 64-byte boundary. Keeping the whole
// pool in a single allocation (instead of one vector per array) makes
// admitting a CoFlow one allocation and reclaiming it one free, and the
// block's address never changes, so the raw lane pointers and FlowState
// handles carved from it stay valid for the pool's lifetime. Starting
// each array on a line boundary keeps a dense walk over one lane from
// sharing its first line with the previous lane's tail.
#pragma once

#include <cstddef>
#include <new>
#include <utility>

namespace saath::parallel {

/// One cache-line-aligned raw allocation. Move-only; the pointer is stable
/// for the buffer's lifetime (handles into it never dangle on move of the
/// *owner*, only on reset()).
class AlignedBuffer {
 public:
  static constexpr std::size_t kAlignment = 64;

  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t bytes) { reset(bytes); }
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  ~AlignedBuffer() { release(); }

  /// Frees the current block and allocates `bytes` fresh (0 just frees).
  /// Contents are uninitialized; callers lay out and fill their arrays.
  void reset(std::size_t bytes) {
    release();
    if (bytes > 0) {
      data_ = static_cast<std::byte*>(
          ::operator new(bytes, std::align_val_t{kAlignment}));
      bytes_ = bytes;
    }
  }

  [[nodiscard]] std::byte* data() { return data_; }
  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size_bytes() const { return bytes_; }

 private:
  void release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{kAlignment});
      data_ = nullptr;
      bytes_ = 0;
    }
  }

  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Rounds `bytes` up to the next cache-line multiple, so consecutive
/// arrays carved from one AlignedBuffer each start 64-byte aligned.
[[nodiscard]] constexpr std::size_t align_up_cache_line(std::size_t bytes) {
  return (bytes + AlignedBuffer::kAlignment - 1) &
         ~(AlignedBuffer::kAlignment - 1);
}

}  // namespace saath::parallel
