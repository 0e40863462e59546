// Bump arena over one owned, zero-filled slab: the simulated TCM (the Hexagon NPU's 8 MiB
// software-managed scratchpad, §3.1.2) and the transformer's per-step scratch are each one.
//
// Alloc rounds the top up to the alignment and bumps it; PushFrame/PopFrame (or a Frame
// guard) nest stack-discipline scopes, so a kernel takes a frame, uses it and releases it;
// Reset rewinds everything. The slab never grows: an allocation past capacity is a sizing or
// tiling bug and CHECK-fails with the arena's label ("TCM exhausted"), and steady-state
// decode never touches the heap (docs/performance.md). high_watermark() survives Reset, so
// tests can assert a kernel's footprint (the exp LUT takes 64 KiB of TCM, §5.2.1).
//
// Not thread-safe: parallel lanes each own one (docs/threading_model.md).
#ifndef SRC_BASE_ARENA_H_
#define SRC_BASE_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/math_util.h"

namespace hexllm {

class Arena {
 public:
  // `alignment` (a power of two) aligns the slab's base and is Alloc's default.
  Arena(int64_t capacity_bytes, int64_t alignment, const char* label)
      : capacity_(capacity_bytes),
        alignment_(alignment),
        exhausted_(std::string(label) + " exhausted: allocation exceeds the arena's capacity") {
    HEXLLM_CHECK(capacity_bytes > 0 && IsPowerOfTwo(static_cast<uint64_t>(alignment)));
    base_ = static_cast<uint8_t*>(
        ::operator new(static_cast<size_t>(capacity_), std::align_val_t(alignment_)));
    std::memset(base_, 0, static_cast<size_t>(capacity_));
    frames_.reserve(8);
  }
  ~Arena() { ::operator delete(base_, std::align_val_t(alignment_)); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  uint8_t* Alloc(int64_t bytes) { return Alloc(bytes, alignment_); }
  uint8_t* Alloc(int64_t bytes, int64_t alignment) {
    HEXLLM_CHECK(bytes >= 0);
    const int64_t start = AlignUp(top_, alignment);
    HEXLLM_CHECK_MSG(start + bytes <= capacity_, exhausted_.c_str());
    top_ = start + bytes;
    high_watermark_ = std::max(high_watermark_, top_);
    return base_ + start;
  }
  // `count` uninitialized T's at the default alignment.
  template <typename T>
  T* Alloc(int64_t count) {
    return reinterpret_cast<T*>(Alloc(count * static_cast<int64_t>(sizeof(T))));
  }

  void PushFrame() { frames_.push_back(top_); }
  void PopFrame() {
    HEXLLM_CHECK(!frames_.empty());
    top_ = frames_.back();
    frames_.pop_back();
  }
  // Rewinds the whole arena; no frame may be open.
  void Reset() {
    HEXLLM_CHECK(frames_.empty());
    top_ = 0;
  }

  // RAII frame guard.
  class Frame {
   public:
    explicit Frame(Arena& arena) : arena_(arena) { arena_.PushFrame(); }
    ~Frame() { arena_.PopFrame(); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Arena& arena_;
  };

  int64_t capacity() const { return capacity_; }
  int64_t used() const { return top_; }
  int64_t free_bytes() const { return capacity_ - top_; }
  int64_t high_watermark() const { return high_watermark_; }

  // True if `p` points into the slab (vgather/HMX operand validation).
  bool Contains(const void* p) const {
    const uint8_t* q = static_cast<const uint8_t*>(p);
    return q >= base_ && q < base_ + capacity_;
  }
  // Byte offset of `p` from the base (for TCM, the simulated address vgather offsets use).
  int64_t OffsetOf(const void* p) const {
    HEXLLM_CHECK(Contains(p));
    return static_cast<const uint8_t*>(p) - base_;
  }
  uint8_t* base() { return base_; }

 private:
  int64_t capacity_;
  int64_t alignment_;
  std::string exhausted_;
  uint8_t* base_ = nullptr;
  int64_t top_ = 0;
  int64_t high_watermark_ = 0;
  std::vector<int64_t> frames_;
};

}  // namespace hexllm

#endif  // SRC_BASE_ARENA_H_
