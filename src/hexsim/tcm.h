// Tightly Coupled Memory (TCM): the Hexagon NPU's 8 MiB software-managed on-chip scratchpad.
//
// All HMX operands and all vgather/vscatter targets must live in TCM (§3.1.2). The simulator
// models TCM as a host-side arena with bump allocation, explicit frames (kernels allocate a
// frame, use it, release it), and high-watermark tracking so tests can assert that kernels
// respect the 8 MiB budget (e.g. the exp LUT must only consume 64 KiB, §5.2.1).
#ifndef SRC_HEXSIM_TCM_H_
#define SRC_HEXSIM_TCM_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"
#include "src/base/aligned_buffer.h"

namespace hexsim {

class Tcm {
 public:
  explicit Tcm(int64_t capacity_bytes);

  // Allocates `bytes` with the given alignment; aborts if TCM is exhausted (a kernel tiling
  // bug, not a recoverable condition). Returns a host pointer into the arena.
  uint8_t* Alloc(int64_t bytes, int64_t alignment = 128);

  // Marks the current allocation point; Release() returns to it. Frames may nest.
  void PushFrame();
  void PopFrame();

  // Releases everything (including persistent allocations like the exp LUT).
  void Reset();

  // True if `p` points into the TCM arena (vgather/HMX operand validation).
  bool Contains(const void* p) const {
    const uint8_t* q = static_cast<const uint8_t*>(p);
    return q >= storage_.data() && q < storage_.data() + capacity_;
  }

  int64_t capacity() const { return capacity_; }
  int64_t used() const { return top_; }
  int64_t high_watermark() const { return high_watermark_; }
  int64_t free_bytes() const { return capacity_ - top_; }

  // Byte offset of `p` from the TCM base (the simulated TCM address; vgather offsets are
  // computed against this).
  int64_t OffsetOf(const void* p) const {
    HEXLLM_CHECK(Contains(p));
    return static_cast<const uint8_t*>(p) - storage_.data();
  }

  uint8_t* base() { return storage_.data(); }

 private:
  int64_t capacity_;
  int64_t top_ = 0;
  int64_t high_watermark_ = 0;
  std::vector<int64_t> frames_;
  hexllm::AlignedBuffer storage_;  // 128-byte aligned, like the hardware's vector-width banks
};

// RAII frame guard.
class TcmFrame {
 public:
  explicit TcmFrame(Tcm& tcm) : tcm_(tcm) { tcm_.PushFrame(); }
  ~TcmFrame() { tcm_.PopFrame(); }
  TcmFrame(const TcmFrame&) = delete;
  TcmFrame& operator=(const TcmFrame&) = delete;

 private:
  Tcm& tcm_;
};

}  // namespace hexsim

#endif  // SRC_HEXSIM_TCM_H_
