// The precomputed exp lookup table for LUT-based Softmax (§5.2.1).
//
// Safe softmax guarantees every exp input is <= 0 (the row max is subtracted), so only the
// non-positive half of the FP16 space needs table entries: 32768 entries x 2 bytes = 64 KiB,
// exactly addressable by vgather's 16-bit byte offsets. The input transformation is pure bit
// manipulation: ignore the FP16 sign bit (inputs are negative by construction) and shift
// left by one to turn the 15-bit magnitude into a byte offset.
//
// Entries are computed in double precision at initialization (the paper notes this makes the
// LUT *more* accurate than 16-bit polynomial evaluation) and the table lives in a persistent
// 64 KiB TCM region — 0.8% of the 8 MiB TCM.
#ifndef SRC_KERNELS_EXP_LUT_H_
#define SRC_KERNELS_EXP_LUT_H_

#include <cstdint>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"

namespace hkern {

class ExpLut {
 public:
  static constexpr int kEntries = 32768;
  static constexpr int64_t kBytes = kEntries * 2;  // 64 KiB

  // Builds the table into a persistent TCM allocation of `device`.
  explicit ExpLut(hexsim::NpuDevice& device);

  // Copies `model`'s table bytes into a persistent TCM allocation of `device` (a lane
  // shard's own TCM). Recomputes nothing and counts no build: one model, one table.
  ExpLut(hexsim::NpuDevice& device, const ExpLut& model);

  // TCM byte offset of entry 0 (vgather base address).
  int64_t tcm_offset() const { return tcm_offset_; }

  // Byte offset of the entry for FP16 input bits `h` (h encodes a value <= 0):
  // drop the sign bit, shift left one.
  static uint16_t OffsetForInputBits(uint16_t h) {
    return static_cast<uint16_t>((h & 0x7FFF) << 1);
  }

  // Scalar reference lookup (tests, scalar paths): exp(x) for x <= 0 via the table.
  float Lookup(hexllm::F16 x) const;

  const hexllm::F16* data() const { return table_; }

 private:
  hexllm::F16* table_;
  int64_t tcm_offset_;
};

}  // namespace hkern

#endif  // SRC_KERNELS_EXP_LUT_H_
