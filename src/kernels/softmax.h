// Safe softmax on the HVX unit, with three interchangeable exp implementations (§5.2.1 and
// the Figure 14 ablation):
//
//   kF32Poly — conventional 32-bit float exp: widen FP16 lanes to FP32, evaluate
//              exp2(x*log2e) with floor/frac splitting and a degree-5 polynomial, assemble
//              2^k through the IEEE exponent field, narrow back. Half the lanes per register
//              and a long serial dependency chain (the paper's ILP complaint).
//   kF16Poly — same structure directly on 64 FP16 lanes with a degree-4 polynomial.
//   kLut     — the paper's technique: mask the sign bit, shift left 1, vgather from the
//              64 KiB exp table in TCM. One long-latency gather replaces the whole chain.
//
// Gather-port contention: when several rows are processed by concurrently-running HVX
// threads, their vgathers contend on the TCM banks; effective gather cost grows mildly with
// the number of in-flight rows. This models the paper's observation that a larger input
// query reduces the LUT speedup at short context lengths (§7.4).
#ifndef SRC_KERNELS_SOFTMAX_H_
#define SRC_KERNELS_SOFTMAX_H_

#include <cstdint>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/exp_lut.h"

namespace hkern {

enum class SoftmaxVariant : uint8_t {
  kF32Poly,
  kF16Poly,
  kLut,
};

// exp(x) for a register of non-positive FP16 lanes. `parallel_rows` is the number of rows
// being processed concurrently (gather contention; ignored by the polynomial variants).
// `lut` may be null for the polynomial variants.
hexsim::HvxVec ExpNonPosF16(hexsim::NpuDevice& dev, SoftmaxVariant v, const ExpLut* lut,
                            const hexsim::HvxVec& x, int parallel_rows);

// In-place row-wise safe softmax over an FP16 matrix s[rows x cols] resident in TCM.
// cols must be a multiple of 64. Row sums are accumulated in FP32 (Algorithm 1). Packet
// costs are charged to the device ledger under Tag::kSoftmax.
void SoftmaxRowsF16(hexsim::NpuDevice& dev, SoftmaxVariant v, const ExpLut* lut,
                    hexllm::F16* s, int rows, int cols);

// Analytic packet-cost model for one softmax call (validated against the emulated kernel in
// tests; used by the timing-mode engine).
int64_t SoftmaxPacketCost(const hexsim::DeviceProfile& profile, SoftmaxVariant v, int rows,
                          int cols);

// Packet cost of exp alone for one 64-lane register (exposed for the cost model and tests).
int64_t ExpRegPacketCost(const hexsim::DeviceProfile& profile, SoftmaxVariant v,
                         int parallel_rows);

}  // namespace hkern

#endif  // SRC_KERNELS_SOFTMAX_H_
