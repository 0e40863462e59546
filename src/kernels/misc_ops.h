// Miscellaneous HVX operators: RMSNorm, RoPE, SiLU, residual add.
//
// §5.2.1 classifies these as small contributors ("we neglect their impacts due to their
// small computation and memory access volumes"), but a complete backend still needs them:
// they run on HVX, are charged per-register, and are functionally exact so the end-to-end
// toy-model tests validate real numerics.
#ifndef SRC_KERNELS_MISC_OPS_H_
#define SRC_KERNELS_MISC_OPS_H_

#include <cstdint>
#include <vector>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"

namespace hkern {

// y = x / rms(x) * gamma, row-wise over [rows, width] FP16 (width % 64 == 0). The mean of
// squares is accumulated in FP32. Charged under Tag::kMiscRmsNorm.
void RmsNormF16(hexsim::NpuDevice& dev, const hexllm::F16* x, const hexllm::F16* gamma,
                hexllm::F16* y, int rows, int width, float eps);

// Rotary position embedding applied in-place to [rows, head_dim] FP16 (one head),
// interleaved-pair convention: (x[2i], x[2i+1]) rotated by theta_i = pos * base^(-2i/d).
// Charged under Tag::kMiscRope.
void RopeF16(hexsim::NpuDevice& dev, hexllm::F16* x, int rows, int head_dim, int pos0,
             float theta_base);

// RoPE over `heads` contiguous head_dim segments of one packed activation row, all at
// position `pos` — equivalent to calling RopeF16(head, 1 row) per head, but the rotation
// angles (which depend only on the within-head index) are computed once and applied to
// every head. Bit-identical outputs and charging to the per-head loop: counts
// kernel.rope.calls once per head, charges the same per-head packet total, commits one
// combined Tag::kMiscRope charge (docs/performance.md).
void RopeHeadsF16(hexsim::NpuDevice& dev, hexllm::F16* x, int heads, int head_dim, int pos,
                  float theta_base);

// Per-pair inverse frequencies base^(-2i/d) for i in [0, head_dim/2) — exactly the pow()
// subexpression of the RoPE angle, hoisted so steady-state decode evaluates pow once per
// model instead of once per (row, pair). theta_i = pos * inv_freq[i] in double, so the
// rotation is bit-identical to the theta_base overloads.
std::vector<double> RopeInvFreq(int head_dim, float theta_base);

// RopeHeadsF16 with the pow() table precomputed by RopeInvFreq (same head_dim/theta_base).
void RopeHeadsF16(hexsim::NpuDevice& dev, hexllm::F16* x, int heads, int head_dim, int pos,
                  const double* inv_freq);

// y = silu(a) * b, elementwise over `count` FP16 values (count % 64 == 0) — the SwiGLU
// gating op. silu evaluated at FP32 internally and rounded to FP16; the host reads it from
// a per-process table indexed by a's 16 bits, which holds exactly those bits (the 65,536
// inputs are tested exhaustively). Charged under Tag::kMiscSilu.
void SiluMulF16(hexsim::NpuDevice& dev, const hexllm::F16* a, const hexllm::F16* b,
                hexllm::F16* y, int64_t count);

// y = a + b elementwise (residual connection). Charged under Tag::kMiscAdd.
void AddF16(hexsim::NpuDevice& dev, const hexllm::F16* a, const hexllm::F16* b,
            hexllm::F16* y, int64_t count);

}  // namespace hkern

#endif  // SRC_KERNELS_MISC_OPS_H_
