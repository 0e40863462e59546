// The vocabulary projection (lm_head) on the host CPU.
//
// §7.2.2: the lm_head and logits tensors are deliberately placed on the CPU because the
// Hexagon NPU's 32-bit session address space cannot also hold the large vocabulary
// projection. At batch 16 this CPU stage approaches or exceeds 50% of per-token time, which
// caps the throughput scaling in Figure 11. The cost model captures a GEMV/GEMM on the big
// cores: bandwidth-bound at small batch (the weight matrix streams once), compute-bound as
// batch grows, parallelized over up to 4 big cores (Figure 16 observes exactly 4).
#ifndef SRC_KERNELS_LM_HEAD_H_
#define SRC_KERNELS_LM_HEAD_H_

#include <cstdint>

#include "src/base/fp16.h"
#include "src/hexsim/device_profile.h"
#include "src/quant/quant_types.h"

namespace hkern {

struct LmHeadCost {
  double seconds = 0.0;
  int cores_used = 0;
  double cpu_busy_s = 0.0;  // sum over cores
};

// Cost of projecting `batch` hidden states of width `hidden` onto `vocab` logits on the CPU,
// with the weights stored under `scheme` (the functional toy model keeps them FP16; the
// analytic engine prices each model's lm_head_scheme).
LmHeadCost LmHeadCostModel(const hexsim::DeviceProfile& profile, int batch, int hidden,
                           int64_t vocab, hquant::WeightScheme scheme);

// Functional reference (FP32 accumulate over FP16 weights) for the toy end-to-end tests.
// logits[batch, vocab] = h[batch, hidden] x w[hidden, vocab] (w column-major: w[v*hidden+i]).
void LmHeadForward(const hexllm::F16* h, const hexllm::F16* w, float* logits, int batch,
                   int hidden, int64_t vocab);

// Blocked lm_head over pre-converted FP32 operands: `h` is the hidden batch converted
// F16->float once per row (not once per vocab column), `w` the weight matrix converted once
// at load and TRANSPOSED to row-major (w[i*vocab+v]) so the inner sweep reads contiguous
// vocab slices. Each logit is the identical ascending-hidden-index float accumulation as
// LmHeadForward — F16::ToFloat is exact and per-column sums keep their chain order, so
// pre-converting and re-blocking never changes a bit. The flattened [batch x vocab] index
// space fans out only as wide as its MACs pay for (hexec::SlotsForWork): batch-1 decode runs
// on the caller (docs/threading_model.md).
void LmHeadForwardF32W(const float* h, const float* w, float* logits, int batch, int hidden,
                       int64_t vocab);

}  // namespace hkern

#endif  // SRC_KERNELS_LM_HEAD_H_
