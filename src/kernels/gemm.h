// FP16 GEMM on the matrix unit (HMX) and on the vector unit (HVX).
//
// These two kernels are the subjects of Table 2: the same 1024^3 FP16 GEMM runs ~365x faster
// on HMX than on a single HVX thread, which is the imbalance motivating the whole system.
// Both kernels exist in functional form (real numerics through the simulators, used by tests
// and small benches) and as analytic cost models (used for full-size shapes).
#ifndef SRC_KERNELS_GEMM_H_
#define SRC_KERNELS_GEMM_H_

#include <cstdint>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"

namespace hkern {

// C[M,N] (FP16, row-major) = A[M,K] (FP16, row-major) x B (FP16, HMX tile stream order:
// column-major 32x32 tiles, Figure 4b). K and N must be multiples of 32; M is any row count
// >= 1, and `a`/`c` hold exactly M rows. A last partial row-strip is zero-packed into its
// TCM tiles and only its live rows are written back, while the tile/packet charges are
// those of whole 32-row tiles, so a partial batch costs what the hardware would charge for
// the padded tile. When `operands_in_tcm` is true no DMA is charged (the Table 2
// peak-measurement configuration).
// `b_decoded` (optional) is the same tile stream pre-decoded to FP32, each tile row-major
// (HmxEngine::DecodeTile): B is still copied/DMA'd into TCM and charged exactly as without
// it, but the tile MACs skip re-decoding constant weights (hllm::QuantizedLinear's cache).
// Returns the simulated latency in seconds.
double GemmF16Hmx(hexsim::NpuDevice& dev, const hexllm::F16* a, const hexllm::F16* b_tiles,
                  hexllm::F16* c, int m, int k, int n, bool operands_in_tcm,
                  const float* b_decoded = nullptr);

// C[M,N] = A[M,K] x B[K,N] (all FP16 row-major) on ONE HVX thread: per 64-wide output chunk,
// a vsplat/load/multiply/accumulate inner loop over K. Returns the simulated latency.
double GemmF16Hvx(hexsim::NpuDevice& dev, const hexllm::F16* a, const hexllm::F16* b,
                  hexllm::F16* c, int m, int k, int n);

// Analytic packet count of GemmF16Hvx (exact match with the emulated kernel).
int64_t GemmF16HvxPackets(const hexsim::DeviceProfile& profile, int m, int k, int n);

// Analytic HMX tile-op count of GemmF16Hmx.
int64_t GemmF16HmxTileOps(int m, int k, int n);

}  // namespace hkern

#endif  // SRC_KERNELS_GEMM_H_
