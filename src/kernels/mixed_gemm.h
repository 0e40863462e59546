// Mixed-precision (W4A16 / W8A16) GEMM: runtime dequantization on HVX feeding FP16 HMX.
//
// Four dequantization kernels implement the Figure 15 ablation:
//
//   kBaselineScatter — conventional column-major quantization groups. Each group is
//       unpacked with the mask-unpack-convert sequence and its 32 FP16 values are
//       *scattered* to their HMX-layout positions in TCM with vscatter. This is the
//       straw-man a naive port produces, and the scatters dominate.
//   kHmxLayout       — tile-group quantization (§5.1.1): the stream order already matches
//       the HMX layout, so dequantized registers store contiguously. Still unpacks
//       group-by-group with the conventional instruction sequence (half-filled registers,
//       qfloat conversions).
//   kCoalescedLut    — the paper's full scheme (§5.1.2 + §5.2.2): 256-element super-blocks
//       fill one HVX register; two vlut16 ops convert all nibbles to FP16 levels; two more
//       vlut16 ops broadcast the 8 group scales (4 per lookup); four multiplies and stores
//       finish. No unpack chain, no qfloat conversion (table outputs are IEEE bits).
//   kNoDequant       — upper bound: quantized bytes are DMA-copied on-chip with no compute.
//
// Functional kernels produce real FP16 values (tested against the reference dequantizers);
// cost models are exact transcriptions of the emulated packet counts.
#ifndef SRC_KERNELS_MIXED_GEMM_H_
#define SRC_KERNELS_MIXED_GEMM_H_

#include <cstdint>
#include <span>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"
#include "src/quant/codebooks.h"
#include "src/quant/quant_types.h"

namespace hkern {

enum class DequantKernel : uint8_t {
  kBaselineScatter,
  kHmxLayout,
  kCoalescedLut,
  kNoDequant,
};

// Packet cost per 64 dequantized elements for the given weight scheme. Q8_0 skips the
// nibble unpacking (cheaper per element) but moves ~1.9x the bytes.
double DequantPacketsPer64(const hexsim::DeviceProfile& profile, DequantKernel k,
                           hquant::WeightScheme scheme = hquant::WeightScheme::kQ4_0);

// --- functional emulated kernels (Q4) ---

// Ours: super-blocks (HMX stream order) -> contiguous FP16 stream in TCM.
// Returns HVX packets charged. `codebook` selects the 16-entry dequantization table
// (§5.2.2: supporting FP4 / NF4 / IQ4_NL is "simply adjusting the table contents" — the
// instruction sequence and cost are identical for every codebook).
int64_t DequantCoalescedLut(hexsim::NpuDevice& dev, std::span<const hquant::SuperBlockQ4> sbs,
                            hexllm::F16* out_tcm,
                            hquant::Int4Codebook codebook = hquant::Int4Codebook::kQ4_0);

// Tile-group blocks (HMX stream order), conventional unpack, contiguous stores.
int64_t DequantHmxLayout(hexsim::NpuDevice& dev, std::span<const hquant::BlockQ4_0> blocks,
                         hexllm::F16* out_tcm);

// Conventional column-major blocks of a [K, N] matrix, scattered into the HMX stream
// positions of out_tcm (which must hold k_dim * n_dim halfwords in TCM).
int64_t DequantBaselineScatter(hexsim::NpuDevice& dev,
                               std::span<const hquant::BlockQ4_0> blocks, int64_t k_dim,
                               int64_t n_dim, hexllm::F16* out_tcm);

// --- GEMM-level cost model (drives Figure 15 and the decode engine) ---

struct MixedGemmCost {
  double dma_s = 0.0;        // weight fetch
  double hvx_busy_s = 0.0;   // dequant work (single-thread busy)
  double hvx_latency_s = 0.0; // dequant latency across the threads used
  double hmx_s = 0.0;        // matrix compute
  double overhead_s = 0.0;   // activation pack / output unpack
  double total_s = 0.0;      // max(dma, dequant latency, hmx) + overhead
};

// Cost of Y[M,N] = X[M,K] x W[K,N] with W quantized under `scheme` and dequantized by
// kernel `k` using `threads` HVX threads. kNoDequant models the fetch-only upper bound.
MixedGemmCost MixedGemmCostModel(const hexsim::DeviceProfile& profile, DequantKernel k,
                                 hquant::WeightScheme scheme, int m, int k_dim, int n,
                                 int threads);

}  // namespace hkern

#endif  // SRC_KERNELS_MIXED_GEMM_H_
