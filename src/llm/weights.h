// Quantized model weights for the NPU backend.
//
// Every NPU-resident projection is stored in the paper's offline format: tile-group
// quantization in HMX stream order (§5.1.1), with Q4_0 groups coalesced into 256-element
// super-blocks (§5.1.2). Q8_0 matrices (FFN down, §7.1) are stored as HMX-stream-ordered
// Q8 blocks. Forward() dequantizes on the simulated HVX and multiplies on the simulated
// HMX — the full runtime path of the paper's mixed-precision GEMM.
#ifndef SRC_LLM_WEIGHTS_H_
#define SRC_LLM_WEIGHTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/base/fp16.h"
#include "src/base/rng.h"
#include "src/hexsim/npu_device.h"
#include "src/llm/model_config.h"
#include "src/quant/quant_types.h"

namespace hllm {

class QuantizedLinear {
 public:
  QuantizedLinear() = default;

  // Quantizes a [K, N] column-major FP32 matrix with the tile-group pipeline.
  static QuantizedLinear Create(std::span<const float> w_col_major, int64_t k, int64_t n,
                                hquant::WeightScheme scheme);

  int64_t k_dim() const { return k_; }
  int64_t n_dim() const { return n_; }
  hquant::WeightScheme scheme() const { return scheme_; }
  int64_t quantized_bytes() const;

  // Functional forward on the simulator: y[M, N] = x[M, K] (both FP16 row-major host
  // buffers of exactly M rows). Dequantizes into TCM and runs one HMX GEMM on x and y; the
  // GEMM zero-packs a partial last row-strip itself, so any M >= 1 takes the same path.
  //
  // Dequant-once cache: the first Forward of a matrix runs the scheme's dequant (Q4_0: the
  // LUT kernel; Q8_0: widen + scale) and stores the dequantized F16 stream plus the
  // dequant's simulated cost (HVX packets, vlut16 ops); later calls memcpy the stream into
  // TCM and REPLAY the charges — same kernel.dequant_coalesced_lut.calls count (Q4_0), same
  // packet totals, same Tag::kLinearDequant ledger tag — without re-simulating the kernel.
  // The cache also keeps the stream decoded to FP32 per tile, which the HMX GEMM reads
  // instead of re-decoding every weight tile on every tile op. Cold and warm calls charge
  // bit-identical counters; only host time differs.
  void Forward(hexsim::NpuDevice& dev, const hexllm::F16* x, hexllm::F16* y, int m) const;

  // Reference reconstruction of the [K, N] column-major matrix (FP32).
  std::vector<float> Dequantize() const;

 private:
  // Memoized dequantized stream + the simulated charges a real dequant would make.
  // Owned by shared_ptr so copies of a QuantizedLinear share one cache; all fields after
  // `ready` are written once under `mu` before ready is released.
  struct DequantCache {
    // Stores `stream` and its FP32 decode (caller holds `mu`).
    void StoreStream(const hexllm::F16* w, int64_t elems);

    std::mutex mu;
    std::atomic<bool> ready{false};
    std::vector<hexllm::F16> stream;  // [k * n] in HMX stream order
    std::vector<float> decoded;       // [k * n]: stream's tiles, each row-major FP32
    int64_t packets = 0;
    int64_t vlut16 = 0;
  };

  int64_t k_ = 0;
  int64_t n_ = 0;
  hquant::WeightScheme scheme_ = hquant::WeightScheme::kQ4_0;
  std::vector<hquant::SuperBlockQ4> sb4_;   // kQ4_0 payload (HMX stream order)
  std::vector<hquant::BlockQ8_0> b8_;       // kQ8_0 payload (HMX stream order)
  mutable std::shared_ptr<DequantCache> cache_;
};

struct LayerWeights {
  QuantizedLinear wq, wk, wv, wo, w_gate, w_up, w_down;
  std::vector<hexllm::F16> attn_norm;
  std::vector<hexllm::F16> ffn_norm;
};

struct ModelWeights {
  ModelConfig config;
  std::vector<LayerWeights> layers;
  std::vector<hexllm::F16> final_norm;
  std::vector<hexllm::F16> embedding;  // [vocab, hidden] FP16 (CPU side)
  std::vector<hexllm::F16> lm_head;    // [hidden, vocab] column-major FP16 (CPU side)

  // Generates a model with LLM-like synthetic weights (residual-scaled so deep stacks stay
  // numerically stable). Only sensible for small configs — the toy path.
  static ModelWeights Random(const ModelConfig& config, uint64_t seed);
};

}  // namespace hllm

#endif  // SRC_LLM_WEIGHTS_H_
