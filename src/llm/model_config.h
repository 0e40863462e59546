// Model configurations: the architecture shapes of the models the paper evaluates (§7.1) —
// Qwen2.5 1.5B/3B/7B and Llama3.2 1B/3B (Instruct variants) — plus a toy configuration small
// enough to run functionally through the NPU simulator in tests and examples.
//
// Weight-scheme policy follows §7.1: most projection matrices use Q4_0 (4.5 bpw); the FFN
// down projections use Q8_0 (8.5 bpw) because of their outlier sensitivity; lm_head runs on
// the CPU (Q8_0) due to the NPU address-space limit (§7.2.2).
#ifndef SRC_LLM_MODEL_CONFIG_H_
#define SRC_LLM_MODEL_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/quant/quant_types.h"

namespace hllm {

struct ModelConfig {
  std::string name;
  double params_b = 0.0;  // total parameters, billions

  int hidden = 0;
  int layers = 0;
  int heads = 0;
  int kv_heads = 0;
  int head_dim = 0;
  int ffn_hidden = 0;
  int64_t vocab = 0;
  bool tied_embeddings = true;
  float rope_theta = 10000.0f;
  float rms_eps = 1e-6f;

  hquant::WeightScheme proj_scheme = hquant::WeightScheme::kQ4_0;
  hquant::WeightScheme ffn_down_scheme = hquant::WeightScheme::kQ8_0;
  hquant::WeightScheme lm_head_scheme = hquant::WeightScheme::kQ8_0;  // CPU-resident

  int q_dim() const { return heads * head_dim; }
  int kv_dim() const { return kv_heads * head_dim; }

  // One transformer layer's projection matrices, as (K, N, scheme) triples.
  struct MatrixShape {
    const char* name;
    int64_t k;
    int64_t n;
    hquant::WeightScheme scheme;
  };
  std::vector<MatrixShape> LayerMatrices() const;

  // Quantized bytes of all NPU-resident weights (all layers + final norm; excludes lm_head
  // and the embedding table, which stay on the CPU).
  int64_t NpuWeightBytes() const;
  // CPU-resident bytes: lm_head (+ untied embedding if applicable).
  int64_t CpuWeightBytes() const;
  // KV cache bytes for a context budget: K and V in every layer, FP16 unless `kv_dtype`
  // says otherwise. Matches hkv::PagedKvCache's per-block byte accounting exactly (layers
  // x K+V x tokens x hquant::KvRowBytes), so analytic block budgets agree with functional
  // storage.
  int64_t KvCacheBytes(int64_t context_tokens,
                       hquant::KvDtype kv_dtype = hquant::KvDtype::kF16) const;
  // Activation/scratch buffers shared CPU<->NPU for a given max batch.
  int64_t ActivationBytes(int max_batch) const;
  // Total dmabuf (NPU-mapped shared memory): weights + KV + activations (Figure 16's pmap
  // number).
  int64_t DmabufBytes(int64_t context_tokens, int max_batch) const;
};

// The evaluation models (§7.1), plus Qwen2.5-0.5B as the speculative-decoding draft.
const ModelConfig& Qwen25_0_5B();
const ModelConfig& Qwen25_1_5B();
const ModelConfig& Qwen25_3B();
const ModelConfig& Qwen25_7B();
const ModelConfig& Llama32_1B();
const ModelConfig& Llama32_3B();

// All on-device evaluation models, in the order Figures 10/11 present them.
std::vector<const ModelConfig*> EvaluationModels();

// A tiny functional configuration for end-to-end simulator tests.
ModelConfig ToyConfig();

}  // namespace hllm

#endif  // SRC_LLM_MODEL_CONFIG_H_
