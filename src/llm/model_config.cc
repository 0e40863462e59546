#include "src/llm/model_config.h"

#include "src/base/check.h"

namespace hllm {

using hquant::WeightScheme;
using hquant::WeightSchemeBpw;

std::vector<ModelConfig::MatrixShape> ModelConfig::LayerMatrices() const {
  return {
      {"wq", hidden, q_dim(), proj_scheme},
      {"wk", hidden, kv_dim(), proj_scheme},
      {"wv", hidden, kv_dim(), proj_scheme},
      {"wo", q_dim(), hidden, proj_scheme},
      {"w_gate", hidden, ffn_hidden, proj_scheme},
      {"w_up", hidden, ffn_hidden, proj_scheme},
      {"w_down", ffn_hidden, hidden, ffn_down_scheme},
  };
}

int64_t ModelConfig::NpuWeightBytes() const {
  double bytes = 0.0;
  for (const auto& m : LayerMatrices()) {
    bytes += static_cast<double>(m.k) * m.n * WeightSchemeBpw(m.scheme) / 8.0;
  }
  bytes *= layers;
  bytes += static_cast<double>(hidden) * 2;                   // final RMSNorm gamma (FP16)
  bytes += static_cast<double>(layers) * 2 * hidden * 2;      // per-layer norm gammas
  return static_cast<int64_t>(bytes);
}

int64_t ModelConfig::CpuWeightBytes() const {
  // lm_head [hidden, vocab] quantized on the CPU; the token-embedding lookup table is
  // typically tied to it.
  double bytes = static_cast<double>(hidden) * vocab * WeightSchemeBpw(lm_head_scheme) / 8.0;
  if (!tied_embeddings) {
    bytes *= 2.0;
  }
  return static_cast<int64_t>(bytes);
}

int64_t ModelConfig::KvCacheBytes(int64_t context_tokens, hquant::KvDtype kv_dtype) const {
  return static_cast<int64_t>(layers) * 2 * context_tokens *
         hquant::KvRowBytes(kv_dtype, kv_dim());
}

int64_t ModelConfig::ActivationBytes(int max_batch) const {
  // Hidden-state ping-pong buffers, QKV staging, FFN intermediate, logits staging.
  const int64_t per_token =
      static_cast<int64_t>(hidden) * 4 + q_dim() + 2 * kv_dim() + ffn_hidden * 2;
  return per_token * 2 * max_batch + static_cast<int64_t>(vocab) * 4 * max_batch;
}

int64_t ModelConfig::DmabufBytes(int64_t context_tokens, int max_batch) const {
  return NpuWeightBytes() + KvCacheBytes(context_tokens) + ActivationBytes(max_batch);
}

namespace {

ModelConfig MakeQwen25_0_5B() {
  ModelConfig c;
  c.name = "Qwen2.5-0.5B-Instruct";
  c.params_b = 0.49;
  c.hidden = 896;
  c.layers = 24;
  c.heads = 14;
  c.kv_heads = 2;
  c.head_dim = 64;
  c.ffn_hidden = 4864;
  c.vocab = 151936;
  c.tied_embeddings = true;
  c.rope_theta = 1000000.0f;
  return c;
}

ModelConfig MakeQwen25_1_5B() {
  ModelConfig c;
  c.name = "Qwen2.5-1.5B-Instruct";
  c.params_b = 1.54;
  c.hidden = 1536;
  c.layers = 28;
  c.heads = 12;
  c.kv_heads = 2;
  c.head_dim = 128;
  c.ffn_hidden = 8960;
  c.vocab = 151936;
  c.tied_embeddings = true;
  c.rope_theta = 1000000.0f;
  return c;
}

ModelConfig MakeQwen25_3B() {
  ModelConfig c;
  c.name = "Qwen2.5-3B-Instruct";
  c.params_b = 3.09;
  c.hidden = 2048;
  c.layers = 36;
  c.heads = 16;
  c.kv_heads = 2;
  c.head_dim = 128;
  c.ffn_hidden = 11008;
  c.vocab = 151936;
  c.tied_embeddings = true;
  c.rope_theta = 1000000.0f;
  return c;
}

ModelConfig MakeQwen25_7B() {
  ModelConfig c;
  c.name = "Qwen2.5-7B-Instruct";
  c.params_b = 7.62;
  c.hidden = 3584;
  c.layers = 28;
  c.heads = 28;
  c.kv_heads = 4;
  c.head_dim = 128;
  c.ffn_hidden = 18944;
  c.vocab = 152064;
  c.tied_embeddings = false;
  c.rope_theta = 1000000.0f;
  return c;
}

ModelConfig MakeLlama32_1B() {
  ModelConfig c;
  c.name = "Llama3.2-1B-Instruct";
  c.params_b = 1.24;
  c.hidden = 2048;
  c.layers = 16;
  c.heads = 32;
  c.kv_heads = 8;
  c.head_dim = 64;
  c.ffn_hidden = 8192;
  c.vocab = 128256;
  c.tied_embeddings = true;
  c.rope_theta = 500000.0f;
  return c;
}

ModelConfig MakeLlama32_3B() {
  ModelConfig c;
  c.name = "Llama3.2-3B-Instruct";
  c.params_b = 3.21;
  c.hidden = 3072;
  c.layers = 28;
  c.heads = 24;
  c.kv_heads = 8;
  c.head_dim = 128;
  c.ffn_hidden = 8192;
  c.vocab = 128256;
  c.tied_embeddings = true;
  c.rope_theta = 500000.0f;
  return c;
}

}  // namespace

const ModelConfig& Qwen25_0_5B() {
  static const ModelConfig c = MakeQwen25_0_5B();
  return c;
}
const ModelConfig& Qwen25_1_5B() {
  static const ModelConfig c = MakeQwen25_1_5B();
  return c;
}
const ModelConfig& Qwen25_3B() {
  static const ModelConfig c = MakeQwen25_3B();
  return c;
}
const ModelConfig& Qwen25_7B() {
  static const ModelConfig c = MakeQwen25_7B();
  return c;
}
const ModelConfig& Llama32_1B() {
  static const ModelConfig c = MakeLlama32_1B();
  return c;
}
const ModelConfig& Llama32_3B() {
  static const ModelConfig c = MakeLlama32_3B();
  return c;
}

std::vector<const ModelConfig*> EvaluationModels() {
  return {&Qwen25_1_5B(), &Qwen25_3B(), &Llama32_1B(), &Llama32_3B()};
}

ModelConfig ToyConfig() {
  ModelConfig c;
  c.name = "toy-16M";
  c.params_b = 0.016;
  c.hidden = 128;
  c.layers = 2;
  c.heads = 4;
  c.kv_heads = 2;
  c.head_dim = 32;
  c.ffn_hidden = 256;
  c.vocab = 512;
  c.rope_theta = 10000.0f;
  return c;
}

}  // namespace hllm
