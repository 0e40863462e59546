#include "src/runtime/engine.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/hexsim/hvx.h"
#include "src/kernels/attention.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/mixed_gemm.h"
#include "src/kernels/tmac_gemv.h"

namespace hrt {

using hexsim::DeviceProfile;
using hllm::ModelConfig;

namespace {

// --- end-to-end calibration constants (DESIGN.md §5) ---

// Effective HVX threads the decode pipeline dedicates to weight dequantization. The op
// library's thread pool shares HVX contexts between dequant, attention softmax, and misc
// ops, and pays strip-scheduling overhead, so the linear layers see fewer than the raw
// hardware threads. This constant makes decode dequant-bound, matching §8(a) ("decoding
// speed is relatively constrained, primarily due to the overhead of dequantization").
constexpr int kDecodeDequantThreads = 2;

// Threads available to attention / misc sweeps (heads parallelize cleanly).
constexpr double kAttentionThreads = 4.0;

// HMX pipeline efficiency for large-M (prefill) GEMMs: activation tile packing, DMA staging
// and pipeline refill keep the matrix unit well below peak — §8(b) lists exactly these as
// future work ("operator fusion", "optimizing tiling and pipelining").
constexpr double kPrefillHmxEfficiency = 0.35;
// The proprietary QNN stack pipelines prefill better than our open implementation.
constexpr double kQnnPrefillHmxEfficiency = 0.5;

// Adreno OpenCL kernel efficiency on the Q4_0 GEMV path (fraction of peak DDR bandwidth).
constexpr double kGpuGemvBandwidthEfficiency = 0.62;
// Fraction of GPU FP16 ALU peak sustained during prefill GEMM.
constexpr double kGpuPrefillComputeEfficiency = 0.5;

// Runtime bookkeeping resident on the CPU besides lm_head weights (code, graphs, host
// copies of norms, tokenizer tables...).
constexpr int64_t kCpuRuntimeOverheadBytes = 220ll << 20;

double MiscPacketsPerTokenPerLayer(const ModelConfig& m) {
  // Two RMSNorm sweeps, SiLU-mul over the FFN width, two residual adds, RoPE on Q and K.
  const double rms = 2.0 * (m.hidden / 64.0 * 7.0 + 36.0);
  const double silu = m.ffn_hidden / 64.0 * 13.0;
  const double adds = 2.0 * (m.hidden / 64.0 * 4.0);
  const double rope = (m.q_dim() + m.kv_dim()) / 64.0 * 6.0;
  return rms + silu + adds + rope;
}

}  // namespace

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kNpuOurs:
      return "ours (NPU)";
    case Backend::kGpuOpenCl:
      return "GPU (OpenCL)";
    case Backend::kQnnF16:
      return "QNN (FP16)";
  }
  return "?";
}

Engine::Engine(const EngineOptions& options) : options_(options) {
  HEXLLM_CHECK(options_.model != nullptr && options_.device != nullptr);
}

namespace {

int64_t MappedBytes(const EngineOptions& options) {
  const ModelConfig& m = *options.model;
  return (options.backend == Backend::kQnnF16)
             ? static_cast<int64_t>(2.0 * m.params_b * 1e9) +
                   m.KvCacheBytes(options.context_budget)
             : m.DmabufBytes(options.context_budget, options.max_batch);
}

}  // namespace

int Engine::SessionsNeeded() const {
  if (options_.backend == Backend::kGpuOpenCl) {
    return 0;
  }
  return hexsim::SessionsForMappedBytes(*options_.device, MappedBytes(options_));
}

bool Engine::CanRun(std::string* reason) const {
  if (options_.backend == Backend::kGpuOpenCl) {
    return true;  // GPU backend does not map into the NPU address space
  }
  const ModelConfig& m = *options_.model;
  const int sessions = SessionsNeeded();
  if (sessions > hexsim::MaxSessions(*options_.device)) {
    if (reason != nullptr) {
      *reason = m.name + " needs " + std::to_string(MappedBytes(options_) >> 20) +
                " MiB of NPU-mapped memory (" + std::to_string(sessions) + " sessions), " +
                "exceeding the " +
                std::to_string(options_.device->npu_vaddr_limit_bytes >> 20) + " MiB " +
                "session window of " + options_.device->soc_name;
    }
    return false;
  }
  return true;
}

StepCost Engine::NpuDecodeStep(int batch, int context) const {
  const ModelConfig& m = *options_.model;
  const DeviceProfile& d = *options_.device;
  StepCost cost;

  // Projection GEMMs: every layer's matrices, dequantized on HVX and multiplied on HMX —
  // or, with the §8(a) extension, computed as T-MAC LUT GEMV entirely on HVX.
  // The pipeline overlaps DMA / HVX / HMX per weight strip.
  for (const auto& mat : m.LayerMatrices()) {
    if (options_.use_tmac_gemv) {
      const auto g = hkern::TmacGemvCostModel(d, batch, static_cast<int>(mat.k),
                                              static_cast<int>(mat.n), d.hvx_threads);
      // An 8-bit matrix needs two nibble planes: double the lookup work and bytes.
      const double q8_factor = (mat.scheme == hquant::WeightScheme::kQ8_0) ? 2.0 : 1.0;
      const double hvx_busy = g.hvx_busy_s * q8_factor;
      const double dma = g.dma_s * q8_factor;
      cost.linear_s += std::max(dma, hvx_busy / d.hvx_threads);
      cost.hvx_busy_s += hvx_busy;
      cost.dma_busy_s += dma;
      cost.ddr_bytes += static_cast<int64_t>(static_cast<double>(mat.k) * mat.n *
                                             hquant::WeightSchemeBpw(mat.scheme) / 8.0);
      continue;
    }
    const auto g = hkern::MixedGemmCostModel(d, hkern::DequantKernel::kCoalescedLut,
                                             mat.scheme, batch, static_cast<int>(mat.k),
                                             static_cast<int>(mat.n), kDecodeDequantThreads);
    cost.linear_s += g.total_s;
    cost.hvx_busy_s += g.hvx_busy_s;
    cost.hmx_busy_s += g.hmx_s;
    cost.dma_busy_s += g.dma_s;
    cost.ddr_bytes += static_cast<int64_t>(static_cast<double>(mat.k) * mat.n *
                                           hquant::WeightSchemeBpw(mat.scheme) / 8.0);
  }
  cost.linear_s *= m.layers;
  cost.hvx_busy_s *= m.layers;
  cost.hmx_busy_s *= m.layers;
  cost.dma_busy_s *= m.layers;
  cost.ddr_bytes *= m.layers;

  // Attention: batched query rows share the KV context (parallel test-time-scaling
  // workloads sample from a common prompt). One call per head per layer.
  const auto attn =
      hkern::FlashAttentionCost(d, hkern::SoftmaxVariant::kLut, batch, context, m.head_dim);
  const double attn_hvx_busy = attn.HvxBusySeconds() * m.heads * m.layers;
  const double attn_hmx = (attn.hmx_qk_s + attn.hmx_pv_s) * m.heads * m.layers;
  // K/V tiles stream on-chip once per KV head; the GQA query-head group shares them.
  const double attn_dma = attn.dma_s * m.kv_heads * m.layers;
  cost.attention_s = attn_hvx_busy / kAttentionThreads + attn_hmx + attn_dma;
  cost.hvx_busy_s += attn_hvx_busy;
  cost.hmx_busy_s += attn_hmx;
  cost.dma_busy_s += attn_dma;
  cost.ddr_bytes += static_cast<int64_t>(2.0 * context * m.kv_dim() * 2 * m.layers);

  // Misc vector ops (per token — each batch row pays them).
  const double misc_packets = MiscPacketsPerTokenPerLayer(m) * m.layers * batch;
  const double misc_busy = misc_packets / (d.hvx_freq_ghz * 1e9);
  cost.misc_s = misc_busy / kAttentionThreads;
  cost.hvx_busy_s += misc_busy;

  return cost;
}

StepCost Engine::GpuDecodeStep(int batch, int context) const {
  const ModelConfig& m = *options_.model;
  const DeviceProfile& d = *options_.device;
  StepCost cost;
  // Q4_0 GEMV kernels: bandwidth-bound; each extra batch row re-reads most of the weights
  // (poor reuse in the OpenCL kernels — the paper's Figure 13 scaling observation).
  double weight_bytes = 0.0;
  for (const auto& mat : m.LayerMatrices()) {
    weight_bytes += static_cast<double>(mat.k) * mat.n *
                    hquant::WeightSchemeBpw(mat.scheme) / 8.0;
  }
  weight_bytes *= m.layers;
  const double eff_bw = d.gpu_mem_gbps * 1e9 * kGpuGemvBandwidthEfficiency;
  const double reuse = d.gpu_batch_efficiency;
  const double batch_factor = 1.0 + (batch - 1) * (1.0 - reuse);
  cost.linear_s = weight_bytes / eff_bw * batch_factor;
  // Attention + misc on the GPU: proportional to batch and context, ALU-bound.
  const double attn_flops = 4.0 * static_cast<double>(batch) * context * m.q_dim() * m.layers;
  cost.attention_s = attn_flops / (d.gpu_gflops * 1e9 * 0.3);
  cost.misc_s = 0.1e-3 * batch;  // kernel-launch and small-op overheads
  cost.gpu_busy_s = cost.linear_s + cost.attention_s + cost.misc_s;
  cost.ddr_bytes = static_cast<int64_t>(weight_bytes * batch_factor);
  return cost;
}

StepCost Engine::QnnDecodeStep(int batch, int context) const {
  const ModelConfig& m = *options_.model;
  const DeviceProfile& d = *options_.device;
  StepCost cost;
  // FP16 weights stream over DMA straight into HMX: no dequantization, but 3.5x the bytes
  // of Q4_0. Static graphs decode one token at a time (no batching benefit): a batch of B
  // costs B sequential passes.
  const double weight_bytes = 2.0 * m.params_b * 1e9;
  const double pass_s = weight_bytes / (d.dma_read_gbps * 1e9);
  const auto attn = hkern::FlashAttentionCost(d, hkern::SoftmaxVariant::kF16Poly, 1, context,
                                              m.head_dim);
  const double attn_s =
      attn.HvxBusySeconds() / kAttentionThreads + attn.hmx_qk_s + attn.hmx_pv_s + attn.dma_s;
  cost.linear_s = pass_s * batch;
  cost.attention_s = attn_s * m.heads * m.layers * batch;
  cost.dma_busy_s = cost.linear_s;
  cost.hmx_busy_s = (attn.hmx_qk_s + attn.hmx_pv_s) * m.heads * m.layers * batch;
  cost.hvx_busy_s = attn.HvxBusySeconds() * m.heads * m.layers * batch;
  cost.ddr_bytes = static_cast<int64_t>(weight_bytes) * batch;
  return cost;
}

StepCost Engine::AddLmHeadAndComm(StepCost cost, int batch) const {
  const ModelConfig& m = *options_.model;
  const DeviceProfile& d = *options_.device;
  // CPU vocabulary projection (quantized lm_head streams once, shared across the batch).
  const hkern::LmHeadCost lm =
      hkern::LmHeadCostModel(d, batch, m.hidden, m.vocab, m.lm_head_scheme);
  cost.lm_head_s = lm.seconds;
  cost.cpu_busy_s += lm.cpu_busy_s;

  // Mailbox round trip (submit + completion) and cache maintenance for the shared
  // activation buffers (§6); models split across two sessions pay an extra hop per step.
  const int sessions = std::max(1, SessionsNeeded());
  cost.comm_s = sessions * hexsim::kDispatchSeconds;

  cost.total_s =
      cost.linear_s + cost.attention_s + cost.misc_s + cost.lm_head_s + cost.comm_s;
  return cost;
}

StepCost Engine::DecodeStep(int batch, int context) const {
  HEXLLM_CHECK(batch >= 1);
  StepCost cost;
  switch (options_.backend) {
    case Backend::kNpuOurs:
      cost = NpuDecodeStep(batch, context);
      break;
    case Backend::kGpuOpenCl:
      cost = GpuDecodeStep(batch, context);
      break;
    case Backend::kQnnF16:
      cost = QnnDecodeStep(batch, context);
      break;
  }
  return AddLmHeadAndComm(cost, batch);
}

StepCost Engine::Prefill(int prompt_len) const {
  const ModelConfig& m = *options_.model;
  const DeviceProfile& d = *options_.device;
  StepCost cost;
  const int chunks = static_cast<int>(hexllm::CeilDiv(prompt_len, hkern::kPrefillChunk));

  if (options_.backend == Backend::kGpuOpenCl) {
    const double flops = 2.0 * m.params_b * 1e9 * prompt_len;
    cost.linear_s = flops / (d.gpu_gflops * 1e9 * kGpuPrefillComputeEfficiency);
    const double attn_flops =
        2.0 * static_cast<double>(prompt_len) * prompt_len * m.q_dim() * m.layers;
    cost.attention_s = attn_flops / (d.gpu_gflops * 1e9 * 0.3);
    cost.gpu_busy_s = cost.linear_s + cost.attention_s;
    cost.total_s = cost.linear_s + cost.attention_s + 1e-3;
    return cost;
  }

  const double hmx_eff = (options_.backend == Backend::kQnnF16) ? kQnnPrefillHmxEfficiency
                                                                : kPrefillHmxEfficiency;
  // Linear layers: HMX compute at pipeline efficiency; weights re-fetched (and for ours,
  // re-dequantized) once per chunk.
  const double flops = 2.0 * m.params_b * 1e9 * prompt_len;
  const double hmx_peak = d.HmxPeakGflops() * 1e9;
  const double hmx_s = flops / (hmx_peak * hmx_eff);
  double weight_bytes_per_pass = 0.0;
  for (const auto& mat : m.LayerMatrices()) {
    const double bpw = (options_.backend == Backend::kQnnF16)
                           ? 16.0
                           : hquant::WeightSchemeBpw(mat.scheme);
    weight_bytes_per_pass += static_cast<double>(mat.k) * mat.n * bpw / 8.0;
  }
  weight_bytes_per_pass *= m.layers;
  const double dma_s = weight_bytes_per_pass * chunks / (d.dma_read_gbps * 1e9);
  double dequant_s = 0.0;
  if (options_.backend == Backend::kNpuOurs) {
    const double elems = m.params_b * 1e9;
    const double packets = elems / 64.0 *
                           hkern::DequantPacketsPer64(d, hkern::DequantKernel::kCoalescedLut) *
                           chunks;
    dequant_s = packets / (d.hvx_freq_ghz * 1e9) / kAttentionThreads;
  }
  cost.linear_s = std::max({hmx_s, dma_s, dequant_s});
  cost.hmx_busy_s = hmx_s * hmx_eff;  // busy at the achieved utilization
  cost.dma_busy_s = dma_s;
  cost.ddr_bytes = static_cast<int64_t>(weight_bytes_per_pass * chunks);

  // Attention: sum over chunks of FlashAttention(q=chunk, kv=position).
  double attn_hvx = 0.0;
  double attn_hmx = 0.0;
  for (int ch = 0; ch < chunks; ++ch) {
    const int q = std::min(hkern::kPrefillChunk, prompt_len - ch * hkern::kPrefillChunk);
    const int kv = ch * hkern::kPrefillChunk + q;
    const auto a = hkern::FlashAttentionCost(d, hkern::SoftmaxVariant::kLut, q, kv, m.head_dim);
    attn_hvx += a.HvxBusySeconds() * m.heads * m.layers;
    attn_hmx += (a.hmx_qk_s + a.hmx_pv_s) * m.heads * m.layers;
  }
  cost.attention_s = attn_hvx / kAttentionThreads + attn_hmx;
  cost.hvx_busy_s += attn_hvx;
  cost.hmx_busy_s += attn_hmx;

  const double misc_packets = MiscPacketsPerTokenPerLayer(m) * m.layers * prompt_len;
  cost.misc_s = misc_packets / (d.hvx_freq_ghz * 1e9) / kAttentionThreads;
  cost.hvx_busy_s += misc_packets / (d.hvx_freq_ghz * 1e9);

  cost.comm_s = chunks * hexsim::kDispatchSeconds;
  cost.total_s = cost.linear_s + cost.attention_s + cost.misc_s + cost.comm_s;
  return cost;
}

double Engine::DecodeThroughput(int batch, int context) const {
  return batch / DecodeStep(batch, context).total_s;
}

double Engine::PrefillThroughput(int prompt_len) const {
  return prompt_len / Prefill(prompt_len).total_s;
}

PowerReport StepPower(const DeviceProfile& d, const StepCost& c, int batch,
                      bool gpu_backend) {
  PowerReport r;
  const double t = c.total_s;
  if (t <= 0.0 || batch < 1) {
    return r;
  }
  const double hvx_threads_avg = std::min<double>(d.hvx_threads, c.hvx_busy_s / t);
  const double ddr_gbps = static_cast<double>(c.ddr_bytes) / t / 1e9;
  const double gpu_w = gpu_backend ? 2.6 * (c.gpu_busy_s / t) : 0.0;
  r.watts = d.p_base_w + d.p_hmx_w * std::min(1.0, c.hmx_busy_s / t) +
            d.p_hvx_thread_w * hvx_threads_avg + d.p_ddr_per_gbps_w * ddr_gbps +
            d.p_cpu_core_w * (c.cpu_busy_s / t) + gpu_w;
  r.joules_per_token = r.watts * t / batch;
  return r;
}

PowerReport Engine::DecodePower(int batch, int context) const {
  return StepPower(*options_.device, DecodeStep(batch, context), batch,
                   options_.backend == Backend::kGpuOpenCl);
}

MemoryReport Engine::Memory(int batch) const {
  const ModelConfig& m = *options_.model;
  MemoryReport r;
  r.dmabuf_bytes = m.DmabufBytes(options_.context_budget, options_.max_batch);
  r.cpu_resident_bytes = m.CpuWeightBytes() + kCpuRuntimeOverheadBytes;
  const StepCost c = DecodeStep(batch, options_.context_budget / 2);
  r.cpu_utilization = c.cpu_busy_s / c.total_s;
  return r;
}

void Engine::ExportMetrics(obs::Registry& registry, int batch, int context) const {
  const StepCost c = DecodeStep(batch, context);
  registry.Set("engine.step.linear_seconds", c.linear_s);
  registry.Set("engine.step.attention_seconds", c.attention_s);
  registry.Set("engine.step.misc_seconds", c.misc_s);
  registry.Set("engine.step.lm_head_seconds", c.lm_head_s);
  registry.Set("engine.step.comm_seconds", c.comm_s);
  registry.Set("engine.step.total_seconds", c.total_s);
  registry.Set("engine.step.hvx_busy_seconds", c.hvx_busy_s);
  registry.Set("engine.step.hmx_busy_seconds", c.hmx_busy_s);
  registry.Set("engine.step.dma_busy_seconds", c.dma_busy_s);
  registry.Set("engine.step.cpu_busy_seconds", c.cpu_busy_s);
  registry.Set("engine.step.gpu_busy_seconds", c.gpu_busy_s);
  registry.Set("engine.step.ddr_bytes", static_cast<double>(c.ddr_bytes));
  registry.Set("engine.decode_tokens_per_second", DecodeThroughput(batch, context));
  const PowerReport p = StepPower(*options_.device, c, batch,
                                  options_.backend == Backend::kGpuOpenCl);
  registry.Set("engine.power.watts", p.watts);
  registry.Set("engine.power.joules_per_token", p.joules_per_token);
  const MemoryReport mem = Memory(batch);
  registry.Set("engine.memory.dmabuf_bytes", static_cast<double>(mem.dmabuf_bytes));
  registry.Set("engine.memory.cpu_resident_bytes", static_cast<double>(mem.cpu_resident_bytes));
  registry.Set("engine.memory.cpu_utilization", mem.cpu_utilization);
  registry.Set("engine.sessions", static_cast<double>(SessionsNeeded()));
}

}  // namespace hrt
