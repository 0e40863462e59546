// The end-to-end inference engine (timing mode).
//
// Mirrors the paper's system structure (§6): all transformer-layer operators run on the NPU
// (mixed-precision GEMM with HVX dequantization feeding HMX, FP16 FlashAttention with LUT
// softmax, misc vector ops), while the vocabulary projection (lm_head) runs on the CPU
// because of the NPU's 32-bit session address space (§7.2.2). Communication flows through
// the shared-memory mailbox with explicit cache maintenance.
//
// The engine composes the per-kernel analytic cost models (each validated against the
// instruction-level emulation in tests) into per-token decode and prefill costs, plus power,
// energy, and memory reports. Three backends reproduce Figure 13:
//   kNpuOurs   — this paper's system;
//   kGpuOpenCl — llama.cpp's OpenCL Adreno backend: fast batch-1 GEMV, poor batch reuse;
//   kQnnF16    — QNN-style FP16 reference: no dequant (DMA-bound FP16 weights), static
//                fixed-shape graphs (no batching benefit).
#ifndef SRC_RUNTIME_ENGINE_H_
#define SRC_RUNTIME_ENGINE_H_

#include <cstdint>
#include <string>

#include "src/hexsim/device_profile.h"
#include "src/kernels/mixed_gemm.h"
#include "src/kernels/softmax.h"
#include "src/llm/model_config.h"
#include "src/obs/metrics.h"

namespace hrt {

enum class Backend : uint8_t {
  kNpuOurs,
  kGpuOpenCl,
  kQnnF16,
};

const char* BackendName(Backend b);

// Per-step cost decomposition (one decode step for a batch, or one prefill chunk).
struct StepCost {
  double linear_s = 0.0;     // projection GEMMs (incl. dequant / weight fetch)
  double attention_s = 0.0;  // FlashAttention (softmax + matmul + rescale)
  double misc_s = 0.0;       // RMSNorm, RoPE, SiLU, residual adds
  double lm_head_s = 0.0;    // CPU vocabulary projection
  double comm_s = 0.0;       // mailbox round trips + cache maintenance
  // Tiered KV offload (docs/long_context.md): seconds spent moving KV blocks between DRAM
  // and the flash tier, and the bytes moved. flash_s overlaps decode compute where the
  // prefetch queue permits; only the non-overlapped stall is folded into total_s. Zero on
  // every path without offload — legacy cost sums are unchanged.
  double flash_s = 0.0;
  int64_t flash_bytes = 0;
  double total_s = 0.0;

  // Engine busy time (for the power model).
  double hvx_busy_s = 0.0;
  double hmx_busy_s = 0.0;
  double dma_busy_s = 0.0;
  double cpu_busy_s = 0.0;
  double gpu_busy_s = 0.0;
  int64_t ddr_bytes = 0;

  // Field-wise sum: the cost of running `o` after this step (e.g. a speculative cycle's
  // draft steps on top of its verify).
  StepCost& operator+=(const StepCost& o) {
    linear_s += o.linear_s;
    attention_s += o.attention_s;
    misc_s += o.misc_s;
    lm_head_s += o.lm_head_s;
    comm_s += o.comm_s;
    flash_s += o.flash_s;
    flash_bytes += o.flash_bytes;
    total_s += o.total_s;
    hvx_busy_s += o.hvx_busy_s;
    hmx_busy_s += o.hmx_busy_s;
    dma_busy_s += o.dma_busy_s;
    cpu_busy_s += o.cpu_busy_s;
    gpu_busy_s += o.gpu_busy_s;
    ddr_bytes += o.ddr_bytes;
    return *this;
  }
};

struct PowerReport {
  double watts = 0.0;
  double joules_per_token = 0.0;
};

// Power drawn while a step with cost `c` executes: busy-fraction model over the step's wall
// time (c.total_s). Shared by Engine::DecodePower and the serving backends, which meter
// their own StepCosts. Returns zero when c.total_s <= 0.
PowerReport StepPower(const hexsim::DeviceProfile& d, const StepCost& c, int batch,
                      bool gpu_backend = false);

struct MemoryReport {
  int64_t dmabuf_bytes = 0;       // NPU-mapped shared memory (weights + KV + activations)
  int64_t cpu_resident_bytes = 0; // lm_head weights + runtime overhead
  double cpu_utilization = 0.0;   // average busy big-cores during decode (Figure 16)
};

struct EngineOptions {
  const hllm::ModelConfig* model = nullptr;
  const hexsim::DeviceProfile* device = nullptr;
  Backend backend = Backend::kNpuOurs;
  int context_budget = 4096;
  int max_batch = 16;
  hkern::DequantKernel dequant = hkern::DequantKernel::kCoalescedLut;
  hkern::SoftmaxVariant softmax = hkern::SoftmaxVariant::kLut;
  // §8(a) extension: run the linear layers as T-MAC-style LUT GEMV (no dequantization, no
  // HMX) instead of dequant+HMX. Fast at batch 1 (DMA-bound); loses to HMX at batch >= ~4.
  bool use_tmac_gemv = false;
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options);

  // False when the model cannot be mapped into the NPU address space (the Snapdragon
  // 8 Gen 2 / V73 wall for >= 3B models, §7.2.1). On V75/V79 a model larger than one
  // session's 32-bit window is split across up to two NPU sessions (the §8 mitigation);
  // V73 is limited to a single session. `reason` explains a rejection.
  bool CanRun(std::string* reason = nullptr) const;

  // Number of NPU sessions the model's dmabuf footprint requires (1 or 2).
  int SessionsNeeded() const;

  // Cost of one decode step with `batch` parallel sequences at context length `context`.
  StepCost DecodeStep(int batch, int context) const;

  // Cost of prefilling `prompt_len` tokens (chunked through the pipeline).
  StepCost Prefill(int prompt_len) const;

  // Decode throughput in tokens/second (all batch rows advance together).
  double DecodeThroughput(int batch, int context) const;
  // Prefill throughput in tokens/second.
  double PrefillThroughput(int prompt_len) const;

  // Average decode latency per generated token per sequence, in seconds.
  double DecodeSecondsPerToken(int batch, int context) const {
    return DecodeStep(batch, context).total_s;
  }

  PowerReport DecodePower(int batch, int context) const;
  MemoryReport Memory(int batch) const;

  // Publishes the analytic model's view of one decode operating point into `registry` under
  // the `engine.` unit prefix (docs/metrics_schema.md):
  //   gauges engine.step.{linear,attention,misc,lm_head,comm,total}_seconds,
  //          engine.step.{hvx,hmx,dma,cpu,gpu}_busy_seconds, engine.step.ddr_bytes,
  //          engine.decode_tokens_per_second, engine.power.watts,
  //          engine.power.joules_per_token, engine.memory.dmabuf_bytes,
  //          engine.memory.cpu_resident_bytes, engine.memory.cpu_utilization,
  //          engine.sessions
  void ExportMetrics(obs::Registry& registry, int batch, int context) const;

  const EngineOptions& options() const { return options_; }

 private:
  StepCost NpuDecodeStep(int batch, int context) const;
  StepCost GpuDecodeStep(int batch, int context) const;
  StepCost QnnDecodeStep(int batch, int context) const;
  StepCost AddLmHeadAndComm(StepCost cost, int batch) const;

  EngineOptions options_;
};

}  // namespace hrt

#endif  // SRC_RUNTIME_ENGINE_H_
