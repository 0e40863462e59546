// Functional batched transformer running end-to-end on the NPU simulator.
//
// Decode path per layer: RMSNorm -> Q/K/V projections (tile-quantized mixed GEMM on
// HVX+HMX) -> RoPE -> KV-cache append -> per-head FP16 FlashAttention with LUT softmax ->
// output projection -> residual -> RMSNorm -> SwiGLU FFN -> residual. The final hidden
// states project to logits on the (simulated) CPU, matching the paper's operator placement
// (§6, §7.2.2).
//
// This path is functional: it produces real numbers and charges realistic cycle costs. It is
// intended for the toy configuration (tests, examples); full-size models use the analytic
// timing engine in src/runtime.
//
// Host-performance contract (docs/performance.md): steady-state decode is zero-copy and
// zero-alloc. Attention consumes K/V in place through the paged cache's block tables
// (hkern::FlashAttentionPaged — no per-step gather), all step scratch lives in a
// persistent DecodeWorkspace arena, weights dequantize once and replay their charges, and
// the lm_head runs blocked over a float-converted weight matrix. All of it is charge- and
// bit-identical to the straightforward path it replaced.
#ifndef SRC_LLM_TRANSFORMER_H_
#define SRC_LLM_TRANSFORMER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/softmax.h"
#include "src/kvcache/paged_kv_cache.h"
#include "src/llm/decode_workspace.h"
#include "src/llm/weights.h"

namespace hllm {

// The KV cache is the paged, ref-counted block-pool manager from src/kvcache: attention
// reads K/V rows in place through per-sequence block tables, prompt prefixes admitted for
// parallel TTS candidates are stored once, and beam-search forks share their stem
// copy-on-write.
using KvCache = hkv::PagedKvCache;

class Transformer {
 public:
  // kv_pool_blocks <= 0 sizes the KV block pool for `max_batch` dense sequences of
  // `max_context` (plus CoW/retention slack); serving backends pass an explicit pool size
  // to model a DRAM budget. `kv_dtype` selects the KV storage mode (F16 default — bit- and
  // charge-identical to the pre-quant path; INT8/INT4 group-quantize K/V rows at append and
  // attention dequantizes them while staging; docs/kv_quantization.md). `kv_quant_group`
  // elements share one scale and must divide head_dim.
  // `max_step_rows` (0 = max_batch) raises the per-forward row capacity above the sequence
  // count — speculative verify steps push max_batch spans of gamma+1 rows each through one
  // forward, so the serving backend sizes the scratch arena for max_batch * (gamma + 1).
  Transformer(hexsim::NpuDevice& dev, const ModelWeights& weights, int max_batch,
              int max_context, int64_t kv_pool_blocks = 0,
              hquant::KvDtype kv_dtype = hquant::KvDtype::kF16,
              int kv_quant_group = hquant::kGroupSize, int max_step_rows = 0);

  // Decodes one step for `tokens.size()` parallel sequences (sequence i consumes tokens[i]
  // at its current position). Writes FP32 logits [batch, vocab]. The softmax exp variant is
  // configurable for the Table 5 experiments.
  void Step(std::span<const int> tokens, std::span<float> logits,
            hkern::SoftmaxVariant exp_variant = hkern::SoftmaxVariant::kLut);

  // Decodes one step for an arbitrary subset of sequences: row i consumes tokens[i] at
  // sequence seq_ids[i]'s current position. The serving layer uses this to step only the
  // occupied KV slots of a continuous batch. Writes FP32 logits [tokens.size(), vocab].
  void StepSeqs(std::span<const int> tokens, std::span<const int> seq_ids,
                std::span<float> logits,
                hkern::SoftmaxVariant exp_variant = hkern::SoftmaxVariant::kLut);

  // Generalized multi-span step — the speculative-decode verify forward. Span s consumes
  // span_rows[s] consecutive tokens starting at sequence seq_ids[s]'s current position
  // (tokens are flattened span-major; tokens.size() == sum(span_rows)). All spans' rows
  // share every GEMM/RMSNorm as one big batch (this is how a verify fills HMX tile rows
  // like Best-of-N lanes), while attention is per-span causal FlashAttention with
  // q_pos_offset at the span's base position. Writes FP32 logits for EVERY row,
  // [tokens.size(), vocab]. With all-ones span_rows this IS StepSeqs (same plan, same
  // charges). A one-row span inside a mixed verify attends causally and still matches
  // plain decode bit for bit: every per-row computation (norms, GEMM rows, RoPE,
  // attention, the blocked lm_head) is row-independent, and causally masked positions
  // contribute exactly +0.0f to the online softmax — the lossless-under-greedy invariant
  // the speculative serving path is built on (docs/speculative_decoding.md).
  void StepSpans(std::span<const int> tokens, std::span<const int> seq_ids,
                 std::span<const int> span_rows, std::span<float> logits,
                 hkern::SoftmaxVariant exp_variant = hkern::SoftmaxVariant::kLut);

  // Prefills sequence `seq` with a prompt, processed in chunks of up to 32 tokens per
  // forward pass (one span per chunk; causal FlashAttention handles intra-chunk masking) —
  // the paper's chunked prefill pipeline, not token-by-token decoding. Logits are
  // discarded.
  void Prefill(int seq, std::span<const int> tokens);

  // Installs sliding-window + attention-sink masking (docs/long_context.md) on every
  // attention region. The spec's block size is forced to the KV cache's block size; a spec
  // with window_blocks <= 0 (the default) disables the window, and a window wide enough to
  // cover the whole context is normalized away inside the kernels — both configurations
  // are bit-identical to unwindowed attention. May be changed between steps, not during.
  void SetAttentionWindow(hkern::AttnWindowSpec window) {
    window.block_tokens = kv_.block_tokens();
    window_ = window;
  }
  const hkern::AttnWindowSpec& attention_window() const { return window_; }

  KvCache& kv() { return kv_; }
  const KvCache& kv() const { return kv_; }
  const ModelConfig& config() const { return weights_.config; }
  hexsim::NpuDevice& device() { return dev_; }
  // Step-scratch arena; its high-water mark is exported as the `exec.workspace.bytes`
  // gauge (docs/metrics_schema.md).
  const DecodeWorkspace& workspace() const { return ws_; }

 private:
  // The batched forward behind decode, verify and prefill. Span s consumes span_rows[s]
  // consecutive tokens (flattened span-major) at sequence seq_ids[s]'s current position;
  // every span's rows share the norms and GEMMs, and attention fans out over (span, head)
  // work items. Empty logits means a prefill chunk: no final norm, no lm_head.
  struct RowPlan {
    std::span<const int> tokens;
    std::span<const int> seq_ids;
    std::span<const int> span_rows;
    std::span<float> logits;
  };
  void Forward(const RowPlan& plan, hkern::SoftmaxVariant exp_variant);

  // Parallel attention needs one exp LUT per execution slot, resident in that slot's shard
  // TCM (the softmax vgathers the table from the device it runs on). Lazily builds shard
  // devices + LUTs up to `slots` on the calling thread and returns the per-slot pointers
  // (slot 0 is the parent device's lut_). LUT builds are charged on the shard ledgers and
  // folded into the parent at the next merge.
  std::span<const hkern::ExpLut* const> EnsureShardLuts(int slots);

  // Grows the per-slot block-pointer scratch (each attention lane resolves the block
  // tables of the spans it works on). Amortized: no growth in steady state.
  void EnsureSlotScratch(int slots);

  // The window pointer attention kernels receive: null when windowing is off.
  const hkern::AttnWindowSpec* win() const {
    return window_.enabled() ? &window_ : nullptr;
  }

  // Faults the KV blocks an attention call with this shape will stage back into DRAM
  // (tiered offload; no-op when offload is off). Must run on the bookkeeping thread
  // BEFORE the parallel attention region — block promotion mutates pool residency state,
  // which the read-only parallel lanes must never do (docs/threading_model.md).
  void FaultAttendedBlocks(int seq, int q_len, int kv_len, int q_pos_offset);

  hexsim::NpuDevice& dev_;
  const ModelWeights& weights_;
  hkern::ExpLut lut_;
  KvCache kv_;
  int max_batch_;
  int max_rows_;  // per-forward row capacity (max_batch, max_step_rows or one prefill chunk)
  std::vector<std::unique_ptr<hkern::ExpLut>> shard_luts_;
  std::vector<const hkern::ExpLut*> slot_lut_ptrs_;

  // Persistent decode state (sized once in the constructor; see docs/performance.md).
  DecodeWorkspace ws_;
  std::vector<float> lm_head_f32_;       // [hidden x vocab] row-major, converted once
  std::vector<double> rope_inv_freq_;    // base^(-2i/d) per pair, pow() hoisted once
  std::vector<int> identity_seq_ids_;    // 0..max_batch-1, for Step()
  std::vector<int> one_row_spans_;       // max_batch ones: decode's span_rows
  std::vector<int> span_row0_;           // per-span first-row offsets within a forward
  hkern::AttnWindowSpec window_;         // disabled unless SetAttentionWindow installs one
  std::vector<int> attended_scratch_;    // table indices for FaultAttendedBlocks
  // Per-slot block-pointer scratch for in-place paged attention (hkern::PagedKvHeadView).
  struct SlotBlockPtrs {
    std::vector<const uint8_t*> k, v;
  };
  std::vector<SlotBlockPtrs> slot_ptrs_;
};

}  // namespace hllm

#endif  // SRC_LLM_TRANSFORMER_H_
