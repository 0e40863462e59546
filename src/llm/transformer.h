// Functional batched transformer running end-to-end on the NPU simulator.
//
// Decode path per layer: RMSNorm -> Q/K/V projections (tile-quantized mixed GEMM on
// HVX+HMX) -> RoPE -> KV-cache append -> FP16 FlashAttention per KV head (GQA group and
// prefix-sharing spans stacked, LUT softmax) -> output projection -> residual -> RMSNorm -> SwiGLU FFN -> residual. The final hidden
// states project to logits on the (simulated) CPU, matching the paper's operator placement
// (§6, §7.2.2).
//
// This path is functional: it produces real numbers and charges realistic cycle costs. It is
// intended for the toy configuration (tests, examples); full-size models use the analytic
// timing engine in src/runtime.
//
// Host-performance contract (docs/performance.md): steady-state decode is zero-copy and
// zero-alloc. Attention consumes K/V in place through the paged cache's block tables
// (hkern::FlashAttentionBatch — no per-step gather), all step scratch lives in one
// persistent hexllm::Arena, weights dequantize once and replay their charges, and
// the lm_head runs blocked over a float-converted weight matrix. All of it is charge- and
// bit-identical to the straightforward path it replaced.
#ifndef SRC_LLM_TRANSFORMER_H_
#define SRC_LLM_TRANSFORMER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/arena.h"
#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/softmax.h"
#include "src/kvcache/paged_kv_cache.h"
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
  // attention dequantizes them while staging; docs/kv_quantization.md). Each
  // hquant::kGroupSize elements share one scale, so kGroupSize must divide head_dim.
  // The per-forward row capacity is the largest of max_batch, `max_step_rows` and one
  // prefill chunk (hkern::kPrefillChunk) — speculative verify steps push max_batch spans of
  // gamma+1 rows each through one forward, so the serving backend passes
  // max_batch * (gamma + 1).
  Transformer(hexsim::NpuDevice& dev, const ModelWeights& weights, int max_batch,
              int max_context, int64_t kv_pool_blocks = 0,
              hquant::KvDtype kv_dtype = hquant::KvDtype::kF16, int max_step_rows = 0);

  // One forward's row plan: span s consumes span_rows[s] >= 1 consecutive tokens, starting
  // at sequence seq_ids[s]'s current position (tokens are flattened span-major, so
  // tokens.size() == sum(span_rows)). Plain decode is one one-row span per sequence; a
  // speculative verify gives a sequence gamma+1 rows; a prefill chunk is one span with
  // empty logits (no final norm, no lm_head). Otherwise logits holds FP32 logits for EVERY
  // row, [tokens.size(), vocab].
  struct RowPlan {
    std::span<const int> tokens;
    std::span<const int> seq_ids;
    std::span<const int> span_rows;
    std::span<float> logits;
  };

  // Runs one batched forward over `plan` (at most max_batch spans). Every span's rows share
  // every GEMM/RMSNorm as one big batch (this is how a verify fills HMX tile rows like
  // Best-of-N lanes), while attention is causal per row, row r of a span sitting at the
  // span's base position + r, and fans out over sharing clusters, one work item each. A
  // one-row span inside a mixed plan matches plain decode bit for bit: every per-row
  // computation (norms, GEMM rows, RoPE, attention, the blocked lm_head) is
  // row-independent, whatever rows share its attention tile — the lossless-under-greedy
  // invariant the speculative serving path is built on (docs/speculative_decoding.md). The
  // softmax exp variant is configurable for the Table 5 experiments.
  void Forward(const RowPlan& plan,
               hkern::SoftmaxVariant exp_variant = hkern::SoftmaxVariant::kLut);

  // Prefills sequence `seq` with a prompt, one Forward per chunk of up to
  // hkern::kPrefillChunk tokens (one span, empty logits; causal FlashAttention handles
  // intra-chunk masking) — the paper's chunked prefill pipeline, not token-by-token
  // decoding. Every KV row is bit-identical to a run of 32-token prefills: GEMM rows and
  // attention rows do not depend on their tile mates.
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
  const hexllm::Arena& workspace() const { return ws_; }

 private:
  // Parallel attention needs one exp LUT per execution slot, resident in that slot's shard
  // TCM (the softmax vgathers the table from the device it runs on). Lazily builds shard
  // devices up to `slots` on the calling thread, copies lut_ into each shard's TCM, and
  // returns the per-slot pointers (slot 0 is lut_ itself). The copies count no build, so
  // kernel.exp_lut.builds reads 1 at any lane count.
  std::span<const hkern::ExpLut* const> EnsureShardLuts(int slots);

  // Grows the per-lane attention item scratch (each lane lists its item's spans and query
  // rows there). Amortized: no growth in steady state.
  void EnsureLaneScratch(int slots);

  // Groups the forward's spans into sharing clusters (cluster_spans_/cluster0_) from the
  // block pointers in span_k_ptrs_ and the lengths in span_kv_len_.
  void BuildClusters(int spans);

  // The window pointer attention kernels receive: null when windowing is off.
  const hkern::AttnWindowSpec* win() const {
    return window_.enabled() ? &window_ : nullptr;
  }

  // Faults the KV blocks attention stages for query rows at positions first_pos..last_pos
  // over [0, kv_len) back into DRAM (tiered offload; no-op when offload is off). Must run
  // on the bookkeeping thread BEFORE the parallel attention region — block promotion
  // mutates pool residency state, which the read-only parallel lanes must never do
  // (docs/threading_model.md).
  void FaultAttendedBlocks(int seq, int first_pos, int last_pos, int kv_len);

  hexsim::NpuDevice& dev_;
  const ModelWeights& weights_;
  hkern::ExpLut lut_;
  KvCache kv_;
  int max_batch_;
  int max_rows_;  // per-forward row capacity (max_batch, max_step_rows or one prefill chunk)
  std::vector<std::unique_ptr<hkern::ExpLut>> shard_luts_;
  std::vector<const hkern::ExpLut*> slot_lut_ptrs_;

  // Persistent decode state (sized once in the constructor; see docs/performance.md).
  hexllm::Arena ws_;  // 64-byte aligned spans (HVX vector alignment)
  std::vector<float> lm_head_f32_;       // [hidden x vocab] row-major, converted once
  std::vector<double> rope_inv_freq_;    // base^(-2i/d) per pair, pow() hoisted once
  std::vector<int> span_row0_;           // per-span first-row offsets within a forward
  std::vector<int> span_kv_len_;         // per-span KV length attention reads (incl. new rows)
  hkern::AttnWindowSpec window_;         // disabled unless SetAttentionWindow installs one
  std::vector<int> attended_scratch_;    // table indices for FaultAttendedBlocks
  // In-place paged attention (hkern::PagedKvView): every span's block base pointers
  // for the current layer, span s at s * blocks_per_seq_capacity(), resolved on the calling
  // thread and read by the lanes.
  std::vector<const uint8_t*> span_k_ptrs_, span_v_ptrs_;
  // Sharing clusters of the current forward: cluster c is the span indices
  // cluster_spans_[cluster0_[c], cluster0_[c + 1]); span_lead_ is BuildClusters' scratch.
  std::vector<int> span_lead_, cluster_spans_, cluster0_;
  // Per-lane attention item scratch: the item's spans and stacked query rows.
  struct LaneScratch {
    std::vector<hkern::AttnKvSpan> spans;
    std::vector<hkern::AttnQueryRow> rows;
  };
  std::vector<LaneScratch> lane_scratch_;
};

}  // namespace hllm

#endif  // SRC_LLM_TRANSFORMER_H_
