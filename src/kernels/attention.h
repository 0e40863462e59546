// FP16 FlashAttention on the simulated Hexagon NPU (Algorithm 1) plus a conventional FP32
// reference implementation.
//
// Structure of the NPU kernel (every KV head, any number of query rows):
//   * Query rows are stacked into 32-row tiles (the HMX tile height) — the query heads of a
//     GQA group, and every span that shares a KV chunk, fill one tile. KV runs in chunks of
//     128 (4 tiles); each physical KV block a chunk reads is staged once, for every KV head,
//     and each chunk instance runs against every tile that reads it.
//   * S = (Q * K^T) * scale runs on HMX with FP32 accumulation (Tag::kAttnQk).
//   * Online safe softmax runs on HVX: running row-max m, running row-sum l (FP32
//     accumulation), P = exp(S - m) through one of the three exp variants (Tag::kAttnSoftmax).
//   * O_new = diag(exp(m_prev - m_new)) * O + P * V: the P*V product on HMX (Tag::kAttnPv),
//     the rescale/accumulate sweep on HVX (Tag::kAttnRescale).
//   * Tile packing into the Figure 4a layout is charged under Tag::kAttnPack; DMA under Tag::kDma.
//
// The tags drive the Figure 8 latency breakdown. All matrices are FP16 with FP32 accumulation
// exactly where Algorithm 1 says (MatMul accumulators and the row-sum).
#ifndef SRC_KERNELS_ATTENTION_H_
#define SRC_KERNELS_ATTENTION_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/base/fp16.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/softmax.h"
#include "src/quant/quant_types.h"

namespace hkern {

inline constexpr int kAttnQTile = 32;    // HMX tile height
inline constexpr int kAttnKvChunk = 128; // KV positions per online-softmax step (4 tiles)
// Prompt rows per prefill forward, in both clocks: hrt::Engine::Prefill prices one weight
// pass and one dispatch per chunk, hllm::Transformer::Prefill runs one forward per chunk, and
// the functional backend charges one dispatch per chunk. A chunk is whole q tiles, so a
// prompt's rows stack into the same q tiles however it is chunked, and whole KV chunks, so
// each later chunk starts on a KV chunk boundary.
inline constexpr int kPrefillChunk = 256;
static_assert(kPrefillChunk % kAttnQTile == 0 && kPrefillChunk % kAttnKvChunk == 0);

// Sliding-window attention with attention sinks (docs/long_context.md): a query at
// absolute position qa attends the first `sink_blocks` blocks (the attention-sink prefix
// that anchors softmax mass), the trailing `window_blocks` blocks ending at its own block,
// and nothing in between. Block-aligned on the KV-cache block size so masked interior
// blocks become whole-block eviction candidates for the tiered KV offload.
//
// window_blocks <= 0 disables the window (plain causal attention). A window that covers
// the whole KV range (CoversAll) is normalized away at the kernel entry points, so the
// full-coverage configuration takes the exact legacy code path — charges and outputs stay
// bit-identical to unwindowed attention, the invariant the CI gate checks.
struct AttnWindowSpec {
  int sink_blocks = 0;
  int window_blocks = 0;
  int block_tokens = 32;  // must match the paged KV cache's block size

  bool enabled() const { return window_blocks > 0; }
  int sink_tokens() const { return sink_blocks * block_tokens; }
  // First KV position the query at absolute position qa may attend outside the sinks: the
  // window is the `window_blocks` whole blocks ending at qa's own block.
  int WindowStart(int qa) const {
    const int start = (qa / block_tokens - window_blocks + 1) * block_tokens;
    return start > 0 ? start : 0;
  }
  // True when position `p` is masked for the query at absolute position `qa`.
  bool Masked(int p, int qa) const {
    return p >= sink_tokens() && p < WindowStart(qa);
  }
  // True when KV chunk [kv0, kv0 + n) is masked for EVERY query row at absolute positions
  // >= qa0 (the masked interior only grows with qa, so the first row decides).
  bool ChunkFullyMasked(int kv0, int n, int qa0) const {
    return kv0 >= sink_tokens() && kv0 + n <= WindowStart(qa0);
  }
  // True when the query at qa has at least one masked position inside [kv0, kv0 + n) — the
  // chunks whose window sweep masks something.
  bool CutsChunk(int kv0, int n, int qa) const {
    return std::max(kv0, sink_tokens()) < std::min(kv0 + n, WindowStart(qa));
  }
  // True when no position in [0, kv_len) is masked for any query up to qa_max — the
  // full-coverage case that must degrade to legacy causal attention.
  bool CoversAll(int qa_max) const { return WindowStart(qa_max) <= sink_tokens(); }
  // Resident tokens a window keeps attendable regardless of context length (sinks + window
  // + the partially-filled current block) — what admission math prices.
  int ResidentTokens() const { return (sink_blocks + window_blocks + 1) * block_tokens; }
};

// True when a query row at absolute position `pos` attends KV chunk [kv0, kv0 + n): the
// chunk starts at or before the row's causal frontier and is not wholly inside the row's
// masked window interior. This is the per-row chunk skip of FlashAttentionBatch; `window`
// must already be normalized (null when disabled).
inline bool RowAttendsChunk(const AttnWindowSpec* window, int pos, int kv0, int n) {
  return kv0 <= pos && (window == nullptr || !window->ChunkFullyMasked(kv0, n, pos));
}

// Appends to `out` the KV-cache table-block indices that FlashAttention over [0, kv_len)
// stages for query rows at positions first_pos..last_pos (one row per position; a decode
// row sits at kv_len - 1) — chunk-granular, the union over rows of RowAttendsChunk, so it
// matches the kernel's chunk skips exactly. The serving layer faults exactly these blocks
// resident before the kernel runs; everything else is evictable. `window` may be null
// (plain causal attention stages every block up to the causal frontier).
void AppendAttendedBlocks(const AttnWindowSpec* window, int first_pos, int last_pos,
                          int kv_len, int block_tokens, std::vector<int>* out);

// Runs one head of FP16 FlashAttention. q: [q_len, head_dim], k/v: [kv_len, head_dim],
// o: [q_len, head_dim], all row-major FP16 in (simulated) DDR. head_dim must be a multiple
// of 32. `scale` is the 1/sqrt(d) factor (with log2 e absorbed upstream when the polynomial
// exp2 variants are used — here variants all compute natural exp, so scale is just
// 1/sqrt(d)).
//
// Causal masking (chunked prefill): when q_pos_offset >= 0, query row i sits at position
// q_pos_offset + i and attends only KV positions up to it (masked scores become -inf and
// exp to 0; chunks past a row's position are skipped for that row — the standard
// causal-prefill saving). q_pos_offset < 0 puts every row at kv_len - 1, so each attends
// the whole KV (pure cross-attention). A view over FlashAttentionBatch with one span whose
// single block is the whole context (K and V are separate arrays, so each chunk stages them
// with two descriptors).
void FlashAttentionF16(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                       const hexllm::F16* q, const hexllm::F16* k, const hexllm::F16* v,
                       hexllm::F16* o, int q_len, int kv_len, int head_dim, float scale,
                       int q_pos_offset = -1);

// A span's view of a paged KV cache (hkv::PagedKvCache), consumed in place — no per-step
// gather of K/V into contiguous scratch. k_blocks/v_blocks[i] point at the position-0 K / V
// row bytes of table block i for the owning (layer, sequence); KV position j's row starts at
// blocks[j / block_tokens] + (j % block_tokens) * row.row_bytes(), in the cache's row format
// `row` (hquant::KvRowCodec: dtype and elements per row). A row holds every KV head;
// query rows name the head they read (AttnQueryRow::kv_head), so the query heads of a GQA
// group and every KV head of a span read one view — rows are never duplicated. For quantized
// rows head slices must be group-aligned.
struct PagedKvView {
  const uint8_t* const* k_blocks = nullptr;
  const uint8_t* const* v_blocks = nullptr;
  int block_tokens = 0;
  hquant::KvRowCodec row;
  // True when every block's V rows directly follow its K rows, v_blocks[i] == k_blocks[i] +
  // block_tokens * row.row_bytes() (PagedKvCache's layout), so staging may move a block's K
  // and V rows in one descriptor. Stated by whoever builds the view, never inferred from
  // the pointers: separate allocations may happen to be adjacent.
  bool v_follows_k = false;
};

// One query row of a batched attention call: its query vector and output row (head_dim
// F16 each, anywhere in memory), its absolute position `pos` — the row attends KV
// positions [0, pos] and anchors its sink+window mask there — the index of the span whose
// KV it reads, and the KV head it reads (elements [kv_head * head_dim, (kv_head + 1) *
// head_dim) of each row). The query heads of one GQA group at one token are rows with the
// same pos, span and kv_head.
struct AttnQueryRow {
  const hexllm::F16* q = nullptr;
  hexllm::F16* o = nullptr;
  int pos = 0;
  int span = 0;
  int kv_head = 0;
};

// One span's KV in a batched attention call: the span's view of its block table and the
// number of positions it holds (0 <= pos < kv_len for each of its rows).
struct AttnKvSpan {
  PagedKvView kv;
  int kv_len = 0;
};

// FlashAttention (Algorithm 1) for any set of query rows over every KV head of a paged
// cache. Every span must share the view layout (block size, row codec, v_follows_k); rows of
// one (span, KV head) should be consecutive.
//
// Rows are stacked into fixed 32-row q tiles in order, a tile holding rows of one KV head and
// a (span, KV head) run of rows kept in one tile when it fits. Per KV chunk of 128 positions
// (ascending), spans whose block tables map the same physical blocks for a whole chunk read
// one instance of it; every other chunk is an instance of its own span. Each instance runs
// against every tile that has a row of a mapping span attending it (RowAttendsChunk). Inside
// a tile only those rows update their online-softmax state, so each row sees exactly the
// chunks, order and FP32 accumulation it would see alone: outputs do not depend on which
// rows share a tile or a call.
//
// Staging is per physical block, not per instance: for each chunk the kernel collects the
// distinct blocks (by K/V pointer identity) its attended instances read and DMAs each once,
// with the rows its longest reader needs, into a TCM chunk buffer as whole rows — every KV
// head in 1D descriptors at full row efficiency. When the view says V directly follows the
// block's K plane (PagedKvView::v_follows_k) one descriptor runs from K row 0 through the
// last staged V row, unless DmaEngine::Cost1D prices two descriptors below moving the gap;
// otherwise K and V take one descriptor each. The joint descriptor of a partly filled block
// also moves the unused tail of its K plane, so it can move more bytes than two would. DMA
// bytes are the stored row bytes — the *quantized* bytes for INT8/INT4 (1.9-3.6x less KV
// traffic per full block).
// Quantized rows are decoded through the view's row codec once per (staged block, KV head),
// charging the dequant as HVX work under Tag::kAttnKvDequant (the LUT-GEMM idiom: nibble
// extract + VLut16 level/scale lookups), so outputs match PagedKvCache::ReadKeyRow/
// ReadValueRow numerics exactly; each call counts one Counter::kAttnKvDequantCalls. F16 rows
// are read in place and pay no dequant. Each instance packs its K^T and V tiles from the
// staged rows.
//
// Charges follow what runs: Q DMA, Q packing and O DMA once per tile; block staging as
// above; HMX tile ops, S/P/PV packing and the PV accumulate sweep per (tile, instance)
// step; softmax and the O rescale per live row and step, with vgather contention on the
// step's live row count. The padded-KV mask and the causal and window mask sweeps commit
// under Tag::kAttnMask — a sweep only on steps where some live row's position masks part of
// the chunk — and the final normalization's scalar reciprocal under Tag::kAttnNormalize.
// HVX and HMX work is summed per KV head and committed per head, in head order.
//
// `window`, when non-null and enabled, applies sliding-window + attention-sink masking on
// top of the causal mask: chunks fully masked for a row are skipped for it (never staged
// when no row attends them) and partially-masked chunks get -inf scores like the causal
// mask. A window covering every row's whole range is normalized away (no
// Counter::kFlashAttentionWindowedCalls); it would mask nothing, so outputs and charges
// are those of unwindowed attention either way.
void FlashAttentionBatch(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                         std::span<const AttnKvSpan> spans, std::span<const AttnQueryRow> rows,
                         int head_dim, float scale, const AttnWindowSpec* window = nullptr);

// Conventional full-precision attention (the Table 5 baseline): FP32 throughout, full S
// matrix materialized. Pure host math — used as the numeric reference.
void AttentionF32Reference(const float* q, const float* k, const float* v, float* o,
                           int q_len, int kv_len, int head_dim, float scale);

// Analytic per-head cost model of FlashAttentionF16 (validated against emulation in tests;
// consumed by the timing-mode engine). Seconds by component.
struct AttentionCost {
  double hmx_qk_s = 0.0;
  double hmx_pv_s = 0.0;
  double hvx_softmax_s = 0.0;   // single-thread busy seconds
  double hvx_rescale_s = 0.0;
  double hvx_pack_s = 0.0;
  double dma_s = 0.0;

  double HvxBusySeconds() const { return hvx_softmax_s + hvx_rescale_s + hvx_pack_s; }
};

AttentionCost FlashAttentionCost(const hexsim::DeviceProfile& profile,
                                 SoftmaxVariant exp_variant, int q_len, int kv_len,
                                 int head_dim);

}  // namespace hkern

#endif  // SRC_KERNELS_ATTENTION_H_
