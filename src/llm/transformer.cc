#include "src/llm/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/exec/thread_pool.h"
#include "src/kernels/attention.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/misc_ops.h"

namespace hllm {

using hexllm::F16;

namespace {

// Capacity of the per-step scratch arena: every step/prefill-chunk buffer (embedding rows,
// normed rows, QKV, attention output, FFN intermediates, float hidden for the lm_head) plus
// the worst-case padded-GEMM staging frame, with 64-byte alignment slack per allocation.
// Sized once so steady-state decode never grows it (docs/performance.md).
int64_t StepWorkspaceBytes(const ModelConfig& c, int max_batch) {
  const int64_t rows = std::max<int64_t>(max_batch, hkern::kAttnQTile);
  const int64_t f16_elems =
      rows * (3 * static_cast<int64_t>(c.hidden) + 2 * c.q_dim() + 2 * c.kv_dim() +
              3 * static_cast<int64_t>(c.ffn_hidden));
  const int64_t float_elems = rows * static_cast<int64_t>(c.hidden);
  const int64_t dim_max =
      std::max<int64_t>({static_cast<int64_t>(c.hidden), c.q_dim(), c.kv_dim(),
                         static_cast<int64_t>(c.ffn_hidden)});
  const int64_t staging_elems = 2 * hexllm::RoundUp(rows, 32) * dim_max;
  return (f16_elems + staging_elems) * 2 + float_elems * 4 + 64 * 32;
}

}  // namespace

Transformer::Transformer(hexsim::NpuDevice& dev, const ModelWeights& weights, int max_batch,
                         int max_context, int64_t kv_pool_blocks, hquant::KvDtype kv_dtype,
                         int kv_quant_group, int max_step_rows)
    : dev_(dev), weights_(weights), lut_(dev),
      kv_(weights.config.layers, weights.config.kv_dim(), max_batch, max_context,
          hkv::kDefaultBlockTokens, kv_pool_blocks, kv_dtype, kv_quant_group),
      max_batch_(max_batch),
      max_rows_(std::max({max_step_rows, max_batch, hkern::kAttnQTile})),
      ws_(StepWorkspaceBytes(weights.config, max_rows_)) {
  // Per-kv-head attention views slice rows at head boundaries, so quant groups must not
  // straddle heads.
  HEXLLM_CHECK(kv_.row_codec().SlicesAt(weights.config.head_dim));
  kv_.ReserveSeqs(max_batch);
  identity_seq_ids_.resize(static_cast<size_t>(max_batch));
  std::iota(identity_seq_ids_.begin(), identity_seq_ids_.end(), 0);
  one_row_spans_.assign(static_cast<size_t>(max_batch), 1);
  span_row0_.reserve(static_cast<size_t>(max_batch));
  // lm_head converted to float once and transposed to row-major [hidden x vocab]: the
  // blocked CPU lm_head then converts each hidden row once per step and streams contiguous
  // vocab slices. F16::ToFloat is exact and the per-logit accumulation order is unchanged,
  // so the logits are bit-identical to the all-F16 path.
  const ModelConfig& c = weights_.config;
  lm_head_f32_.resize(static_cast<size_t>(c.hidden) * c.vocab);
  for (int64_t v = 0; v < c.vocab; ++v) {
    for (int64_t i = 0; i < c.hidden; ++i) {
      lm_head_f32_[static_cast<size_t>(i * c.vocab + v)] =
          weights_.lm_head[static_cast<size_t>(v * c.hidden + i)].ToFloat();
    }
  }
  rope_inv_freq_ = hkern::RopeInvFreq(c.head_dim, c.rope_theta);
}

void Transformer::FaultAttendedBlocks(int seq, int q_len, int kv_len, int q_pos_offset) {
  if (!kv_.offload_enabled()) {
    return;
  }
  attended_scratch_.clear();
  hkern::AppendAttendedBlocks(win(), q_len, kv_len, q_pos_offset, kv_.block_tokens(),
                              &attended_scratch_);
  kv_.EnsureResidentTableBlocks(seq, attended_scratch_);
}

std::span<const hkern::ExpLut* const> Transformer::EnsureShardLuts(int slots) {
  dev_.EnsureShards(slots);
  if (slot_lut_ptrs_.empty()) {
    slot_lut_ptrs_.push_back(&lut_);
  }
  while (static_cast<int>(slot_lut_ptrs_.size()) < slots) {
    const int slot = static_cast<int>(slot_lut_ptrs_.size());
    shard_luts_.push_back(std::make_unique<hkern::ExpLut>(dev_.Shard(slot)));
    slot_lut_ptrs_.push_back(shard_luts_.back().get());
  }
  return std::span<const hkern::ExpLut* const>(slot_lut_ptrs_.data(),
                                               static_cast<size_t>(slots));
}

void Transformer::EnsureSlotScratch(int slots) {
  const size_t cap = static_cast<size_t>(kv_.blocks_per_seq_capacity());
  while (static_cast<int>(slot_ptrs_.size()) < slots) {
    SlotBlockPtrs& p = slot_ptrs_.emplace_back();
    p.k.resize(cap);
    p.v.resize(cap);
  }
}

void Transformer::Step(std::span<const int> tokens, std::span<float> logits,
                       hkern::SoftmaxVariant exp_variant) {
  HEXLLM_CHECK(static_cast<int>(tokens.size()) <= max_batch_);
  StepSeqs(tokens, std::span<const int>(identity_seq_ids_.data(), tokens.size()), logits,
           exp_variant);
}

void Transformer::StepSeqs(std::span<const int> tokens, std::span<const int> seq_ids,
                           std::span<float> logits, hkern::SoftmaxVariant exp_variant) {
  HEXLLM_CHECK(tokens.size() == seq_ids.size() && tokens.size() <= one_row_spans_.size());
  const std::span<const int> one_row_each(one_row_spans_.data(), tokens.size());
  Forward({tokens, seq_ids, one_row_each, logits}, exp_variant);
}

void Transformer::StepSpans(std::span<const int> tokens, std::span<const int> seq_ids,
                            std::span<const int> span_rows, std::span<float> logits,
                            hkern::SoftmaxVariant exp_variant) {
  Forward({tokens, seq_ids, span_rows, logits}, exp_variant);
}

void Transformer::Prefill(int seq, std::span<const int> tokens) {
  for (size_t done = 0; done < tokens.size();) {
    const int rows =
        static_cast<int>(std::min<size_t>(hkern::kAttnQTile, tokens.size() - done));
    Forward({tokens.subspan(done, static_cast<size_t>(rows)), std::span<const int>(&seq, 1),
             std::span<const int>(&rows, 1), {}},
            hkern::SoftmaxVariant::kLut);
    done += static_cast<size_t>(rows);
  }
}

void Transformer::Forward(const RowPlan& plan, hkern::SoftmaxVariant exp_variant) {
  const ModelConfig& c = weights_.config;
  const std::span<const int> seq_ids = plan.seq_ids;
  const std::span<const int> span_rows = plan.span_rows;
  const int spans = static_cast<int>(seq_ids.size());
  HEXLLM_CHECK(spans >= 1 && spans <= max_batch_);
  HEXLLM_CHECK(span_rows.size() == seq_ids.size());
  span_row0_.resize(static_cast<size_t>(spans));
  int rows = 0;
  for (int s = 0; s < spans; ++s) {
    HEXLLM_CHECK(span_rows[static_cast<size_t>(s)] >= 1);
    span_row0_[static_cast<size_t>(s)] = rows;
    rows += span_rows[static_cast<size_t>(s)];
  }
  HEXLLM_CHECK(rows <= max_rows_);
  HEXLLM_CHECK(plan.tokens.size() == static_cast<size_t>(rows));
  const bool prefill = plan.logits.empty();
  HEXLLM_CHECK(prefill || plan.logits.size() == static_cast<size_t>(rows) * c.vocab);
  // Decode convention: when every span is one logits row, attention runs with
  // q_pos_offset = -1, which skips the causal-mask sweep. Every other forward (verify,
  // prefill chunk) attends causally from each span's base position, so row r of a span
  // sees [0, base + r].
  const bool decode = !prefill && rows == spans;
  const int hidden = c.hidden;
  const int q_dim = c.q_dim();
  const int kv_dim = c.kv_dim();
  const int dh = c.head_dim;
  const int group = c.heads / c.kv_heads;

  // All forward scratch from the persistent arena — no heap traffic in steady state.
  ws_.Reset();
  F16* x = ws_.Alloc<F16>(static_cast<int64_t>(rows) * hidden);
  F16* xn = ws_.Alloc<F16>(static_cast<int64_t>(rows) * hidden);
  F16* q = ws_.Alloc<F16>(static_cast<int64_t>(rows) * q_dim);
  F16* k = ws_.Alloc<F16>(static_cast<int64_t>(rows) * kv_dim);
  F16* v = ws_.Alloc<F16>(static_cast<int64_t>(rows) * kv_dim);
  F16* attn_out = ws_.Alloc<F16>(static_cast<int64_t>(rows) * q_dim);
  F16* proj = ws_.Alloc<F16>(static_cast<int64_t>(rows) * hidden);
  F16* gate = ws_.Alloc<F16>(static_cast<int64_t>(rows) * c.ffn_hidden);
  F16* up = ws_.Alloc<F16>(static_cast<int64_t>(rows) * c.ffn_hidden);
  F16* act = ws_.Alloc<F16>(static_cast<int64_t>(rows) * c.ffn_hidden);

  // Embedding lookup on the CPU.
  for (int r = 0; r < rows; ++r) {
    const int tok = plan.tokens[static_cast<size_t>(r)];
    HEXLLM_CHECK(tok >= 0 && tok < c.vocab);
    std::memcpy(x + static_cast<int64_t>(r) * hidden,
                weights_.embedding.data() + static_cast<size_t>(tok) * hidden,
                static_cast<size_t>(hidden) * 2);
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  // At most one lane per query row: a decode span's head is a single query vector, too
  // little attention work to pay for a hand-off to another lane, so decode keeps one lane
  // per row while prefill chunks and verify spans also fan their heads out.
  const int items = spans * c.heads;
  const int slots = hexec::PlannedSlots(std::min(items, rows));
  const auto slot_luts = EnsureShardLuts(slots);
  EnsureSlotScratch(slots);

  // Tiered offload: promote every block attention will stage, once per forward and on this
  // (bookkeeping) thread — blocks hold all layers' rows, so the attended set is
  // layer-invariant, and the parallel lanes below must never mutate pool residency.
  for (int s = 0; s < spans; ++s) {
    const int seq = seq_ids[static_cast<size_t>(s)];
    const int n = span_rows[static_cast<size_t>(s)];
    const int pos0 = kv_.length(seq);
    FaultAttendedBlocks(seq, n, pos0 + n, decode ? -1 : pos0);
  }

  for (int l = 0; l < c.layers; ++l) {
    const LayerWeights& lw = weights_.layers[static_cast<size_t>(l)];

    // --- attention block: every span's rows share the batched norms and GEMMs ---
    hkern::RmsNormF16(dev_, x, lw.attn_norm.data(), xn, rows, hidden, c.rms_eps);
    lw.wq.Forward(dev_, xn, q, rows, &ws_);
    lw.wk.Forward(dev_, xn, k, rows, &ws_);
    lw.wv.Forward(dev_, xn, v, rows, &ws_);

    // Per-row RoPE at the row's absolute position, then append each span's K/V rows to
    // its sequence (the table length itself only advances after the layer loop).
    for (int s = 0; s < spans; ++s) {
      const int seq = seq_ids[static_cast<size_t>(s)];
      const int pos0 = kv_.length(seq);
      const int r0 = span_row0_[static_cast<size_t>(s)];
      for (int r = 0; r < span_rows[static_cast<size_t>(s)]; ++r) {
        const int64_t row = r0 + r;
        hkern::RopeHeadsF16(dev_, q + row * q_dim, c.heads, dh, pos0 + r,
                            rope_inv_freq_.data());
        hkern::RopeHeadsF16(dev_, k + row * kv_dim, c.kv_heads, dh, pos0 + r,
                            rope_inv_freq_.data());
        kv_.WriteKeyRow(l, seq, pos0 + r, k + row * kv_dim);
        kv_.WriteValueRow(l, seq, pos0 + r, v + row * kv_dim);
      }
    }

    // Attention over (span, head) work items, span-major: each item is one head of one
    // span querying its sequence's KV in place. A lane resolves a span's block table into
    // its own pointer scratch once and reuses it for the span's consecutive heads, and
    // charges its slot's shard device (per-slot exp LUT included). The KV cache is
    // read-only in this region (the appends above already ran) and items write disjoint
    // attn_out columns, so results are bit-identical at any lane count; shard accounting
    // merges back in slot order right after the loop (docs/threading_model.md).
    hexec::ParallelFor(
        items,
        [&](int64_t begin, int64_t end, int slot) {
          hexsim::NpuDevice& d = dev_.ForSlot(slot);
          const hkern::ExpLut& lut = *slot_luts[static_cast<size_t>(slot)];
          SlotBlockPtrs& ptrs = slot_ptrs_[static_cast<size_t>(slot)];
          int resolved = -1;  // span whose block table `ptrs` holds
          hkern::PagedKvHeadView view;
          view.k_blocks = ptrs.k.data();
          view.v_blocks = ptrs.v.data();
          view.block_tokens = kv_.block_tokens();
          view.row = kv_.row_codec();
          for (int64_t item = begin; item < end; ++item) {
            const int s = static_cast<int>(item / c.heads);
            const int h = static_cast<int>(item % c.heads);
            const int seq = seq_ids[static_cast<size_t>(s)];
            const int n = span_rows[static_cast<size_t>(s)];
            const int64_t r0 = span_row0_[static_cast<size_t>(s)];
            const int pos0 = kv_.length(seq);
            const int kv_len = pos0 + n;  // includes the rows just written
            if (s != resolved) {
              kv_.FillBlockPointers(l, seq, kv_len, ptrs.k.data(), ptrs.v.data());
              resolved = s;
            }
            view.head_offset = static_cast<int64_t>(h / group) * dh;
            hkern::FlashAttentionPaged(d, lut, exp_variant, q + r0 * q_dim + h * dh, q_dim, view,
                                       attn_out + r0 * q_dim + h * dh, q_dim, n, kv_len, dh,
                                       scale, decode ? -1 : pos0, win());
          }
        },
        slots);
    dev_.MergeShards();

    lw.wo.Forward(dev_, attn_out, proj, rows, &ws_);
    hkern::AddF16(dev_, x, proj, x, static_cast<int64_t>(rows) * hidden);

    // --- FFN block ---
    hkern::RmsNormF16(dev_, x, lw.ffn_norm.data(), xn, rows, hidden, c.rms_eps);
    lw.w_gate.Forward(dev_, xn, gate, rows, &ws_);
    lw.w_up.Forward(dev_, xn, up, rows, &ws_);
    hkern::SiluMulF16(dev_, gate, up, act, static_cast<int64_t>(rows) * c.ffn_hidden);
    lw.w_down.Forward(dev_, act, proj, rows, &ws_);
    hkern::AddF16(dev_, x, proj, x, static_cast<int64_t>(rows) * hidden);
  }

  for (int s = 0; s < spans; ++s) {
    for (int r = 0; r < span_rows[static_cast<size_t>(s)]; ++r) {
      kv_.Advance(seq_ids[static_cast<size_t>(s)]);
    }
  }
  if (prefill) {
    return;
  }

  // Final norm + blocked CPU lm_head: each hidden row converts F16->float once, and the
  // pre-converted weight matrix streams through in vocab tiles (bit-identical logits —
  // see LmHeadForwardF32W).
  hkern::RmsNormF16(dev_, x, weights_.final_norm.data(), xn, rows, hidden, c.rms_eps);
  float* xf = ws_.Alloc<float>(static_cast<int64_t>(rows) * hidden);
  for (int64_t i = 0; i < static_cast<int64_t>(rows) * hidden; ++i) {
    xf[i] = xn[i].ToFloat();
  }
  hkern::LmHeadForwardF32W(xf, lm_head_f32_.data(), plan.logits.data(), rows, hidden,
                           c.vocab);
}

}  // namespace hllm
