#include "src/llm/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/base/check.h"
#include "src/exec/thread_pool.h"
#include "src/kernels/attention.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/misc_ops.h"

namespace hllm {

using hexllm::F16;

namespace {

// Capacity of the per-forward scratch arena for `rows` rows: every step/prefill-chunk buffer
// (embedding rows, normed rows, QKV, attention output, FFN intermediates, float hidden for
// the lm_head), with 64-byte alignment slack per allocation. Sized once, for the larger of a
// decode/verify step and one prefill chunk, so steady-state decode never grows it
// (docs/performance.md).
int64_t StepWorkspaceBytes(const ModelConfig& c, int64_t rows) {
  const int64_t f16_elems =
      rows * (3 * static_cast<int64_t>(c.hidden) + 2 * c.q_dim() + 2 * c.kv_dim() +
              3 * static_cast<int64_t>(c.ffn_hidden));
  const int64_t float_elems = rows * static_cast<int64_t>(c.hidden);
  return f16_elems * 2 + float_elems * 4 + 64 * 32;
}

}  // namespace

Transformer::Transformer(hexsim::NpuDevice& dev, const ModelWeights& weights, int max_batch,
                         int max_context, int64_t kv_pool_blocks, hquant::KvDtype kv_dtype,
                         int max_step_rows)
    : dev_(dev), weights_(weights), lut_(dev),
      kv_(weights.config.layers, weights.config.kv_dim(), max_batch, max_context,
          hkv::kDefaultBlockTokens, kv_pool_blocks, kv_dtype),
      max_batch_(max_batch),
      max_rows_(std::max({max_step_rows, max_batch, hkern::kPrefillChunk})),
      ws_(StepWorkspaceBytes(weights.config, max_rows_), /*alignment=*/64, "Step workspace") {
  // Per-kv-head attention views slice rows at head boundaries, so quant groups must not
  // straddle heads.
  HEXLLM_CHECK(kv_.row_codec().SlicesAt(weights.config.head_dim));
  kv_.ReserveSeqs(max_batch);
  const size_t ptr_cap = static_cast<size_t>(max_batch) * kv_.blocks_per_seq_capacity();
  span_k_ptrs_.resize(ptr_cap);
  span_v_ptrs_.resize(ptr_cap);
  span_kv_len_.reserve(static_cast<size_t>(max_batch));
  span_lead_.reserve(static_cast<size_t>(max_batch));
  cluster_spans_.reserve(static_cast<size_t>(max_batch));
  cluster0_.reserve(static_cast<size_t>(max_batch) + 1);
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

void Transformer::FaultAttendedBlocks(int seq, int first_pos, int last_pos, int kv_len) {
  if (!kv_.offload_enabled()) {
    return;
  }
  attended_scratch_.clear();
  hkern::AppendAttendedBlocks(win(), first_pos, last_pos, kv_len, kv_.block_tokens(),
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
    shard_luts_.push_back(std::make_unique<hkern::ExpLut>(dev_.ForSlot(slot), lut_));
    slot_lut_ptrs_.push_back(shard_luts_.back().get());
  }
  return std::span<const hkern::ExpLut* const>(slot_lut_ptrs_.data(),
                                               static_cast<size_t>(slots));
}

void Transformer::EnsureLaneScratch(int slots) {
  const ModelConfig& c = weights_.config;
  while (static_cast<int>(lane_scratch_.size()) < slots) {
    LaneScratch& lane = lane_scratch_.emplace_back();
    lane.spans.resize(static_cast<size_t>(max_batch_));
    lane.rows.resize(static_cast<size_t>(max_rows_) * c.heads);
  }
}

void Transformer::BuildClusters(int spans) {
  // Spans whose first KV block is the same physical block (siblings of one shared prompt,
  // forks of one stem) form a cluster. All sharing is prefix sharing, so this is exactly the
  // sharing partition; the kernel matches the blocks of later positions by pointer identity.
  // Block identity is layer-invariant, so one layer's pointers decide for every layer.
  const int cap = kv_.blocks_per_seq_capacity();
  const auto block0 = [&](int s) { return span_k_ptrs_[static_cast<size_t>(s) * cap]; };
  span_lead_.resize(static_cast<size_t>(spans));
  for (int s = 0; s < spans; ++s) {
    int lead = 0;
    while (block0(lead) != block0(s)) {
      ++lead;
    }
    span_lead_[static_cast<size_t>(s)] = lead;
  }
  cluster_spans_.clear();
  cluster0_.clear();
  for (int l = 0; l < spans; ++l) {
    if (span_lead_[static_cast<size_t>(l)] != l) {
      continue;
    }
    cluster0_.push_back(static_cast<int>(cluster_spans_.size()));
    for (int s = l; s < spans; ++s) {
      if (span_lead_[static_cast<size_t>(s)] == l) {
        cluster_spans_.push_back(s);
      }
    }
  }
  cluster0_.push_back(static_cast<int>(cluster_spans_.size()));
}

void Transformer::Prefill(int seq, std::span<const int> tokens) {
  for (size_t done = 0; done < tokens.size();) {
    const int rows =
        static_cast<int>(std::min<size_t>(hkern::kPrefillChunk, tokens.size() - done));
    Forward({tokens.subspan(done, static_cast<size_t>(rows)), std::span<const int>(&seq, 1),
             std::span<const int>(&rows, 1), {}});
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
  span_kv_len_.resize(static_cast<size_t>(spans));
  int rows = 0;
  for (int s = 0; s < spans; ++s) {
    HEXLLM_CHECK(span_rows[static_cast<size_t>(s)] >= 1);
    span_row0_[static_cast<size_t>(s)] = rows;
    rows += span_rows[static_cast<size_t>(s)];
    // Attention reads the span's context plus the rows this forward appends.
    span_kv_len_[static_cast<size_t>(s)] =
        kv_.length(seq_ids[static_cast<size_t>(s)]) + span_rows[static_cast<size_t>(s)];
  }
  HEXLLM_CHECK(rows <= max_rows_);
  HEXLLM_CHECK(plan.tokens.size() == static_cast<size_t>(rows));
  const bool prefill = plan.logits.empty();
  HEXLLM_CHECK(prefill || plan.logits.size() == static_cast<size_t>(rows) * c.vocab);
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
  const int cap = kv_.blocks_per_seq_capacity();
  int items = 0;
  int slots = 1;
  std::span<const hkern::ExpLut* const> slot_luts;

  // Tiered offload: promote every block attention will stage, once per forward and on this
  // (bookkeeping) thread — blocks hold all layers' rows, so the attended set is
  // layer-invariant, and the parallel lanes below must never mutate pool residency.
  for (int s = 0; s < spans; ++s) {
    const int n = span_rows[static_cast<size_t>(s)];
    const int kv_len = span_kv_len_[static_cast<size_t>(s)];
    FaultAttendedBlocks(seq_ids[static_cast<size_t>(s)], kv_len - n, kv_len - 1, kv_len);
  }

  for (int l = 0; l < c.layers; ++l) {
    const LayerWeights& lw = weights_.layers[static_cast<size_t>(l)];

    // --- attention block: every span's rows share the batched norms and GEMMs ---
    hkern::RmsNormF16(dev_, x, lw.attn_norm.data(), xn, rows, hidden, c.rms_eps);
    lw.wq.Forward(dev_, xn, q, rows);
    lw.wk.Forward(dev_, xn, k, rows);
    lw.wv.Forward(dev_, xn, v, rows);

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

    // Batched attention: each sharing cluster is one item and one FlashAttentionBatch over
    // every KV head. Its rows are KV-head-major, then span, token and the GQA group's query
    // heads (row r of a span sits at position base + r), so each q tile holds one KV head,
    // and the kernel stages each physical KV block once per chunk for every head and every
    // span that maps it. Lanes charge their slot's shard device (per-slot exp LUT included).
    // The KV cache is read-only in this region (the appends above already ran) and items
    // write disjoint attn_out rows, so results are bit-identical at any lane count; shard
    // accounting merges back in slot order right after the loop (docs/threading_model.md).
    for (int s = 0; s < spans; ++s) {
      kv_.FillBlockPointers(l, seq_ids[static_cast<size_t>(s)],
                            span_kv_len_[static_cast<size_t>(s)],
                            span_k_ptrs_.data() + static_cast<int64_t>(s) * cap,
                            span_v_ptrs_.data() + static_cast<int64_t>(s) * cap);
    }
    if (l == 0) {
      // Block tables are final once layer 0 has appended (first writes allocate or CoW-split
      // blocks that hold every layer's rows), so the clusters hold for every layer. At most
      // one lane per query row: a decode span is a single token, too little attention work
      // to pay for a hand-off to another lane, so batch-1 decode stays on one lane.
      BuildClusters(spans);
      items = static_cast<int>(cluster0_.size()) - 1;
      slots = hexec::PlannedSlots(std::min(items, rows));
      slot_luts = EnsureShardLuts(slots);
      EnsureLaneScratch(slots);
    }
    hexec::ParallelFor(
        items,
        [&](int64_t begin, int64_t end, int slot) {
          hexsim::NpuDevice& d = dev_.ForSlot(slot);
          const hkern::ExpLut& lut = *slot_luts[static_cast<size_t>(slot)];
          LaneScratch& lane = lane_scratch_[static_cast<size_t>(slot)];
          for (int64_t cl = begin; cl < end; ++cl) {
            const int ci0 = cluster0_[static_cast<size_t>(cl)];
            const int ci1 = cluster0_[static_cast<size_t>(cl) + 1];
            for (int ci = ci0; ci < ci1; ++ci) {
              const int s = cluster_spans_[static_cast<size_t>(ci)];
              hkern::AttnKvSpan& ks = lane.spans[static_cast<size_t>(ci - ci0)];
              ks.kv.k_blocks = span_k_ptrs_.data() + static_cast<int64_t>(s) * cap;
              ks.kv.v_blocks = span_v_ptrs_.data() + static_cast<int64_t>(s) * cap;
              ks.kv.block_tokens = kv_.block_tokens();
              ks.kv.row = kv_.row_codec();
              ks.kv.v_follows_k = true;  // PagedKvCache's block layout (FillBlockPointers)
              ks.kv_len = span_kv_len_[static_cast<size_t>(s)];
            }
            int n_rows = 0;
            for (int kh = 0; kh < c.kv_heads; ++kh) {
              for (int ci = ci0; ci < ci1; ++ci) {
                const int s = cluster_spans_[static_cast<size_t>(ci)];
                const int n = span_rows[static_cast<size_t>(s)];
                const int kv_len = span_kv_len_[static_cast<size_t>(s)];
                for (int r = 0; r < n; ++r) {
                  const int64_t row = span_row0_[static_cast<size_t>(s)] + r;
                  for (int h = kh * group; h < (kh + 1) * group; ++h) {
                    lane.rows[static_cast<size_t>(n_rows++)] = {
                        q + row * q_dim + h * dh, attn_out + row * q_dim + h * dh,
                        kv_len - n + r, ci - ci0, kh};
                  }
                }
              }
            }
            hkern::FlashAttentionBatch(d, lut, exp_variant,
                                       std::span(lane.spans.data(), static_cast<size_t>(ci1 - ci0)),
                                       std::span(lane.rows.data(), static_cast<size_t>(n_rows)),
                                       dh, scale, win());
          }
        },
        slots);
    dev_.MergeShards();

    lw.wo.Forward(dev_, attn_out, proj, rows);
    hkern::AddF16(dev_, x, proj, x, static_cast<int64_t>(rows) * hidden);

    // --- FFN block ---
    hkern::RmsNormF16(dev_, x, lw.ffn_norm.data(), xn, rows, hidden, c.rms_eps);
    lw.w_gate.Forward(dev_, xn, gate, rows);
    lw.w_up.Forward(dev_, xn, up, rows);
    hkern::SiluMulF16(dev_, gate, up, act, static_cast<int64_t>(rows) * c.ffn_hidden);
    lw.w_down.Forward(dev_, act, proj, rows);
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
