#include "src/kernels/attention.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/hexsim/hmx.h"

namespace hkern {

using hexllm::F16;
using hexllm::RoundToF16;
using hexsim::DmaDirection;
using hexsim::HmxEngine;
using hexsim::HvxContext;
using hexsim::HvxVec;
using hexsim::HvxVecPair;

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Packet cost of packing one 32x32 FP16 tile into the Figure 4a layout with VShuffH-style
// cross-lane shuffles (16 row-pairs, one shuffle step each — matching §3.1.2's "HVX
// cross-lane shuffling on every two adjacent rows").
constexpr int kTilePackPackets = 16;
constexpr int kTileUnpackPackets = 4;  // streaming store of an already-shuffled accumulator

// Packs src[r * src_stride + c] (with transpose option) into an HMX-layout tile, zero-padding
// rows/cols beyond the valid range. Only the occupied region is visited (one memset covers
// the padding), so a decode-shaped tile with a single live row costs ~32 stores, not 1024.
void PackTilePadded(const F16* src, int64_t src_stride, int valid_rows, int valid_cols,
                    bool transpose, F16* tile) {
  const int tile_rows = transpose ? valid_cols : valid_rows;
  const int tile_cols = transpose ? valid_rows : valid_cols;
  if (tile_rows < HmxEngine::kTileDim || tile_cols < HmxEngine::kTileDim) {
    std::memset(static_cast<void*>(tile), 0, HmxEngine::kTileBytes);  // F16 zero = zero bits
  }
  for (int r = 0; r < tile_rows; ++r) {
    for (int c = 0; c < tile_cols; ++c) {
      const int sr = transpose ? c : r;
      const int sc = transpose ? r : c;
      tile[HmxEngine::TileHalfwordOffset(r, c)] = src[sr * src_stride + sc];
    }
  }
}

// Stages KV positions [j0, j0 + n) of one head into the F16 TCM buffer `dst`: one DMA
// descriptor of KvRowBytes(dtype, head_dim, group)-byte rows (charge-only — null pointers
// move no bytes but cost the same), then the row codec decodes each row's head slice. F16
// decode is a memcpy; quantized rows also charge the dequant as HVX packets under
// Tag::kAttnKvDequant following the DequantCoalescedLut shape (mixed_gemm.cc): INT4 costs 17
// packets per 256 elements (nibble extract via vand/vshr + 2 level VLut16 + 2
// scale-broadcast VLut16 + multiply/store) and bumps the vlut16 counter for its 4 lookups,
// INT8 costs 3 packets per 64 elements (load + widen + scale-multiply, no table lookups).
void StageKvRows(hexsim::NpuDevice& dev, const PagedKvHeadView& kv,
                 const uint8_t* const* blocks, F16* dst, int j0, int n, int head_dim) {
  const hquant::KvRowCodec& row = kv.row;
  const int64_t staged_row_bytes = hquant::KvRowBytes(row.dtype, head_dim, row.group);
  dev.dma().Transfer2D(nullptr, staged_row_bytes, nullptr, staged_row_bytes, staged_row_bytes,
                       n, DmaDirection::kDdrToTcm);
  const int64_t row_bytes = row.row_bytes();
  for (int r = 0; r < n; ++r) {
    const int j = j0 + r;
    row.DecodeSlice(blocks[j / kv.block_tokens] + (j % kv.block_tokens) * row_bytes,
                    kv.head_offset, head_dim, dst + static_cast<int64_t>(r) * head_dim);
  }
  if (!row.quantized()) {
    return;
  }
  const int64_t elems = static_cast<int64_t>(n) * head_dim;
  const bool int4 = row.dtype == hquant::KvDtype::kInt4;
  const int64_t packets = int4 ? (elems * 17 + 255) / 256 : (elems * 3 + 63) / 64;
  dev.hvx().ReplayOps(0, 0, int4 ? (elems * 4 + 255) / 256 : 0);
  dev.CommitHvxPackets(packets, hexsim::Tag::kAttnKvDequant);
}

// Drops a window that is disabled or covers every row's whole KV range: it would mask
// nothing, so the call counts as unwindowed.
const AttnWindowSpec* NormalizeWindow(const AttnWindowSpec* window, int max_pos) {
  if (window == nullptr || !window->enabled()) {
    return nullptr;
  }
  return window->CoversAll(max_pos) ? nullptr : window;
}

// Packs the rows of `mask` from a row-major block (row r at src + r * src_stride, `cols`
// columns) into a zeroed HMX tile at their own tile rows.
void PackTileRows(const F16* src, int64_t src_stride, uint32_t mask, int cols, F16* tile) {
  std::memset(static_cast<void*>(tile), 0, HmxEngine::kTileBytes);
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    const int r = std::countr_zero(m);
    for (int c = 0; c < cols; ++c) {
      tile[HmxEngine::TileHalfwordOffset(r, c)] = src[r * src_stride + c];
    }
  }
}

// True when spans a and b map the same physical blocks for every position of the chunk at
// kv0 (the caller checks the chunk is whole in both).
bool SameChunkBlocks(const PagedKvHeadView& a, const PagedKvHeadView& b, int kv0) {
  const int first = kv0 / a.block_tokens;
  const int last = (kv0 + kAttnKvChunk - 1) / a.block_tokens;
  for (int blk = first; blk <= last; ++blk) {
    if (a.k_blocks[blk] != b.k_blocks[blk] || a.v_blocks[blk] != b.v_blocks[blk]) {
      return false;
    }
  }
  return true;
}

}  // namespace

// Algorithm 1 over stacked rows. Per-row online-softmax state (running max, running sum,
// O accumulator) lives in TCM for the whole call, so the chunk loop can run outside the
// q-tile loop: each KV chunk instance is staged once, then every tile that reads it runs
// QK^T, the masked softmax update and PV for its live rows.
void FlashAttentionBatch(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                         std::span<const AttnKvSpan> spans, std::span<const AttnQueryRow> rows,
                         int head_dim, float scale, const AttnWindowSpec* window) {
  HEXLLM_CHECK(!spans.empty() && !rows.empty());
  HEXLLM_CHECK(head_dim % HmxEngine::kTileDim == 0);
  const PagedKvHeadView& layout = spans[0].kv;
  HEXLLM_CHECK(layout.block_tokens >= 1);
  HEXLLM_CHECK(layout.row.SlicesAt(head_dim) &&
               layout.head_offset + head_dim <= layout.row.elems);
  const int n_spans = static_cast<int>(spans.size());
  const int n_rows = static_cast<int>(rows.size());
  const AttnKvSpan* span_at = spans.data();
  const AttnQueryRow* row_at = rows.data();
  int max_kv = 0;
  for (const AttnKvSpan& s : spans) {
    HEXLLM_CHECK(s.kv.k_blocks != nullptr && s.kv.v_blocks != nullptr && s.kv_len > 0);
    HEXLLM_CHECK(s.kv.block_tokens == layout.block_tokens &&
                 s.kv.row.dtype == layout.row.dtype && s.kv.row.elems == layout.row.elems &&
                 s.kv.row.group == layout.row.group && s.kv.head_offset == layout.head_offset);
    max_kv = std::max(max_kv, s.kv_len);
  }
  int max_pos = 0;
  for (const AttnQueryRow& row : rows) {
    HEXLLM_CHECK(row.span >= 0 && row.span < n_spans);
    HEXLLM_CHECK(row.pos >= 0 && row.pos < span_at[row.span].kv_len);
    max_pos = std::max(max_pos, row.pos);
  }
  dev.ledger().AddCount(hexsim::Counter::kFlashAttentionCalls);
  if (layout.row.quantized()) {
    dev.ledger().AddCount(hexsim::Counter::kAttnKvDequantCalls);
  }
  const AttnWindowSpec* win = NormalizeWindow(window, max_pos);
  if (win != nullptr) {
    dev.ledger().AddCount(hexsim::Counter::kFlashAttentionWindowedCalls);
  }
  const int d_tiles = head_dim / HmxEngine::kTileDim;
  const int kv_chunks = static_cast<int>(hexllm::CeilDiv(max_kv, kAttnKvChunk));
  const int64_t row_bytes = static_cast<int64_t>(head_dim) * 2;

  HvxContext& ctx = dev.hvx();
  HmxEngine& hmx = dev.hmx();
  hexsim::Tcm& tcm = dev.tcm();
  hexsim::TcmFrame frame(tcm);

  // Fixed q tiles: rows in order, a span's run of rows kept in one tile when it fits, runs
  // longer than a tile split at tile boundaries. Tile t holds rows [tile0[t], tile0[t+1]).
  int* tile0 = reinterpret_cast<int*>(tcm.Alloc(static_cast<int64_t>(n_rows + 1) * 4));
  int tiles = 0;
  tile0[0] = 0;
  for (int i = 0, fill = 0; i < n_rows;) {
    int j = i + 1;
    while (j < n_rows && row_at[j].span == row_at[i].span) {
      ++j;
    }
    if (fill > 0 && fill + (j - i) > kAttnQTile) {
      tile0[++tiles] = i;
      fill = 0;
    }
    for (; i < j; ++i, ++fill) {
      if (fill == kAttnQTile) {
        tile0[++tiles] = i;
        fill = 0;
      }
    }
  }
  tile0[++tiles] = n_rows;

  // TCM working set: per-row softmax state and O accumulators, packed Q tiles, and one
  // chunk's K^T / V / P tiles plus staging.
  float* m_run = reinterpret_cast<float*>(tcm.Alloc(static_cast<int64_t>(n_rows) * 4));
  float* l_run = reinterpret_cast<float*>(tcm.Alloc(static_cast<int64_t>(n_rows) * 4));
  F16* o_acc = reinterpret_cast<F16*>(tcm.Alloc(static_cast<int64_t>(n_rows) * row_bytes));
  int* inst = reinterpret_cast<int*>(tcm.Alloc(static_cast<int64_t>(n_spans) * 4));
  F16* q_tiles_mem = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(tiles) * d_tiles * HmxEngine::kTileBytes));
  F16* kt_tiles_mem = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(4) * d_tiles * HmxEngine::kTileBytes));
  F16* v_tiles_mem = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(4) * d_tiles * HmxEngine::kTileBytes));
  F16* p_tiles_mem = reinterpret_cast<F16*>(tcm.Alloc(4 * HmxEngine::kTileBytes));
  F16* s_rows = reinterpret_cast<F16*>(tcm.Alloc(kAttnQTile * kAttnKvChunk * 2));
  F16* kv_stage = reinterpret_cast<F16*>(
      tcm.Alloc(static_cast<int64_t>(kAttnKvChunk) * head_dim * 2));
  F16* pv_tile = reinterpret_cast<F16*>(tcm.Alloc(HmxEngine::kTileBytes));

  // Stack scratch: the decode hot path must not heap-allocate (docs/performance.md).
  float acc[HmxEngine::kTileElems];
  float col_scale[HmxEngine::kTileDim];
  std::fill(col_scale, col_scale + HmxEngine::kTileDim, scale);

  int64_t softmax_packets = 0;
  int64_t rescale_packets = 0;
  int64_t pack_packets = 0;
  int64_t mask_packets = 0;
  int64_t norm_packets = 0;
  int64_t qk_tile_ops = 0;
  int64_t pv_tile_ops = 0;

  // Load and pack each tile's Q rows: one DMA descriptor per tile.
  for (int t = 0; t < tiles; ++t) {
    const int tr = tile0[t + 1] - tile0[t];
    for (int r = 0; r < tr; ++r) {
      std::memcpy(kv_stage + static_cast<int64_t>(r) * head_dim,
                  row_at[tile0[t] + r].q, static_cast<size_t>(row_bytes));
    }
    dev.dma().Transfer2D(nullptr, row_bytes, nullptr, row_bytes, row_bytes, tr,
                         DmaDirection::kDdrToTcm);
    for (int dt = 0; dt < d_tiles; ++dt) {
      PackTilePadded(kv_stage + dt * HmxEngine::kTileDim, head_dim, tr, HmxEngine::kTileDim,
                     /*transpose=*/false, q_tiles_mem + (t * d_tiles + dt) * HmxEngine::kTileElems);
      pack_packets += kTilePackPackets;
    }
  }
  std::fill(m_run, m_run + n_rows, kNegInf);
  std::fill(l_run, l_run + n_rows, 0.0f);
  std::fill(o_acc, o_acc + static_cast<int64_t>(n_rows) * head_dim, F16::Zero());

  for (int chunk = 0; chunk < kv_chunks; ++chunk) {
    const int kv0 = chunk * kAttnKvChunk;
    // Chunk instances: a span reaching this chunk joins the first earlier span that maps
    // the same physical blocks for the whole chunk, else leads its own instance.
    for (int s = 0; s < n_spans; ++s) {
      inst[s] = -1;
      const int kv_len = span_at[s].kv_len;
      if (kv_len <= kv0) {
        continue;
      }
      inst[s] = s;
      if (kv_len < kv0 + kAttnKvChunk) {
        continue;
      }
      for (int lead = 0; lead < s; ++lead) {
        if (inst[lead] == lead && span_at[lead].kv_len >= kv0 + kAttnKvChunk &&
            SameChunkBlocks(span_at[lead].kv, span_at[s].kv, kv0)) {
          inst[s] = lead;
          break;
        }
      }
    }

    for (int lead = 0; lead < n_spans; ++lead) {
      if (inst[lead] != lead) {
        continue;
      }
      const PagedKvHeadView& kv = span_at[lead].kv;
      const int kvn = std::min(kAttnKvChunk, span_at[lead].kv_len - kv0);
      const int kvt = static_cast<int>(hexllm::CeilDiv(kvn, HmxEngine::kTileDim));
      bool staged = false;

      for (int t = 0; t < tiles; ++t) {
        const int t0 = tile0[t];
        const int tr = tile0[t + 1] - t0;
        // Live rows of this (tile, instance) step and whether any row's mask cuts the chunk.
        uint32_t live = 0;
        int n_live = 0;
        bool causal_cut = false;
        bool window_cut = false;
        for (int r = 0; r < tr; ++r) {
          const AttnQueryRow& row = row_at[t0 + r];
          if (inst[row.span] != lead || !RowAttendsChunk(win, row.pos, kv0, kvn)) {
            continue;
          }
          live |= 1u << r;
          ++n_live;
          causal_cut |= row.pos < kv0 + kvn - 1;
          window_cut |= win != nullptr && win->CutsChunk(kv0, kvn, row.pos);
        }
        if (live == 0) {
          continue;
        }
        const int lo = std::countr_zero(live);
        const int hi = HmxEngine::kTileDim - std::countl_zero(live);

        if (!staged) {
          // Stage the instance once for every tile below: K rows packed as K^T tiles
          // ([head_dim x kv], the weight layout), then V tiles ([kv x head_dim]). K arrives
          // pre-packed (the runtime writes the KV cache in HMX layout when rows are
          // appended), so packing charges no shuffle packets.
          staged = true;
          const auto stage = [&](const uint8_t* const* blocks, bool transpose, F16* tiles) {
            StageKvRows(dev, kv, blocks, kv_stage, kv0, kvn, head_dim);
            for (int kt = 0; kt < kvt; ++kt) {
              const F16* src = kv_stage + kt * HmxEngine::kTileDim * head_dim;
              const int tile_rows = std::min(HmxEngine::kTileDim, kvn - kt * HmxEngine::kTileDim);
              for (int dt = 0; dt < d_tiles; ++dt) {
                PackTilePadded(src + dt * HmxEngine::kTileDim, head_dim, tile_rows,
                               HmxEngine::kTileDim, transpose,
                               tiles + (kt * d_tiles + dt) * HmxEngine::kTileElems);
              }
            }
          };
          stage(kv.k_blocks, /*transpose=*/true, kt_tiles_mem);
          stage(kv.v_blocks, /*transpose=*/false, v_tiles_mem);
        }
        const F16* q_tile = q_tiles_mem + t * d_tiles * HmxEngine::kTileElems;

        // S chunk = scale * (Q K^T): HMX with FP32 accumulation, written back as FP16 rows
        // (live rows only; the others are never read).
        for (int kt = 0; kt < kvt; ++kt) {
          std::fill(acc, acc + HmxEngine::kTileElems, 0.0f);
          for (int dt = 0; dt < d_tiles; ++dt) {
            hmx.TileMacc(tcm, q_tile + dt * HmxEngine::kTileElems,
                         kt_tiles_mem + (kt * d_tiles + dt) * HmxEngine::kTileElems, acc, lo, hi);
            ++qk_tile_ops;
          }
          hmx.StoreAcc(acc, pv_tile, col_scale, nullptr, hi);
          for (uint32_t m = live; m != 0; m &= m - 1) {
            const int r = std::countr_zero(m);
            for (int c = 0; c < HmxEngine::kTileDim; ++c) {
              s_rows[r * kAttnKvChunk + kt * HmxEngine::kTileDim + c] =
                  pv_tile[HmxEngine::TileHalfwordOffset(r, c)];
            }
          }
          pack_packets += kTileUnpackPackets;
        }
        // Masks: padded KV positions, then each row's causal frontier and window interior,
        // all as -inf scores (exp to 0). Applied as precomputed -inf mask registers.
        for (uint32_t m = live; m != 0; m &= m - 1) {
          const int r = std::countr_zero(m);
          const int qa = row_at[t0 + r].pos;
          F16* srow = s_rows + r * kAttnKvChunk;
          for (int c = kvn; c < kAttnKvChunk; ++c) {
            srow[c] = F16::NegInf();
          }
          for (int c = std::max(0, qa + 1 - kv0); c < kvn; ++c) {
            srow[c] = F16::NegInf();
          }
          if (win != nullptr) {
            for (int c = 0; c < kvn; ++c) {
              if (win->Masked(kv0 + c, qa)) {
                srow[c] = F16::NegInf();
              }
            }
          }
        }
        if (kvn < kAttnKvChunk) {
          mask_packets += 1;
        }
        if (causal_cut) {
          mask_packets += n_live;  // one masked vmux sweep per row (2 regs, amortized)
        }
        if (window_cut) {
          mask_packets += n_live;
        }

        // Online softmax over the chunk (2 registers per row).
        const int64_t sm_start = ctx.issued();
        for (uint32_t m = live; m != 0; m &= m - 1) {
          const int r = std::countr_zero(m);
          const int i = t0 + r;
          F16* srow = s_rows + r * kAttnKvChunk;
          HvxVec va = ctx.LoadAligned(srow);
          HvxVec vb = ctx.LoadAligned(srow + HvxVec::kHalfwords);
          const float chunk_max = ctx.ReduceMaxHf(ctx.VMaxHf(va, vb));
          const float m_new = std::max(m_run[i], chunk_max);
          ctx.ChargeScalar(3);  // m/alpha bookkeeping on the scalar core
          const float alpha =
              (m_run[i] == kNegInf) ? 0.0f : RoundToF16(std::exp(RoundToF16(m_run[i] - m_new)));
          const HvxVec vm = ctx.VSplatHf(m_new);
          HvxVec acc_sum = ctx.VSplatSf(0.0f);
          for (int g = 0; g < 2; ++g) {
            F16* chunk_ptr = srow + g * HvxVec::kHalfwords;
            HvxVec x = ctx.LoadAligned(chunk_ptr);
            x = ctx.VSubHf(x, vm);
            const HvxVec e = ExpNonPosF16(dev, exp_variant, &lut, x, n_live);
            ctx.Store(chunk_ptr, e);
            const HvxVecPair wide = ctx.WidenHfToSf(e);
            acc_sum = ctx.VAddSf(acc_sum, wide.lo);
            acc_sum = ctx.VAddSf(acc_sum, wide.hi);
          }
          const float row_sum = ctx.ReduceSumSf(acc_sum);
          ctx.ChargeScalar(2);
          l_run[i] = RoundToF16(RoundToF16(alpha * l_run[i]) + row_sum);
          m_run[i] = m_new;

          // Rescale O rows by alpha (deferred: multiply now, add PV below).
          if (alpha != 1.0f) {
            F16* orow = o_acc + static_cast<int64_t>(i) * head_dim;
            for (int c = 0; c < head_dim; ++c) {
              orow[c] = F16(RoundToF16(alpha * orow[c].ToFloat()));
            }
          }
          rescale_packets += (head_dim / HvxVec::kHalfwords) * 3;  // load, mul, store per reg
        }
        softmax_packets += ctx.issued() - sm_start;

        // Pack P tiles from the post-softmax chunk.
        for (int kt = 0; kt < kvt; ++kt) {
          PackTileRows(s_rows + kt * HmxEngine::kTileDim, kAttnKvChunk, live,
                       std::min(HmxEngine::kTileDim, kvn - kt * HmxEngine::kTileDim),
                       p_tiles_mem + kt * HmxEngine::kTileElems);
          pack_packets += kTilePackPackets;
        }

        // O += P V (HMX, FP32 accumulation), added into the FP16 O rows.
        for (int dt = 0; dt < d_tiles; ++dt) {
          std::fill(acc, acc + HmxEngine::kTileElems, 0.0f);
          for (int kt = 0; kt < kvt; ++kt) {
            hmx.TileMacc(tcm, p_tiles_mem + kt * HmxEngine::kTileElems,
                         v_tiles_mem + (kt * d_tiles + dt) * HmxEngine::kTileElems, acc, lo, hi);
            ++pv_tile_ops;
          }
          hmx.StoreAcc(acc, pv_tile, nullptr, nullptr, hi);
          for (uint32_t m = live; m != 0; m &= m - 1) {
            const int r = std::countr_zero(m);
            F16* orow =
                o_acc + static_cast<int64_t>(t0 + r) * head_dim + dt * HmxEngine::kTileDim;
            for (int c = 0; c < HmxEngine::kTileDim; ++c) {
              orow[c] = F16(RoundToF16(orow[c].ToFloat() +
                                       pv_tile[HmxEngine::TileHalfwordOffset(r, c)].ToFloat()));
            }
          }
          pack_packets += kTileUnpackPackets;
          rescale_packets += (HmxEngine::kTileDim * kAttnQTile / HvxVec::kHalfwords) * 2;
        }
      }
    }
  }

  // Final normalization: O = diag(1/l) O, then one DMA descriptor per tile writes the rows
  // out.
  for (int t = 0; t < tiles; ++t) {
    for (int i = tile0[t]; i < tile0[t + 1]; ++i) {
      norm_packets += 2;  // reciprocal on the scalar core
      const float inv = (l_run[i] > 0.0f) ? 1.0f / l_run[i] : 0.0f;
      F16* orow = o_acc + static_cast<int64_t>(i) * head_dim;
      for (int c = 0; c < head_dim; ++c) {
        orow[c] = F16(RoundToF16(inv * orow[c].ToFloat()));
      }
      rescale_packets += (head_dim / HvxVec::kHalfwords) * 3;
      std::memcpy(row_at[i].o, orow, static_cast<size_t>(row_bytes));
    }
    dev.dma().Transfer2D(nullptr, row_bytes, nullptr, row_bytes, row_bytes,
                         tile0[t + 1] - tile0[t], DmaDirection::kTcmToDdr);
  }

  dev.CommitHvxPackets(softmax_packets, hexsim::Tag::kAttnSoftmax);
  dev.CommitHvxPackets(rescale_packets, hexsim::Tag::kAttnRescale);
  dev.CommitHvxPackets(pack_packets, hexsim::Tag::kAttnPack);
  dev.CommitHvxPackets(mask_packets, hexsim::Tag::kAttnMask);
  dev.CommitHvxPackets(norm_packets, hexsim::Tag::kAttnNormalize);
  dev.CommitHmxTileOps(qk_tile_ops, hexsim::Tag::kAttnQk);
  dev.CommitHmxTileOps(pv_tile_ops, hexsim::Tag::kAttnPv);
}

void FlashAttentionPaged(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                         const F16* q, int64_t q_stride, const PagedKvHeadView& kv, F16* o,
                         int64_t o_stride, int q_len, int kv_len, int head_dim, float scale,
                         int q_pos_offset, const AttnWindowSpec* window) {
  HEXLLM_CHECK(q_len > 0);
  std::vector<AttnQueryRow> rows(static_cast<size_t>(q_len));
  for (int r = 0; r < q_len; ++r) {
    rows[static_cast<size_t>(r)] = {q + r * q_stride, o + r * o_stride,
                                    q_pos_offset >= 0 ? q_pos_offset + r : kv_len - 1, 0};
  }
  const AttnKvSpan span{kv, kv_len};
  FlashAttentionBatch(dev, lut, exp_variant, std::span<const AttnKvSpan>(&span, 1), rows,
                      head_dim, scale, window);
}

void AppendAttendedBlocks(const AttnWindowSpec* window, int first_pos, int last_pos,
                          int kv_len, int block_tokens, std::vector<int>* out) {
  HEXLLM_CHECK(block_tokens >= 1);
  if (kv_len <= 0 || first_pos > last_pos) {
    return;
  }
  HEXLLM_CHECK(first_pos >= 0 && last_pos < kv_len);
  const AttnWindowSpec* win = NormalizeWindow(window, last_pos);
  const int kv_chunks = static_cast<int>(hexllm::CeilDiv(kv_len, kAttnKvChunk));
  int prev_last = -1;  // chunks ascend, so blocks ascend: dedup is a high-water mark
  for (int chunk = 0; chunk < kv_chunks; ++chunk) {
    const int kv0 = chunk * kAttnKvChunk;
    const int kvn = std::min(kAttnKvChunk, kv_len - kv0);
    // Some row attends the chunk iff the first row at or past its start does: later rows
    // only have a larger masked window interior.
    const int pos = std::max(first_pos, kv0);
    if (pos > last_pos || !RowAttendsChunk(win, pos, kv0, kvn)) {
      continue;
    }
    const int first = kv0 / block_tokens;
    const int last = (kv0 + kvn - 1) / block_tokens;
    for (int b = std::max(first, prev_last + 1); b <= last; ++b) {
      out->push_back(b);
    }
    prev_last = last;
  }
}

void FlashAttentionF16(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                       const F16* q, const F16* k, const F16* v, F16* o, int q_len, int kv_len,
                       int head_dim, float scale, int q_pos_offset) {
  // Contiguous K/V is a paged view with one block spanning the whole context.
  const uint8_t* k_block = reinterpret_cast<const uint8_t*>(k);
  const uint8_t* v_block = reinterpret_cast<const uint8_t*>(v);
  PagedKvHeadView kv;
  kv.k_blocks = &k_block;
  kv.v_blocks = &v_block;
  kv.block_tokens = kv_len;
  kv.row = {hquant::KvDtype::kF16, head_dim};
  FlashAttentionPaged(dev, lut, exp_variant, q, head_dim, kv, o, head_dim, q_len, kv_len,
                      head_dim, scale, q_pos_offset);
}

void AttentionF32Reference(const float* q, const float* k, const float* v, float* o, int q_len,
                           int kv_len, int head_dim, float scale) {
  std::vector<double> s(static_cast<size_t>(kv_len));
  for (int i = 0; i < q_len; ++i) {
    const float* qi = q + static_cast<int64_t>(i) * head_dim;
    double m = -std::numeric_limits<double>::infinity();
    for (int j = 0; j < kv_len; ++j) {
      const float* kj = k + static_cast<int64_t>(j) * head_dim;
      double dot = 0.0;
      for (int c = 0; c < head_dim; ++c) {
        dot += static_cast<double>(qi[c]) * kj[c];
      }
      s[static_cast<size_t>(j)] = dot * scale;
      m = std::max(m, s[static_cast<size_t>(j)]);
    }
    double l = 0.0;
    for (int j = 0; j < kv_len; ++j) {
      s[static_cast<size_t>(j)] = std::exp(s[static_cast<size_t>(j)] - m);
      l += s[static_cast<size_t>(j)];
    }
    float* oi = o + static_cast<int64_t>(i) * head_dim;
    for (int c = 0; c < head_dim; ++c) {
      double acc = 0.0;
      for (int j = 0; j < kv_len; ++j) {
        acc += s[static_cast<size_t>(j)] * v[static_cast<int64_t>(j) * head_dim + c];
      }
      oi[c] = static_cast<float>(acc / l);
    }
  }
}

AttentionCost FlashAttentionCost(const hexsim::DeviceProfile& profile,
                                 SoftmaxVariant exp_variant, int q_len, int kv_len,
                                 int head_dim) {
  AttentionCost cost;
  const int d_tiles = head_dim / HmxEngine::kTileDim;
  const int q_tiles = static_cast<int>(hexllm::CeilDiv(q_len, kAttnQTile));
  const int kv_tiles = static_cast<int>(hexllm::CeilDiv(kv_len, HmxEngine::kTileDim));
  const int kv_chunks = static_cast<int>(hexllm::CeilDiv(kv_len, kAttnKvChunk));

  hexsim::HmxEngine hmx(profile);
  const int64_t mm_tile_ops = static_cast<int64_t>(q_tiles) * kv_tiles * d_tiles;
  cost.hmx_qk_s = hmx.TileOpsToSeconds(mm_tile_ops);
  cost.hmx_pv_s = hmx.TileOpsToSeconds(mm_tile_ops);

  // Softmax: per valid row per chunk: rowmax(2+1+7) + scalar(3) + 2 splats +
  // 2 regs x (load+sub+exp+store+widen2+2adds = 7+E) + reduce(6) + scalar(2).
  const int64_t exp_cost = ExpRegPacketCost(profile, exp_variant, q_len);
  const int64_t per_row_chunk = 10 + 3 + 2 + 2 * (7 + exp_cost) + 6 + 2;
  const int64_t softmax_packets =
      static_cast<int64_t>(q_len) * kv_chunks * per_row_chunk;
  const double hz = profile.hvx_freq_ghz * 1e9;
  cost.hvx_softmax_s = static_cast<double>(softmax_packets) / hz;

  // Rescale: per chunk per row: O-rescale (d/64 regs x 3) + PV accumulate
  // (d_tiles x 32x32/64 x 2 per tile row... simplified to the emulation's charges) and the
  // final normalization sweep.
  const int64_t regs_d = head_dim / HvxVec::kHalfwords;
  const int64_t rescale_packets =
      static_cast<int64_t>(q_len) * kv_chunks * regs_d * 3 +
      static_cast<int64_t>(q_tiles) * kv_chunks * d_tiles *
          (HmxEngine::kTileDim * kAttnQTile / HvxVec::kHalfwords) * 2 +
      static_cast<int64_t>(q_len) * regs_d * 3;
  cost.hvx_rescale_s = static_cast<double>(rescale_packets) / hz;

  // Packing: Q tiles once per q-tile; P packs and S/PV unpacks per chunk. K/V tiles arrive
  // pre-packed (the runtime stores the KV cache in HMX layout at append time).
  const int64_t pack_packets =
      static_cast<int64_t>(q_tiles) *
      (d_tiles * kTilePackPackets +
       static_cast<int64_t>(kv_tiles) * (kTilePackPackets + kTileUnpackPackets) +  // P, S
       static_cast<int64_t>(kv_chunks) * d_tiles * kTileUnpackPackets);  // PV
  cost.hvx_pack_s = static_cast<double>(pack_packets) / hz;

  // DMA: Q in + O out once per q-tile; K and V per (q-tile, chunk).
  hexsim::CycleLedger scratch;
  hexsim::DmaEngine dma(profile, scratch);
  const double q_dma = dma.Cost2D(head_dim * 2, std::min(q_len, kAttnQTile), DmaDirection::kDdrToTcm);
  const double kv_dma = dma.Cost2D(head_dim * 2, std::min(kv_len, kAttnKvChunk), DmaDirection::kDdrToTcm);
  cost.dma_s = q_tiles * (2 * q_dma + kv_chunks * 2 * kv_dma);
  return cost;
}

}  // namespace hkern
