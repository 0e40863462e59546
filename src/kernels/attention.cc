#include "src/kernels/attention.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
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

// Packs `n` rows (row r at rows[r], d_tiles * 32 elements) into d_tiles HMX-layout
// [row x column] tiles, tile dt holding columns [32 dt, 32 dt + 32), zero-padding rows past
// n. Only the occupied rows are visited (one memset covers the padding), so a decode-shaped
// tile with a single live row costs ~32 stores per tile, not 1024.
void PackRowTiles(const F16* const* rows, int n, int d_tiles, F16* tiles) {
  if (n < HmxEngine::kTileDim) {
    std::memset(static_cast<void*>(tiles), 0,  // F16 zero = zero bits
                static_cast<size_t>(d_tiles) * HmxEngine::kTileBytes);
  }
  for (int dt = 0; dt < d_tiles; ++dt) {
    F16* tile = tiles + dt * HmxEngine::kTileElems;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < HmxEngine::kTileDim; ++c) {
        tile[HmxEngine::TileHalfwordOffset(r, c)] = rows[r][dt * HmxEngine::kTileDim + c];
      }
    }
  }
}

// Packs `n` KV rows (row r's head slice at k_rows[r] / v_rows[r]) as one 32-row KV tile:
// K transposed into d_tiles K^T tiles ([head_dim x kv], the weight layout), V into d_tiles
// [kv x head_dim] tiles, zero-padding rows past n, in one pass over the rows.
void PackKvTile(const F16* const* k_rows, const F16* const* v_rows, int n, int d_tiles,
                F16* kt_tiles, F16* v_tiles) {
  if (n < HmxEngine::kTileDim) {
    std::memset(static_cast<void*>(kt_tiles), 0,
                static_cast<size_t>(d_tiles) * HmxEngine::kTileBytes);
    std::memset(static_cast<void*>(v_tiles), 0,
                static_cast<size_t>(d_tiles) * HmxEngine::kTileBytes);
  }
  for (int dt = 0; dt < d_tiles; ++dt) {
    F16* kt = kt_tiles + dt * HmxEngine::kTileElems;
    F16* vt = v_tiles + dt * HmxEngine::kTileElems;
    const int c0 = dt * HmxEngine::kTileDim;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < HmxEngine::kTileDim; ++c) {
        kt[HmxEngine::TileHalfwordOffset(c, r)] = k_rows[r][c0 + c];
        vt[HmxEngine::TileHalfwordOffset(r, c)] = v_rows[r][c0 + c];
      }
    }
  }
}

// Reserves a TCM array of n value-initialized T (kernel tables live in TCM: the decode hot
// path must not heap-allocate, docs/performance.md).
template <typename T>
T* TcmArray(hexllm::Arena& tcm, int64_t n) {
  T* p = tcm.Alloc<T>(n);
  std::uninitialized_value_construct_n(p, n);
  return p;
}

// One physical KV block a chunk reads: rows [r0, r1) of the block whose K / V rows start at
// k / v in DDR (pointer identity is the sharing key), staged as whole rows into TCM at
// k_tcm / v_tcm (row r0).
struct StagedBlock {
  const uint8_t* k = nullptr;
  const uint8_t* v = nullptr;
  int r0 = 0;
  int r1 = 0;
  const uint8_t* k_tcm = nullptr;
  const uint8_t* v_tcm = nullptr;
};

// One KV head of a staged block as tile packing reads it: F16 rows `stride` elements apart
// (the staged rows themselves for F16, decoded rows for INT8/INT4; null until first use).
struct StagedHead {
  const F16* k = nullptr;
  const F16* v = nullptr;
  int64_t stride = 0;
};

// HVX packets and HMX tile ops the rows of one KV head accumulate over a call, committed
// per head in head order so a one-span call over several KV heads charges bit for bit what
// per-head calls charge (TransformerTest.PagedAttentionMatchesGatherReference compares the
// two; one sum over all heads moves the tag seconds by several ULP).
struct HeadCharges {
  int64_t softmax = 0;
  int64_t rescale = 0;
  int64_t pack = 0;
  int64_t mask = 0;
  int64_t norm = 0;
  int64_t qk = 0;
  int64_t pv = 0;
  bool used = false;
};

// DMAs a staged block's rows into TCM as whole rows (every KV head) in 1D descriptors. When
// V directly follows the block's K plane, one descriptor runs from K row r0 through V row
// r1 - 1 unless moving the gap between them costs more than a second descriptor.
void StageBlock(hexsim::NpuDevice& dev, int block_tokens, int64_t row_bytes, bool v_follows_k,
                StagedBlock& b) {
  hexsim::DmaEngine& dma = dev.dma();
  const int64_t plane = static_cast<int64_t>(block_tokens) * row_bytes;
  const int64_t bytes = (b.r1 - b.r0) * row_bytes;
  const int64_t joint = plane + bytes;
  const uint8_t* k = b.k + b.r0 * row_bytes;
  HEXLLM_DCHECK(!v_follows_k || b.v == b.k + plane);
  if (v_follows_k && dma.Cost1D(joint, DmaDirection::kDdrToTcm) <=
                         2 * dma.Cost1D(bytes, DmaDirection::kDdrToTcm)) {
    uint8_t* dst = dev.tcm().Alloc(joint);
    dma.Transfer1D(dst, k, joint, DmaDirection::kDdrToTcm);
    b.k_tcm = dst;
    b.v_tcm = dst + plane;
    return;
  }
  uint8_t* dst = dev.tcm().Alloc(2 * bytes);
  dma.Transfer1D(dst, k, bytes, DmaDirection::kDdrToTcm);
  dma.Transfer1D(dst + bytes, b.v + b.r0 * row_bytes, bytes, DmaDirection::kDdrToTcm);
  b.k_tcm = dst;
  b.v_tcm = dst + bytes;
}

// Decodes the KV-head slice [elem0, elem0 + head_dim) of `n` staged quantized rows (row r at
// rows + r * row_bytes) into F16 `dst` ([n x head_dim]) and charges the dequant as HVX
// packets under Tag::kAttnKvDequant following the DequantCoalescedLut shape (mixed_gemm.cc):
// INT4 costs 17 packets per 256 elements (nibble extract via vand/vshr + 2 level VLut16 + 2
// scale-broadcast VLut16 + multiply/store) and bumps the vlut16 counter for its 4 lookups,
// INT8 costs 3 packets per 64 elements (load + widen + scale-multiply, no table lookups).
void DequantHeadRows(hexsim::NpuDevice& dev, const hquant::KvRowCodec& row,
                     const uint8_t* rows, int n, int64_t elem0, int head_dim, F16* dst) {
  for (int r = 0; r < n; ++r) {
    row.DecodeSlice(rows + r * row.row_bytes(), elem0, head_dim,
                    dst + static_cast<int64_t>(r) * head_dim);
  }
  const int64_t elems = static_cast<int64_t>(n) * head_dim;
  const bool int4 = row.dtype == hquant::KvDtype::kInt4;
  const int64_t packets = int4 ? (elems * 17 + 255) / 256 : (elems * 3 + 63) / 64;
  dev.hvx().CountVlut16(int4 ? (elems * 4 + 255) / 256 : 0);
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
bool SameChunkBlocks(const PagedKvView& a, const PagedKvView& b, int kv0) {
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
// q-tile loop: each chunk stages the physical blocks its instances read once, then every
// tile that reads an instance runs QK^T, the masked softmax update and PV for its live rows.
void FlashAttentionBatch(hexsim::NpuDevice& dev, const ExpLut& lut, SoftmaxVariant exp_variant,
                         std::span<const AttnKvSpan> spans, std::span<const AttnQueryRow> rows,
                         int head_dim, float scale, const AttnWindowSpec* window) {
  HEXLLM_CHECK(!spans.empty() && !rows.empty());
  HEXLLM_CHECK(head_dim % HmxEngine::kTileDim == 0);
  const PagedKvView& layout = spans[0].kv;
  const hquant::KvRowCodec& codec = layout.row;
  const int bt = layout.block_tokens;
  HEXLLM_CHECK(bt >= 1 && codec.SlicesAt(head_dim));
  const int n_spans = static_cast<int>(spans.size());
  const int n_rows = static_cast<int>(rows.size());
  const AttnKvSpan* span_at = spans.data();
  const AttnQueryRow* row_at = rows.data();
  int max_kv = 0;
  for (const AttnKvSpan& s : spans) {
    HEXLLM_CHECK(s.kv.k_blocks != nullptr && s.kv.v_blocks != nullptr && s.kv_len > 0);
    HEXLLM_CHECK(s.kv.block_tokens == bt && s.kv.row.dtype == codec.dtype &&
                 s.kv.row.elems == codec.elems && s.kv.v_follows_k == layout.v_follows_k);
    max_kv = std::max(max_kv, s.kv_len);
  }
  int max_pos = 0;
  int heads = 0;
  for (const AttnQueryRow& row : rows) {
    HEXLLM_CHECK(row.span >= 0 && row.span < n_spans);
    HEXLLM_CHECK(row.pos >= 0 && row.pos < span_at[row.span].kv_len);
    HEXLLM_CHECK(row.kv_head >= 0 &&
                 static_cast<int64_t>(row.kv_head + 1) * head_dim <= codec.elems);
    max_pos = std::max(max_pos, row.pos);
    heads = std::max(heads, row.kv_head + 1);
  }
  dev.ledger().AddCount(hexsim::Counter::kFlashAttentionCalls);
  if (codec.quantized()) {
    dev.ledger().AddCount(hexsim::Counter::kAttnKvDequantCalls);
  }
  const AttnWindowSpec* win = NormalizeWindow(window, max_pos);
  if (win != nullptr) {
    dev.ledger().AddCount(hexsim::Counter::kFlashAttentionWindowedCalls);
  }
  const int d_tiles = head_dim / HmxEngine::kTileDim;
  const int kv_chunks = static_cast<int>(hexllm::CeilDiv(max_kv, kAttnKvChunk));
  const int64_t row_bytes = static_cast<int64_t>(head_dim) * 2;
  const int64_t kv_row_bytes = codec.row_bytes();
  // Most blocks one chunk touches (a block straddling the chunk start adds one).
  const int chunk_blocks = static_cast<int>(hexllm::CeilDiv(kAttnKvChunk, bt)) + 1;
  constexpr int kChunkTiles = kAttnKvChunk / HmxEngine::kTileDim;

  HvxContext& ctx = dev.hvx();
  HmxEngine& hmx = dev.hmx();
  hexllm::Arena& tcm = dev.tcm();
  hexllm::Arena::Frame frame(tcm);

  // Fixed q tiles: rows in order, each tile on one KV head, a (span, KV head) run of rows
  // kept in one tile when it fits, runs longer than a tile split at tile boundaries. Tile t
  // holds rows [tile0[t], tile0[t+1]).
  int* tile0 = TcmArray<int>(tcm, n_rows + 1);
  int tiles = 0;
  for (int i = 0, fill = 0; i < n_rows;) {
    int j = i + 1;
    while (j < n_rows && row_at[j].span == row_at[i].span &&
           row_at[j].kv_head == row_at[i].kv_head) {
      ++j;
    }
    if (fill > 0 &&
        (fill + (j - i) > kAttnQTile || row_at[i].kv_head != row_at[i - 1].kv_head)) {
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

  // TCM working set: per-row softmax state and O accumulators, packed Q tiles, one
  // instance's K^T / V tiles, the P tiles, the per-chunk staging tables and per-head charges.
  float* m_run = tcm.Alloc<float>(n_rows);
  float* l_run = tcm.Alloc<float>(n_rows);
  F16* o_acc = reinterpret_cast<F16*>(tcm.Alloc(static_cast<int64_t>(n_rows) * row_bytes));
  int* inst = TcmArray<int>(tcm, n_spans);
  bool* inst_live = TcmArray<bool>(tcm, n_spans);
  int* inst_block = TcmArray<int>(tcm, static_cast<int64_t>(n_spans) * chunk_blocks);
  StagedBlock* staged = TcmArray<StagedBlock>(tcm, static_cast<int64_t>(n_spans) * chunk_blocks);
  StagedHead* staged_heads =
      TcmArray<StagedHead>(tcm, static_cast<int64_t>(n_spans) * chunk_blocks * heads);
  HeadCharges* charges = TcmArray<HeadCharges>(tcm, heads);
  F16* q_tiles_mem = tcm.Alloc<F16>(static_cast<int64_t>(tiles) * d_tiles * HmxEngine::kTileElems);
  F16* kt_tiles_mem = tcm.Alloc<F16>(int64_t{kChunkTiles} * d_tiles * HmxEngine::kTileElems);
  F16* v_tiles_mem = tcm.Alloc<F16>(int64_t{kChunkTiles} * d_tiles * HmxEngine::kTileElems);
  F16* p_tiles_mem = tcm.Alloc<F16>(kChunkTiles * HmxEngine::kTileElems);
  F16* s_rows = tcm.Alloc<F16>(kAttnQTile * kAttnKvChunk);
  F16* pv_tile = tcm.Alloc<F16>(HmxEngine::kTileElems);

  // Stack scratch: the decode hot path must not heap-allocate (docs/performance.md).
  float acc[HmxEngine::kTileElems];
  float col_scale[HmxEngine::kTileDim];
  std::fill(col_scale, col_scale + HmxEngine::kTileDim, scale);
  const F16* k_rows[HmxEngine::kTileDim];  // row pointers of the tile being packed
  const F16* v_rows[HmxEngine::kTileDim];

  // Load and pack each tile's Q rows: one DMA descriptor per tile.
  for (int t = 0; t < tiles; ++t) {
    const int tr = tile0[t + 1] - tile0[t];
    HeadCharges& hc = charges[row_at[tile0[t]].kv_head];
    hc.used = true;
    for (int r = 0; r < tr; ++r) {
      k_rows[r] = row_at[tile0[t] + r].q;
    }
    dev.dma().Transfer2D(nullptr, row_bytes, nullptr, row_bytes, row_bytes, tr,
                         DmaDirection::kDdrToTcm);
    PackRowTiles(k_rows, tr, d_tiles, q_tiles_mem + t * d_tiles * HmxEngine::kTileElems);
    hc.pack += d_tiles * kTilePackPackets;
  }
  std::fill(m_run, m_run + n_rows, kNegInf);
  std::fill(l_run, l_run + n_rows, 0.0f);
  std::fill(o_acc, o_acc + static_cast<int64_t>(n_rows) * head_dim, F16::Zero());

  for (int chunk = 0; chunk < kv_chunks; ++chunk) {
    const int kv0 = chunk * kAttnKvChunk;
    const int block0 = kv0 / bt;
    const auto chunk_len = [&](int s) { return std::min(kAttnKvChunk, span_at[s].kv_len - kv0); };
    // Chunk instances: a span reaching this chunk joins the first earlier span that maps
    // the same physical blocks for the whole chunk, else leads its own instance. An instance
    // is live when some row reading it attends the chunk.
    for (int s = 0; s < n_spans; ++s) {
      inst[s] = -1;
      inst_live[s] = false;
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
    for (int i = 0; i < n_rows; ++i) {
      const int lead = inst[row_at[i].span];
      if (lead >= 0 && RowAttendsChunk(win, row_at[i].pos, kv0, chunk_len(lead))) {
        inst_live[lead] = true;
      }
    }

    // The distinct physical blocks live instances read, each with the rows its longest
    // reader needs, staged once into a TCM chunk buffer released after the chunk.
    hexllm::Arena::Frame chunk_frame(tcm);
    int n_staged = 0;
    for (int lead = 0; lead < n_spans; ++lead) {
      if (inst[lead] != lead || !inst_live[lead]) {
        continue;
      }
      const PagedKvView& kv = span_at[lead].kv;
      const int kv_end = kv0 + chunk_len(lead);
      for (int b = block0; b * bt < kv_end; ++b) {
        const int r0 = std::max(kv0 - b * bt, 0);
        const int r1 = std::min(kv_end - b * bt, bt);
        int i = 0;
        while (i < n_staged && (staged[i].k != kv.k_blocks[b] || staged[i].v != kv.v_blocks[b] ||
                                staged[i].r0 != r0)) {
          ++i;
        }
        if (i == n_staged) {
          staged[n_staged++] = {kv.k_blocks[b], kv.v_blocks[b], r0, r1};
        }
        staged[i].r1 = std::max(staged[i].r1, r1);
        inst_block[lead * chunk_blocks + b - block0] = i;
      }
    }
    for (int i = 0; i < n_staged; ++i) {
      StageBlock(dev, bt, kv_row_bytes, layout.v_follows_k, staged[i]);
      std::fill(staged_heads + static_cast<int64_t>(i) * heads,
                staged_heads + static_cast<int64_t>(i + 1) * heads, StagedHead{});
    }
    // A staged block's KV head as F16 rows: read in place for F16, decoded (and the dequant
    // charged) once per (block, head) otherwise.
    const auto staged_head = [&](int i, int kh) -> StagedHead& {
      StagedHead& sh = staged_heads[static_cast<int64_t>(i) * heads + kh];
      if (sh.k != nullptr) {
        return sh;
      }
      const StagedBlock& sb = staged[i];
      const int64_t elem0 = static_cast<int64_t>(kh) * head_dim;
      if (!codec.quantized()) {
        sh.k = reinterpret_cast<const F16*>(sb.k_tcm) + elem0;
        sh.v = reinterpret_cast<const F16*>(sb.v_tcm) + elem0;
        sh.stride = codec.elems;
        return sh;
      }
      const int n = sb.r1 - sb.r0;
      F16* rows_f16 = reinterpret_cast<F16*>(tcm.Alloc(2 * n * row_bytes));
      DequantHeadRows(dev, codec, sb.k_tcm, n, elem0, head_dim, rows_f16);
      DequantHeadRows(dev, codec, sb.v_tcm, n, elem0, head_dim,
                      rows_f16 + static_cast<int64_t>(n) * head_dim);
      sh.k = rows_f16;
      sh.v = rows_f16 + static_cast<int64_t>(n) * head_dim;
      sh.stride = head_dim;
      return sh;
    };

    for (int lead = 0; lead < n_spans; ++lead) {
      if (inst[lead] != lead || !inst_live[lead]) {
        continue;
      }
      const int kvn = chunk_len(lead);
      const int kvt = static_cast<int>(hexllm::CeilDiv(kvn, HmxEngine::kTileDim));
      // Packs this instance's K^T and V tiles for KV head kh from the staged rows. K/V
      // arrive pre-packed (the runtime writes the KV cache in HMX layout when rows are
      // appended), so this packing charges no shuffle packets.
      const auto pack_instance = [&](int kh) {
        for (int kt = 0; kt < kvt; ++kt) {
          const int tile_rows = std::min(HmxEngine::kTileDim, kvn - kt * HmxEngine::kTileDim);
          for (int r = 0; r < tile_rows; ++r) {
            const int p = kv0 + kt * HmxEngine::kTileDim + r;
            const int i = inst_block[lead * chunk_blocks + p / bt - block0];
            const StagedHead& sh = staged_head(i, kh);
            const int64_t at = (p % bt - staged[i].r0) * sh.stride;
            k_rows[r] = sh.k + at;
            v_rows[r] = sh.v + at;
          }
          PackKvTile(k_rows, v_rows, tile_rows, d_tiles,
                     kt_tiles_mem + kt * d_tiles * HmxEngine::kTileElems,
                     v_tiles_mem + kt * d_tiles * HmxEngine::kTileElems);
        }
      };
      int packed_head = -1;

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
        const int kh = row_at[t0].kv_head;
        HeadCharges& hc = charges[kh];
        if (kh != packed_head) {
          pack_instance(kh);
          packed_head = kh;
        }
        const F16* q_tile = q_tiles_mem + t * d_tiles * HmxEngine::kTileElems;

        // S chunk = scale * (Q K^T): HMX with FP32 accumulation, written back as FP16 rows
        // (live rows only; the others are never read).
        for (int kt = 0; kt < kvt; ++kt) {
          const F16* kt_tile = kt_tiles_mem + kt * d_tiles * HmxEngine::kTileElems;
          std::fill(acc, acc + HmxEngine::kTileElems, 0.0f);
          for (int dt = 0; dt < d_tiles; ++dt) {
            hmx.TileMacc(tcm, q_tile + dt * HmxEngine::kTileElems,
                         kt_tile + dt * HmxEngine::kTileElems, acc, lo, hi);
          }
          hmx.StoreAcc(acc, pv_tile, col_scale, nullptr, hi);
          for (uint32_t m = live; m != 0; m &= m - 1) {
            const int r = std::countr_zero(m);
            for (int c = 0; c < HmxEngine::kTileDim; ++c) {
              s_rows[r * kAttnKvChunk + kt * HmxEngine::kTileDim + c] =
                  pv_tile[HmxEngine::TileHalfwordOffset(r, c)];
            }
          }
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
          hc.mask += 1;
        }
        if (causal_cut) {
          hc.mask += n_live;  // one masked vmux sweep per row (2 regs, amortized)
        }
        if (window_cut) {
          hc.mask += n_live;
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
        }
        hc.softmax += ctx.issued() - sm_start;

        // Pack P tiles from the post-softmax chunk.
        for (int kt = 0; kt < kvt; ++kt) {
          PackTileRows(s_rows + kt * HmxEngine::kTileDim, kAttnKvChunk, live,
                       std::min(HmxEngine::kTileDim, kvn - kt * HmxEngine::kTileDim),
                       p_tiles_mem + kt * HmxEngine::kTileElems);
        }

        // O += P V (HMX, FP32 accumulation), added into the FP16 O rows.
        for (int dt = 0; dt < d_tiles; ++dt) {
          std::fill(acc, acc + HmxEngine::kTileElems, 0.0f);
          for (int kt = 0; kt < kvt; ++kt) {
            const F16* v_tile = v_tiles_mem + (kt * d_tiles + dt) * HmxEngine::kTileElems;
            hmx.TileMacc(tcm, p_tiles_mem + kt * HmxEngine::kTileElems, v_tile, acc, lo, hi);
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
        }

        // The step's other charges: QK^T and PV tile ops per (KV tile, head-dim tile), the S
        // unpack and P pack per KV tile, the PV unpack and accumulate sweep per head-dim
        // tile, and the O rescale (load, mul, store per register) per live row.
        hc.qk += kvt * d_tiles;
        hc.pv += kvt * d_tiles;
        hc.pack += kvt * (kTileUnpackPackets + kTilePackPackets) + d_tiles * kTileUnpackPackets;
        hc.rescale += n_live * (head_dim / HvxVec::kHalfwords) * 3 +
                      d_tiles * (HmxEngine::kTileDim * kAttnQTile / HvxVec::kHalfwords) * 2;
      }
    }
  }

  // Final normalization: O = diag(1/l) O, then one DMA descriptor per tile writes the rows
  // out.
  for (int t = 0; t < tiles; ++t) {
    HeadCharges& hc = charges[row_at[tile0[t]].kv_head];
    for (int i = tile0[t]; i < tile0[t + 1]; ++i) {
      hc.norm += 2;  // reciprocal on the scalar core
      const float inv = (l_run[i] > 0.0f) ? 1.0f / l_run[i] : 0.0f;
      F16* orow = o_acc + static_cast<int64_t>(i) * head_dim;
      for (int c = 0; c < head_dim; ++c) {
        orow[c] = F16(RoundToF16(inv * orow[c].ToFloat()));
      }
      hc.rescale += (head_dim / HvxVec::kHalfwords) * 3;
      std::memcpy(row_at[i].o, orow, static_cast<size_t>(row_bytes));
    }
    dev.dma().Transfer2D(nullptr, row_bytes, nullptr, row_bytes, row_bytes,
                         tile0[t + 1] - tile0[t], DmaDirection::kTcmToDdr);
  }

  for (int kh = 0; kh < heads; ++kh) {
    const HeadCharges& hc = charges[kh];
    if (!hc.used) {
      continue;
    }
    dev.CommitHvxPackets(hc.softmax, hexsim::Tag::kAttnSoftmax);
    dev.CommitHvxPackets(hc.rescale, hexsim::Tag::kAttnRescale);
    dev.CommitHvxPackets(hc.pack, hexsim::Tag::kAttnPack);
    dev.CommitHvxPackets(hc.mask, hexsim::Tag::kAttnMask);
    dev.CommitHvxPackets(hc.norm, hexsim::Tag::kAttnNormalize);
    dev.CommitHmxTileOps(hc.qk, hexsim::Tag::kAttnQk);
    dev.CommitHmxTileOps(hc.pv, hexsim::Tag::kAttnPv);
  }
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
  PagedKvView kv;
  kv.k_blocks = &k_block;
  kv.v_blocks = &v_block;
  kv.block_tokens = kv_len;
  kv.row = {hquant::KvDtype::kF16, head_dim};
  HEXLLM_CHECK(q_len > 0);
  std::vector<AttnQueryRow> rows(static_cast<size_t>(q_len));
  for (int r = 0; r < q_len; ++r) {
    rows[static_cast<size_t>(r)] = {q + static_cast<int64_t>(r) * head_dim,
                                    o + static_cast<int64_t>(r) * head_dim,
                                    q_pos_offset >= 0 ? q_pos_offset + r : kv_len - 1};
  }
  const AttnKvSpan span{kv, kv_len};
  FlashAttentionBatch(dev, lut, exp_variant, std::span<const AttnKvSpan>(&span, 1), rows,
                      head_dim, scale);
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
