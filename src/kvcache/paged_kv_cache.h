/// \file
/// Paged, ref-counted KV cache with prefix sharing, copy-on-write forking, and an optional
/// low-bit (INT8/INT4) group-quantized storage mode (docs/kv_quantization.md).
///
/// Replaces the dense [max_batch x max_context] slab: physical storage is a pool of
/// fixed-size position-blocks (default 32 positions — one HMX tile height — of K and V rows
/// for every layer), and each sequence maps its logical positions onto blocks through a
/// block table (hkv::KvBlockManager). Parallel test-time-scaling candidates admitted from
/// one prompt share the prompt's blocks physically; beam-search children fork a completed
/// stem by mapping its blocks, and the first divergent write into a shared tail block
/// splits it (copy-on-write) without touching the other owners.
///
/// Storage dtype is selected at construction (hquant::KvDtype) and fixes one row format,
/// hquant::KvRowCodec: F16 rows keep the original 2-bytes/element layout (bit-identical to
/// the pre-quantization cache); INT8/INT4 rows are a group-quantized payload plus one F16
/// scale per group (Q8_0/Q4_0 scale rules). Every dtype shares one byte slab, one row
/// offset and one write/read path: rows are encoded by WriteKeyRow/WriteValueRow (quantized
/// writes also accumulate a round-trip error proxy in KvQuantStats) and decoded by
/// ReadKeyRow/ReadValueRow or, in place, by hkern::FlashAttentionBatch through the block
/// pointers FillBlockPointers resolves (Transformer::Forward builds one hkern::AttnKvSpan
/// per span of its row plan). Every byte figure reported by KvStats shrinks with the
/// dtype, so pool sizing, DRAM budgets, and admission all see the reduced footprint.
///
/// In debug builds, a block whose last reference drops is poisoned with 0xFF bytes — NaN
/// both as F16 data and as an F16 scale — so a stale block-table entry (use-after-free of
/// reclaimed KV rows) corrupts attention loudly instead of silently reusing old rows.
///
/// Thread-compatible: appends/resets run on the bookkeeping thread; parallel attention
/// lanes only READ rows through FillBlockPointers bases during a step, which is safe
/// because every append for the step completes before the parallel region starts
/// (docs/threading_model.md).
#ifndef SRC_KVCACHE_PAGED_KV_CACHE_H_
#define SRC_KVCACHE_PAGED_KV_CACHE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/fp16.h"
#include "src/kvcache/kv_block_manager.h"
#include "src/kvcache/kv_offload.h"
#include "src/quant/quant_types.h"

namespace hkv {

// Positions per block. 32 matches the HMX tile height (hkern::kAttnQTile) so one block's
// rows fill whole attention tiles; see DESIGN.md §3.2 for the sizing trade-off.
inline constexpr int kDefaultBlockTokens = 32;

// Round-trip accuracy proxy for the quantized KV modes: every WriteKeyRow/WriteValueRow in
// a quantized cache dequantizes what it just stored and accumulates the deviation from the
// F16 source row. This is the cheap, always-on half of the accuracy story; the capability
// model measures the end-to-end attention/logit deviation (docs/kv_quantization.md).
struct KvQuantStats {
  int64_t rows = 0;         // quantized K/V rows written
  int64_t elems = 0;        // elements quantized
  double sum_abs_err = 0.0;  // sum over elements of |dequant(x) - x|
  double max_abs_err = 0.0;
  double sum_sq_err = 0.0;
  double sum_sq_ref = 0.0;
  int64_t quant_bytes = 0;  // bytes the written rows occupy quantized
  int64_t f16_bytes = 0;    // bytes the same rows would occupy in F16

  double mean_abs_err() const { return elems > 0 ? sum_abs_err / static_cast<double>(elems) : 0.0; }
  // RMS error relative to the RMS magnitude of the source rows.
  double rel_rms() const {
    return sum_sq_ref > 0.0 ? std::sqrt(sum_sq_err / sum_sq_ref) : 0.0;
  }
  int64_t bytes_saved() const { return f16_bytes - quant_bytes; }
};

// Exports kv.dtype plus the kv.quant.* error-proxy series (docs/metrics_schema.md). Gated
// by the caller on dtype != kF16 so F16 runs keep byte-identical metric snapshots.
void ExportKvQuantStats(hquant::KvDtype dtype, const KvQuantStats& stats,
                        obs::Registry& registry);

class PagedKvCache {
 public:
  // Storage is `num_blocks` blocks of `block_tokens` positions; each position stores one K
  // and one V row of width `kv_dim` for each of `layers` layers. num_blocks <= 0 sizes the
  // pool for `num_seqs` dense sequences of `max_context` plus per-sequence slack for
  // copy-on-write splits and retained prefixes. `dtype` selects F16 (default, bit-identical
  // legacy layout) or group-quantized INT8/INT4 rows with hquant::kGroupSize elements per
  // scale (kGroupSize must divide kv_dim).
  PagedKvCache(int layers, int kv_dim, int num_seqs, int max_context,
               int block_tokens = kDefaultBlockTokens, int64_t num_blocks = 0,
               hquant::KvDtype dtype = hquant::KvDtype::kF16);

  int max_context() const { return max_context_; }
  int block_tokens() const { return mgr_.block_tokens(); }
  int length(int seq) const { return mgr_.length(seq); }
  hquant::KvDtype dtype() const { return codec_.dtype; }
  // The row format every K/V row is stored in; hkern::PagedKvHeadView carries it so
  // attention decodes exactly what the cache encoded.
  const hquant::KvRowCodec& row_codec() const { return codec_; }
  // Bytes between consecutive positions of one layer/plane within a block.
  int64_t row_bytes() const { return codec_.row_bytes(); }
  // Upper bound on table entries a sequence can hold — sizes FillBlockPointers arrays.
  int blocks_per_seq_capacity() const;

  // Pre-sizes the per-sequence block tables and internal scratch so steady-state appends
  // never heap-allocate (docs/performance.md).
  void ReserveSeqs(int num_seqs);

  // In-place paged attention support: fills per-block base pointers for `layer` of `seq`
  // covering the first `positions` positions. k_bases[i] / v_bases[i] point at the
  // position-0 K / V row bytes of table block i; position p's row starts at
  // bases[p / block_tokens()] + (p % block_tokens()) * row_bytes(). A block's V rows
  // directly follow its K rows: v_bases[i] == k_bases[i] + block_tokens() * row_bytes()
  // (hkern::PagedKvView::v_follows_k). Returns the number of entries written
  // (ceil(positions / block_tokens())). Read-only — safe from parallel attention lanes once
  // the step's appends are done (docs/threading_model.md).
  int FillBlockPointers(int layer, int seq, int positions, const uint8_t** k_bases,
                        const uint8_t** v_bases) const;

  // Row writes for the append region (pos >= length). The first write to a position
  // allocates its block; the first write into a shared block copy-on-write splits it.
  // `src` is one F16 row of kv_dim elements, encoded by row_codec() (a memcpy in F16
  // mode); quantized writes accumulate the round-trip error in quant_stats().
  void WriteKeyRow(int layer, int seq, int pos, const hexllm::F16* src) {
    WriteRow(layer, seq, pos, false, src);
  }
  void WriteValueRow(int layer, int seq, int pos, const hexllm::F16* src) {
    WriteRow(layer, seq, pos, true, src);
  }

  // Row reads for materialized positions (pos < length, or rows just written in the
  // current chunk): decodes one full row into `dst` (kv_dim F16 elements).
  void ReadKeyRow(int layer, int seq, int pos, hexllm::F16* dst) const {
    ReadRow(layer, seq, pos, false, dst);
  }
  void ReadValueRow(int layer, int seq, int pos, hexllm::F16* dst) const {
    ReadRow(layer, seq, pos, true, dst);
  }

  // Advances the sequence by one position (after all layers wrote their K/V rows).
  void Advance(int seq);
  // Releases the sequence's block references; last-owner blocks return to the pool (and are
  // NaN-poisoned in debug builds).
  void ResetSeq(int seq);
  // Rolls the sequence back to `new_len` positions (speculative-decode rejection): whole
  // tail blocks are released (and poisoned in debug builds when last-owner); a kept shared
  // partial tail CoW-splits on the next append. Returns the number of table blocks dropped.
  int64_t TruncateSeq(int seq, int new_len);

  // Prefix sharing / fork support (see KvBlockManager): retain the first `len` positions
  // (-1 = all) of `seq` past its slot's lifetime, map a retained prefix into an empty
  // sequence, drop a handle when its last consumer is admitted.
  int64_t Retain(int seq, int len = -1) { return mgr_.Retain(seq, len); }
  int handle_length(int64_t handle) const { return mgr_.handle_length(handle); }
  void ShareFromHandle(int64_t handle, int dst_seq, int len);
  void DropHandle(int64_t handle);

  // Admission planning (see KvBlockManager): blocks a fresh admission will newly allocate,
  // pool headroom, and per-sequence growth state for conservative reservation.
  int64_t BlocksToAdmit(int total_tokens, int shared_tokens) const {
    return mgr_.BlocksToAdmit(total_tokens, shared_tokens);
  }
  int64_t free_blocks() const { return mgr_.free_blocks(); }
  int64_t table_blocks(int seq) const { return mgr_.table_blocks(seq); }
  bool TailShared(int seq) const { return mgr_.TailShared(seq); }

  // --- tiered flash offload (docs/long_context.md) ---
  // Attaches a KvOffloadEngine under this cache: the pool's capacity stays the hard limit,
  // but only `opts.resident_block_budget` live blocks may keep their payload in DRAM — the
  // rest demote to the flash tier and fault back in on access. Call before any sequence
  // holds blocks. A default-constructed (budget <= 0) options value detaches nothing but
  // leaves offload disabled.
  void ConfigureOffload(const KvOffloadOptions& opts);
  KvOffloadEngine* offload() { return offload_.get(); }
  const KvOffloadEngine* offload() const { return offload_.get(); }
  bool offload_enabled() const { return offload_ != nullptr && offload_->enabled(); }

  // Faults the given table entries of `seq` back into DRAM and stamps their recency —
  // bookkeeping-thread only, before the parallel attention region reads KV in place
  // (docs/threading_model.md). Returns the flash-read stall seconds the step absorbs.
  double EnsureResidentTableBlocks(int seq, std::span<const int> table_indices);

  // Queues async flash reads for the given table entries (resident/pending blocks and
  // entries past the allocated table are skipped; no-op with offload off). The serving
  // layer calls this with the NEXT step's predicted attended set so the reads overlap the
  // intervening decode compute instead of stalling at the fault.
  void PrefetchTableBlocks(int seq, std::span<const int> table_indices);

  KvStats stats() const { return mgr_.stats(); }
  const KvQuantStats& quant_stats() const { return quant_stats_; }
  // Physical bytes of the whole block pool (allocated up front).
  int64_t byte_size() const { return static_cast<int64_t>(storage_.size()); }
  int64_t num_blocks() const { return num_blocks_; }

  // Raw block bytes, for tests (poison checks); row (layer, plane, p) of the block starts
  // at (((layer * 2 + plane) * block_tokens()) + p) * row_bytes().
  const uint8_t* BlockBytesForTest(int block) const { return BlockData(block); }
  // Physical block id behind table entry `table_idx` of `seq`, for tests
  // (residency/eviction checks against the pool).
  int BlockIdForTest(int seq, int table_idx) const { return mgr_.block_at(seq, table_idx); }
  const BlockPool& PoolForTest() const { return mgr_.pool(); }

 private:
  uint8_t* BlockData(int block) { return storage_.data() + block * block_bytes_; }
  const uint8_t* BlockData(int block) const { return storage_.data() + block * block_bytes_; }
  // Bytes from a block's start to row `pos_in_block` of (layer, K or V).
  int64_t RowOffset(int layer, bool value, int pos_in_block) const;
  void WriteRow(int layer, int seq, int pos, bool value, const hexllm::F16* src);
  void ReadRow(int layer, int seq, int pos, bool value, hexllm::F16* dst) const;
  // Accumulates the round-trip error of the quantized row just encoded from `src`.
  void AccountQuantRow(const hexllm::F16* src, const uint8_t* row);
  void PoisonFreed();
  // Write-path residency: faults the CoW source and destination blocks of a WriteAccess
  // back into DRAM before storage touches them. No-op when offload is off.
  void FaultForWrite(const KvBlockManager::WriteAccess& wa);

  int layers_;
  int max_context_;
  hquant::KvRowCodec codec_;
  int64_t num_blocks_;
  int64_t block_bytes_;  // layers * 2 planes * block_tokens rows of codec_.row_bytes()
  KvBlockManager mgr_;
  std::vector<uint8_t> storage_;  // num_blocks_ blocks of block_bytes_
  std::vector<int> freed_scratch_;
  std::vector<int> resident_scratch_;  // table-index -> block-id staging for EnsureResident
  std::vector<hexllm::F16> quant_rt_scratch_;  // one decoded row for error accounting
  KvQuantStats quant_stats_;
  std::unique_ptr<KvOffloadEngine> offload_;
};

}  // namespace hkv

#endif  // SRC_KVCACHE_PAGED_KV_CACHE_H_
