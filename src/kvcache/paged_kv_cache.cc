#include "src/kvcache/paged_kv_cache.h"

#include <cmath>
#include <cstring>

#include "src/base/check.h"
#include "src/base/math_util.h"

namespace hkv {

namespace {

// Poison byte for freed and rolled-back KV: 0xFFFF is an F16 NaN, so a stale read of F16
// data or of a quantized row's F16 scale floods attention with NaN (use-after-free fails
// loudly in tests).
constexpr int kPoisonByte = 0xFF;

int64_t DefaultPoolBlocks(int num_seqs, int max_context, int block_tokens) {
  const int64_t per_seq = hexllm::CeilDiv(max_context, block_tokens);
  // Dense worst case (no sharing) plus slack: one CoW tail split per sequence and a little
  // headroom for retained prompt/stem handles that outlive their slot.
  return num_seqs * per_seq + num_seqs + 4;
}

}  // namespace

PagedKvCache::PagedKvCache(int layers, int kv_dim, int num_seqs, int max_context,
                           int block_tokens, int64_t num_blocks, hquant::KvDtype dtype,
                           int quant_group)
    : layers_(layers),
      max_context_(max_context),
      codec_{dtype, kv_dim, quant_group},
      num_blocks_(num_blocks > 0 ? num_blocks
                                 : DefaultPoolBlocks(num_seqs, max_context, block_tokens)),
      block_bytes_(static_cast<int64_t>(layers) * 2 * block_tokens * codec_.row_bytes()),
      mgr_(block_tokens, num_blocks_, /*bytes_per_block=*/block_bytes_) {
  HEXLLM_CHECK(layers_ >= 1 && kv_dim >= 1 && max_context_ >= 1);
  if (codec_.quantized()) {
    HEXLLM_CHECK(quant_group >= 2 && quant_group % 2 == 0 && codec_.SlicesAt(kv_dim));
    quant_rt_scratch_.resize(static_cast<size_t>(kv_dim));
  }
  storage_.resize(static_cast<size_t>(num_blocks_ * block_bytes_));
}

int64_t PagedKvCache::RowOffset(int layer, bool value, int pos_in_block) const {
  HEXLLM_DCHECK(layer >= 0 && layer < layers_);
  return ((static_cast<int64_t>(layer) * 2 + (value ? 1 : 0)) * mgr_.block_tokens() +
          pos_in_block) *
         codec_.row_bytes();
}

void PagedKvCache::FaultForWrite(const KvBlockManager::WriteAccess& wa) {
  if (offload_ == nullptr || !offload_->enabled()) {
    return;
  }
  // The CoW source must be readable (its rows are about to be copied) and the destination
  // writable; both faults charge the flash tier like any other access.
  if (wa.copied_from >= 0) {
    offload_->EnsureResidentBlock(wa.copied_from);
  }
  offload_->EnsureResidentBlock(wa.block);
}

void PagedKvCache::WriteRow(int layer, int seq, int pos, bool value, const hexllm::F16* src) {
  HEXLLM_DCHECK(pos >= 0 && pos < max_context_);
  const KvBlockManager::WriteAccess wa = mgr_.EnsureWritable(seq, pos);
  FaultForWrite(wa);
  if (wa.copied_from >= 0) {
    // CoW split: the new private block inherits every layer's rows of the shared block.
    std::memcpy(BlockData(wa.block), BlockData(wa.copied_from),
                static_cast<size_t>(block_bytes_));
  }
  uint8_t* row = BlockData(wa.block) + RowOffset(layer, value, pos % mgr_.block_tokens());
  codec_.Encode(src, row);
  if (codec_.quantized()) {
    AccountQuantRow(src, row);
  }
}

void PagedKvCache::ReadRow(int layer, int seq, int pos, bool value, hexllm::F16* dst) const {
  HEXLLM_DCHECK(pos >= 0 && pos < max_context_);
  const int block = mgr_.block_at(seq, pos / mgr_.block_tokens());
  codec_.DecodeSlice(BlockData(block) + RowOffset(layer, value, pos % mgr_.block_tokens()), 0,
                     codec_.elems, dst);
}

void PagedKvCache::AccountQuantRow(const hexllm::F16* src, const uint8_t* row) {
  hexllm::F16* rt = quant_rt_scratch_.data();
  codec_.DecodeSlice(row, 0, codec_.elems, rt);
  for (int64_t i = 0; i < codec_.elems; ++i) {
    const float x = src[i].ToFloat();
    const double err = std::fabs(static_cast<double>(rt[i].ToFloat()) - x);
    quant_stats_.sum_abs_err += err;
    quant_stats_.sum_sq_err += err * err;
    quant_stats_.sum_sq_ref += static_cast<double>(x) * x;
    if (err > quant_stats_.max_abs_err) {
      quant_stats_.max_abs_err = err;
    }
  }
  quant_stats_.rows += 1;
  quant_stats_.elems += codec_.elems;
  quant_stats_.quant_bytes += codec_.row_bytes();
  quant_stats_.f16_bytes += codec_.elems * 2;
}

int PagedKvCache::blocks_per_seq_capacity() const {
  // Dense worst case plus the CoW-split slack a forked sequence can accrue.
  return static_cast<int>(hexllm::CeilDiv(max_context_, mgr_.block_tokens())) + 1;
}

void PagedKvCache::ReserveSeqs(int num_seqs) {
  mgr_.Reserve(num_seqs, blocks_per_seq_capacity());
  freed_scratch_.reserve(static_cast<size_t>(blocks_per_seq_capacity()));
}

int PagedKvCache::FillBlockPointers(int layer, int seq, int positions,
                                    const uint8_t** k_bases, const uint8_t** v_bases) const {
  HEXLLM_DCHECK(layer >= 0 && layer < layers_);
  HEXLLM_DCHECK(positions >= 0 && positions <= max_context_);
  const int n = static_cast<int>(hexllm::CeilDiv(positions, mgr_.block_tokens()));
  const int64_t k_off = RowOffset(layer, false, 0);
  const int64_t v_off = RowOffset(layer, true, 0);
  for (int i = 0; i < n; ++i) {
    // Demoted blocks may legitimately appear here: a windowed kernel never stages the
    // masked interior chunks, and every staged block was faulted resident by
    // EnsureResidentTableBlocks before this parallel region (docs/long_context.md).
    const uint8_t* base = BlockData(mgr_.block_at(seq, i));
    k_bases[i] = base + k_off;
    v_bases[i] = base + v_off;
  }
  return n;
}

void PagedKvCache::Advance(int seq) {
  HEXLLM_CHECK(mgr_.length(seq) < max_context_);
  mgr_.Advance(seq);
}

void PagedKvCache::ResetSeq(int seq) {
  freed_scratch_.clear();
  mgr_.ResetSeq(seq, &freed_scratch_);
  PoisonFreed();
}

int64_t PagedKvCache::TruncateSeq(int seq, int new_len) {
  [[maybe_unused]] const int old_len = mgr_.length(seq);
  freed_scratch_.clear();
  const int64_t dropped = mgr_.Truncate(seq, new_len, &freed_scratch_);
  PoisonFreed();
#ifndef NDEBUG
  // Whole dropped blocks were just poisoned, but a speculative rollback usually lands
  // mid-block: the KEPT partial tail block still holds the rejected rows [new_len, old_len).
  // Poison them too (when the block is exclusively owned — a shared tail belongs to other
  // sequences whose rows are still live) so a stale re-read fails as loudly as a freed
  // block instead of silently returning rolled-back KV.
  const int bt = mgr_.block_tokens();
  if (new_len > 0 && new_len < old_len && new_len % bt != 0) {
    const int idx = new_len / bt;
    const int block = mgr_.block_at(seq, idx);
    if (mgr_.pool().ref_count(block) == 1) {
      for (int p = new_len % bt; p < bt; ++p) {
        for (int l = 0; l < layers_; ++l) {
          for (const bool value : {false, true}) {
            std::memset(BlockData(block) + RowOffset(l, value, p), kPoisonByte,
                        static_cast<size_t>(codec_.row_bytes()));
          }
        }
      }
    }
  }
#endif
  return dropped;
}

void PagedKvCache::ConfigureOffload(const KvOffloadOptions& opts,
                                    std::unique_ptr<KvEvictionPolicy> policy) {
  HEXLLM_CHECK_MSG(mgr_.stats().physical_blocks == 0,
                   "ConfigureOffload requires an empty cache");
  offload_ = std::make_unique<KvOffloadEngine>(mgr_.pool(), storage_.data(), block_bytes_,
                                               opts, std::move(policy));
}

double PagedKvCache::EnsureResidentTableBlocks(int seq, std::span<const int> table_indices) {
  if (offload_ == nullptr || !offload_->enabled()) {
    return 0.0;
  }
  resident_scratch_.clear();
  const int64_t table = mgr_.table_blocks(seq);
  for (const int idx : table_indices) {
    if (idx >= table) {
      continue;  // not allocated yet — the step's first write mints it resident
    }
    resident_scratch_.push_back(mgr_.block_at(seq, idx));
  }
  return offload_->EnsureResident(resident_scratch_);
}

void PagedKvCache::PrefetchTableBlocks(int seq, std::span<const int> table_indices) {
  if (offload_ == nullptr || !offload_->enabled()) {
    return;
  }
  resident_scratch_.clear();
  const int64_t table = mgr_.table_blocks(seq);
  for (const int idx : table_indices) {
    if (idx >= table) {
      continue;
    }
    resident_scratch_.push_back(mgr_.block_at(seq, idx));
  }
  offload_->PrefetchAsync(resident_scratch_);
}

void PagedKvCache::ShareFromHandle(int64_t handle, int dst_seq, int len) {
  mgr_.ShareFromHandle(handle, dst_seq, len);
}

void PagedKvCache::DropHandle(int64_t handle) {
  freed_scratch_.clear();
  mgr_.DropHandle(handle, &freed_scratch_);
  PoisonFreed();
}

void PagedKvCache::PoisonFreed() {
  if (offload_ != nullptr) {
    // A freed block's flash copy (or queued promotion) is dead weight — drop it so the id
    // can be reused tier-clean.
    for (const int b : freed_scratch_) {
      offload_->NoteFreed(b);
    }
  }
#ifndef NDEBUG
  for (const int b : freed_scratch_) {
    std::memset(BlockData(b), kPoisonByte, static_cast<size_t>(block_bytes_));
  }
#endif
  freed_scratch_.clear();
}

void ExportKvQuantStats(hquant::KvDtype dtype, const KvQuantStats& stats,
                        obs::Registry& registry) {
  registry.Set("kv.dtype", static_cast<double>(hquant::KvDtypeBits(dtype)),
               hquant::KvDtypeName(dtype));
  registry.Set("kv.quant.rows", static_cast<double>(stats.rows));
  registry.Set("kv.quant.bytes_saved", static_cast<double>(stats.bytes_saved()));
  registry.Set("kv.quant.max_abs_err", stats.max_abs_err);
  registry.Set("kv.quant.mean_abs_err", stats.mean_abs_err());
  registry.Set("kv.quant.rel_rms", stats.rel_rms());
}

}  // namespace hkv
