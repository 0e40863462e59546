#include "src/kvcache/paged_kv_cache.h"

#include <cmath>
#include <cstring>

#include "src/base/check.h"
#include "src/base/math_util.h"

namespace hkv {

namespace {

// FP16 quiet NaN: any arithmetic touching a poisoned (freed) KV row propagates NaN into the
// attention output, so use-after-free fails loudly in tests.
constexpr uint16_t kPoisonBits = 0x7E00;

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
      kv_dim_(kv_dim),
      max_context_(max_context),
      dtype_(dtype),
      quant_group_(quant_group),
      num_blocks_(num_blocks > 0 ? num_blocks
                                 : DefaultPoolBlocks(num_seqs, max_context, block_tokens)),
      block_elems_(static_cast<int64_t>(layers) * 2 * block_tokens * kv_dim),
      row_bytes_(hquant::KvRowBytes(dtype, kv_dim, quant_group)),
      block_bytes_(static_cast<int64_t>(layers) * 2 * block_tokens * row_bytes_),
      mgr_(block_tokens, num_blocks_, /*bytes_per_block=*/block_bytes_) {
  HEXLLM_CHECK(layers_ >= 1 && kv_dim_ >= 1 && max_context_ >= 1);
  if (dtype_ == hquant::KvDtype::kF16) {
    storage_.resize(num_blocks_ * block_elems_);
  } else {
    HEXLLM_CHECK(quant_group_ >= 2 && quant_group_ % 2 == 0);
    HEXLLM_CHECK(kv_dim_ % quant_group_ == 0);
    qstorage_.resize(num_blocks_ * block_bytes_);
    quant_src_scratch_.resize(static_cast<size_t>(quant_group_));
    quant_rt_scratch_.resize(static_cast<size_t>(quant_group_));
  }
}

int64_t PagedKvCache::RowOffset(int layer, bool value, int pos_in_block) const {
  HEXLLM_DCHECK(layer >= 0 && layer < layers_);
  return ((static_cast<int64_t>(layer) * 2 + (value ? 1 : 0)) * mgr_.block_tokens() +
          pos_in_block) *
         kv_dim_;
}

int64_t PagedKvCache::QuantRowOffset(int layer, bool value, int pos_in_block) const {
  HEXLLM_DCHECK(layer >= 0 && layer < layers_);
  return ((static_cast<int64_t>(layer) * 2 + (value ? 1 : 0)) * mgr_.block_tokens() +
          pos_in_block) *
         row_bytes_;
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

hexllm::F16* PagedKvCache::MutableRow(int layer, int seq, int pos, bool value) {
  HEXLLM_DCHECK(dtype_ == hquant::KvDtype::kF16);
  HEXLLM_DCHECK(pos >= 0 && pos < max_context_);
  const KvBlockManager::WriteAccess wa = mgr_.EnsureWritable(seq, pos);
  FaultForWrite(wa);
  if (wa.copied_from >= 0) {
    // CoW split: the new private block inherits every layer's rows of the shared block.
    std::memcpy(BlockData(wa.block), BlockData(wa.copied_from),
                static_cast<size_t>(block_elems_) * 2);
  }
  return BlockData(wa.block) + RowOffset(layer, value, pos % mgr_.block_tokens());
}

const hexllm::F16* PagedKvCache::Row(int layer, int seq, int pos, bool value) const {
  HEXLLM_DCHECK(dtype_ == hquant::KvDtype::kF16);
  HEXLLM_DCHECK(pos >= 0 && pos < max_context_);
  const int idx = pos / mgr_.block_tokens();
  const int block = mgr_.block_at(seq, idx);
  return storage_.data() + static_cast<int64_t>(block) * block_elems_ +
         RowOffset(layer, value, pos % mgr_.block_tokens());
}

void PagedKvCache::WriteRow(int layer, int seq, int pos, bool value, const hexllm::F16* src) {
  if (dtype_ == hquant::KvDtype::kF16) {
    // Legacy path, byte-identical: CoW-aware mutable row + memcpy.
    std::memcpy(MutableRow(layer, seq, pos, value), src,
                static_cast<size_t>(kv_dim_) * 2);
    return;
  }
  HEXLLM_DCHECK(pos >= 0 && pos < max_context_);
  const KvBlockManager::WriteAccess wa = mgr_.EnsureWritable(seq, pos);
  FaultForWrite(wa);
  if (wa.copied_from >= 0) {
    std::memcpy(QuantBlockData(wa.block), QuantBlockData(wa.copied_from),
                static_cast<size_t>(block_bytes_));
  }
  QuantizeRowInto(src, QuantBlockData(wa.block) +
                           QuantRowOffset(layer, value, pos % mgr_.block_tokens()));
}

void PagedKvCache::ReadRow(int layer, int seq, int pos, bool value, hexllm::F16* dst) const {
  if (dtype_ == hquant::KvDtype::kF16) {
    std::memcpy(dst, Row(layer, seq, pos, value), static_cast<size_t>(kv_dim_) * 2);
    return;
  }
  HEXLLM_DCHECK(pos >= 0 && pos < max_context_);
  const int idx = pos / mgr_.block_tokens();
  const int block = mgr_.block_at(seq, idx);
  DequantRowInto(qstorage_.data() + static_cast<int64_t>(block) * block_bytes_ +
                     QuantRowOffset(layer, value, pos % mgr_.block_tokens()),
                 dst);
}

void PagedKvCache::QuantizeRowInto(const hexllm::F16* src, uint8_t* row) {
  const int groups = kv_dim_ / quant_group_;
  const int64_t payload_bytes = hquant::KvPayloadBytes(dtype_, kv_dim_);
  const int64_t group_payload = hquant::KvPayloadBytes(dtype_, quant_group_);
  float* x = quant_src_scratch_.data();
  hexllm::F16* rt = quant_rt_scratch_.data();
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < quant_group_; ++i) {
      x[i] = src[g * quant_group_ + i].ToFloat();
    }
    uint8_t* payload = row + g * group_payload;
    hexllm::F16 d;
    if (dtype_ == hquant::KvDtype::kInt4) {
      d = hquant::KvQuantizeGroupInt4(x, quant_group_, payload);
      hquant::KvDequantGroupInt4(payload, d.ToFloat(), quant_group_, rt);
    } else {
      d = hquant::KvQuantizeGroupInt8(x, quant_group_, reinterpret_cast<int8_t*>(payload));
      hquant::KvDequantGroupInt8(reinterpret_cast<const int8_t*>(payload), d.ToFloat(),
                                 quant_group_, rt);
    }
    const uint16_t d_bits = d.bits();
    std::memcpy(row + payload_bytes + static_cast<int64_t>(g) * 2, &d_bits, 2);
    for (int i = 0; i < quant_group_; ++i) {
      const double err = std::fabs(static_cast<double>(rt[i].ToFloat()) - x[i]);
      quant_stats_.sum_abs_err += err;
      quant_stats_.sum_sq_err += err * err;
      quant_stats_.sum_sq_ref += static_cast<double>(x[i]) * x[i];
      if (err > quant_stats_.max_abs_err) {
        quant_stats_.max_abs_err = err;
      }
    }
  }
  quant_stats_.rows += 1;
  quant_stats_.elems += kv_dim_;
  quant_stats_.quant_bytes += row_bytes_;
  quant_stats_.f16_bytes += static_cast<int64_t>(kv_dim_) * 2;
}

void PagedKvCache::DequantRowInto(const uint8_t* row, hexllm::F16* dst) const {
  const int groups = kv_dim_ / quant_group_;
  const int64_t payload_bytes = hquant::KvPayloadBytes(dtype_, kv_dim_);
  const int64_t group_payload = hquant::KvPayloadBytes(dtype_, quant_group_);
  for (int g = 0; g < groups; ++g) {
    uint16_t d_bits;
    std::memcpy(&d_bits, row + payload_bytes + static_cast<int64_t>(g) * 2, 2);
    const float d = hexllm::F16BitsToF32(d_bits);
    const uint8_t* payload = row + g * group_payload;
    if (dtype_ == hquant::KvDtype::kInt4) {
      hquant::KvDequantGroupInt4(payload, d, quant_group_, dst + g * quant_group_);
    } else {
      hquant::KvDequantGroupInt8(reinterpret_cast<const int8_t*>(payload), d, quant_group_,
                                 dst + g * quant_group_);
    }
  }
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
                                    const hexllm::F16** k_bases,
                                    const hexllm::F16** v_bases) const {
  HEXLLM_DCHECK(dtype_ == hquant::KvDtype::kF16);
  HEXLLM_DCHECK(layer >= 0 && layer < layers_);
  HEXLLM_DCHECK(positions >= 0 && positions <= max_context_);
  const int bt = mgr_.block_tokens();
  const int n = static_cast<int>(hexllm::CeilDiv(positions, bt));
  const int64_t k_off = RowOffset(layer, false, 0);
  const int64_t v_off = RowOffset(layer, true, 0);
  for (int i = 0; i < n; ++i) {
    const int block = mgr_.block_at(seq, i);
    // Demoted blocks may legitimately appear here: a windowed kernel never stages the
    // masked interior chunks, and every staged block was faulted resident by
    // EnsureResidentTableBlocks before this parallel region (docs/long_context.md).
    const hexllm::F16* base = storage_.data() + static_cast<int64_t>(block) * block_elems_;
    k_bases[i] = base + k_off;
    v_bases[i] = base + v_off;
  }
  return n;
}

int PagedKvCache::FillQuantBlockPointers(int layer, int seq, int positions,
                                         const uint8_t** k_bases,
                                         const uint8_t** v_bases) const {
  HEXLLM_DCHECK(dtype_ != hquant::KvDtype::kF16);
  HEXLLM_DCHECK(layer >= 0 && layer < layers_);
  HEXLLM_DCHECK(positions >= 0 && positions <= max_context_);
  const int bt = mgr_.block_tokens();
  const int n = static_cast<int>(hexllm::CeilDiv(positions, bt));
  const int64_t k_off = QuantRowOffset(layer, false, 0);
  const int64_t v_off = QuantRowOffset(layer, true, 0);
  for (int i = 0; i < n; ++i) {
    const uint8_t* base =
        qstorage_.data() + static_cast<int64_t>(mgr_.block_at(seq, i)) * block_bytes_;
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
          for (int value = 0; value < 2; ++value) {
            if (dtype_ == hquant::KvDtype::kF16) {
              hexllm::F16* row = BlockData(block) + RowOffset(l, value != 0, p);
              for (int i = 0; i < kv_dim_; ++i) {
                row[i] = hexllm::F16::FromBits(kPoisonBits);
              }
            } else {
              std::memset(QuantBlockData(block) + QuantRowOffset(l, value != 0, p), 0xFF,
                          static_cast<size_t>(row_bytes_));
            }
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
  uint8_t* storage = dtype_ == hquant::KvDtype::kF16
                         ? reinterpret_cast<uint8_t*>(storage_.data())
                         : qstorage_.data();
  offload_ = std::make_unique<KvOffloadEngine>(mgr_.pool(), storage, StorageBlockBytes(),
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
    if (dtype_ == hquant::KvDtype::kF16) {
      hexllm::F16* data = BlockData(b);
      for (int64_t i = 0; i < block_elems_; ++i) {
        data[i] = hexllm::F16::FromBits(kPoisonBits);
      }
    } else {
      // 0xFF bytes make every scale an F16 NaN (0xFFFF), so any dequant of a freed block
      // floods attention with NaN just like the F16 poison.
      std::memset(QuantBlockData(b), 0xFF, static_cast<size_t>(block_bytes_));
    }
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
