// Paged KV-cache manager tests: block-pool invariants, prefix sharing, copy-on-write
// forking, debug poisoning, admission gating on pool/budget exhaustion, low-bit quantized
// KV storage (round-trip bounds, CoW/pause-resume integrity, paged-Q attention parity, the
// F16 bit-identity guard), and the functional-vs-analytic block-accounting parity the
// serving layer promises — including under quantized block accounting.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/fp16.h"
#include "src/base/rng.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/kvcache/block_pool.h"
#include "src/kvcache/kv_block_manager.h"
#include "src/kvcache/paged_kv_cache.h"
#include "src/llm/model_config.h"
#include "src/llm/weights.h"
#include "src/runtime/engine.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"

namespace hkv {
namespace {

using hexllm::F16;

// --- block pool ---

TEST(BlockPoolTest, AllocRefcountAndFreeListInvariants) {
  BlockPool pool(4);
  EXPECT_TRUE(pool.bounded());
  std::set<int> ids;
  for (int i = 0; i < 4; ++i) {
    const int b = pool.Alloc();
    ASSERT_GE(b, 0);
    EXPECT_EQ(pool.ref_count(b), 1);
    ids.insert(b);
  }
  EXPECT_EQ(ids.size(), 4u);  // distinct ids
  EXPECT_EQ(pool.used_blocks(), 4);
  EXPECT_EQ(pool.free_blocks(), 0);
  EXPECT_EQ(pool.Alloc(), -1);  // exhausted, no abort

  // Shared block: refcount rises and only the LAST unref frees.
  const int shared = *ids.begin();
  pool.AddRef(shared);
  EXPECT_EQ(pool.ref_count(shared), 2);
  EXPECT_FALSE(pool.Unref(shared));
  EXPECT_EQ(pool.used_blocks(), 4);
  EXPECT_TRUE(pool.Unref(shared));
  EXPECT_EQ(pool.used_blocks(), 3);
  EXPECT_EQ(pool.free_blocks(), 1);

  // LIFO reuse: the block just freed is the next allocated.
  EXPECT_EQ(pool.Alloc(), shared);
  EXPECT_EQ(pool.peak_used_blocks(), 4);
}

TEST(BlockPoolTest, UnboundedPoolMintsIdsOnDemand) {
  BlockPool pool(0);
  EXPECT_FALSE(pool.bounded());
  for (int i = 0; i < 100; ++i) {
    ASSERT_GE(pool.Alloc(), 0);
  }
  EXPECT_EQ(pool.used_blocks(), 100);
  EXPECT_EQ(pool.peak_used_blocks(), 100);
  EXPECT_GT(pool.free_blocks(), int64_t{1} << 60);
}

// --- block-table manager ---

TEST(KvBlockManagerTest, ShareForkAndCowAccounting) {
  KvBlockManager mgr(/*block_tokens=*/4, /*max_blocks=*/0, /*bytes_per_block=*/10);
  // Append 6 positions to seq 0: blocks 0..1, the second half-full.
  for (int pos = 0; pos < 6; ++pos) {
    mgr.EnsureWritable(0, pos);
    mgr.Advance(0);
  }
  EXPECT_EQ(mgr.length(0), 6);
  EXPECT_EQ(mgr.stats().physical_blocks, 2);
  EXPECT_EQ(mgr.stats().logical_blocks, 2);

  // Retain + share the full prefix into seq 1: zero new physical blocks, logical doubles.
  const int64_t h = mgr.Retain(0);
  EXPECT_EQ(mgr.handle_length(h), 6);
  mgr.ShareFromHandle(h, 1, 6);
  EXPECT_EQ(mgr.length(1), 6);
  EXPECT_EQ(mgr.stats().physical_blocks, 2);
  EXPECT_EQ(mgr.stats().logical_blocks, 4);
  EXPECT_EQ(mgr.block_at(1, 0), mgr.block_at(0, 0));
  EXPECT_TRUE(mgr.TailShared(1));

  // The partial shared tail predicts exactly one extra block for the first append...
  EXPECT_EQ(mgr.BlocksToAdmit(/*total_tokens=*/8, /*shared_tokens=*/6), 1);
  // ...and the append indeed CoW-splits: seq 1 gets a private tail, seq 0 keeps its block.
  const int parent_tail = mgr.block_at(0, 1);
  const KvBlockManager::WriteAccess wa = mgr.EnsureWritable(1, 6);
  mgr.Advance(1);
  EXPECT_EQ(wa.copied_from, parent_tail);
  EXPECT_NE(mgr.block_at(1, 1), parent_tail);
  EXPECT_EQ(mgr.block_at(0, 1), parent_tail);
  EXPECT_EQ(mgr.stats().physical_blocks, 3);
  EXPECT_EQ(mgr.stats().cow_splits, 1);
  EXPECT_FALSE(mgr.TailShared(1));

  // Releasing the fork frees only its private block; the handle pins the prefix even after
  // the parent sequence resets.
  std::vector<int> freed;
  mgr.ResetSeq(1, &freed);
  EXPECT_EQ(freed.size(), 1u);
  mgr.ResetSeq(0, &freed);
  EXPECT_EQ(mgr.stats().physical_blocks, 2);  // retained prefix survives
  mgr.DropHandle(h, &freed);
  EXPECT_EQ(mgr.stats().physical_blocks, 0);
  EXPECT_EQ(mgr.stats().logical_blocks, 0);
  EXPECT_EQ(mgr.stats().peak_physical_blocks, 3);
}

TEST(KvBlockManagerTest, TruncateFreesWholeTailBlocksAndReappendsInPlace) {
  // The speculative-decode rollback primitive: a rejected suffix truncates the tail.
  KvBlockManager mgr(/*block_tokens=*/4, /*max_blocks=*/0, /*bytes_per_block=*/10);
  for (int pos = 0; pos < 10; ++pos) {
    mgr.EnsureWritable(0, pos);
    mgr.Advance(0);
  }
  EXPECT_EQ(mgr.stats().physical_blocks, 3);  // 4 + 4 + 2

  // Truncating to 6 keeps ceil(6/4) = 2 blocks; the solely-owned third block frees.
  std::vector<int> freed;
  EXPECT_EQ(mgr.Truncate(0, 6, &freed), 1);
  EXPECT_EQ(freed.size(), 1u);
  EXPECT_EQ(mgr.length(0), 6);
  EXPECT_EQ(mgr.stats().physical_blocks, 2);
  EXPECT_EQ(mgr.stats().logical_blocks, 2);

  // Truncating within the tail block drops no blocks, only logical length.
  freed.clear();
  EXPECT_EQ(mgr.Truncate(0, 5, &freed), 0);
  EXPECT_TRUE(freed.empty());
  EXPECT_EQ(mgr.length(0), 5);
  EXPECT_EQ(mgr.stats().physical_blocks, 2);

  // Re-appending after a rollback extends the existing tail block in place.
  const int tail = mgr.block_at(0, 1);
  mgr.EnsureWritable(0, 5);
  mgr.Advance(0);
  EXPECT_EQ(mgr.length(0), 6);
  EXPECT_EQ(mgr.block_at(0, 1), tail);
  EXPECT_EQ(mgr.stats().physical_blocks, 2);
}

TEST(KvBlockManagerTest, TruncateOnForkedSequencesPreservesSharingInvariants) {
  KvBlockManager mgr(/*block_tokens=*/4, /*max_blocks=*/0, /*bytes_per_block=*/10);
  for (int pos = 0; pos < 6; ++pos) {
    mgr.EnsureWritable(0, pos);
    mgr.Advance(0);
  }
  const int64_t h = mgr.Retain(0);
  mgr.ShareFromHandle(h, 1, 6);
  const int parent_tail = mgr.block_at(0, 1);

  // The child diverges: its first append CoW-splits the shared partial tail, then it grows
  // a private block — exactly the state a speculative verify leaves before a rejection.
  for (int pos = 6; pos < 12; ++pos) {
    mgr.EnsureWritable(1, pos);
    mgr.Advance(1);
  }
  const int child_tail = mgr.block_at(1, 1);
  EXPECT_NE(child_tail, parent_tail);
  EXPECT_EQ(mgr.stats().physical_blocks, 4);  // b0, parent tail, CoW copy, child block 2
  EXPECT_EQ(mgr.stats().cow_splits, 1);

  // Rolling the child back to the fork point frees ONLY its private third block; the CoW
  // copy stays (it holds the child's positions 4..5) and the parent is untouched.
  std::vector<int> freed;
  EXPECT_EQ(mgr.Truncate(1, 6, &freed), 1);
  EXPECT_EQ(freed.size(), 1u);
  EXPECT_EQ(mgr.length(1), 6);
  EXPECT_EQ(mgr.block_at(1, 1), child_tail);
  EXPECT_EQ(mgr.length(0), 6);
  EXPECT_EQ(mgr.block_at(0, 1), parent_tail);
  EXPECT_EQ(mgr.stats().physical_blocks, 3);

  // Truncating the PARENT under a still-shared tail unrefs without freeing: the retained
  // handle keeps the block resident for the child/fork machinery.
  freed.clear();
  EXPECT_EQ(mgr.Truncate(0, 4, &freed), 1);
  EXPECT_TRUE(freed.empty());  // the handle still references the dropped block
  EXPECT_EQ(mgr.stats().physical_blocks, 3);
  mgr.DropHandle(h, &freed);
  EXPECT_EQ(freed.size(), 1u);  // last reference gone: now it frees
  EXPECT_EQ(mgr.stats().physical_blocks, 2);
}

TEST(KvBlockManagerTest, BlocksToAdmitCoversRoundingAndAlignedTails) {
  KvBlockManager mgr(32, 0, 1);
  EXPECT_EQ(mgr.BlocksToAdmit(0, 0), 0);
  EXPECT_EQ(mgr.BlocksToAdmit(1, 0), 1);
  EXPECT_EQ(mgr.BlocksToAdmit(64, 0), 2);
  EXPECT_EQ(mgr.BlocksToAdmit(65, 0), 3);
  EXPECT_EQ(mgr.BlocksToAdmit(96, 64), 1);   // block-aligned shared tail: no CoW copy
  EXPECT_EQ(mgr.BlocksToAdmit(96, 65), 1);   // the CoW-split copy also holds the appends
  EXPECT_EQ(mgr.BlocksToAdmit(97, 65), 2);   // ...until they spill into a fourth block
  EXPECT_EQ(mgr.BlocksToAdmit(65, 65), 0);   // fully shared, nothing appended
}

// --- storage-backed paged cache ---

// Writes a K (value=false) or V row of `kv` whose first element is `x0`, the rest zero.
void WriteRow0(PagedKvCache& kv, bool value, int layer, int seq, int pos, float x0) {
  std::vector<F16> row(static_cast<size_t>(kv.row_codec().elems), F16::Zero());
  row[0] = F16(x0);
  if (value) {
    kv.WriteValueRow(layer, seq, pos, row.data());
  } else {
    kv.WriteKeyRow(layer, seq, pos, row.data());
  }
}

// Element `i` of a decoded K (value=false) or V row.
float ReadElem(const PagedKvCache& kv, bool value, int layer, int seq, int pos, int i = 0) {
  std::vector<F16> row(static_cast<size_t>(kv.row_codec().elems));
  if (value) {
    kv.ReadValueRow(layer, seq, pos, row.data());
  } else {
    kv.ReadKeyRow(layer, seq, pos, row.data());
  }
  return row[static_cast<size_t>(i)].ToFloat();
}

TEST(PagedKvCacheTest, ForkReadsSharedRowsAndCowPreservesParent) {
  PagedKvCache kv(/*layers=*/2, /*kv_dim=*/4, /*num_seqs=*/2, /*max_context=*/64,
                  /*block_tokens=*/4);
  // Parent: 6 positions of distinguishable rows.
  for (int pos = 0; pos < 6; ++pos) {
    for (int l = 0; l < 2; ++l) {
      WriteRow0(kv, false, l, 0, pos, static_cast<float>(100 * l + pos));
      WriteRow0(kv, true, l, 0, pos, static_cast<float>(100 * l + pos) + 0.5f);
    }
    kv.Advance(0);
  }
  const int64_t h = kv.Retain(0);
  kv.ShareFromHandle(h, 1, 6);
  // The fork reads the parent's rows through its own table without any copy.
  for (int pos = 0; pos < 6; ++pos) {
    EXPECT_EQ(ReadElem(kv, false, 1, 1, pos), 100.0f + pos);
  }
  // Divergent append: the child's write CoW-splits the tail block; the copied block carries
  // every layer's earlier rows, and the parent's rows stay untouched.
  WriteRow0(kv, false, 0, 1, 6, -1.0f);
  WriteRow0(kv, false, 1, 1, 6, -2.0f);
  kv.Advance(1);
  EXPECT_EQ(ReadElem(kv, false, 1, 1, 4), 104.0f);  // copied shared rows intact
  EXPECT_EQ(ReadElem(kv, false, 1, 1, 6), -2.0f);
  // Parent appends its own position 6 independently of the child's.
  WriteRow0(kv, false, 0, 0, 6, 7.0f);
  WriteRow0(kv, false, 1, 0, 6, 8.0f);
  kv.Advance(0);
  EXPECT_EQ(ReadElem(kv, false, 1, 0, 6), 8.0f);
  EXPECT_EQ(ReadElem(kv, false, 1, 1, 6), -2.0f);
  EXPECT_EQ(ReadElem(kv, true, 1, 0, 5), 105.5f);
  // Two splits: the child's divergent append, and the parent's own append into its tail
  // block, which the retained handle pins as an immutable snapshot.
  EXPECT_EQ(kv.stats().cow_splits, 2);
  kv.DropHandle(h);
}

// --- quantized KV storage (docs/kv_quantization.md) ---

TEST(KvQuantTest, RoundTripErrorRespectsScaleBoundPerGroupSize) {
  // Q4_0/Q8_0 group quantization bounds the per-element error by half the group scale
  // (plus F16 rounding of the scale and the product). Checked per group size on the real
  // write/read path, and against the cache's own accumulated error proxy.
  hexllm::Rng rng(0xBEEF);
  const int kv_dim = 64;
  const int positions = 8;
  double rel_rms_int4 = 0.0;
  double rel_rms_int8 = 0.0;
  for (const int group : {16, 32, 64}) {
    for (const hquant::KvDtype dtype : {hquant::KvDtype::kInt8, hquant::KvDtype::kInt4}) {
      PagedKvCache kv(/*layers=*/1, kv_dim, /*num_seqs=*/1, /*max_context=*/64,
                      /*block_tokens=*/4, /*num_blocks=*/0, dtype, group);
      std::vector<F16> src(static_cast<size_t>(kv_dim));
      std::vector<F16> back(static_cast<size_t>(kv_dim));
      for (int pos = 0; pos < positions; ++pos) {
        for (auto& x : src) {
          x = F16(static_cast<float>(rng.NextGaussian()));
        }
        kv.WriteKeyRow(0, 0, pos, src.data());
        kv.WriteValueRow(0, 0, pos, src.data());
        kv.Advance(0);
        kv.ReadKeyRow(0, 0, pos, back.data());
        for (int g = 0; g < kv_dim; g += group) {
          float amax = 0.0f;
          for (int j = 0; j < group; ++j) {
            amax = std::max(amax, std::abs(src[static_cast<size_t>(g + j)].ToFloat()));
          }
          // Q8_0's symmetric grid bounds the error at half a step; Q4_0's asymmetric grid
          // (levels -8d..+7d) clamps opposite-sign extremes up to a FULL step. Plus F16
          // rounding slop for the scale and the product.
          const float bound = (dtype == hquant::KvDtype::kInt4 ? amax / 8.0f
                                                               : 0.5f * amax / 127.0f) +
                              amax / 512.0f;
          for (int j = 0; j < group; ++j) {
            const float err = std::abs(back[static_cast<size_t>(g + j)].ToFloat() -
                                       src[static_cast<size_t>(g + j)].ToFloat());
            EXPECT_LE(err, bound) << "group=" << group << " dtype=" << static_cast<int>(dtype);
          }
        }
      }
      // The write-time proxy saw every row and agrees with the bound scale-wise.
      const KvQuantStats& st = kv.quant_stats();
      EXPECT_EQ(st.rows, int64_t{2} * positions);
      EXPECT_EQ(st.elems, int64_t{2} * positions * kv_dim);
      EXPECT_GT(st.max_abs_err, 0.0);
      EXPECT_GT(st.bytes_saved(), 0);
      if (group == 32) {
        (dtype == hquant::KvDtype::kInt4 ? rel_rms_int4 : rel_rms_int8) = st.rel_rms();
      }
    }
  }
  // 4-bit storage is strictly lossier than 8-bit, and both stay inside the documented
  // bounds (docs/kv_quantization.md).
  EXPECT_GT(rel_rms_int4, rel_rms_int8);
  EXPECT_LT(rel_rms_int8, 2e-2);
  EXPECT_LT(rel_rms_int4, 2e-1);
}

TEST(KvQuantTest, QuantizedCowForkAndPauseResumeKeepRowsIntact) {
  // The fork/pause machinery is dtype-blind (it moves whole blocks), but only if every
  // CoW copy moves the *quantized* block bytes. Distinguishable rows catch any mixing of
  // payload and scale bytes across the split.
  PagedKvCache kv(/*layers=*/1, /*kv_dim=*/64, /*num_seqs=*/2, /*max_context=*/64,
                  /*block_tokens=*/4, /*num_blocks=*/0, hquant::KvDtype::kInt4,
                  /*quant_group=*/32);
  std::vector<F16> row(64);
  std::vector<std::vector<F16>> truth;  // post-quantization ground truth per position
  for (int pos = 0; pos < 6; ++pos) {
    for (int j = 0; j < 64; ++j) {
      row[static_cast<size_t>(j)] =
          F16(0.125f * static_cast<float>((pos + 1) * ((j % 7) - 3)));
    }
    kv.WriteKeyRow(0, 0, pos, row.data());
    kv.WriteValueRow(0, 0, pos, row.data());
    kv.Advance(0);
    truth.emplace_back(64);
    kv.ReadKeyRow(0, 0, pos, truth.back().data());
  }

  // Fork: the child reads the parent's quantized rows through its own table.
  const int64_t h = kv.Retain(0);
  kv.ShareFromHandle(h, 1, 6);
  std::vector<F16> got(64);
  for (int pos = 0; pos < 6; ++pos) {
    kv.ReadKeyRow(0, 1, pos, got.data());
    for (int j = 0; j < 64; ++j) {
      EXPECT_EQ(got[static_cast<size_t>(j)].bits(),
                truth[static_cast<size_t>(pos)][static_cast<size_t>(j)].bits())
          << pos << "," << j;
    }
  }
  // Divergent append CoW-splits the tail; the copied block carries positions 4-5 intact
  // and the parent never sees the child's position 6.
  for (auto& x : row) {
    x = F16(-1.0f);
  }
  kv.WriteKeyRow(0, 1, 6, row.data());
  kv.WriteValueRow(0, 1, 6, row.data());
  kv.Advance(1);
  kv.ReadKeyRow(0, 1, 5, got.data());
  EXPECT_EQ(got[0].bits(), truth[5][0].bits());
  for (auto& x : row) {
    x = F16(2.0f);
  }
  kv.WriteKeyRow(0, 0, 6, row.data());
  kv.WriteValueRow(0, 0, 6, row.data());
  kv.Advance(0);
  kv.ReadKeyRow(0, 0, 6, got.data());
  EXPECT_EQ(got[0].ToFloat(), 2.0f);
  kv.ReadKeyRow(0, 1, 6, got.data());
  EXPECT_EQ(got[0].ToFloat(), -1.0f);
  EXPECT_EQ(kv.stats().cow_splits, 2);
  kv.DropHandle(h);

  // Pause/resume: snapshot the child, reset its slot, map the snapshot back. Every row
  // survives and the resumed append extends in place (no further CoW split).
  const int64_t snap = kv.Retain(1);
  kv.ResetSeq(1);
  kv.ShareFromHandle(snap, 1, 7);
  kv.DropHandle(snap);
  kv.ReadKeyRow(0, 1, 5, got.data());
  EXPECT_EQ(got[0].bits(), truth[5][0].bits());
  kv.ReadKeyRow(0, 1, 6, got.data());
  EXPECT_EQ(got[0].ToFloat(), -1.0f);
  kv.WriteKeyRow(0, 1, 7, row.data());
  kv.WriteValueRow(0, 1, 7, row.data());
  kv.Advance(1);
  EXPECT_EQ(kv.stats().cow_splits, 2);
}

TEST(KvQuantTest, F16ModeIsBitExactAndMatchesLegacyLayout) {
  // The F16 guard: the defaulted constructor and an explicit kF16 are the same mode, rows
  // round-trip bit-exactly through the Write/Read API (it is a memcpy) and sit in the block
  // as plain 2-byte elements (the legacy layout), and no quant bookkeeping runs — the
  // legacy byte/checksum surface is untouched.
  PagedKvCache legacy(/*layers=*/2, /*kv_dim=*/8, /*num_seqs=*/1, /*max_context=*/64,
                      /*block_tokens=*/4);
  PagedKvCache f16(2, 8, 1, 64, 4, /*num_blocks=*/0, hquant::KvDtype::kF16);
  EXPECT_EQ(legacy.dtype(), hquant::KvDtype::kF16);
  EXPECT_EQ(f16.row_bytes(), int64_t{8} * 2);
  EXPECT_EQ(legacy.byte_size(), f16.byte_size());
  hexllm::Rng rng(7);
  std::vector<F16> src(8);
  std::vector<F16> back(8);
  for (int pos = 0; pos < 6; ++pos) {
    for (auto& x : src) {
      x = F16(static_cast<float>(rng.NextGaussian()));
    }
    f16.WriteKeyRow(1, 0, pos, src.data());
    f16.Advance(0);
    // Legacy layout: layer 1's K rows follow layer 0's K and V planes of the block.
    const uint8_t* block = f16.BlockBytesForTest(f16.BlockIdForTest(0, pos / 4));
    EXPECT_EQ(std::memcmp(block + ((1 * 2 + 0) * 4 + pos % 4) * f16.row_bytes(), src.data(),
                          src.size() * sizeof(F16)),
              0);
    f16.ReadKeyRow(1, 0, pos, back.data());
    EXPECT_EQ(std::memcmp(back.data(), src.data(), src.size() * sizeof(F16)), 0);
  }
  EXPECT_EQ(f16.quant_stats().rows, 0);  // no proxy accumulation in F16 mode
}

TEST(KvQuantTest, PagedQuantAttentionMatchesDequantizedF16Attention) {
  // FlashAttentionPaged's in-kernel dequant promises ReadKeyRow/ReadValueRow numerics:
  // attention over a quantized cache must be BIT-identical to attention over an F16 cache
  // holding the round-tripped rows. Also checks that only the quantized call charges the
  // dequant (its own kernel counter plus HVX work under "attn.kv_dequant").
  const int head_dim = 64;
  const int kv_len = 19;  // straddles blocks, partial tail
  const int q_len = 2;
  const int block_tokens = 8;
  for (const hquant::KvDtype dtype : {hquant::KvDtype::kInt8, hquant::KvDtype::kInt4}) {
    SCOPED_TRACE(hquant::KvDtypeName(dtype));
    PagedKvCache qkv(1, head_dim, 1, 64, block_tokens, 0, dtype, 32);
    PagedKvCache fkv(1, head_dim, 1, 64, block_tokens);
    hexllm::Rng rng(0xA17E);
    std::vector<F16> row(head_dim);
    std::vector<F16> rt(head_dim);
    for (int pos = 0; pos < kv_len; ++pos) {
      for (auto& x : row) {
        x = F16(static_cast<float>(rng.NextGaussian()));
      }
      qkv.WriteKeyRow(0, 0, pos, row.data());
      qkv.ReadKeyRow(0, 0, pos, rt.data());
      fkv.WriteKeyRow(0, 0, pos, rt.data());
      for (auto& x : row) {
        x = F16(static_cast<float>(rng.NextGaussian()));
      }
      qkv.WriteValueRow(0, 0, pos, row.data());
      qkv.ReadValueRow(0, 0, pos, rt.data());
      fkv.WriteValueRow(0, 0, pos, rt.data());
      qkv.Advance(0);
      fkv.Advance(0);
    }
    const auto view = [&](const PagedKvCache& kv, std::vector<const uint8_t*>* k,
                          std::vector<const uint8_t*>* v) {
      k->resize(8);
      v->resize(8);
      kv.FillBlockPointers(0, 0, kv_len, k->data(), v->data());
      hkern::PagedKvHeadView out;
      out.k_blocks = k->data();
      out.v_blocks = v->data();
      out.block_tokens = block_tokens;
      out.row = kv.row_codec();
      return out;
    };
    std::vector<const uint8_t*> qk, qv, fk, fv;
    const hkern::PagedKvHeadView qview = view(qkv, &qk, &qv);
    const hkern::PagedKvHeadView fview = view(fkv, &fk, &fv);

    std::vector<F16> q(static_cast<size_t>(q_len) * head_dim);
    for (auto& x : q) {
      x = F16(static_cast<float>(rng.NextGaussian()));
    }
    std::vector<F16> oq(q.size()), of(q.size());
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    hexsim::NpuDevice fdev(hexsim::OnePlus12());
    hkern::ExpLut flut(fdev);
    hkern::FlashAttentionPaged(fdev, flut, hkern::SoftmaxVariant::kLut, q.data(), head_dim,
                               fview, of.data(), head_dim, q_len, kv_len, head_dim, scale,
                               kv_len - q_len);
    EXPECT_EQ(fdev.ledger().Count("kernel.attn_kv_dequant.calls"), 0);
    EXPECT_EQ(fdev.ledger().tags().count("attn.kv_dequant"), 0u);
    hexsim::NpuDevice qdev(hexsim::OnePlus12());
    hkern::ExpLut qlut(qdev);
    hkern::FlashAttentionPaged(qdev, qlut, hkern::SoftmaxVariant::kLut, q.data(), head_dim,
                               qview, oq.data(), head_dim, q_len, kv_len, head_dim, scale,
                               /*q_pos_offset=*/kv_len - q_len);
    for (size_t i = 0; i < oq.size(); ++i) {
      EXPECT_EQ(oq[i].bits(), of[i].bits()) << i;
    }
    EXPECT_EQ(qdev.ledger().Count("kernel.attn_kv_dequant.calls"), 1);
    EXPECT_GT(qdev.ledger().TagSeconds("attn.kv_dequant"), 0.0);
  }
}

// --- tiered flash offload (docs/long_context.md) ---

TEST(KvOffloadTest, LruEvictionSkipsPinnedAndSharedBlocks) {
  constexpr int64_t kBlockBytes = 64;
  BlockPool pool(6);
  std::vector<uint8_t> slab(6 * kBlockBytes);
  KvOffloadOptions opts;
  opts.resident_block_budget = 2;
  KvOffloadEngine off(pool, slab.data(), kBlockBytes, opts);
  ASSERT_TRUE(off.enabled());
  std::vector<int> blocks;
  for (int i = 0; i < 4; ++i) {
    const int b = pool.Alloc();
    ASSERT_GE(b, 0);
    std::memset(slab.data() + b * kBlockBytes, 0x10 + i, kBlockBytes);
    off.BeginStep();
    off.Touch(b);  // stamps rise with i: blocks[0] is the LRU victim
    blocks.push_back(b);
  }
  // blocks[1] gains a second reference (CoW share / retained handle) — exempt from
  // eviction despite its old stamp.
  pool.AddRef(blocks[1]);
  EXPECT_EQ(off.EnforceBudget(), 2);
  EXPECT_FALSE(pool.resident(blocks[0]));
  EXPECT_FALSE(pool.resident(blocks[2]));
  EXPECT_TRUE(pool.resident(blocks[1]));
  EXPECT_TRUE(pool.resident(blocks[3]));
  EXPECT_TRUE(off.HasFlashCopy(blocks[0]));
  EXPECT_TRUE(off.HasFlashCopy(blocks[2]));
  EXPECT_FALSE(off.HasFlashCopy(blocks[1]));
  // The demoted DRAM copies are destroyed (0xFF bytes = F16 NaNs) so a read that skips the
  // promotion fault fails loudly instead of returning stale rows.
  for (int64_t i = 0; i < kBlockBytes; ++i) {
    ASSERT_EQ(slab[static_cast<size_t>(blocks[0] * kBlockBytes + i)], 0xFF) << i;
  }
  EXPECT_EQ(off.stats().demotions, 2);
  EXPECT_EQ(off.stats().wear_write_ops, 2);
  EXPECT_EQ(off.stats().flash_write_bytes, 2 * kBlockBytes);
  EXPECT_EQ(pool.resident_blocks(), 2);  // live AND resident
}

TEST(KvOffloadTest, FaultRestoresBitIdenticalPayloadAndAccountingBalances) {
  constexpr int64_t kBlockBytes = 96;
  BlockPool pool(4);
  std::vector<uint8_t> slab(4 * kBlockBytes);
  KvOffloadOptions opts;
  opts.resident_block_budget = 1;
  KvOffloadEngine off(pool, slab.data(), kBlockBytes, opts);
  const int a = pool.Alloc();
  const int b = pool.Alloc();
  std::vector<uint8_t> payload(kBlockBytes);
  for (int64_t i = 0; i < kBlockBytes; ++i) {
    payload[static_cast<size_t>(i)] = static_cast<uint8_t>(i * 7 + 3);
  }
  std::memcpy(slab.data() + a * kBlockBytes, payload.data(), kBlockBytes);
  off.BeginStep();
  off.Touch(a);
  off.BeginStep();
  off.Touch(b);
  ASSERT_EQ(off.EnforceBudget(), 1);  // `a` is older — demoted
  ASSERT_FALSE(pool.resident(a));
  // Demand fault on an idle read channel: the step absorbs the full block read cost.
  const double stall = off.EnsureResidentBlock(a);
  EXPECT_GT(stall, 0.0);
  EXPECT_TRUE(pool.resident(a));
  EXPECT_FALSE(off.HasFlashCopy(a));
  EXPECT_EQ(std::memcmp(slab.data() + a * kBlockBytes, payload.data(),
                        static_cast<size_t>(kBlockBytes)),
            0);
  const KvOffloadStats& st = off.stats();
  EXPECT_EQ(st.demotions, 1);
  EXPECT_EQ(st.promotions, 1);
  EXPECT_EQ(st.demand_faults, 1);
  EXPECT_EQ(st.prefetch_hits, 0);
  EXPECT_EQ(st.flash_read_bytes, kBlockBytes);
  EXPECT_EQ(st.flash_write_bytes, kBlockBytes);
  EXPECT_DOUBLE_EQ(st.stall_seconds, stall);
}

TEST(KvOffloadTest, PrefetchedReadCompletesFreeAfterOverlap) {
  constexpr int64_t kBlockBytes = 96;
  BlockPool pool(4);
  std::vector<uint8_t> slab(4 * kBlockBytes);
  KvOffloadOptions opts;
  opts.resident_block_budget = 1;
  KvOffloadEngine off(pool, slab.data(), kBlockBytes, opts);
  const int a = pool.Alloc();
  const int b = pool.Alloc();
  std::vector<uint8_t> payload(kBlockBytes);
  for (int64_t i = 0; i < kBlockBytes; ++i) {
    payload[static_cast<size_t>(i)] = static_cast<uint8_t>(i * 13 + 1);
  }
  std::memcpy(slab.data() + a * kBlockBytes, payload.data(), kBlockBytes);
  off.BeginStep();
  off.Touch(a);
  off.BeginStep();
  off.Touch(b);
  ASSERT_EQ(off.EnforceBudget(), 1);
  // Prefetch issued a step ahead; one second of overlapped NPU compute dwarfs the read
  // cost, so the later access is a free hit.
  const int want[] = {a};
  off.PrefetchAsync(want);
  off.AdvanceClock(1.0);
  EXPECT_EQ(off.EnsureResident(want), 0.0);
  EXPECT_TRUE(pool.resident(a));
  EXPECT_EQ(std::memcmp(slab.data() + a * kBlockBytes, payload.data(),
                        static_cast<size_t>(kBlockBytes)),
            0);
  EXPECT_EQ(off.stats().prefetch_hits, 1);
  EXPECT_EQ(off.stats().demand_faults, 0);
  EXPECT_EQ(off.stats().stall_seconds, 0.0);
}

TEST(PagedKvCacheTest, OffloadDemoteFaultRoundTripPreservesRowsThroughCache) {
  // 16 positions at block_tokens=4 fill four blocks; budget 2 demotes the two oldest.
  PagedKvCache kv(1, 4, 1, 64, /*block_tokens=*/4);
  KvOffloadOptions opts;
  opts.resident_block_budget = 2;
  kv.ConfigureOffload(opts);
  ASSERT_TRUE(kv.offload_enabled());
  auto row_val = [](int pos, int i) { return static_cast<float>(pos * 10 + i); };
  std::vector<F16> row(4);
  for (int pos = 0; pos < 16; ++pos) {
    for (int i = 0; i < 4; ++i) {
      row[static_cast<size_t>(i)] = F16(row_val(pos, i));
    }
    kv.WriteKeyRow(0, 0, pos, row.data());
    for (int i = 0; i < 4; ++i) {
      row[static_cast<size_t>(i)] = F16(-row_val(pos, i));
    }
    kv.WriteValueRow(0, 0, pos, row.data());
    kv.offload()->BeginStep();
    kv.offload()->Touch(kv.BlockIdForTest(0, pos / 4));
    kv.Advance(0);
  }
  const BlockPool& pool = kv.PoolForTest();
  EXPECT_EQ(kv.offload()->EnforceBudget(), 2);
  const int b0 = kv.BlockIdForTest(0, 0);
  const int b1 = kv.BlockIdForTest(0, 1);
  EXPECT_FALSE(pool.resident(b0));
  EXPECT_FALSE(pool.resident(b1));
  EXPECT_TRUE(kv.offload()->HasFlashCopy(b0));
  EXPECT_TRUE(kv.offload()->HasFlashCopy(b1));
  EXPECT_TRUE(std::isnan(ReadElem(kv, false, 0, 0, 0)));
  // Fault the whole attended set back in: every row restores bit-identically.
  const int want[] = {0, 1, 2, 3};
  EXPECT_GT(kv.EnsureResidentTableBlocks(0, want), 0.0);
  for (int pos = 0; pos < 16; ++pos) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(ReadElem(kv, false, 0, 0, pos, i), row_val(pos, i)) << pos << "," << i;
      EXPECT_EQ(ReadElem(kv, true, 0, 0, pos, i), -row_val(pos, i)) << pos << "," << i;
    }
  }
  // Accounting balances: everything demoted came back, byte-for-byte.
  const KvOffloadStats& st = kv.offload()->stats();
  EXPECT_EQ(st.demotions, 2);
  EXPECT_EQ(st.promotions, 2);
  EXPECT_EQ(st.flash_read_bytes, st.flash_write_bytes);
  EXPECT_EQ(pool.resident_blocks(), 4);
}

TEST(PagedKvCacheTest, OffloadPinnedBlocksNeverEvictAndAppendFaultsDemotedTail) {
  PagedKvCache kv(1, 4, 1, 64, /*block_tokens=*/4);
  KvOffloadOptions opts;
  opts.resident_block_budget = 1;
  kv.ConfigureOffload(opts);
  std::vector<F16> row(4);
  auto write_pos = [&](int pos) {
    for (int i = 0; i < 4; ++i) {
      row[static_cast<size_t>(i)] = F16(static_cast<float>(pos + 1));
    }
    kv.WriteKeyRow(0, 0, pos, row.data());
    kv.Advance(0);
  };
  for (int pos = 0; pos < 6; ++pos) {
    write_pos(pos);  // block 0 full, block 1 half
  }
  const BlockPool& pool = kv.PoolForTest();
  const int b0 = kv.BlockIdForTest(0, 0);
  const int b1 = kv.BlockIdForTest(0, 1);

  // Both blocks pinned through a retained handle: over budget, but nothing is evictable,
  // so EnforceBudget refuses rather than demoting a pinned block.
  const int64_t h = kv.Retain(0);
  EXPECT_EQ(kv.offload()->EnforceBudget(), 0);
  EXPECT_TRUE(pool.resident(b0));
  EXPECT_TRUE(pool.resident(b1));
  kv.DropHandle(h);

  // Unpinned with b0 touched more recently, the LRU victim is the tail block b1.
  kv.offload()->BeginStep();
  kv.offload()->Touch(b0);
  EXPECT_EQ(kv.offload()->EnforceBudget(), 1);
  EXPECT_FALSE(pool.resident(b1));
  EXPECT_TRUE(std::isnan(ReadElem(kv, false, 0, 0, 4)));

  // Appending into the demoted tail block auto-faults it (FaultForWrite): the new row
  // lands AND the block's earlier rows come back bit-identical.
  const int64_t faults_before = kv.offload()->stats().demand_faults;
  write_pos(6);
  EXPECT_TRUE(pool.resident(b1));
  EXPECT_EQ(kv.offload()->stats().demand_faults, faults_before + 1);
  EXPECT_EQ(ReadElem(kv, false, 0, 0, 4), 5.0f);
  EXPECT_EQ(ReadElem(kv, false, 0, 0, 5, 2), 6.0f);
  EXPECT_EQ(ReadElem(kv, false, 0, 0, 6), 7.0f);
}

#ifndef NDEBUG
TEST(PagedKvCacheTest, TruncateSeqPoisonsRejectedTailRowsInDebug) {
  PagedKvCache kv(1, 4, 1, 64, /*block_tokens=*/4);
  std::vector<F16> row(4);
  for (int pos = 0; pos < 6; ++pos) {
    for (int i = 0; i < 4; ++i) {
      row[static_cast<size_t>(i)] = F16(static_cast<float>(pos + 1));
    }
    kv.WriteKeyRow(0, 0, pos, row.data());
    kv.Advance(0);
  }
  // Mid-block speculative rollback: no whole blocks drop, but the rejected row inside the
  // kept partial tail block is poisoned while the still-live row stays intact.
  EXPECT_EQ(kv.TruncateSeq(0, 5), 0);
  EXPECT_EQ(ReadElem(kv, false, 0, 0, 4), 5.0f);
  EXPECT_TRUE(std::isnan(ReadElem(kv, false, 0, 0, 5)));
}
#endif

#ifndef NDEBUG
TEST(PagedKvCacheTest, FreedBlocksArePoisonedWithNanInDebug) {
  PagedKvCache kv(1, 4, 1, 64, /*block_tokens=*/4);
  WriteRow0(kv, false, 0, 0, 0, 3.0f);
  kv.Advance(0);
  const int block = kv.BlockIdForTest(0, 0);
  const auto first_key = [&] {
    uint16_t bits;
    std::memcpy(&bits, kv.BlockBytesForTest(block), 2);
    return F16::FromBits(bits).ToFloat();
  };
  EXPECT_EQ(first_key(), 3.0f);
  kv.ResetSeq(0);
  // The storage the stale table entry referenced is NaN-filled: a use-after-free of
  // reclaimed KV rows corrupts attention loudly instead of silently reusing old values.
  EXPECT_TRUE(std::isnan(first_key()));
}
#endif

}  // namespace
}  // namespace hkv

namespace hserve {
namespace {

ServeJob Job(int id, int decode, int group = -1, int prompt = 0, int context = 0,
             int barrier = 0, int parent = -1) {
  ServeJob j;
  j.id = id;
  j.prompt_group = group;
  j.prompt_tokens = prompt;
  j.context_tokens = context;
  j.decode_tokens = decode;
  j.barrier = barrier;
  j.parent_job = parent;
  return j;
}

void ExpectStatsEqual(const hkv::KvStats& a, const hkv::KvStats& b) {
  EXPECT_EQ(a.block_tokens, b.block_tokens);
  EXPECT_EQ(a.bytes_per_block, b.bytes_per_block);
  EXPECT_EQ(a.physical_blocks, b.physical_blocks);
  EXPECT_EQ(a.peak_physical_blocks, b.peak_physical_blocks);
  EXPECT_EQ(a.logical_blocks, b.logical_blocks);
  EXPECT_EQ(a.peak_logical_blocks, b.peak_logical_blocks);
  EXPECT_EQ(a.cow_splits, b.cow_splits);
}

class ServingKvTest : public ::testing::Test {
 protected:
  ServingKvTest()
      : config_(hllm::ToyConfig()),
        weights_(hllm::ModelWeights::Random(config_, 42)),
        dev_(hexsim::OnePlus12()) {
    toy_options_.model = &config_;
    toy_options_.device = &hexsim::OnePlus12();
    toy_engine_ = std::make_unique<hrt::Engine>(toy_options_);
  }

  // A beam-search-shaped fork stream: `rounds` expansion waves over one prompt group, each
  // candidate forking a kept stem of the previous round.
  static std::vector<ServeJob> BeamForkStream(int prompt, int rounds, int width,
                                              int expansion, int step_tokens) {
    std::vector<ServeJob> jobs;
    std::vector<int> prev;
    for (int r = 0; r < rounds; ++r) {
      std::vector<int> cur;
      for (int c = 0; c < width * expansion; ++c) {
        const int id = static_cast<int>(jobs.size());
        const int parent = r > 0 ? prev[static_cast<size_t>(c / expansion)] : -1;
        jobs.push_back(Job(id, step_tokens, /*group=*/0, prompt,
                           /*context=*/r * step_tokens, /*barrier=*/r, parent));
        cur.push_back(id);
      }
      prev = std::move(cur);
    }
    return jobs;
  }

  hllm::ModelConfig config_;
  hllm::ModelWeights weights_;
  hexsim::NpuDevice dev_;
  hrt::EngineOptions toy_options_;
  std::unique_ptr<hrt::Engine> toy_engine_;
};

TEST_F(ServingKvTest, ForkContinuationMatchesUnforkedDecodeTokenForToken) {
  // Zero re-prefill, verified on real numerics: a job that decodes 8 tokens must produce
  // the SAME tokens as a parent decoding 4 followed by a fork child decoding 4 more off the
  // parent's retained KV. Any re-prefill drift or CoW corruption breaks the equality.
  ServeOptions so;
  so.max_batch = 1;
  const std::vector<ServeJob> whole = {Job(0, 8, /*group=*/0, /*prompt=*/8)};
  const std::vector<ServeJob> forked = {
      Job(0, 4, 0, 8, 0, /*barrier=*/0),
      Job(1, 4, 0, 8, /*context=*/4, /*barrier=*/1, /*parent=*/0),
  };

  hexsim::NpuDevice dev1(hexsim::OnePlus12());
  FunctionalBackend b1(dev1, weights_, so.max_batch, /*max_context=*/64);
  const ScheduleResult rw = ContinuousBatcher(b1, so).Run(whole);
  ASSERT_TRUE(rw.error.empty()) << rw.error;

  hexsim::NpuDevice dev2(hexsim::OnePlus12());
  FunctionalBackend b2(dev2, weights_, so.max_batch, /*max_context=*/64);
  const ScheduleResult rf = ContinuousBatcher(b2, so).Run(forked);
  ASSERT_TRUE(rf.error.empty()) << rf.error;

  EXPECT_EQ(rf.forked_admissions, 1);
  EXPECT_EQ(rf.prefilled_tokens, 8);  // the prompt, once; the fork re-prefilled nothing
  EXPECT_EQ(rw.prefill_s, rf.prefill_s);
  std::vector<int> stitched = rf.job_tokens.at(0);
  stitched.insert(stitched.end(), rf.job_tokens.at(1).begin(), rf.job_tokens.at(1).end());
  EXPECT_EQ(stitched, rw.job_tokens.at(0));
}

TEST_F(ServingKvTest, SiblingForksShareOneStemWithoutCrossCorruption) {
  // Two children fork the same parent and decode in the same batch. Each child's first
  // divergent append CoW-splits the shared tail; if either write leaked into the shared
  // blocks, the siblings' (deterministic) continuations would differ from the lone-child
  // reference computed above.
  ServeOptions so;
  so.max_batch = 2;
  const std::vector<ServeJob> jobs = {
      Job(0, 4, 0, 8, 0, 0),
      Job(1, 4, 0, 8, 4, 1, /*parent=*/0),
      Job(2, 4, 0, 8, 4, 1, /*parent=*/0),
  };
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  FunctionalBackend backend(dev, weights_, so.max_batch, 64);
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.forked_admissions, 2);
  // Same stem + deterministic argmax decode => identical sibling continuations.
  EXPECT_EQ(r.job_tokens.at(1), r.job_tokens.at(2));
  // Both siblings CoW-split the retained stem block on their first divergent append (the
  // whole 12-token stem fits in one 32-position block, so sharing here is sub-block).
  EXPECT_EQ(r.kv.cow_splits, 2);
  EXPECT_EQ(r.prefilled_tokens, 8);  // the stem's prompt was never re-prefilled
}

TEST_F(ServingKvTest, ForkHeavyBeamStreamHasBackendBlockParity) {
  // One fork-heavy stream through both backends: scheduling must agree AND the storage-free
  // analytic accountant must report bit-identical block statistics to the real paged cache.
  const std::vector<ServeJob> jobs =
      BeamForkStream(/*prompt=*/8, /*rounds=*/3, /*width=*/2, /*expansion=*/2,
                     /*step_tokens=*/4);
  ServeOptions so;
  so.max_batch = 4;
  so.record_steps = true;

  AnalyticBackend analytic(*toy_engine_);
  const ScheduleResult ra = ContinuousBatcher(analytic, so).Run(jobs);
  ASSERT_TRUE(ra.error.empty()) << ra.error;

  FunctionalBackend functional(dev_, weights_, so.max_batch, /*max_context=*/64);
  const ScheduleResult rf = ContinuousBatcher(functional, so).Run(jobs);
  ASSERT_TRUE(rf.error.empty()) << rf.error;

  EXPECT_EQ(ra.steps, rf.steps);
  EXPECT_EQ(ra.decoded_tokens, rf.decoded_tokens);
  EXPECT_EQ(ra.forked_admissions, rf.forked_admissions);
  EXPECT_EQ(ra.forked_admissions, 8);  // rounds 1..2, 4 candidates each
  EXPECT_EQ(ra.step_active, rf.step_active);
  ASSERT_EQ(ra.admissions.size(), rf.admissions.size());
  for (size_t i = 0; i < ra.admissions.size(); ++i) {
    EXPECT_EQ(ra.admissions[i].job_id, rf.admissions[i].job_id) << i;
    EXPECT_EQ(ra.admissions[i].slot, rf.admissions[i].slot) << i;
    EXPECT_EQ(ra.admissions[i].step, rf.admissions[i].step) << i;
  }
  ExpectStatsEqual(ra.kv, rf.kv);
  // The whole group shares one prompt: charged once, and fork admissions re-prefill zero
  // tokens in both backends (prefill time == the single prompt's chunked prefill).
  EXPECT_EQ(ra.prefilled_tokens, 8);
  EXPECT_EQ(rf.prefilled_tokens, 8);
  EXPECT_GT(rf.kv.cow_splits, 0);  // stems really were shared, then diverged
}

// What one live serving session did, step by step: lifecycle events and the KV book's
// statistics after every step, plus the run's admission record.
struct LiveSessionTrace {
  std::vector<std::vector<int>> admitted, paused, completed;
  std::vector<hkv::KvStats> kv;
  ScheduleResult result;
};

// A scripted live stream with KV pressure (a `pool_blocks` budget), preemption, prompt-group
// sharing and retain_kv session turns forking off completed turns.
LiveSessionTrace DriveLiveSessions(ExecutionBackend& backend) {
  ServeOptions so;
  so.max_batch = 3;
  so.enable_preemption = true;
  ContinuousBatcher batcher(backend, so);
  const auto submit = [&](ServeJob job, int priority, bool retain) {
    job.priority = priority;
    job.retain_kv = retain;
    std::string error;
    EXPECT_TRUE(batcher.Submit(job, &error)) << error;
  };
  submit(Job(0, 24, -1, 40), 0, /*retain=*/true);  // session turn 1
  submit(Job(1, 40, -1, 20), 0, false);
  submit(Job(2, 16, /*group=*/7, 33), 0, false);
  submit(Job(3, 16, /*group=*/7, 33), 0, false);
  bool turn2 = false;
  bool turn3 = false;
  LiveSessionTrace t;
  for (int step = 0; step < 400 && (batcher.HasWork() || !turn3); ++step) {
    if (step == 4) {
      submit(Job(4, 8, -1, 10), 3, false);  // outranks everything running: preempts
    }
    if (!turn2 && batcher.job_state(0) == JobState::kDone) {
      submit(Job(5, 12, -1, /*prompt=*/40 + 24 + 6, 0, 0, /*parent=*/0), 1, true);
      turn2 = true;
    }
    if (turn2 && !turn3 && batcher.job_state(5) == JobState::kDone) {
      submit(Job(6, 8, -1, /*prompt=*/70 + 12 + 5, 0, 0, /*parent=*/5), 0, false);
      batcher.ReleaseRetained(0);
      turn3 = true;
    }
    const StepEvents ev = batcher.Step();
    t.admitted.push_back(ev.admitted);
    t.paused.push_back(ev.paused);
    t.completed.push_back(ev.completed);
    t.kv.push_back(backend.kv_stats());
  }
  batcher.ReleaseRetained(5);
  t.result = batcher.Finish();
  return t;
}

TEST_F(ServingKvTest, LiveSessionStreamHasBackendBlockParityAfterEveryStep) {
  // The live Submit/Step path — preemption, resume, group sharing and retain_kv session
  // forks under a tight KV budget — through both backends: the same admit/pause/resume/
  // deferral decisions, and bit-identical block statistics after every single step.
  constexpr int kPoolBlocks = 8;
  AnalyticBackend::Options bo;
  bo.kv_budget_bytes = kPoolBlocks * config_.KvCacheBytes(hkv::kDefaultBlockTokens);
  AnalyticBackend analytic(*toy_engine_, bo);
  FunctionalBackend functional(dev_, weights_, /*max_batch=*/3, /*max_context=*/128,
                               kPoolBlocks);
  const LiveSessionTrace a = DriveLiveSessions(analytic);
  const LiveSessionTrace f = DriveLiveSessions(functional);
  ASSERT_TRUE(a.result.error.empty()) << a.result.error;
  ASSERT_TRUE(f.result.error.empty()) << f.result.error;

  ASSERT_EQ(a.kv.size(), f.kv.size());
  for (size_t i = 0; i < a.kv.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(a.admitted[i], f.admitted[i]);
    EXPECT_EQ(a.paused[i], f.paused[i]);
    EXPECT_EQ(a.completed[i], f.completed[i]);
    ExpectStatsEqual(a.kv[i], f.kv[i]);
  }
  ASSERT_EQ(a.result.admissions.size(), f.result.admissions.size());
  for (size_t i = 0; i < a.result.admissions.size(); ++i) {
    EXPECT_EQ(a.result.admissions[i].job_id, f.result.admissions[i].job_id) << i;
    EXPECT_EQ(a.result.admissions[i].slot, f.result.admissions[i].slot) << i;
    EXPECT_EQ(a.result.admissions[i].step, f.result.admissions[i].step) << i;
    EXPECT_EQ(a.result.admissions[i].resumed, f.result.admissions[i].resumed) << i;
  }
  EXPECT_EQ(a.result.admission_deferrals, f.result.admission_deferrals);
  EXPECT_EQ(a.result.preemptions, f.result.preemptions);
  EXPECT_EQ(a.result.resumes, f.result.resumes);
  // The stream really exercised every path it claims to.
  EXPECT_GT(f.result.admission_deferrals, 0);
  EXPECT_GT(f.result.preemptions, 0);
  EXPECT_GT(f.result.resumes, 0);
  EXPECT_EQ(f.result.forked_admissions, 2);
  EXPECT_GT(f.result.kv.cow_splits, 0);
  EXPECT_EQ(f.result.completions.size(), 7u);
  EXPECT_EQ(f.result.kv.physical_blocks, 0);  // every block came back
}

TEST_F(ServingKvTest, WindowedResumeFitsWheneverAFreshAdmissionWould) {
  // With a sliding window, admission prices only the resident working set (sinks + window
  // + the active block). Resume must follow the same reservation rule: whenever a fresh,
  // unshared admission of the same context and decode length fits, the paused job — whose
  // pages are already resident — fits too.
  constexpr int kContext = 1024;
  constexpr int kDecode = 512;
  int fitting_budgets = 0;
  for (int budget_blocks = 33; budget_blocks <= 64; ++budget_blocks) {
    AnalyticBackend::Options bo;
    bo.kv_budget_bytes = budget_blocks * config_.KvCacheBytes(hkv::kDefaultBlockTokens);
    bo.attn_window.sink_blocks = 1;
    bo.attn_window.window_blocks = 2;
    AnalyticBackend backend(*toy_engine_, bo);
    const ServeJob paused = Job(0, kDecode, -1, kContext);
    backend.AdmitSlot(/*slot=*/0, paused, kContext, /*charged_prefill_tokens=*/0);
    backend.PauseSlot(/*slot=*/0, paused.id);
    if (backend.CanAdmit(Job(1, kDecode, -1, kContext), kContext)) {
      EXPECT_TRUE(backend.CanResume(paused.id)) << "budget " << budget_blocks << " blocks";
      ++fitting_budgets;
    }
  }
  EXPECT_GT(fitting_budgets, 0);
}

TEST_F(ServingKvTest, PoisonedRunLeavesBothBackendsReusable) {
  // A KV budget below the retained beam stems poisons the run mid-stream: the next round's
  // fork cannot fit into an empty batch. The backend must come out of that run clean —
  // Run({}) reports no live block, and re-running the stream reproduces the same error
  // instead of aborting on the failed run's leftover slots, stems and anchors.
  const std::vector<ServeJob> jobs =
      BeamForkStream(/*prompt=*/8, /*rounds=*/3, /*width=*/2, /*expansion=*/2,
                     /*step_tokens=*/40);
  constexpr int kBudgetBlocks = 5;
  ServeOptions so;
  so.max_batch = 4;
  AnalyticBackend::Options bo;
  bo.kv_budget_bytes = kBudgetBlocks * config_.KvCacheBytes(hkv::kDefaultBlockTokens);
  AnalyticBackend analytic(*toy_engine_, bo);
  FunctionalBackend functional(dev_, weights_, so.max_batch, /*max_context=*/128,
                               kBudgetBlocks);
  for (ExecutionBackend* backend : std::vector<ExecutionBackend*>{&analytic, &functional}) {
    SCOPED_TRACE(backend->name());
    ContinuousBatcher batcher(*backend, so);
    const ScheduleResult first = batcher.Run(jobs);
    ASSERT_NE(first.error.find("KV budget"), std::string::npos) << first.error;
    EXPECT_GT(first.kv.physical_blocks, 0);  // retained stems were live when it failed
    const ScheduleResult empty = batcher.Run({});
    EXPECT_TRUE(empty.error.empty()) << empty.error;
    EXPECT_EQ(empty.kv.physical_blocks, 0);
    EXPECT_EQ(batcher.Run(jobs).error, first.error);
    EXPECT_EQ(batcher.Run(jobs).error, first.error);  // straight after a poisoned run
  }
}

TEST_F(ServingKvTest, SmallKvPoolDefersAdmissionInsteadOfDeadlocking) {
  // Pool of 4 blocks (block = 32 positions); each job needs 2 blocks (decode 33 from empty
  // context), so only two jobs fit at once. The batcher must defer the rest and still
  // complete everything.
  ServeOptions so;
  so.max_batch = 4;
  so.record_steps = true;
  std::vector<ServeJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(Job(i, 33));
  }
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  FunctionalBackend backend(dev, weights_, so.max_batch, /*max_context=*/64,
                            /*kv_pool_blocks=*/4);
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(static_cast<int>(r.completions.size()), 4);
  for (const int occ : r.step_occupied) {
    EXPECT_LE(occ, 2);  // the pool, not max_batch, bounds concurrency here
  }
  EXPECT_LE(r.kv.peak_physical_blocks, 4);
}

TEST_F(ServingKvTest, KvBudgetTooSmallForOneJobReportsError) {
  AnalyticBackend::Options bo;
  bo.kv_budget_bytes = config_.KvCacheBytes(hkv::kDefaultBlockTokens);  // exactly 1 block
  AnalyticBackend backend(*toy_engine_, bo);
  ServeOptions so;
  so.max_batch = 2;
  const ScheduleResult r =
      ContinuousBatcher(backend, so).Run({Job(0, /*decode=*/64)});  // needs 2 blocks
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("KV budget"), std::string::npos);
  EXPECT_EQ(r.completions.size(), 0u);
}

TEST_F(ServingKvTest, BestOfNSharingMeetsThePaperMemoryBound) {
  // Best-of-N N=8 over one prompt: physical KV must stay within
  // (1 + N * decode_frac) x dense-single-sequence bytes — the prompt is stored once, only
  // the N decode tails are private. P and D are block multiples so the bound is exact.
  constexpr int kN = 8;
  constexpr int kPrompt = 1024;
  constexpr int kDecode = 256;
  ServeOptions so;
  so.max_batch = kN;
  std::vector<ServeJob> shared_jobs;
  std::vector<ServeJob> dense_jobs;
  for (int i = 0; i < kN; ++i) {
    shared_jobs.push_back(Job(i, kDecode, /*group=*/0, kPrompt));
    dense_jobs.push_back(Job(i, kDecode, /*group=*/-1, kPrompt));
  }
  AnalyticBackend shared_backend(*toy_engine_);
  const ScheduleResult rs = ContinuousBatcher(shared_backend, so).Run(shared_jobs);
  ASSERT_TRUE(rs.error.empty()) << rs.error;
  AnalyticBackend dense_backend(*toy_engine_);
  const ScheduleResult rd = ContinuousBatcher(dense_backend, so).Run(dense_jobs);
  ASSERT_TRUE(rd.error.empty()) << rd.error;

  const double decode_frac =
      static_cast<double>(kDecode) / static_cast<double>(kPrompt + kDecode);
  const int64_t dense_single =
      config_.KvCacheBytes(kPrompt + kDecode);  // one dense sequence, FP16 K+V
  const double bound = (1.0 + kN * decode_frac) * static_cast<double>(dense_single);
  EXPECT_LE(static_cast<double>(rs.kv.peak_physical_bytes()), bound);
  // Sanity on both sides: without grouping every sample stores the prompt privately.
  EXPECT_EQ(rd.kv.peak_physical_bytes(), int64_t{kN} * dense_single);
  EXPECT_EQ(rs.kv.peak_logical_bytes(), rd.kv.peak_logical_bytes());
  // Concretely: P + N*D blocks vs N*(P+D) blocks => >3x saving at these shapes.
  EXPECT_LT(3 * rs.kv.peak_physical_blocks, rd.kv.peak_physical_blocks);
}

TEST_F(ServingKvTest, MalformedJobsReportErrorsInsteadOfAborting) {
  AnalyticBackend backend(*toy_engine_);
  ServeOptions so;
  so.max_batch = 2;
  ContinuousBatcher batcher(backend, so);

  {  // decode must be positive
    const ScheduleResult r = batcher.Run({Job(0, 0)});
    EXPECT_NE(r.error.find("decode_tokens"), std::string::npos);
  }
  {  // negative lengths
    ServeJob j = Job(0, 4);
    j.prompt_tokens = -1;
    EXPECT_FALSE(batcher.Run({j}).error.empty());
  }
  {  // context overflow vs the backend's limit
    const ScheduleResult r = batcher.Run({Job(0, 8, -1, 0, /*context=*/1 << 20)});
    EXPECT_NE(r.error.find("context limit"), std::string::npos);
  }
  {  // fork edges: unknown parent, self-fork via duplicate ids, same-barrier parent,
     // context mismatch
    EXPECT_NE(batcher.Run({Job(1, 4, 0, 0, 0, 1, /*parent=*/99)}).error.find("not in"),
              std::string::npos);
    EXPECT_FALSE(batcher
                     .Run({Job(0, 4, 0, 8, 0, 0),
                           Job(0, 4, 0, 8, 4, 1, /*parent=*/0)})  // duplicate id
                     .error.empty());
    EXPECT_NE(batcher
                  .Run({Job(0, 4, 0, 8, 0, 0), Job(1, 4, 0, 8, 4, /*barrier=*/0,
                                                   /*parent=*/0)})
                  .error.find("earlier barrier"),
              std::string::npos);
    EXPECT_NE(batcher
                  .Run({Job(0, 4, 0, 8, 0, 0), Job(1, 4, 0, 8, /*context=*/2, 1,
                                                   /*parent=*/0)})
                  .error.find("final KV length"),
              std::string::npos);
    EXPECT_NE(batcher
                  .Run({Job(0, 4, 0, 8, 0, 0), Job(1, 4, /*group=*/-1, 8, 4, 1,
                                                   /*parent=*/0)})
                  .error.find("prompt_group"),
              std::string::npos);
  }
  // A well-formed stream on the same batcher still runs (no poisoned state).
  const ScheduleResult ok = batcher.Run({Job(0, 4, 0, 8, 0, 0), Job(1, 4, 0, 8, 4, 1, 0)});
  EXPECT_TRUE(ok.error.empty()) << ok.error;
  EXPECT_EQ(ok.completions.size(), 2u);
}

// --- quantized KV through the serving stack (docs/kv_quantization.md) ---

TEST_F(ServingKvTest, QuantizedKvKeepsBackendBlockParityAndShrinksBytes) {
  // The analytic accountant never stores a byte, yet under INT4 it must agree with the
  // functional paged cache on every block statistic — and both must charge the quantized
  // bytes_per_block (toy config: 36 bytes/row vs 128 F16, exactly 32/9).
  const std::vector<ServeJob> jobs =
      BeamForkStream(/*prompt=*/8, /*rounds=*/3, /*width=*/2, /*expansion=*/2,
                     /*step_tokens=*/4);
  ServeOptions so;
  so.max_batch = 4;

  AnalyticBackend::Options bo;
  bo.kv_dtype = hquant::KvDtype::kInt4;
  AnalyticBackend analytic(*toy_engine_, bo);
  const ScheduleResult ra = ContinuousBatcher(analytic, so).Run(jobs);
  ASSERT_TRUE(ra.error.empty()) << ra.error;

  FunctionalBackend functional(dev_, weights_, so.max_batch, /*max_context=*/64,
                               /*kv_pool_blocks=*/0, hquant::KvDtype::kInt4);
  const ScheduleResult rf = ContinuousBatcher(functional, so).Run(jobs);
  ASSERT_TRUE(rf.error.empty()) << rf.error;

  EXPECT_EQ(functional.kv_dtype(), hquant::KvDtype::kInt4);
  EXPECT_EQ(analytic.kv_dtype(), hquant::KvDtype::kInt4);
  ExpectStatsEqual(ra.kv, rf.kv);
  EXPECT_EQ(rf.kv.bytes_per_block,
            config_.KvCacheBytes(rf.kv.block_tokens, hquant::KvDtype::kInt4));

  // Same stream in F16: identical block counts (quantization changes bytes, not paging),
  // with the documented 32/9 byte ratio, and identical token streams modulo the logit
  // delta the quantization introduces (checked small below via the exported proxy).
  hexsim::NpuDevice dev2(hexsim::OnePlus12());
  FunctionalBackend f16(dev2, weights_, so.max_batch, /*max_context=*/64);
  const ScheduleResult r16 = ContinuousBatcher(f16, so).Run(jobs);
  ASSERT_TRUE(r16.error.empty()) << r16.error;
  EXPECT_EQ(r16.kv.peak_physical_blocks, rf.kv.peak_physical_blocks);
  EXPECT_EQ(r16.kv.cow_splits, rf.kv.cow_splits);
  EXPECT_EQ(rf.kv.bytes_per_block * 32, r16.kv.bytes_per_block * 9);

  // The quantized run exports its dtype and round-trip error proxy; F16 exports neither.
  bool found = false;
  EXPECT_EQ(rf.metrics.GaugeValue("kv.dtype", "int4", &found), 4.0);
  EXPECT_TRUE(found);
  const double rel_rms = rf.metrics.GaugeValue("kv.quant.rel_rms", {}, &found);
  EXPECT_TRUE(found);
  EXPECT_GT(rel_rms, 0.0);
  EXPECT_LT(rel_rms, 2e-1);  // the documented INT4 bound
  r16.metrics.GaugeValue("kv.dtype", "f16", &found);
  EXPECT_FALSE(found);
}

TEST_F(ServingKvTest, QuantizedForkContinuationMatchesUnforkedDecodeTokenForToken) {
  // The fork-equals-continuous guarantee must survive quantized KV: the child attends to
  // the parent's retained *quantized* blocks, and the continuous run wrote the identical
  // quantized rows, so the argmax token streams stitch exactly.
  ServeOptions so;
  so.max_batch = 1;
  const std::vector<ServeJob> whole = {Job(0, 8, /*group=*/0, /*prompt=*/8)};
  const std::vector<ServeJob> forked = {
      Job(0, 4, 0, 8, 0, /*barrier=*/0),
      Job(1, 4, 0, 8, /*context=*/4, /*barrier=*/1, /*parent=*/0),
  };

  hexsim::NpuDevice dev1(hexsim::OnePlus12());
  FunctionalBackend b1(dev1, weights_, so.max_batch, /*max_context=*/64,
                       /*kv_pool_blocks=*/0, hquant::KvDtype::kInt4);
  const ScheduleResult rw = ContinuousBatcher(b1, so).Run(whole);
  ASSERT_TRUE(rw.error.empty()) << rw.error;

  hexsim::NpuDevice dev2(hexsim::OnePlus12());
  FunctionalBackend b2(dev2, weights_, so.max_batch, /*max_context=*/64,
                       /*kv_pool_blocks=*/0, hquant::KvDtype::kInt4);
  const ScheduleResult rf = ContinuousBatcher(b2, so).Run(forked);
  ASSERT_TRUE(rf.error.empty()) << rf.error;

  EXPECT_EQ(rf.forked_admissions, 1);
  EXPECT_EQ(rf.prefilled_tokens, 8);
  std::vector<int> stitched = rf.job_tokens.at(0);
  stitched.insert(stitched.end(), rf.job_tokens.at(1).begin(), rf.job_tokens.at(1).end());
  EXPECT_EQ(stitched, rw.job_tokens.at(0));
}

TEST_F(ServingKvTest, ExplicitF16BackendMatchesDefaultTokenForToken) {
  // The serving-level F16 identity guard: passing kF16 explicitly takes exactly the legacy
  // code path, so token streams (and block stats) match the defaulted backend bit for bit.
  const std::vector<ServeJob> jobs =
      BeamForkStream(/*prompt=*/8, /*rounds=*/2, /*width=*/2, /*expansion=*/2,
                     /*step_tokens=*/4);
  ServeOptions so;
  so.max_batch = 4;
  hexsim::NpuDevice dev1(hexsim::OnePlus12());
  FunctionalBackend def(dev1, weights_, so.max_batch, /*max_context=*/64);
  const ScheduleResult rd = ContinuousBatcher(def, so).Run(jobs);
  ASSERT_TRUE(rd.error.empty()) << rd.error;
  hexsim::NpuDevice dev2(hexsim::OnePlus12());
  FunctionalBackend exp(dev2, weights_, so.max_batch, /*max_context=*/64,
                        /*kv_pool_blocks=*/0, hquant::KvDtype::kF16);
  const ScheduleResult re = ContinuousBatcher(exp, so).Run(jobs);
  ASSERT_TRUE(re.error.empty()) << re.error;
  EXPECT_EQ(def.kv_dtype(), hquant::KvDtype::kF16);
  EXPECT_EQ(rd.job_tokens, re.job_tokens);
  ExpectStatsEqual(rd.kv, re.kv);
}

}  // namespace
}  // namespace hserve
