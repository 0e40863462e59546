#include "src/kernels/mixed_gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/exec/thread_pool.h"
#include "src/quant/codebooks.h"
#include "src/quant/group_quant.h"
#include "src/quant/tile_quant.h"

namespace hkern {

using hexllm::F16;
using hexllm::RoundToF16;
using hexsim::HvxContext;
using hexsim::HvxVec;
using hexsim::HvxVecPair;

double DequantPacketsPer64(const hexsim::DeviceProfile& profile, DequantKernel k,
                           hquant::WeightScheme scheme) {
  const bool q8 = scheme == hquant::WeightScheme::kQ8_0;
  // Q4: conventional mask-unpack-convert sequence for 64 elements (2 groups): load+align(2),
  // nibble extraction(3), widen/sub(2), int->FP16 convert(1), scale splats(2), multiply(1),
  // store(1), plus 2 qfloat conversions on <V79 (Figure 9 left).
  // Q8: no nibble extraction, but two payload loads per 64 outputs.
  const double conventional =
      q8 ? (profile.native_ieee_fp16 ? 7.0 : 8.0) : (profile.native_ieee_fp16 ? 10.0 : 12.0);
  switch (k) {
    case DequantKernel::kBaselineScatter:
      // Conventional unpack + offset setup (2) + one vscatter per 64 halfwords.
      return conventional + 2.0 + static_cast<double>(profile.vgather_packets + 8);
    case DequantKernel::kHmxLayout:
      return conventional;
    case DequantKernel::kCoalescedLut:
      // Q4: 17 packets per 256-element super-block (see DequantCoalescedLut).
      // Q8: widen + scale-broadcast lut + multiply + store per 64: ~3.
      return q8 ? 3.0 : 17.0 / 4.0;
    case DequantKernel::kNoDequant:
      return 0.0;
  }
  return 0.0;
}

int64_t DequantCoalescedLut(hexsim::NpuDevice& dev, std::span<const hquant::SuperBlockQ4> sbs,
                            F16* out_tcm, hquant::Int4Codebook codebook) {
  HEXLLM_CHECK(dev.tcm().Contains(out_tcm));
  dev.ledger().AddCount(hexsim::Counter::kDequantCoalescedLutCalls);
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();
  const auto levels = hquant::CodebookLevelsF16(codebook);

  // Super-blocks are independent (each writes a disjoint 256-element slice of out_tcm), so
  // they parallelize over slots; the parent packet delta after the shard merge still equals
  // the serial 17*n + 4 because the 4 hoisted-constant packets are charged on slot 0 only —
  // the other lanes replicate the constant registers chargelessly (on hardware the hoists
  // are emitted once, not per HVX thread).
  if (sbs.empty()) {
    // Hoisted constants are still emitted on an empty call, matching the serial kernel.
    ctx.VSplatB(0x0F);
    ctx.Charge(3);
    return ctx.issued() - start;
  }
  const int slots = hexec::PlannedSlots(static_cast<int64_t>(sbs.size()));
  dev.EnsureShards(slots);
  hexec::ParallelFor(
      static_cast<int64_t>(sbs.size()),
      [&](int64_t si_begin, int64_t si_end, int slot) {
        HvxContext& sctx = dev.ForSlot(slot).hvx();

        // Hoisted constants: nibble mask, the level table, and the two scale-broadcast
        // index patterns (§5.2.2's "predefined constant indices"). Swapping the codebook
        // only changes the 16 halfwords loaded into level_table — no code or cost change.
        HvxVec nib_mask{};
        if (slot == 0) {
          nib_mask = sctx.VSplatB(0x0F);
        } else {
          for (int j = 0; j < HvxVec::kBytes; ++j) {
            nib_mask.b[static_cast<size_t>(j)] = 0x0F;
          }
        }
        HvxVec level_table{};
        for (int i = 0; i < 16; ++i) {
          level_table.SetU16(i, levels[static_cast<size_t>(i)]);
        }
        HvxVec scale_idx_a{};
        HvxVec scale_idx_b{};
        for (int j = 0; j < HvxVec::kBytes; ++j) {
          scale_idx_a.b[static_cast<size_t>(j)] = static_cast<uint8_t>(j / 32);
          scale_idx_b.b[static_cast<size_t>(j)] = static_cast<uint8_t>(4 + j / 32);
        }
        if (slot == 0) {
          sctx.Charge(1);  // table load
          sctx.Charge(2);  // pattern loads
        }

        for (int64_t si = si_begin; si < si_end; ++si) {
          const hquant::SuperBlockQ4& sb = sbs[static_cast<size_t>(si)];
          HvxVec qs;
          std::memcpy(qs.b.data(), sb.qs, 128);
          sctx.Charge(1);  // payload load (128 B, exactly one register — §5.1.2)

          const HvxVec idx_lo = sctx.VAnd(qs, nib_mask);
          const HvxVec idx_hi = sctx.VAnd(sctx.VShrH(qs, 4), nib_mask);
          const HvxVecPair lev_lo = sctx.VLut16(idx_lo, level_table);  // elements 0..127
          const HvxVecPair lev_hi = sctx.VLut16(idx_hi, level_table);  // elements 128..255

          HvxVec scales_reg{};
          for (int g = 0; g < hquant::SuperBlockQ4::kGroups; ++g) {
            scales_reg.SetU16(g, sb.scales[g].bits());
          }
          sctx.Charge(1);  // scales load
          const HvxVecPair sc_a = sctx.VLut16(scale_idx_a, scales_reg);  // groups 0..3
          const HvxVecPair sc_b = sctx.VLut16(scale_idx_b, scales_reg);  // groups 4..7

          // Table outputs are IEEE FP16 bit patterns (a permute, not an FP op), so no
          // qfloat conversion is needed — the Figure 9 advantage.
          const HvxVec o0 = sctx.VMpyHf(lev_lo.lo, sc_a.lo);
          const HvxVec o1 = sctx.VMpyHf(lev_lo.hi, sc_a.hi);
          const HvxVec o2 = sctx.VMpyHf(lev_hi.lo, sc_b.lo);
          const HvxVec o3 = sctx.VMpyHf(lev_hi.hi, sc_b.hi);

          F16* out = out_tcm + si * hquant::SuperBlockQ4::kElems;
          sctx.Store(out, o0);
          sctx.Store(out + 64, o1);
          sctx.Store(out + 128, o2);
          sctx.Store(out + 192, o3);
        }
      },
      slots);
  dev.MergeShards();
  return ctx.issued() - start;
}

int64_t DequantHmxLayout(hexsim::NpuDevice& dev, std::span<const hquant::BlockQ4_0> blocks,
                         F16* out_tcm) {
  HEXLLM_CHECK(dev.tcm().Contains(out_tcm));
  HEXLLM_CHECK(blocks.size() % 2 == 0);
  dev.ledger().AddCount(hexsim::Counter::kDequantHmxLayoutCalls);
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();
  const int64_t per64 =
      static_cast<int64_t>(DequantPacketsPer64(dev.profile(), DequantKernel::kHmxLayout));

  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    // Conventional unpack sequence, values written contiguously (tile-group stream order
    // already matches the HMX layout). Numerics: level and scale multiply in FP16.
    const hquant::BlockQ4_0& b = blocks[bi];
    const float d = b.d.ToFloat();
    F16* out = out_tcm + bi * hquant::kGroupSize;
    for (int i = 0; i < hquant::kGroupSize; ++i) {
      const int half = hquant::kGroupSize / 2;
      const int nib = (i < half) ? (b.qs[i % half] & 0x0F) : (b.qs[i % half] >> 4);
      out[i] = F16(RoundToF16(static_cast<float>(nib - 8) * d));
    }
    if (bi % 2 == 1) {
      ctx.Charge(per64);
    }
  }
  return ctx.issued() - start;
}

int64_t DequantBaselineScatter(hexsim::NpuDevice& dev,
                               std::span<const hquant::BlockQ4_0> blocks, int64_t k_dim,
                               int64_t n_dim, F16* out_tcm) {
  HEXLLM_CHECK(dev.tcm().Contains(out_tcm));
  HEXLLM_CHECK(static_cast<int64_t>(blocks.size()) * hquant::kGroupSize == k_dim * n_dim);
  HEXLLM_CHECK(k_dim % 64 == 0);
  dev.ledger().AddCount(hexsim::Counter::kDequantBaselineScatterCalls);
  HvxContext& ctx = dev.hvx();
  hexllm::Arena& tcm = dev.tcm();
  const int64_t start = ctx.issued();
  const int64_t out_base = tcm.OffsetOf(out_tcm);
  const int64_t conv =
      static_cast<int64_t>(DequantPacketsPer64(dev.profile(), DequantKernel::kHmxLayout));

  // Conventional blocks: column-major, groups of 32 along K. Each 64-element span (2 groups
  // of one column) is unpacked then scattered to its HMX stream positions.
  const int64_t blocks_per_col = k_dim / hquant::kGroupSize;
  for (int64_t n = 0; n < n_dim; ++n) {
    for (int64_t kb = 0; kb < blocks_per_col; kb += 2) {
      const int64_t k0 = kb * hquant::kGroupSize;
      HvxVec values{};
      HvxVec offsets{};
      // The 64 destinations span exactly two 32x32 tiles; vscatter's 16-bit offsets are
      // relative to the first tile's base.
      const int64_t first_stream = hquant::KnToHmxStream(k0, n, k_dim, n_dim);
      const int64_t window_base = out_base + (first_stream / hquant::kTileElems) *
                                                 hquant::kTileElems * 2;
      for (int i = 0; i < 64; ++i) {
        const hquant::BlockQ4_0& b = blocks[static_cast<size_t>(n * blocks_per_col + kb +
                                                                i / hquant::kGroupSize)];
        const float v = hquant::BlockQ4Value(b, i % hquant::kGroupSize);
        values.SetU16(i, hexllm::F32ToF16Bits(RoundToF16(v)));
        const int64_t stream = hquant::KnToHmxStream(k0 + i, n, k_dim, n_dim);
        const int64_t off = stream * 2 - window_base + out_base;
        HEXLLM_CHECK(off >= 0 && off < 65536);
        offsets.SetU16(i, static_cast<uint16_t>(off));
      }
      ctx.Charge(conv + 2);  // unpack sequence + offset pattern setup
      ctx.VScatterH(tcm, window_base, offsets, values);
    }
  }
  return ctx.issued() - start;
}

MixedGemmCost MixedGemmCostModel(const hexsim::DeviceProfile& profile, DequantKernel k,
                                 hquant::WeightScheme scheme, int m, int k_dim, int n,
                                 int threads) {
  MixedGemmCost cost;
  const double elems = static_cast<double>(k_dim) * n;
  const double weight_bytes = elems * hquant::WeightSchemeBpw(scheme) / 8.0;

  hexsim::CycleLedger scratch;
  hexsim::DmaEngine dma(profile, scratch);
  cost.dma_s = dma.Cost1D(static_cast<int64_t>(weight_bytes), hexsim::DmaDirection::kDdrToTcm);

  const double hz = profile.hvx_freq_ghz * 1e9;
  const double packets = elems / 64.0 * DequantPacketsPer64(profile, k, scheme);
  cost.hvx_busy_s = packets / hz;
  cost.hvx_latency_s = cost.hvx_busy_s / std::max(1, threads);

  if (k != DequantKernel::kNoDequant) {
    hexsim::HmxEngine hmx(profile);
    const int64_t tile_ops = static_cast<int64_t>(hexllm::CeilDiv(m, 32)) *
                             hexllm::CeilDiv(k_dim, 32) * hexllm::CeilDiv(n, 32);
    cost.hmx_s = hmx.TileOpsToSeconds(tile_ops);
    // Activation pack + output unpack on HVX.
    const double oh_packets = static_cast<double>(m) * k_dim / 1024.0 * 16.0 +
                              static_cast<double>(m) * n / 1024.0 * 4.0;
    cost.overhead_s = oh_packets / hz;
  }

  // Double-buffered schedule: weight DMA, HVX dequantization, and HMX consumption all
  // overlap strip-by-strip; the slowest stage is the pipeline bottleneck.
  cost.total_s =
      std::max({cost.dma_s, cost.hvx_latency_s, cost.hmx_s}) + cost.overhead_s;
  return cost;
}

}  // namespace hkern
