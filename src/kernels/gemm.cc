#include "src/kernels/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/exec/thread_pool.h"
#include "src/hexsim/hmx.h"

namespace hkern {

using hexllm::F16;
using hexsim::DmaDirection;
using hexsim::HmxEngine;
using hexsim::HvxContext;
using hexsim::HvxVec;

int64_t GemmF16HmxTileOps(int m, int k, int n) {
  return static_cast<int64_t>(hexllm::CeilDiv(m, 32)) * hexllm::CeilDiv(k, 32) *
         hexllm::CeilDiv(n, 32);
}

double GemmF16Hmx(hexsim::NpuDevice& dev, const F16* a, const F16* b_tiles, F16* c, int m,
                  int k, int n, bool operands_in_tcm, const float* b_decoded) {
  HEXLLM_CHECK(m >= 1 && k % 32 == 0 && n % 32 == 0);
  dev.ledger().AddCount(hexsim::Counter::kGemmHmxCalls);

  const int mt = static_cast<int>(hexllm::CeilDiv(m, 32));
  const int kt = k / 32;
  const int nt = n / 32;

  // Row-strips are independent: each ParallelFor slot runs the legacy strip loop against
  // its own shard device (private TCM scratch + counters), writing a disjoint slice of `c`.
  // The decomposition is deterministic and every output tile sees the identical op
  // sequence, so results and counters are bit-identical at any lane count.
  const int slots = hexec::PlannedSlots(mt);
  dev.EnsureShards(slots);
  // Per-slot accounting on the stack: steady-state decode GEMMs must not heap-allocate
  // (docs/performance.md). kMaxSlots comfortably exceeds any PlannedSlots value.
  constexpr int kMaxSlots = 256;
  HEXLLM_CHECK(slots <= kMaxSlots);
  double dma_by_slot[kMaxSlots] = {};
  int64_t pack_by_slot[kMaxSlots] = {};
  int64_t tiles_by_slot[kMaxSlots] = {};

  hexec::ParallelFor(
      mt,
      [&](int64_t mi_begin, int64_t mi_end, int slot) {
        hexsim::NpuDevice& d = dev.ForSlot(slot);
        HmxEngine& hmx = d.hmx();
        hexllm::Arena& tcm = d.tcm();
        hexllm::Arena::Frame frame(tcm);

        // Working tiles in TCM: one A strip (kt tiles), one B strip, one output tile.
        F16* a_strip = tcm.Alloc<F16>(static_cast<int64_t>(kt) * HmxEngine::kTileElems);
        F16* b_strip = tcm.Alloc<F16>(static_cast<int64_t>(kt) * HmxEngine::kTileElems);
        F16* out_tile = tcm.Alloc<F16>(HmxEngine::kTileElems);

        double dma_s = 0.0;
        int64_t pack_packets = 0;
        int64_t tile_ops = 0;
        float acc[HmxEngine::kTileElems];

        for (int64_t mi = mi_begin; mi < mi_end; ++mi) {
          // Rows of this strip that carry data; the last strip's remainder is tile padding
          // (zero-packed, never read back).
          const int strip_rows =
              static_cast<int>(std::min<int64_t>(HmxEngine::kTileDim, m - mi * 32));
          // Pack the A row-strip into tiles (charged; skipped cost-wise if operands
          // pre-packed in TCM — Table 2's peak setup keeps activations resident and
          // pre-packed).
          for (int ki = 0; ki < kt; ++ki) {
            HmxEngine::PackTile(a + (mi * 32) * k + ki * 32, k,
                                a_strip + ki * HmxEngine::kTileElems, strip_rows);
            if (!operands_in_tcm) {
              pack_packets += 16;
            }
          }
          for (int ni = 0; ni < nt; ++ni) {
            // B tiles for output column ni: contiguous in the tile stream (column-major
            // tiles).
            const F16* b_src = b_tiles + (static_cast<int64_t>(ni) * kt) * HmxEngine::kTileElems;
            if (operands_in_tcm) {
              std::memcpy(b_strip, b_src, static_cast<size_t>(kt) * HmxEngine::kTileBytes);
            } else {
              dma_s += d.dma().Transfer1D(b_strip, b_src,
                                          static_cast<int64_t>(kt) * HmxEngine::kTileBytes,
                                          DmaDirection::kDdrToTcm);
            }
            std::fill(acc, acc + HmxEngine::kTileElems, 0.0f);
            for (int ki = 0; ki < kt; ++ki) {
              const int64_t tile = static_cast<int64_t>(ni) * kt + ki;
              hmx.TileMacc(tcm, a_strip + ki * HmxEngine::kTileElems,
                           b_strip + ki * HmxEngine::kTileElems, acc, 0, strip_rows,
                           b_decoded == nullptr ? nullptr
                                                : b_decoded + tile * HmxEngine::kTileElems);
              ++tile_ops;
            }
            hmx.StoreAcc(acc, out_tile, nullptr, nullptr, strip_rows);
            HmxEngine::UnpackTile(out_tile, c + (mi * 32) * n + ni * 32, n, strip_rows);
            if (!operands_in_tcm) {
              pack_packets += 4;
            }
          }
        }
        dma_by_slot[static_cast<size_t>(slot)] = dma_s;
        pack_by_slot[static_cast<size_t>(slot)] = pack_packets;
        tiles_by_slot[static_cast<size_t>(slot)] = tile_ops;
      },
      slots);
  dev.MergeShards();

  double dma_s = 0.0;
  int64_t pack_packets = 0;
  int64_t tile_ops = 0;
  for (int s = 0; s < slots; ++s) {
    dma_s += dma_by_slot[static_cast<size_t>(s)];
    pack_packets += pack_by_slot[static_cast<size_t>(s)];
    tile_ops += tiles_by_slot[static_cast<size_t>(s)];
  }

  const double hmx_s = dev.CommitHmxTileOps(tile_ops, hexsim::Tag::kGemmHmx);
  const double pack_s = dev.CommitHvxPackets(pack_packets, hexsim::Tag::kGemmPack);
  // DMA overlaps with compute in a double-buffered schedule; the serial latency is the max.
  return std::max(dma_s, hmx_s + pack_s);
}

int64_t GemmF16HvxPackets(const hexsim::DeviceProfile& profile, int m, int k, int n) {
  // Per output row, per 64-wide output chunk: K iterations of
  //   vsplat(a[m,k]) + load(B row chunk) + vmpy + vadd + 1 pointer-update/stall
  // plus a qfloat convert (on <V79) and a store at the end.
  const int64_t chunks = static_cast<int64_t>(m) * hexllm::CeilDiv(n, 64);
  const int64_t qf = profile.native_ieee_fp16 ? 0 : 1;
  return chunks * (static_cast<int64_t>(k) * 5 + qf + 1);
}

double GemmF16Hvx(hexsim::NpuDevice& dev, const F16* a, const F16* b, F16* c, int m, int k,
                  int n) {
  HEXLLM_CHECK(n % 64 == 0);
  dev.ledger().AddCount(hexsim::Counter::kGemmHvxCalls);
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();

  // Output rows are independent; each slot runs the legacy row loop on its shard context.
  // Per-chunk packet cost is position-independent, so the merged parent packet delta equals
  // the serial count exactly (checked below).
  const int slots = hexec::PlannedSlots(m);
  dev.EnsureShards(slots);
  hexec::ParallelFor(
      m,
      [&](int64_t mi_begin, int64_t mi_end, int slot) {
        HvxContext& sctx = dev.ForSlot(slot).hvx();
        for (int64_t mi = mi_begin; mi < mi_end; ++mi) {
          for (int nc = 0; nc < n; nc += 64) {
            HvxVec acc{};  // register clear, no packet
            for (int ki = 0; ki < k; ++ki) {
              const HvxVec av = sctx.VSplatHf(a[mi * k + ki].ToFloat());
              const HvxVec bv = sctx.LoadAligned(b + static_cast<int64_t>(ki) * n + nc);
              const HvxVec prod = sctx.VMpyHf(av, bv);
              acc = sctx.VAddHf(acc, prod);
              sctx.ChargeStalls(1);  // address update / accumulation-dependency bubble
            }
            acc = sctx.ConvertQf(acc);
            sctx.Store(c + mi * n + nc, acc);
          }
        }
      },
      slots);
  dev.MergeShards();

  const int64_t used = ctx.issued() - start;
  HEXLLM_CHECK(used == GemmF16HvxPackets(dev.profile(), m, k, n));
  return dev.CommitHvxPackets(used, hexsim::Tag::kGemmHvx);
}

}  // namespace hkern
