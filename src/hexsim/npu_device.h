// NpuDevice: the bundle of simulation state for one Hexagon NPU — profile, time ledger, TCM
// arena, DMA engine, HMX engine, and an HVX context. Kernels in src/kernels take an
// NpuDevice& and charge all their costs through it.
//
// Parallel execution (docs/threading_model.md): an NpuDevice is thread-COMPATIBLE, not
// thread-safe. Parallel kernels never share one device across lanes; instead the owner
// calls EnsureShards(n) up front and each ParallelFor slot s works against ForSlot(s) — a
// private child NpuDevice with its own ledger/TCM/engines. After the region the caller
// invokes MergeShards(), which folds every shard's ledger and HVX/HMX instruction counters
// back into the parent IN SLOT ORDER (deterministic floating-point summation) and zeroes
// the shards for reuse. Shard TCM high-watermarks are intentionally not merged: the
// parent's watermark tracks the capacity story of the real single-TCM device, while shard
// arenas model per-lane scratch partitions.
#ifndef SRC_HEXSIM_NPU_DEVICE_H_
#define SRC_HEXSIM_NPU_DEVICE_H_

#include <memory>
#include <vector>

#include "src/base/arena.h"
#include "src/hexsim/cycle_ledger.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/dma.h"
#include "src/hexsim/hmx.h"
#include "src/hexsim/hvx.h"
#include "src/obs/metrics.h"

namespace hexsim {

class NpuDevice {
 public:
  explicit NpuDevice(const DeviceProfile& profile)
      : profile_(profile),
        tcm_(profile.tcm_bytes, /*alignment=*/128, "TCM"),  // HVX vector-width banks
        dma_(profile, ledger_),
        hmx_(profile),
        hvx_(profile) {}

  const DeviceProfile& profile() const { return profile_; }
  CycleLedger& ledger() { return ledger_; }
  const CycleLedger& ledger() const { return ledger_; }
  hexllm::Arena& tcm() { return tcm_; }
  const hexllm::Arena& tcm() const { return tcm_; }
  DmaEngine& dma() { return dma_; }
  HmxEngine& hmx() { return hmx_; }
  const HmxEngine& hmx() const { return hmx_; }
  HvxContext& hvx() { return hvx_; }
  const HvxContext& hvx() const { return hvx_; }

  // Converts HVX packets executed by a kernel into busy seconds on one HVX thread. Records
  // them under `tag`, counts the packets as committed (HvxContext::packets) and returns
  // the busy seconds.
  double CommitHvxPackets(int64_t packets, Tag tag) {
    const double busy = hvx_.PacketsToSeconds(packets);
    hvx_.NoteCommitted(packets);
    ledger_.AddSeconds(Engine::kHvx, busy, tag);
    return busy;
  }

  // Records HMX tile-op time under `tag` and returns the latency.
  double CommitHmxTileOps(int64_t tile_ops, Tag tag) {
    const double t = hmx_.TileOpsToSeconds(tile_ops);
    ledger_.AddSeconds(Engine::kHmx, t, tag);
    return t;
  }

  // --- per-lane shard devices for deterministic parallel kernels ---
  //
  // EnsureShards/MergeShards must be called from the thread that owns this device, outside
  // any parallel region; ForSlot may be called concurrently from distinct slots.

  // Lazily creates shard devices 1..n-1 (slot 0 is the parent itself). Safe to call with a
  // smaller n later; existing shards are kept.
  void EnsureShards(int n) {
    while (static_cast<int>(shards_.size()) < n - 1) {
      shards_.push_back(std::make_unique<NpuDevice>(profile_));
    }
  }

  // The device a ParallelFor body running as `slot` should charge against. Slot 0 is the
  // parent device, preserving the exact serial code path for 1-lane runs.
  NpuDevice& ForSlot(int slot) {
    if (slot == 0) {
      return *this;
    }
    HEXLLM_CHECK(slot >= 1 && slot <= static_cast<int>(shards_.size()));
    return *shards_[static_cast<size_t>(slot - 1)];
  }

  // Folds every shard's ledger and HVX/HMX instruction counters into the parent, in
  // ascending slot order, then zeroes the shard accounting (shard TCM contents — e.g.
  // per-lane exp LUTs — survive for the next region).
  void MergeShards() {
    for (auto& shard : shards_) {
      ledger_.MergeFrom(shard->ledger());
      shard->ledger().Clear();
      hvx_.AbsorbCounters(shard->hvx());
      hmx_.AbsorbTileOps(shard->hmx());
    }
  }

 private:
  const DeviceProfile& profile_;
  CycleLedger ledger_;
  hexllm::Arena tcm_;
  DmaEngine dma_;
  HmxEngine hmx_;
  HvxContext hvx_;
  std::vector<std::unique_ptr<NpuDevice>> shards_;
};

// Publishes the full activity profile of a simulated device into `registry` under the
// `hexsim.` unit prefix (docs/metrics_schema.md): the ledger (busy/wall seconds, DDR bytes,
// tag series, generic event counters) plus per-unit instruction counters:
//   counters hexsim.hvx.packets, hexsim.hvx.vgather_ops, hexsim.hvx.vscatter_ops,
//            hexsim.hvx.vlut16_ops, hexsim.hmx.tile_ops, hexsim.hmx.macs
//   gauges   hexsim.tcm.high_watermark_bytes, hexsim.tcm.capacity_bytes
inline void ExportDeviceMetrics(const NpuDevice& dev, obs::Registry& registry) {
  dev.ledger().ExportTo(registry);
  registry.Count("hexsim.hvx.packets", dev.hvx().packets());
  registry.Count("hexsim.hvx.vgather_ops", dev.hvx().vgather_ops());
  registry.Count("hexsim.hvx.vscatter_ops", dev.hvx().vscatter_ops());
  registry.Count("hexsim.hvx.vlut16_ops", dev.hvx().vlut16_ops());
  registry.Count("hexsim.hmx.tile_ops", dev.hmx().tile_ops());
  registry.Count("hexsim.hmx.macs", dev.hmx().tile_ops() * HmxEngine::kTileDim *
                                        HmxEngine::kTileDim * HmxEngine::kTileDim);
  registry.Set("hexsim.tcm.high_watermark_bytes", static_cast<double>(dev.tcm().high_watermark()));
  registry.Set("hexsim.tcm.capacity_bytes", static_cast<double>(dev.tcm().capacity()));
}

}  // namespace hexsim

#endif  // SRC_HEXSIM_NPU_DEVICE_H_
