/// \file
/// Tiered KV offload: block-granular demotion to / promotion from a simulated flash tier
/// below DRAM (docs/long_context.md).
///
/// The DRAM budget becomes a *resident* budget instead of a hard capacity: when the live
/// block count exceeds it, the engine demotes least-recently-touched blocks — their payload
/// moves to the flash store, the slab copy is NaN-poisoned, and the BlockPool entry is
/// marked non-resident. An attention or append access to a demoted block faults it back in
/// (bit-identical payload restore) and charges the flash read; faults issued ahead of time
/// through the async prefetch queue overlap with NPU compute the same way the batcher
/// overlaps the CPU lm_head with the next NPU step.
///
/// Eviction is least-recently-touched first: the smallest per-block last-touch stamp, ties
/// broken by the lowest block id. Blocks with refcount > 1 — CoW-shared forks, pinned
/// prefix anchors, retained handles — are never candidates, and neither are blocks already
/// demoted.
///
/// Timing model: one flash op per block (hexsim::FlashTier). The read channel serializes:
/// each promotion starts when the channel frees up and completes one read-cost later.
/// Demand faults stall the step for the remaining time; prefetches issued earlier complete
/// for free once AdvanceClock has moved the engine clock past their ready time. Demotion
/// writes are write-behind (charged to the tier, not the step's critical path) but do
/// accumulate the flash wear counters.
///
/// Thread-compatible, not thread-safe: all calls happen on the serving bookkeeping thread,
/// before the parallel attention region of a step reads KV in place
/// (docs/threading_model.md).
#ifndef SRC_KVCACHE_KV_OFFLOAD_H_
#define SRC_KVCACHE_KV_OFFLOAD_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/hexsim/flash.h"
#include "src/kvcache/block_pool.h"
#include "src/obs/metrics.h"

namespace hkv {

struct KvOffloadOptions {
  // Live blocks allowed to stay DRAM-resident. <= 0 disables offload entirely (the pool's
  // own capacity is the only limit, exactly the pre-offload behavior).
  int64_t resident_block_budget = 0;
  hexsim::FlashSpec flash;
};

struct KvOffloadStats {
  int64_t demotions = 0;
  int64_t promotions = 0;      // total faults back into DRAM (demand + prefetched)
  int64_t demand_faults = 0;   // promotions that were not prefetched ahead of the access
  int64_t prefetch_hits = 0;   // promotions whose read had fully completed before the access
  double stall_seconds = 0.0;  // step time spent waiting on the flash read channel
  // Flash-tier roll-ups (mirrors hexsim::FlashStats for export).
  int64_t flash_read_bytes = 0;
  int64_t flash_write_bytes = 0;
  double flash_read_seconds = 0.0;
  double flash_write_seconds = 0.0;
  int64_t wear_write_ops = 0;
};

// Publishes the offload stats under the `kv.offload.` prefix (docs/metrics_schema.md).
// Callers gate this on offload being enabled so non-offload runs keep byte-identical
// metric snapshots.
void ExportKvOffloadStats(const KvOffloadStats& stats, obs::Registry& registry);

class KvOffloadEngine {
 public:
  // `storage` is the owning cache's block slab (block b's payload lives at
  // storage + b * block_bytes).
  KvOffloadEngine(BlockPool& pool, uint8_t* storage, int64_t block_bytes,
                  const KvOffloadOptions& opts);

  bool enabled() const { return opts_.resident_block_budget > 0; }
  const KvOffloadOptions& options() const { return opts_; }

  // Starts a new recency epoch (one serving step = one epoch).
  void BeginStep() { ++step_; }
  int64_t step() const { return step_; }

  // Stamps a block as touched this epoch (append or attention staging).
  void Touch(int block) { pool_.Touch(block, step_); }

  // Demotes eviction victims until resident_blocks() fits the budget (or no candidate is
  // left). Returns the number of blocks demoted. Write-behind: the flash writes are charged
  // to the tier and the wear counter, not to the caller's critical path.
  int64_t EnforceBudget();

  // Queues promotions for any non-resident blocks in `blocks` on the serialized flash read
  // channel without waiting. An EnsureResident after the channel has caught up (see
  // AdvanceClock) is then a free prefetch hit.
  void PrefetchAsync(std::span<const int> blocks);

  // Faults every block in `blocks` resident, restoring payloads bit-identically from the
  // flash store. Returns the stall seconds the caller's step must absorb: zero when all
  // blocks were resident or their prefetched reads already completed, otherwise the
  // remaining serialized read time. Also stamps the blocks' recency.
  double EnsureResident(std::span<const int> blocks);

  // Single-block convenience for the append/CoW write path.
  double EnsureResidentBlock(int block);

  // Advances the engine clock past `seconds` of compute the flash channel overlapped with
  // (one decode step's NPU time).
  void AdvanceClock(double seconds);

  // The cache dropped the last reference to `block`: forget its flash copy and any pending
  // promotion.
  void NoteFreed(int block);

  const KvOffloadStats& stats() const { return stats_; }
  const hexsim::FlashTier& flash() const { return flash_; }
  // Test hook: true when `block`'s payload currently lives in the flash store.
  bool HasFlashCopy(int block) const { return flash_store_.count(block) != 0; }

 private:
  // Promotes one non-resident block: schedules (or reuses the pending) read, restores the
  // payload, flips residency. Returns the block's ready time on the engine clock.
  double Promote(int block, bool demand);

  BlockPool& pool_;
  uint8_t* storage_;
  int64_t block_bytes_;
  KvOffloadOptions opts_;
  hexsim::FlashTier flash_;
  KvOffloadStats stats_;

  int64_t step_ = 0;
  double now_ = 0.0;           // engine clock (seconds of simulated serving time)
  double read_free_at_ = 0.0;  // when the serialized flash read channel frees up

  // Demoted payloads, keyed by block id. std::map keeps eviction/restore order
  // deterministic for the bit-identity gates.
  std::map<int, std::vector<uint8_t>> flash_store_;
  std::map<int, double> pending_ready_;  // queued promotions -> channel completion time
  std::vector<int> candidates_scratch_;
};

}  // namespace hkv

#endif  // SRC_KVCACHE_KV_OFFLOAD_H_
