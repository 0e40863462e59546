#include "src/kvcache/kv_offload.h"

#include <algorithm>
#include <cstring>

#include "src/base/check.h"

namespace hkv {

namespace {

// Index into `candidates` of the least-recently-touched block, or -1 when there is none.
int PickLruVictim(const BlockPool& pool, std::span<const int> candidates) {
  int best = -1;
  int64_t best_touch = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const int64_t t = pool.last_touch(candidates[i]);
    // Ties break toward the lowest block id: candidates arrive id-ordered, so strict `<`
    // keeps the first minimum — deterministic across runs.
    if (best < 0 || t < best_touch) {
      best = static_cast<int>(i);
      best_touch = t;
    }
  }
  return best;
}

}  // namespace

KvOffloadEngine::KvOffloadEngine(BlockPool& pool, uint8_t* storage, int64_t block_bytes,
                                 const KvOffloadOptions& opts)
    : pool_(pool), storage_(storage), block_bytes_(block_bytes), opts_(opts), flash_(opts.flash) {
  HEXLLM_CHECK(storage_ != nullptr && block_bytes_ > 0);
}

int64_t KvOffloadEngine::EnforceBudget() {
  if (!enabled()) {
    return 0;
  }
  int64_t demoted = 0;
  while (pool_.resident_blocks() > opts_.resident_block_budget) {
    candidates_scratch_.clear();
    const int64_t minted = pool_.minted_blocks();
    for (int b = 0; b < minted; ++b) {
      // Exclusively-owned AND resident: refcount > 1 means CoW-shared, pinned, or retained
      // through a handle — all exempt from eviction.
      if (pool_.ref_count(b) == 1 && pool_.resident(b)) {
        candidates_scratch_.push_back(b);
      }
    }
    const int pick = PickLruVictim(pool_, candidates_scratch_);
    if (pick < 0) {
      break;  // nothing evictable (everything shared/pinned) — stay over budget
    }
    const int victim = candidates_scratch_[static_cast<size_t>(pick)];
    uint8_t* slab = storage_ + static_cast<int64_t>(victim) * block_bytes_;
    flash_store_[victim].assign(slab, slab + block_bytes_);
    // Destroy the DRAM copy so any read that skips the promotion fault fails loudly:
    // 0xFF bytes are F16 NaNs in the F16 slab and NaN scales in the quantized slab.
    std::memset(slab, 0xFF, static_cast<size_t>(block_bytes_));
    const double s = flash_.ChargeWrite(block_bytes_);
    stats_.flash_write_bytes += block_bytes_;
    stats_.flash_write_seconds += s;
    ++stats_.wear_write_ops;
    pool_.SetResident(victim, false);
    ++stats_.demotions;
    ++demoted;
  }
  return demoted;
}

void KvOffloadEngine::PrefetchAsync(std::span<const int> blocks) {
  if (!enabled()) {
    return;
  }
  for (const int b : blocks) {
    if (pool_.resident(b) || pending_ready_.count(b) != 0) {
      continue;
    }
    const double start = std::max(now_, read_free_at_);
    const double cost = flash_.ChargeRead(block_bytes_);
    stats_.flash_read_bytes += block_bytes_;
    stats_.flash_read_seconds += cost;
    read_free_at_ = start + cost;
    pending_ready_[b] = read_free_at_;
  }
}

double KvOffloadEngine::Promote(int block, bool demand) {
  double ready;
  auto it = pending_ready_.find(block);
  if (it != pending_ready_.end()) {
    // A prefetched read: the access only pays whatever the channel hasn't finished yet.
    ready = it->second;
    pending_ready_.erase(it);
    if (ready <= now_) {
      ++stats_.prefetch_hits;
    } else if (demand) {
      ++stats_.demand_faults;
    }
  } else {
    const double start = std::max(now_, read_free_at_);
    const double cost = flash_.ChargeRead(block_bytes_);
    stats_.flash_read_bytes += block_bytes_;
    stats_.flash_read_seconds += cost;
    read_free_at_ = start + cost;
    ready = read_free_at_;
    if (demand) {
      ++stats_.demand_faults;
    }
  }
  auto copy = flash_store_.find(block);
  HEXLLM_CHECK_MSG(copy != flash_store_.end(), "promoting a KV block with no flash copy");
  std::memcpy(storage_ + static_cast<int64_t>(block) * block_bytes_, copy->second.data(),
              static_cast<size_t>(block_bytes_));
  flash_store_.erase(copy);
  pool_.SetResident(block, true);
  ++stats_.promotions;
  return ready;
}

double KvOffloadEngine::EnsureResident(std::span<const int> blocks) {
  if (!enabled()) {
    return 0.0;
  }
  double max_ready = now_;
  for (const int b : blocks) {
    if (!pool_.resident(b)) {
      max_ready = std::max(max_ready, Promote(b, /*demand=*/true));
    }
    pool_.Touch(b, step_);
  }
  const double stall = max_ready - now_;
  now_ = max_ready;
  stats_.stall_seconds += stall;
  return stall;
}

double KvOffloadEngine::EnsureResidentBlock(int block) {
  const int blocks[1] = {block};
  return EnsureResident(std::span<const int>(blocks, 1));
}

void KvOffloadEngine::AdvanceClock(double seconds) {
  HEXLLM_DCHECK(seconds >= 0.0);
  now_ += seconds;
}

void KvOffloadEngine::NoteFreed(int block) {
  flash_store_.erase(block);
  pending_ready_.erase(block);
}

void ExportKvOffloadStats(const KvOffloadStats& stats, obs::Registry& registry) {
  registry.Count("kv.offload.demotions", stats.demotions);
  registry.Count("kv.offload.promotions", stats.promotions);
  registry.Count("kv.offload.demand_faults", stats.demand_faults);
  registry.Count("kv.offload.prefetch_hits", stats.prefetch_hits);
  registry.Count("kv.offload.flash_read_bytes", stats.flash_read_bytes);
  registry.Count("kv.offload.flash_write_bytes", stats.flash_write_bytes);
  registry.Count("kv.offload.wear_write_ops", stats.wear_write_ops);
  registry.Set("kv.offload.stall_seconds", stats.stall_seconds);
  registry.Set("kv.offload.flash_read_seconds", stats.flash_read_seconds);
  registry.Set("kv.offload.flash_write_seconds", stats.flash_write_seconds);
}

}  // namespace hkv
