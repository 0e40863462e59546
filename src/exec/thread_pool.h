/// \file
/// The parallel execution layer: the deterministic `ParallelFor` every hot path in the
/// repo parallelizes through, backed by a fixed fork-join lane pool.
///
/// The paper's end-to-end wins come from keeping heterogeneous units busy at once (HMX
/// decoding while the CPU runs lm_head, §6/§7.2.2). This module is the host-side substrate
/// for that: kernels split tile strips across lanes, the functional transformer decodes
/// batch rows in parallel, and the serving layer overlaps the CPU `lm_head` with the next
/// NPU step — all without changing a single simulated count or decoded token.
///
/// Determinism contract (docs/threading_model.md):
///   * `ParallelFor(n, body)` partitions [0, n) into `slots` CONTIGUOUS ranges with a
///     static rule (slot s gets [n*s/slots, n*(s+1)/slots)). The partition depends only on
///     (n, slots), never on which thread runs a range or in what order.
///   * `body(begin, end, slot)` receives the slot index; callers key per-lane state
///     (NpuDevice shards, scratch buffers) on it. Slot 0 always runs on the calling
///     thread, so a 1-slot run is exactly the legacy serial code path. Pool worker w always
///     runs slot w.
///   * A nested `ParallelFor` (called from inside a body) runs inline as a single slot —
///     parallelism never recursively multiplies.
///
/// The global pool is sized once from `HEXLLM_NUM_THREADS` (total lanes, including the
/// caller; 1 disables workers entirely). Tests pin the lane count per-thread with
/// `ParallelismOverride` regardless of the pool size.
#ifndef SRC_EXEC_THREAD_POOL_H_
#define SRC_EXEC_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <type_traits>

#include "src/obs/metrics.h"

namespace hexec {

/// Total parallel lanes the calling thread would use: the per-thread override if one is
/// active, else the global pool's lanes (its workers + the caller, which is always lane 0).
int MaxSlots();

/// Lanes a `ParallelFor(n, ...)` issued from this thread right now would actually use:
/// min(MaxSlots(), n), collapsing to 1 inside an already-running parallel region. Callers
/// use this to size per-slot state (device shards, scratch buffers) before the loop.
int PlannedSlots(int64_t n);

/// Lanes a region of `n` items holding `work` units in total should use, so that no lane
/// gets less than `min_work_per_lane`: clamp(work / min_work_per_lane, 1, PlannedSlots(n)).
/// Pass it as ParallelFor's `max_slots`. Below that much work a fork-join round trip costs
/// more than the lane saves. Only regions that charge no shard device may size themselves
/// by work: a charging region's partition groups its ledger sums (docs/threading_model.md).
int SlotsForWork(int64_t n, int64_t work, int64_t min_work_per_lane);

/// Runs `body(begin, end, slot)` over a deterministic static partition of [0, n) (see the
/// file comment for the contract). Slot 0 executes on the calling thread and pool worker s
/// executes slot s. When the lanes are already held by another thread, or the slot count
/// exceeds the pool's lanes, every slot runs inline on the caller in ascending slot order
/// (same partition, no concurrency). Returns the number of slots used. If any body throws,
/// the lowest-slot exception is rethrown on the caller after every slot finished.
/// `max_slots` additionally caps the lane count (callers with a fixed amount of per-slot
/// state pass its size). A region performs no heap allocation.
int ParallelFor(int64_t n, const std::function<void(int64_t, int64_t, int)>& body,
                int max_slots = 1 << 30);

/// Overload for lambdas (and any other non-std::function callable). Wraps the callable by
/// reference (std::ref fits in std::function's small-object buffer), so calling ParallelFor
/// with a fat-capture lambda performs NO heap allocation — load-bearing for the zero-alloc
/// steady-state decode contract (docs/performance.md). The callable only needs to outlive
/// the call, which ParallelFor's synchronous completion guarantees.
template <typename F>
  requires(!std::is_same_v<std::remove_cvref_t<F>, std::function<void(int64_t, int64_t, int)>>)
int ParallelFor(int64_t n, F&& body, int max_slots = 1 << 30) {
  const std::function<void(int64_t, int64_t, int)> fn(std::ref(body));
  return ParallelFor(n, fn, max_slots);
}

/// RAII per-thread lane-count pin for tests: forces PlannedSlots/ParallelFor on this
/// thread to use exactly `slots` lanes (1 = serial) regardless of the pool size. Slots
/// beyond the pool's lanes run inline on the caller in ascending slot order, so the slot
/// decomposition — and therefore every per-slot accounting total — is still exercised
/// without any concurrency.
class ParallelismOverride {
 public:
  explicit ParallelismOverride(int slots);
  ~ParallelismOverride();
  ParallelismOverride(const ParallelismOverride&) = delete;
  ParallelismOverride& operator=(const ParallelismOverride&) = delete;

 private:
  int prev_;
};

/// Publishes the global pool's size and region count into `registry`
/// (docs/metrics_schema.md): gauge exec.pool.workers, counter exec.parallel_for.calls
/// (process-lifetime monotonic, not a per-run delta).
void ExportPoolMetrics(obs::Registry& registry);

}  // namespace hexec

#endif  // SRC_EXEC_THREAD_POOL_H_
