// rpcmem / FastRPC simulation (§6).
//
// The real system shares physical memory between CPU and NPU through rpcmem (a dmabuf
// wrapper from libcdsprpc.so). Two properties matter and are modeled here:
//
//   1. Coherence is ONE-WAY on Snapdragon: after the CPU writes a shared buffer, the NPU
//      does not see the data until the CPU flushes and the NPU side invalidates its cache.
//      SharedBuffer tracks a dirty bit; NpuView() aborts if maintenance was skipped — the
//      exact bug class the paper calls out ("we manually clear the cache before NPU polls").
//   2. A single NPU session maps buffers into a 32-bit virtual address space; on V73 parts
//      the usable window is ~2 GiB, which is why 3B-parameter models cannot run on
//      Snapdragon 8 Gen 2 (§7.2.1). NpuSession::MapBuffer enforces the per-profile limit.
//
// The pool also tracks total dmabuf bytes, which is what Figure 16 reports via pmap.
#ifndef SRC_HEXSIM_RPCMEM_H_
#define SRC_HEXSIM_RPCMEM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/hexsim/device_profile.h"
#include "src/obs/metrics.h"

namespace hexsim {

// Thread-safe: the dirty bit and flush counter are atomics, so buffers may be viewed and
// flushed from parallel lanes (docs/threading_model.md). The storage bytes themselves are
// NOT synchronized — disjoint-range writes are the caller's contract, as on real dmabufs.
class SharedBuffer {
 public:
  SharedBuffer(int id, int64_t bytes, std::string name)
      : id_(id), name_(std::move(name)), storage_(static_cast<size_t>(bytes)) {}

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  int64_t size() const { return static_cast<int64_t>(storage_.size()); }

  // CPU-side view; marks the buffer CPU-dirty (writes may sit in the CPU cache).
  uint8_t* CpuView() {
    cpu_dirty_.store(true, std::memory_order_release);
    return storage_.data();
  }
  const uint8_t* CpuReadView() const { return storage_.data(); }

  // CPU cache flush + NPU-side invalidate, the maintenance pair required before the NPU
  // reads CPU-written data.
  void FlushForNpu() {
    cpu_dirty_.store(false, std::memory_order_release);
    flush_ops_.fetch_add(1, std::memory_order_relaxed);
  }

  // Coherence maintenance pairs performed on this buffer (observability: the one-way
  // coherence traffic Figure 16's CPU cost partially consists of).
  int64_t flush_ops() const { return flush_ops_.load(std::memory_order_relaxed); }

  // NPU-side view. Aborts if the CPU wrote the buffer and nobody flushed — on the phone this
  // is a silent stale-data bug; in the simulator it is a hard failure so tests catch it.
  uint8_t* NpuView() {
    HEXLLM_CHECK_MSG(!cpu_dirty_.load(std::memory_order_acquire),
                     "NPU read of CPU-dirty shared buffer without cache maintenance");
    return storage_.data();
  }

  // NPU writes are visible to the CPU without maintenance (the coherent direction).
  uint8_t* NpuWriteView() { return storage_.data(); }

  bool cpu_dirty() const { return cpu_dirty_.load(std::memory_order_acquire); }

 private:
  int id_;
  std::string name_;
  std::atomic<bool> cpu_dirty_{false};
  std::atomic<int64_t> flush_ops_{0};
  std::vector<uint8_t> storage_;
};

// Thread-safe: a single mutex guards the live list and accounting, so Alloc/Free/ExportTo
// may race from parallel lanes.
class RpcmemPool {
 public:
  // Allocates a shared (dmabuf-backed) buffer. Name is for accounting/debugging.
  std::shared_ptr<SharedBuffer> Alloc(int64_t bytes, std::string name);

  // Total dmabuf bytes currently allocated (Figure 16's "memory used by NPU").
  int64_t total_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_bytes_;
  }

  void Free(const std::shared_ptr<SharedBuffer>& buf);

  // Publishes pool accounting + per-buffer coherence traffic:
  //   counters rpcmem.allocs, rpcmem.frees, rpcmem.coherence_flushes (live buffers)
  //   gauges   rpcmem.dmabuf_bytes, rpcmem.live_buffers
  void ExportTo(obs::Registry& registry) const;

 private:
  mutable std::mutex mu_;
  int next_id_ = 1;
  int64_t total_bytes_ = 0;
  int64_t alloc_count_ = 0;
  int64_t free_count_ = 0;
  std::vector<std::shared_ptr<SharedBuffer>> live_;
};

// Operation request passed through the shared-memory mailbox.
struct OpRequest {
  std::string op_name;
  std::vector<int> buffer_ids;
  std::vector<int64_t> params;
};

// A remote NPU session: buffer mapping under the 32-bit address-space budget plus a polling
// shared-memory command channel.
class NpuSession {
 public:
  explicit NpuSession(const DeviceProfile& profile) : profile_(profile) {}

  // Maps a shared buffer into the session's NPU address space. Returns false if the mapping
  // would exceed the profile's virtual-address budget (the V73 2 GiB wall).
  bool MapBuffer(const std::shared_ptr<SharedBuffer>& buf);

  void UnmapBuffer(const std::shared_ptr<SharedBuffer>& buf);

  int64_t mapped_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mapped_bytes_;
  }

  // Installs the NPU-side op executor (the "thread that continuously polls").
  void SetHandler(std::function<void(const OpRequest&)> handler) {
    handler_ = std::move(handler);
  }

  // CPU side: writes a request into the mailbox and performs the required cache maintenance.
  // Returns the communication latency in seconds (shared-memory polling path, much cheaper
  // than a default FastRPC invocation).
  double Submit(const OpRequest& req);

  int64_t submitted_ops() const { return submitted_ops_.load(std::memory_order_relaxed); }

  // Cache maintenance operations performed on the mailbox path (one CPU flush + one NPU
  // invalidate per submitted op, the §6 one-way coherence discipline).
  int64_t coherence_ops() const { return coherence_ops_.load(std::memory_order_relaxed); }

  // Publishes session accounting:
  //   counters session.submitted_ops, session.coherence_ops
  //   gauges   session.mapped_bytes, session.vaddr_limit_bytes
  void ExportTo(obs::Registry& registry) const;

  // Simulated one-way communication latency of the polling mailbox.
  static constexpr double kMailboxLatencySeconds = 12e-6;
  // Simulated host-side cost of one NPU dispatch: the mailbox round trip (submit +
  // completion) plus cache maintenance of the shared activation buffers (§6).
  static constexpr double kDispatchSeconds = 2 * kMailboxLatencySeconds + 30e-6;

 private:
  const DeviceProfile& profile_;
  std::function<void(const OpRequest&)> handler_;
  mutable std::mutex mu_;  // guards mapped_bytes_ / mapped_ids_
  int64_t mapped_bytes_ = 0;
  std::atomic<int64_t> submitted_ops_{0};
  std::atomic<int64_t> coherence_ops_{0};
  std::vector<int> mapped_ids_;
};

}  // namespace hexsim

#endif  // SRC_HEXSIM_RPCMEM_H_
