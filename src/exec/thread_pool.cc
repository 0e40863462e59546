#include "src/exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <semaphore>
#include <thread>
#include <vector>

#include "src/base/check.h"

namespace hexec {
namespace {

using Body = std::function<void(int64_t, int64_t, int)>;

// Per-thread parallelism state. `tls_in_region` marks that the current thread is executing
// a ParallelFor body (nested loops collapse to serial); `tls_override` is the
// ParallelismOverride pin (0 = none).
thread_local bool tls_in_region = false;
thread_local int tls_override = 0;

std::atomic<int64_t> g_parallel_for_calls{0};

int DefaultLanes() {
  if (const char* env = std::getenv("HEXLLM_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) {
      return static_cast<int>(std::min<long>(v, 256));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(hw == 0 ? 1u : hw, 8u));
}

// Runs slot `s` of the partition on this thread as a region body and returns its
// exception, if any.
std::exception_ptr RunSlot(const Body& body, int64_t n, int slots, int s) {
  const bool prev = tls_in_region;
  tls_in_region = true;
  std::exception_ptr error;
  try {
    body(n * s / slots, n * (s + 1) / slots, s);
  } catch (...) {
    error = std::current_exception();
  }
  tls_in_region = prev;
  return error;
}

// Fork-join pool of `lanes - 1` workers. Worker w sleeps on its own semaphore and runs
// slot w of the current region when woken; the caller runs slot 0 and waits for `pending_`
// to reach zero. One region runs at a time: a thread that finds the lanes held runs its
// region inline. Nothing is allocated per region.
class LanePool {
 public:
  explicit LanePool(int lanes) : lanes_(lanes), slot_(new Slot[static_cast<size_t>(lanes)]) {
    workers_.reserve(static_cast<size_t>(lanes - 1));
    for (int w = 1; w < lanes; ++w) {
      workers_.emplace_back([this, w] { Work(w); });
    }
  }

  ~LanePool() {
    stop_ = true;
    for (int w = 1; w < lanes_; ++w) {
      slot_[w].wake.release();
    }
    for (std::thread& t : workers_) {
      t.join();
    }
  }

  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  int lanes() const { return lanes_; }

  void Run(int64_t n, int slots, const Body& body) {
    const bool fork =
        slots > 1 && slots <= lanes_ && !busy_.exchange(true, std::memory_order_acquire);
    if (fork) {
      body_ = &body;
      n_ = n;
      slots_ = slots;
      pending_.store(slots - 1, std::memory_order_relaxed);
      for (int s = 1; s < slots; ++s) {
        slot_[s].wake.release();
      }
    }
    std::exception_ptr first;
    for (int s = 0; s < (fork ? 1 : slots); ++s) {
      std::exception_ptr error = RunSlot(body, n, slots, s);
      if (error && !first) {
        first = std::move(error);
      }
    }
    if (fork) {
      // Every slot finishes before the caller returns, even after a failure: bodies may
      // reference the caller's stack.
      while (const int p = pending_.load(std::memory_order_acquire)) {
        pending_.wait(p, std::memory_order_acquire);
      }
      for (int s = 1; s < slots; ++s) {
        if (slot_[s].error && !first) {
          first = std::move(slot_[s].error);
        }
        slot_[s].error = nullptr;
      }
      busy_.store(false, std::memory_order_release);
    }
    if (first) {
      std::rethrow_exception(first);
    }
  }

  // The process-wide pool, sized from HEXLLM_NUM_THREADS on first use (unset defaults to
  // min(hardware_concurrency, 8) lanes).
  static LanePool& Global() {
    static LanePool pool(DefaultLanes());
    return pool;
  }

 private:
  // One per lane, on its own cache line so a worker's wake-up and error slot do not share
  // a line with its neighbours'.
  struct alignas(64) Slot {
    std::binary_semaphore wake{0};
    std::exception_ptr error;
  };

  void Work(int w) {
    for (;;) {
      slot_[w].wake.acquire();
      if (stop_) {
        return;
      }
      slot_[w].error = RunSlot(*body_, n_, slots_, w);
      if (pending_.fetch_sub(1, std::memory_order_release) == 1) {
        pending_.notify_one();
      }
    }
  }

  const int lanes_;
  std::unique_ptr<Slot[]> slot_;
  std::atomic<bool> busy_{false};  // a caller holds the lanes
  std::atomic<int> pending_{0};    // worker slots of the current region still running
  // The current region, published to workers by their semaphore release.
  const Body* body_ = nullptr;
  int64_t n_ = 0;
  int slots_ = 0;
  bool stop_ = false;  // set once, before the destructor's final wake-ups
  std::vector<std::thread> workers_;
};

}  // namespace

int MaxSlots() {
  if (tls_override > 0) {
    return tls_override;
  }
  return LanePool::Global().lanes();
}

int PlannedSlots(int64_t n) {
  if (n <= 1 || tls_in_region) {
    return 1;
  }
  return static_cast<int>(std::min<int64_t>(MaxSlots(), n));
}

int SlotsForWork(int64_t n, int64_t work, int64_t min_work_per_lane) {
  HEXLLM_CHECK(min_work_per_lane > 0);
  return static_cast<int>(
      std::clamp<int64_t>(work / min_work_per_lane, 1, PlannedSlots(n)));
}

int ParallelFor(int64_t n, const Body& body, int max_slots) {
  if (n <= 0) {
    return 0;
  }
  g_parallel_for_calls.fetch_add(1, std::memory_order_relaxed);
  const int slots = std::min(PlannedSlots(n), std::max(1, max_slots));
  LanePool::Global().Run(n, slots, body);
  return slots;
}

ParallelismOverride::ParallelismOverride(int slots) : prev_(tls_override) {
  HEXLLM_CHECK(slots >= 1);
  tls_override = slots;
}

ParallelismOverride::~ParallelismOverride() { tls_override = prev_; }

void ExportPoolMetrics(obs::Registry& registry) {
  registry.Set("exec.pool.workers", static_cast<double>(LanePool::Global().lanes() - 1));
  registry.Count("exec.parallel_for.calls",
                 g_parallel_for_calls.load(std::memory_order_relaxed));
}

}  // namespace hexec
