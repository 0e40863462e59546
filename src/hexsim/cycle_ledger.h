// Time/energy accounting for the simulated SoC.
//
// Every engine (HVX, HMX, DMA, CPU, GPU) accumulates *busy seconds*; kernels additionally tag
// contributions (e.g. "attn.softmax") so benches can print breakdowns like the paper's
// Figure 8. Busy seconds feed the power model: energy = sum(engine busy x engine power) +
// base power x the step's wall time, which callers compose from the busy seconds.
//
// Beyond time, the ledger carries the simulator's generic event counters (AddCount):
// hardware units and kernels record DMA descriptors, rpcmem coherence ops, per-op
// invocations, etc. under `unit.metric_name` keys, and ExportTo publishes the whole ledger
// into an obs::Registry with the `hexsim.` prefix for the observability layer
// (DESIGN.md §3.3, docs/metrics_schema.md).
#ifndef SRC_HEXSIM_CYCLE_LEDGER_H_
#define SRC_HEXSIM_CYCLE_LEDGER_H_

#include <array>
#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/base/check.h"
#include "src/obs/metrics.h"

namespace hexsim {

enum class Engine : uint8_t {
  kHvx,
  kHmx,
  kDma,
  kCpu,
  kGpu,
  kCount,
};

const char* EngineName(Engine e);

class CycleLedger {
 public:
  void AddSeconds(Engine e, double seconds, std::string_view tag = {}) {
    HEXLLM_DCHECK(seconds >= 0.0);
    busy_[static_cast<size_t>(e)] += seconds;
    if (!tag.empty()) {
      // Heterogeneous lookup: steady-state charging (the tag already exists) must not
      // construct a temporary std::string — zero-alloc decode contract
      // (docs/performance.md).
      auto it = tags_.find(tag);
      if (it != tags_.end()) {
        it->second += seconds;
      } else {
        tags_.emplace(std::string(tag), seconds);
      }
    }
  }

  double EngineSeconds(Engine e) const { return busy_[static_cast<size_t>(e)]; }

  double TagSeconds(std::string_view tag) const {
    auto it = tags_.find(tag);
    return it == tags_.end() ? 0.0 : it->second;
  }

  const std::map<std::string, double, std::less<>>& tags() const { return tags_; }

  // Total bytes moved over DDR by the DMA engine (power model input).
  void AddDmaBytes(int64_t bytes) { dma_bytes_ += bytes; }
  int64_t dma_bytes() const { return dma_bytes_; }

  // Generic monotonic event counter, keyed `unit.metric_name` (e.g. "dma.descriptors",
  // "kernel.flash_attention.calls"). Units and kernels record through this so one snapshot
  // of the ledger carries the full activity profile of a simulated run.
  void AddCount(std::string_view name, int64_t n = 1) {
    HEXLLM_DCHECK(n >= 0);
    // Heterogeneous lookup, same reason as AddSeconds: long keys (e.g.
    // "kernel.dequant_coalesced_lut.calls") exceed the SSO buffer, so a std::string
    // temporary would heap-allocate on every hot-path count.
    auto it = counts_.find(name);
    if (it != counts_.end()) {
      it->second += n;
    } else {
      counts_.emplace(std::string(name), n);
    }
  }

  int64_t Count(std::string_view name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

  const std::map<std::string, int64_t, std::less<>>& counts() const { return counts_; }

  // Publishes the ledger into `registry`:
  //   gauges   hexsim.<engine>.busy_seconds
  //   counters hexsim.dma.ddr_bytes, plus every counts() key — simulator-unit counts
  //            (dma.*) under the hexsim prefix, kernel invocation counts (kernel.*)
  //            verbatim since kernels are their own unit (docs/metrics_schema.md)
  //   series   hexsim.tag_seconds{<tag>}
  void ExportTo(obs::Registry& registry) const {
    for (size_t i = 0; i < busy_.size(); ++i) {
      std::string name = EngineName(static_cast<Engine>(i));
      for (auto& c : name) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      registry.Set("hexsim." + name + ".busy_seconds", busy_[i]);
    }
    registry.Count("hexsim.dma.ddr_bytes", dma_bytes_);
    for (const auto& [tag, seconds] : tags_) {
      registry.Set("hexsim.tag_seconds", seconds, tag);
    }
    for (const auto& [name, n] : counts_) {
      if (name.rfind("kernel.", 0) == 0) {
        registry.Count(name, n);
      } else {
        registry.Count("hexsim." + name, n);
      }
    }
  }

  void Clear() {
    for (auto& b : busy_) {
      b = 0.0;
    }
    tags_.clear();
    counts_.clear();
    dma_bytes_ = 0;
  }

  void MergeFrom(const CycleLedger& other) {
    for (size_t i = 0; i < busy_.size(); ++i) {
      busy_[i] += other.busy_[i];
    }
    for (const auto& [k, v] : other.tags_) {
      tags_[k] += v;
    }
    for (const auto& [k, v] : other.counts_) {
      counts_[k] += v;
    }
    dma_bytes_ += other.dma_bytes_;
  }

 private:
  std::array<double, static_cast<size_t>(Engine::kCount)> busy_{};
  // std::less<> enables find(string_view) without materializing a key string.
  std::map<std::string, double, std::less<>> tags_;
  std::map<std::string, int64_t, std::less<>> counts_;
  int64_t dma_bytes_ = 0;
};

inline const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kHvx:
      return "HVX";
    case Engine::kHmx:
      return "HMX";
    case Engine::kDma:
      return "DMA";
    case Engine::kCpu:
      return "CPU";
    case Engine::kGpu:
      return "GPU";
    case Engine::kCount:
      break;
  }
  return "?";
}

}  // namespace hexsim

#endif  // SRC_HEXSIM_CYCLE_LEDGER_H_
