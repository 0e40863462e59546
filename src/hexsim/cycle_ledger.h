// Time/energy accounting for the simulated SoC.
//
// Every engine (HVX, HMX, DMA, CPU, GPU) accumulates *busy seconds*, the power model's input
// (energy = sum(engine busy x engine power) + base power x the step's wall time). Kernels
// additionally tag contributions (e.g. Tag::kAttnSoftmax, read back as "attn.softmax") for
// breakdowns like the paper's Figure 8, and count events (AddCount). ExportTo publishes the
// ledger into an obs::Registry (DESIGN.md §3.3, docs/metrics_schema.md).
//
// The vocabulary is closed: one line of the X-macro lists below makes a tag's or counter's
// enum id and its name. The ledger is a fixed-size value, so charging, merging, clearing and
// copying allocate nothing. Reads by name are the cold path; tags() and counts() list
// exactly the entries charged since Clear (zero charges too), in name order.
#ifndef SRC_HEXSIM_CYCLE_LEDGER_H_
#define SRC_HEXSIM_CYCLE_LEDGER_H_

#include <algorithm>
#include <array>
#include <bitset>
#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "src/base/check.h"
#include "src/obs/metrics.h"

namespace hexsim {

enum class Engine : uint8_t { kHvx, kHmx, kDma, kCpu, kGpu, kCount };

inline const char* EngineName(Engine e) {
  static constexpr std::array<const char*, static_cast<size_t>(Engine::kCount)> kNames = {
      "HVX", "HMX", "DMA", "CPU", "GPU"};
  return kNames[static_cast<size_t>(e)];
}

// Both lists are strictly sorted by name, which LedgerEntries checks.
#define HEXSIM_LEDGER_TAGS(X)          \
  X(kAttnKvDequant, "attn.kv_dequant") \
  X(kAttnMask, "attn.mask")            \
  X(kAttnNormalize, "attn.normalize")  \
  X(kAttnPack, "attn.pack")            \
  X(kAttnPv, "attn.pv")                \
  X(kAttnQk, "attn.qk")                \
  X(kAttnRescale, "attn.rescale")      \
  X(kAttnSoftmax, "attn.softmax")      \
  X(kDma, "dma")                       \
  X(kGemmHmx, "gemm.hmx")              \
  X(kGemmHvx, "gemm.hvx")              \
  X(kGemmPack, "gemm.pack")            \
  X(kLinearDequant, "linear.dequant")  \
  X(kMiscAdd, "misc.add")              \
  X(kMiscRmsNorm, "misc.rmsnorm")      \
  X(kMiscRope, "misc.rope")            \
  X(kMiscSilu, "misc.silu")            \
  X(kSoftmax, "softmax")

#define HEXSIM_LEDGER_COUNTERS(X)                                          \
  X(kDmaDescriptors, "dma.descriptors")                                    \
  X(kAddCalls, "kernel.add.calls")                                         \
  X(kAttnKvDequantCalls, "kernel.attn_kv_dequant.calls")                   \
  X(kDequantBaselineScatterCalls, "kernel.dequant_baseline_scatter.calls") \
  X(kDequantCoalescedLutCalls, "kernel.dequant_coalesced_lut.calls")       \
  X(kDequantHmxLayoutCalls, "kernel.dequant_hmx_layout.calls")             \
  X(kExpLutBuilds, "kernel.exp_lut.builds")                                \
  X(kFlashAttentionCalls, "kernel.flash_attention.calls")                  \
  X(kFlashAttentionWindowedCalls, "kernel.flash_attention.windowed_calls") \
  X(kGemmHmxCalls, "kernel.gemm_hmx.calls")                                \
  X(kGemmHvxCalls, "kernel.gemm_hvx.calls")                                \
  X(kRmsNormCalls, "kernel.rmsnorm.calls")                                 \
  X(kRopeCalls, "kernel.rope.calls")                                       \
  X(kSiluMulCalls, "kernel.silu_mul.calls")                                \
  X(kSoftmaxRowsCalls, "kernel.softmax_rows.calls")

#define HEXSIM_LEDGER_ID(id, name) id,
#define HEXSIM_LEDGER_NAME(id, name) name,
enum class Tag : uint8_t { HEXSIM_LEDGER_TAGS(HEXSIM_LEDGER_ID) };
enum class Counter : uint8_t { HEXSIM_LEDGER_COUNTERS(HEXSIM_LEDGER_ID) };
inline constexpr auto kTagNames =
    std::to_array<std::string_view>({HEXSIM_LEDGER_TAGS(HEXSIM_LEDGER_NAME)});
inline constexpr auto kCounterNames =
    std::to_array<std::string_view>({HEXSIM_LEDGER_COUNTERS(HEXSIM_LEDGER_NAME)});
#undef HEXSIM_LEDGER_NAME
#undef HEXSIM_LEDGER_ID

// One value per name of a closed vocabulary, plus a "charged since reset" bit each.
template <typename Id, typename V, const auto& kNames>
class LedgerEntries {
  // Sorted names make enum order the listing order of a std::map keyed by name.
  static_assert(std::ranges::adjacent_find(kNames, std::greater_equal<>()) == kNames.end());

 public:
  using Listing = std::map<std::string, V, std::less<>>;

  void Add(Id id, V v) {
    const auto i = static_cast<size_t>(id);
    values_[i] += v;
    charged_[i] = true;
  }

  // The value under `name`, or 0 for a name outside the vocabulary.
  V Get(std::string_view name) const {
    const auto it = std::ranges::find(kNames, name);
    return it == kNames.end() ? V{} : values_[static_cast<size_t>(it - kNames.begin())];
  }

  // Entrywise add; `other`'s charged entries become charged here.
  void MergeFrom(const LedgerEntries& other) {
    for (size_t i = 0; i < kNames.size(); ++i) {
      values_[i] += other.values_[i];
    }
    charged_ |= other.charged_;
  }

  template <typename F>
  void ForEachCharged(F&& f) const {
    for (size_t i = 0; i < kNames.size(); ++i) {
      if (charged_[i]) {
        f(kNames[i], values_[i]);
      }
    }
  }

  Listing List() const {
    Listing out;
    ForEachCharged([&](std::string_view name, V v) { out.emplace(name, v); });
    return out;
  }

 private:
  std::array<V, kNames.size()> values_{};
  std::bitset<kNames.size()> charged_;
};

class CycleLedger {
 public:
  void AddSeconds(Engine e, double seconds, Tag tag) {
    HEXLLM_DCHECK(seconds >= 0.0);
    busy_[static_cast<size_t>(e)] += seconds;
    tags_.Add(tag, seconds);
  }

  double EngineSeconds(Engine e) const { return busy_[static_cast<size_t>(e)]; }
  double TagSeconds(std::string_view tag) const { return tags_.Get(tag); }
  std::map<std::string, double, std::less<>> tags() const { return tags_.List(); }

  // Total bytes moved over DDR by the DMA engine (power model input).
  void AddDmaBytes(int64_t bytes) { dma_bytes_ += bytes; }
  int64_t dma_bytes() const { return dma_bytes_; }

  // Generic monotonic event counter. Units and kernels record through this so one snapshot
  // of the ledger carries the full activity profile of a simulated run.
  void AddCount(Counter c, int64_t n = 1) {
    HEXLLM_DCHECK(n >= 0);
    counts_.Add(c, n);
  }

  int64_t Count(std::string_view name) const { return counts_.Get(name); }
  std::map<std::string, int64_t, std::less<>> counts() const { return counts_.List(); }

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
    tags_.ForEachCharged([&](std::string_view tag, double seconds) {
      registry.Set("hexsim.tag_seconds", seconds, tag);
    });
    counts_.ForEachCharged([&](std::string_view name, int64_t n) {
      registry.Count((name.starts_with("kernel.") ? "" : "hexsim.") + std::string(name), n);
    });
  }

  void Clear() { *this = {}; }

  void MergeFrom(const CycleLedger& other) {
    for (size_t i = 0; i < busy_.size(); ++i) {
      busy_[i] += other.busy_[i];
    }
    tags_.MergeFrom(other.tags_);
    counts_.MergeFrom(other.counts_);
    dma_bytes_ += other.dma_bytes_;
  }

 private:
  std::array<double, static_cast<size_t>(Engine::kCount)> busy_{};
  LedgerEntries<Tag, double, kTagNames> tags_;
  LedgerEntries<Counter, int64_t, kCounterNames> counts_;
  int64_t dma_bytes_ = 0;
};

}  // namespace hexsim

#endif  // SRC_HEXSIM_CYCLE_LEDGER_H_
