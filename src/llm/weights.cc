#include "src/llm/weights.h"

#include <cmath>
#include <cstring>
#include <mutex>

#include "src/base/arena.h"
#include "src/base/check.h"
#include "src/hexsim/hmx.h"
#include "src/kernels/gemm.h"
#include "src/kernels/mixed_gemm.h"
#include "src/quant/group_quant.h"
#include "src/quant/synthetic_weights.h"
#include "src/quant/tile_quant.h"

namespace hllm {

using hexllm::F16;
using hexllm::RoundToF16;

QuantizedLinear QuantizedLinear::Create(std::span<const float> w, int64_t k, int64_t n,
                                        hquant::WeightScheme scheme) {
  HEXLLM_CHECK(static_cast<int64_t>(w.size()) == k * n);
  HEXLLM_CHECK(k % 32 == 0 && n % 32 == 0);
  QuantizedLinear q;
  q.k_ = k;
  q.n_ = n;
  q.scheme_ = scheme;
  const std::vector<float> stream = hquant::PermuteToHmxOrder(w, k, n);
  switch (scheme) {
    case hquant::WeightScheme::kQ4_0: {
      const auto blocks = hquant::QuantizeQ4_0(stream);
      q.sb4_ = hquant::CoalesceSuperblocks(blocks);
      break;
    }
    case hquant::WeightScheme::kQ8_0:
      q.b8_ = hquant::QuantizeQ8_0(stream);
      break;
    default:
      HEXLLM_CHECK_MSG(false, "unsupported NPU weight scheme");
  }
  q.cache_ = std::make_shared<DequantCache>();
  return q;
}

void QuantizedLinear::DequantCache::StoreStream(const F16* w, int64_t elems) {
  stream.assign(w, w + elems);
  decoded.resize(static_cast<size_t>(elems));
  for (int64_t t = 0; t < elems; t += hexsim::HmxEngine::kTileElems) {
    hexsim::HmxEngine::DecodeTile(w + t, decoded.data() + t);
  }
}

int64_t QuantizedLinear::quantized_bytes() const {
  return static_cast<int64_t>(sb4_.size() * sizeof(hquant::SuperBlockQ4) +
                              b8_.size() * sizeof(hquant::BlockQ8_0));
}

void QuantizedLinear::Forward(hexsim::NpuDevice& dev, const F16* x, F16* y, int m) const {
  HEXLLM_CHECK(m >= 1);
  hexllm::Arena::Frame frame(dev.tcm());
  // Dequantize the full weight stream into TCM (toy-model sizes fit; the production engine
  // processes strips — see runtime/engine.cc's cost model). With a warm cache the stream is
  // memcpy'd in and the dequant's simulated charges are replayed instead — bit-identical
  // counters, no per-element dequant simulation (docs/performance.md).
  const int64_t elems = k_ * n_;
  F16* w_tcm = dev.tcm().Alloc<F16>(elems);
  DequantCache& cache = *cache_;
  const bool q4 = scheme_ == hquant::WeightScheme::kQ4_0;
  if (cache.ready.load(std::memory_order_acquire)) {
    std::memcpy(w_tcm, cache.stream.data(), static_cast<size_t>(elems) * 2);
    if (q4) {
      dev.ledger().AddCount(hexsim::Counter::kDequantCoalescedLutCalls);
    }
    dev.hvx().CountVlut16(cache.vlut16);
  } else {
    const int64_t vlut0 = dev.hvx().vlut16_ops();
    int64_t packets = 0;
    if (q4) {
      packets = hkern::DequantCoalescedLut(dev, sb4_, w_tcm);
    } else {
      // Q8: conventional unpack (widen + scale), contiguous stores; ~8 packets per 64.
      for (size_t bi = 0; bi < b8_.size(); ++bi) {
        const float d = b8_[bi].d.ToFloat();
        for (int i = 0; i < hquant::kGroupSize; ++i) {
          w_tcm[bi * hquant::kGroupSize + i] =
              F16(RoundToF16(static_cast<float>(b8_[bi].qs[i]) * d));
        }
      }
      packets = elems / 64 * 8;
    }
    std::lock_guard<std::mutex> lock(cache.mu);
    if (!cache.ready.load(std::memory_order_relaxed)) {
      cache.StoreStream(w_tcm, elems);
      cache.packets = packets;
      // DequantCoalescedLut merges its shards before returning, so the parent-device delta
      // captures the whole call at any lane count.
      cache.vlut16 = dev.hvx().vlut16_ops() - vlut0;
      cache.ready.store(true, std::memory_order_release);
    }
  }
  dev.CommitHvxPackets(cache.packets, hexsim::Tag::kLinearDequant);

  // Any row count: the GEMM zero-packs the last partial strip itself.
  hkern::GemmF16Hmx(dev, x, w_tcm, y, m, static_cast<int>(k_), static_cast<int>(n_),
                    /*operands_in_tcm=*/true, cache.decoded.data());
}

std::vector<float> QuantizedLinear::Dequantize() const {
  std::vector<float> stream(static_cast<size_t>(k_ * n_));
  if (scheme_ == hquant::WeightScheme::kQ4_0) {
    hquant::DequantizeSuperblocks(sb4_, stream);
  } else {
    hquant::DequantizeQ8_0(b8_, stream);
  }
  return hquant::UnpermuteFromHmxOrder(stream, k_, n_);
}

namespace {

std::vector<F16> RandomGamma(int n, hexllm::Rng& rng) {
  std::vector<F16> g(static_cast<size_t>(n));
  for (auto& v : g) {
    v = F16(static_cast<float>(1.0 + 0.05 * rng.NextGaussian()));
  }
  return g;
}

QuantizedLinear RandomLinear(int64_t k, int64_t n, hquant::WeightScheme scheme,
                             hexllm::Rng& rng, double sigma) {
  hquant::WeightGenOptions opts;
  opts.sigma = sigma;
  auto w = hquant::GenerateLlmLikeMatrix(k, n, rng, opts);
  return QuantizedLinear::Create(w, k, n, scheme);
}

}  // namespace

ModelWeights ModelWeights::Random(const ModelConfig& config, uint64_t seed) {
  hexllm::Rng rng(seed);
  ModelWeights mw;
  mw.config = config;
  // Residual-branch scaling ~ 1/sqrt(2 * layers) keeps deep stacks stable.
  const double sigma = 0.7 / std::sqrt(static_cast<double>(config.hidden));
  const double out_sigma = sigma / std::sqrt(2.0 * config.layers);
  mw.layers.reserve(static_cast<size_t>(config.layers));
  for (int l = 0; l < config.layers; ++l) {
    LayerWeights lw;
    lw.wq = RandomLinear(config.hidden, config.q_dim(), config.proj_scheme, rng, sigma);
    lw.wk = RandomLinear(config.hidden, config.kv_dim(), config.proj_scheme, rng, sigma);
    lw.wv = RandomLinear(config.hidden, config.kv_dim(), config.proj_scheme, rng, sigma);
    lw.wo = RandomLinear(config.q_dim(), config.hidden, config.proj_scheme, rng, out_sigma);
    lw.w_gate = RandomLinear(config.hidden, config.ffn_hidden, config.proj_scheme, rng, sigma);
    lw.w_up = RandomLinear(config.hidden, config.ffn_hidden, config.proj_scheme, rng, sigma);
    lw.w_down =
        RandomLinear(config.ffn_hidden, config.hidden, config.ffn_down_scheme, rng, out_sigma);
    lw.attn_norm = RandomGamma(config.hidden, rng);
    lw.ffn_norm = RandomGamma(config.hidden, rng);
    mw.layers.push_back(std::move(lw));
  }
  mw.final_norm = RandomGamma(config.hidden, rng);
  mw.embedding.resize(static_cast<size_t>(config.vocab) * config.hidden);
  for (auto& v : mw.embedding) {
    v = F16(static_cast<float>(rng.NextGaussian() * 0.7 / std::sqrt(config.hidden)));
  }
  mw.lm_head.resize(static_cast<size_t>(config.hidden) * config.vocab);
  for (auto& v : mw.lm_head) {
    v = F16(static_cast<float>(rng.NextGaussian() / std::sqrt(config.hidden)));
  }
  return mw;
}

}  // namespace hllm
