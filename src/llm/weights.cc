#include "src/llm/weights.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/kernels/gemm.h"
#include "src/kernels/mixed_gemm.h"
#include "src/quant/group_quant.h"
#include "src/quant/synthetic_weights.h"
#include "src/quant/tile_quant.h"

namespace hllm {

using hexllm::F16;
using hexllm::RoundToF16;

namespace {

std::atomic<bool> g_weight_cache_enabled{true};

}  // namespace

void SetWeightCacheEnabled(bool enabled) {
  g_weight_cache_enabled.store(enabled, std::memory_order_relaxed);
}

bool WeightCacheEnabled() { return g_weight_cache_enabled.load(std::memory_order_relaxed); }

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

int64_t QuantizedLinear::quantized_bytes() const {
  return static_cast<int64_t>(sb4_.size() * sizeof(hquant::SuperBlockQ4) +
                              b8_.size() * sizeof(hquant::BlockQ8_0));
}

void QuantizedLinear::Forward(hexsim::NpuDevice& dev, const F16* x, F16* y, int m,
                              DecodeWorkspace* ws) const {
  HEXLLM_CHECK(m >= 1);
  hexsim::TcmFrame frame(dev.tcm());
  // Dequantize the full weight stream into TCM (toy-model sizes fit; the production engine
  // processes strips — see runtime/engine.cc's cost model). With a warm cache the stream is
  // memcpy'd in and the dequant's simulated charges are replayed instead — bit-identical
  // counters, no per-element LUT simulation (docs/performance.md).
  auto* w_tcm = reinterpret_cast<F16*>(dev.tcm().Alloc(k_ * n_ * 2));
  const bool cache_on = WeightCacheEnabled() && cache_ != nullptr;
  const bool cache_warm = cache_on && cache_->ready.load(std::memory_order_acquire);
  if (scheme_ == hquant::WeightScheme::kQ4_0) {
    if (cache_warm) {
      std::memcpy(w_tcm, cache_->stream.data(), static_cast<size_t>(k_ * n_) * 2);
      dev.ledger().AddCount("kernel.dequant_coalesced_lut.calls");
      dev.hvx().ReplayOps(cache_->vgather, cache_->vscatter, cache_->vlut16);
      dev.CommitHvxPackets(cache_->packets, 1, "linear.dequant");
      dev.hvx().ResetPackets();
    } else {
      const int64_t vgather0 = dev.hvx().vgather_ops();
      const int64_t vscatter0 = dev.hvx().vscatter_ops();
      const int64_t vlut0 = dev.hvx().vlut16_ops();
      const int64_t packets = hkern::DequantCoalescedLut(dev, sb4_, w_tcm);
      dev.CommitHvxPackets(packets, 1, "linear.dequant");
      dev.hvx().ResetPackets();
      if (cache_on) {
        std::lock_guard<std::mutex> lock(cache_->mu);
        if (!cache_->ready.load(std::memory_order_relaxed)) {
          cache_->stream.assign(w_tcm, w_tcm + k_ * n_);
          cache_->packets = packets;
          // DequantCoalescedLut merges its shards before returning, so the parent-device
          // deltas capture the whole call at any lane count.
          cache_->vgather = dev.hvx().vgather_ops() - vgather0;
          cache_->vscatter = dev.hvx().vscatter_ops() - vscatter0;
          cache_->vlut16 = dev.hvx().vlut16_ops() - vlut0;
          cache_->ready.store(true, std::memory_order_release);
        }
      }
    }
  } else {
    // Q8: conventional unpack (widen + scale), contiguous stores; ~8 packets per 64.
    const int64_t n_elems = k_ * n_;
    if (cache_warm) {
      std::memcpy(w_tcm, cache_->stream.data(), static_cast<size_t>(n_elems) * 2);
    } else {
      for (size_t bi = 0; bi < b8_.size(); ++bi) {
        const float d = b8_[bi].d.ToFloat();
        for (int i = 0; i < hquant::kGroupSize; ++i) {
          w_tcm[bi * hquant::kGroupSize + i] =
              F16(RoundToF16(static_cast<float>(b8_[bi].qs[i]) * d));
        }
      }
      if (cache_on) {
        std::lock_guard<std::mutex> lock(cache_->mu);
        if (!cache_->ready.load(std::memory_order_relaxed)) {
          cache_->stream.assign(w_tcm, w_tcm + n_elems);
          cache_->ready.store(true, std::memory_order_release);
        }
      }
    }
    dev.CommitHvxPackets(n_elems / 64 * 8, 1, "linear.dequant");
  }

  if (m % 32 == 0) {
    // Already tile-aligned rows: no staging copies, the GEMM reads/writes in place.
    hkern::GemmF16Hmx(dev, x, w_tcm, y, m, static_cast<int>(k_), static_cast<int>(n_),
                      /*operands_in_tcm=*/true);
    return;
  }

  // Pad the activation rows up to a full tile. valid_m = m means the GEMM never reads the
  // padding rows (and leaves the padded output rows unspecified), so the staging buffers
  // need no zero fill — only the live rows are copied in and out.
  const int m_pad = static_cast<int>(hexllm::RoundUp(m, 32));
  if (ws != nullptr) {
    DecodeWorkspace::Frame wframe(*ws);
    F16* x_pad = ws->Alloc<F16>(static_cast<int64_t>(m_pad) * k_);
    F16* y_pad = ws->Alloc<F16>(static_cast<int64_t>(m_pad) * n_);
    std::memcpy(x_pad, x, static_cast<size_t>(m) * k_ * 2);
    hkern::GemmF16Hmx(dev, x_pad, w_tcm, y_pad, m_pad, static_cast<int>(k_),
                      static_cast<int>(n_), /*operands_in_tcm=*/true, /*valid_m=*/m);
    std::memcpy(y, y_pad, static_cast<size_t>(m) * n_ * 2);
    return;
  }
  std::vector<F16> x_pad(static_cast<size_t>(m_pad) * k_, F16::Zero());
  std::memcpy(x_pad.data(), x, static_cast<size_t>(m) * k_ * 2);
  std::vector<F16> y_pad(static_cast<size_t>(m_pad) * n_);
  hkern::GemmF16Hmx(dev, x_pad.data(), w_tcm, y_pad.data(), m_pad, static_cast<int>(k_),
                    static_cast<int>(n_), /*operands_in_tcm=*/true, /*valid_m=*/m);
  std::memcpy(y, y_pad.data(), static_cast<size_t>(m) * n_ * 2);
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
