// A guided tour of the NPU op library's key techniques, at instruction level:
//
//   stop 1 — tile-group quantization: quantize a matrix in HMX stream order, coalesce
//            super-blocks, and dequantize with two vand/vshr + four vlut16 + four vmpy per
//            256 weights (§5.1, §5.2.2);
//   stop 2 — the 64 KiB exp LUT: build it in TCM, drive it with vgather, and compare its
//            accuracy against the FP16 polynomial (§5.2.1);
//   stop 3 — FP16 FlashAttention (Algorithm 1) with the component-level cycle breakdown.
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/base/rng.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/mixed_gemm.h"
#include "src/kernels/softmax.h"
#include "src/quant/group_quant.h"
#include "src/quant/synthetic_weights.h"
#include "src/quant/tile_quant.h"

using hexllm::F16;

int main() {
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  hexllm::Rng rng(2718);

  // ---- stop 1: tile-group quantization + LUT dequantization ----
  std::printf("== stop 1: tile quantization & vlut16 dequantization ==\n");
  const int64_t k = 256, n = 256;
  const auto w = hquant::GenerateLlmLikeMatrix(k, n, rng);
  const auto blocks = hquant::TileGroupQuantizeQ4(w, k, n);
  const auto sbs = hquant::CoalesceSuperblocks(blocks);
  std::printf("quantized %lldx%lld matrix into %zu Q4 groups -> %zu super-blocks (%zu B each; "
              "INT4 payload fills one 128 B HVX register)\n",
              static_cast<long long>(k), static_cast<long long>(n), blocks.size(), sbs.size(),
              sizeof(hquant::SuperBlockQ4));
  auto* w_tcm = reinterpret_cast<F16*>(dev.tcm().Alloc(k * n * 2));
  const int64_t packets = hkern::DequantCoalescedLut(dev, sbs, w_tcm);
  std::printf("dequantized on HVX with %lld packets = %.2f packets per 64 weights "
              "(conventional unpack: %.1f; baseline with scatter: %.1f)\n",
              static_cast<long long>(packets),
              static_cast<double>(packets) / (static_cast<double>(k) * n / 64),
              hkern::DequantPacketsPer64(dev.profile(), hkern::DequantKernel::kHmxLayout),
              hkern::DequantPacketsPer64(dev.profile(),
                                         hkern::DequantKernel::kBaselineScatter));

  // ---- stop 2: the exp LUT ----
  std::printf("\n== stop 2: the 64 KiB exp LUT in TCM ==\n");
  hkern::ExpLut lut(dev);
  std::printf("LUT occupies %lld KiB at TCM offset %lld (%.1f%% of TCM)\n",
              static_cast<long long>(hkern::ExpLut::kBytes >> 10),
              static_cast<long long>(lut.tcm_offset()),
              100.0 * hkern::ExpLut::kBytes / dev.tcm().capacity());
  double lut_err = 0.0, poly_err = 0.0;
  for (float x = -9.0f; x < 0.0f; x += 0.011f) {
    const F16 xh(x);
    const double exact = std::exp(static_cast<double>(xh.ToFloat()));
    lut_err += std::fabs(lut.Lookup(xh) - exact);
    hexsim::HvxVec reg = dev.hvx().VSplatHf(x);
    const auto out = hkern::ExpNonPosF16(dev, hkern::SoftmaxVariant::kF16Poly, nullptr, reg, 1);
    poly_err += std::fabs(out.GetHf(0) - exact);
  }
  std::printf("mean |error| over [-9, 0): LUT %.2e vs F16 polynomial %.2e — the LUT wins "
              "because entries are precomputed in double precision\n",
              lut_err / 819, poly_err / 819);

  // ---- stop 3: FlashAttention breakdown ----
  std::printf("\n== stop 3: FP16 FlashAttention (Algorithm 1) ==\n");
  const int q_len = 8, kv_len = 1024, d = 128;
  std::vector<F16> q(static_cast<size_t>(q_len) * d), o(q.size());
  std::vector<F16> kk(static_cast<size_t>(kv_len) * d), v(kk.size());
  for (auto& x : q) {
    x = F16(static_cast<float>(rng.NextGaussian() * 0.5));
  }
  for (size_t i = 0; i < kk.size(); ++i) {
    kk[i] = F16(static_cast<float>(rng.NextGaussian() * 0.5));
    v[i] = F16(static_cast<float>(rng.NextGaussian() * 0.5));
  }
  hkern::FlashAttentionF16(dev, lut, hkern::SoftmaxVariant::kLut, q.data(), kk.data(),
                           v.data(), o.data(), q_len, kv_len, d,
                           1.0f / std::sqrt(static_cast<float>(d)));
  const auto& ledger = dev.ledger();
  std::printf("per-component busy time (q=%d, kv=%d, d=%d):\n", q_len, kv_len, d);
  for (const char* tag : {"attn.softmax", "attn.qk", "attn.pv", "attn.rescale", "attn.pack"}) {
    std::printf("  %-14s %8.1f us\n", tag, ledger.TagSeconds(tag) * 1e6);
  }

  return 0;
}
