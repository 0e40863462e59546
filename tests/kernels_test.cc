#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/gemm.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/misc_ops.h"
#include "src/kernels/mixed_gemm.h"
#include "src/kernels/softmax.h"
#include "src/quant/group_quant.h"
#include "src/quant/tile_quant.h"

namespace hkern {
namespace {

using hexllm::F16;
using hexllm::RoundToF16;
using hexllm::Rng;
using hexsim::HvxVec;
using hexsim::NpuDevice;
using hexsim::OnePlus12;
using hexsim::OnePlusAce5Pro;

// --- exp LUT ---

TEST(ExpLutTest, Occupies64KiBOfTcm) {
  NpuDevice dev(OnePlus12());
  const int64_t before = dev.tcm().used();
  ExpLut lut(dev);
  EXPECT_EQ(dev.tcm().used() - before, 64 * 1024);
  // §5.2.1: 64 KiB / 8 MiB ~ 0.8% of TCM.
  EXPECT_LT(static_cast<double>(ExpLut::kBytes) / dev.tcm().capacity(), 0.009);
}

TEST(ExpLutTest, AccurateOverNegativeRange) {
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  for (float x = 0.0f; x >= -16.0f; x -= 0.037f) {
    const F16 xh(x);
    const float expected = std::exp(xh.ToFloat());
    const float got = lut.Lookup(xh);
    // Error bounded by FP16 output rounding (the input is exact by construction).
    EXPECT_NEAR(got, expected, expected * 1.2e-3 + 1e-7) << x;
  }
}

TEST(ExpLutTest, MinusInfinityMapsToZero) {
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  EXPECT_EQ(lut.Lookup(F16::NegInf()), 0.0f);
}

TEST(ExpLutTest, MoreAccurateThanF16Polynomial) {
  // §7.4: the LUT (built at >= 32-bit precision) beats 16-bit polynomial evaluation.
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  Rng rng(5);
  double lut_se = 0.0;
  double poly_se = 0.0;
  int n = 0;
  for (int i = 0; i < 4000; ++i) {
    const float x = RoundToF16(static_cast<float>(-10.0 * rng.NextDouble()));
    const double expected = std::exp(static_cast<double>(x));
    const double lut_v = lut.Lookup(F16(x));
    // F16 polynomial via the softmax variant machinery.
    HvxVec in = dev.hvx().VSplatHf(x);
    const HvxVec out = ExpNonPosF16(dev, SoftmaxVariant::kF16Poly, nullptr, in, 1);
    const double poly_v = out.GetHf(0);
    lut_se += (lut_v - expected) * (lut_v - expected);
    poly_se += (poly_v - expected) * (poly_v - expected);
    ++n;
  }
  EXPECT_LT(lut_se, poly_se);
}

// --- exp variants ---

class ExpVariantTest : public ::testing::TestWithParam<SoftmaxVariant> {};

TEST_P(ExpVariantTest, MatchesExpWithinF16Tolerance) {
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  Rng rng(11);
  HvxVec in{};
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    in.SetHf(i, static_cast<float>(-8.0 * rng.NextDouble()));
  }
  const HvxVec out = ExpNonPosF16(dev, GetParam(), &lut, in, 1);
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    const float expected = std::exp(in.GetHf(i));
    EXPECT_NEAR(out.GetHf(i), expected, expected * 8e-3 + 1e-6) << i;
  }
}

TEST_P(ExpVariantTest, PacketCountMatchesCostModel) {
  for (const auto* profile : {&OnePlus12(), &OnePlusAce5Pro()}) {
    NpuDevice dev(*profile);
    ExpLut lut(dev);
    for (int rows : {1, 4, 16, 64}) {
      HvxVec in = dev.hvx().VSplatHf(-1.0f);
      const int64_t start = dev.hvx().issued();
      (void)ExpNonPosF16(dev, GetParam(), &lut, in, rows);
      EXPECT_EQ(dev.hvx().issued() - start, ExpRegPacketCost(*profile, GetParam(), rows))
          << profile->device_name << " rows=" << rows;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ExpVariantTest,
                         ::testing::Values(SoftmaxVariant::kF32Poly, SoftmaxVariant::kF16Poly,
                                           SoftmaxVariant::kLut),
                         [](const auto& info) {
                           switch (info.param) {
                             case SoftmaxVariant::kF32Poly:
                               return "F32Poly";
                             case SoftmaxVariant::kF16Poly:
                               return "F16Poly";
                             default:
                               return "Lut";
                           }
                         });

TEST(ExpVariantTest, LutIsCheapestAndF32IsMostExpensive) {
  const auto& p = OnePlus12();
  const int64_t f32 = ExpRegPacketCost(p, SoftmaxVariant::kF32Poly, 1);
  const int64_t f16 = ExpRegPacketCost(p, SoftmaxVariant::kF16Poly, 1);
  const int64_t lutc = ExpRegPacketCost(p, SoftmaxVariant::kLut, 1);
  EXPECT_LT(lutc, f16);
  EXPECT_LT(f16, f32);
}

TEST(ExpVariantTest, GatherContentionGrowsWithRows) {
  const auto& p = OnePlus12();
  const int64_t one = ExpRegPacketCost(p, SoftmaxVariant::kLut, 1);
  const int64_t sixteen = ExpRegPacketCost(p, SoftmaxVariant::kLut, 16);
  EXPECT_GT(sixteen, one);
  // Saturates at 16 in-flight rows.
  EXPECT_EQ(ExpRegPacketCost(p, SoftmaxVariant::kLut, 64), sixteen);
}

// --- softmax ---

class SoftmaxTest : public ::testing::TestWithParam<SoftmaxVariant> {};

TEST_P(SoftmaxTest, RowsSumToOneAndMatchReference) {
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  const int rows = 3;
  const int cols = 128;
  Rng rng(21);
  auto* s = reinterpret_cast<F16*>(dev.tcm().Alloc(rows * cols * 2));
  std::vector<float> ref(static_cast<size_t>(rows) * cols);
  for (int i = 0; i < rows * cols; ++i) {
    const float v = static_cast<float>(rng.NextGaussian() * 3.0);
    s[i] = F16(v);
    ref[static_cast<size_t>(i)] = s[i].ToFloat();
  }
  SoftmaxRowsF16(dev, GetParam(), &lut, s, rows, cols);
  for (int r = 0; r < rows; ++r) {
    // Reference row softmax in double.
    double m = -1e30;
    for (int c = 0; c < cols; ++c) {
      m = std::max(m, static_cast<double>(ref[static_cast<size_t>(r * cols + c)]));
    }
    double l = 0.0;
    for (int c = 0; c < cols; ++c) {
      l += std::exp(ref[static_cast<size_t>(r * cols + c)] - m);
    }
    float sum = 0.0f;
    for (int c = 0; c < cols; ++c) {
      const float got = s[r * cols + c].ToFloat();
      const float expected =
          static_cast<float>(std::exp(ref[static_cast<size_t>(r * cols + c)] - m) / l);
      EXPECT_NEAR(got, expected, 0.01) << r << "," << c;
      sum += got;
    }
    EXPECT_NEAR(sum, 1.0f, 0.02f);
  }
}

TEST_P(SoftmaxTest, PacketCostModelMatchesEmulation) {
  for (const auto* profile : {&OnePlus12(), &OnePlusAce5Pro()}) {
    NpuDevice dev(*profile);
    ExpLut lut(dev);
    const int rows = 4;
    const int cols = 256;
    auto* s = reinterpret_cast<F16*>(dev.tcm().Alloc(rows * cols * 2));
    for (int i = 0; i < rows * cols; ++i) {
      s[i] = F16(-0.5f);
    }
    const int64_t before = dev.hvx().packets();
    SoftmaxRowsF16(dev, GetParam(), &lut, s, rows, cols);
    EXPECT_EQ(dev.hvx().packets() - before, SoftmaxPacketCost(*profile, GetParam(), rows, cols))
        << profile->device_name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, SoftmaxTest,
                         ::testing::Values(SoftmaxVariant::kF32Poly, SoftmaxVariant::kF16Poly,
                                           SoftmaxVariant::kLut),
                         [](const auto& info) {
                           switch (info.param) {
                             case SoftmaxVariant::kF32Poly:
                               return "F32Poly";
                             case SoftmaxVariant::kF16Poly:
                               return "F16Poly";
                             default:
                               return "Lut";
                           }
                         });

TEST(SoftmaxTest, LutSpeedupInPaperRange) {
  // Figure 14: LUT exp is 1.26-2.19x faster than F32 exp across (q, kv) workloads.
  const auto& p = OnePlus12();
  for (int q : {1, 4, 16}) {
    for (int kv : {1024, 4096, 16384}) {
      const int64_t f32 = SoftmaxPacketCost(p, SoftmaxVariant::kF32Poly, q, kv);
      const int64_t lutc = SoftmaxPacketCost(p, SoftmaxVariant::kLut, q, kv);
      const double speedup = static_cast<double>(f32) / lutc;
      EXPECT_GE(speedup, 1.2) << "q=" << q << " kv=" << kv;
      EXPECT_LE(speedup, 2.3) << "q=" << q << " kv=" << kv;
    }
  }
}

TEST(SoftmaxTest, LargerQueryReducesLutSpeedup) {
  const auto& p = OnePlus12();
  const double s1 =
      static_cast<double>(SoftmaxPacketCost(p, SoftmaxVariant::kF32Poly, 1, 1024)) /
      SoftmaxPacketCost(p, SoftmaxVariant::kLut, 1, 1024);
  const double s16 =
      static_cast<double>(SoftmaxPacketCost(p, SoftmaxVariant::kF32Poly, 16, 1024)) /
      SoftmaxPacketCost(p, SoftmaxVariant::kLut, 16, 1024);
  EXPECT_LT(s16, s1);
}

// --- flash attention ---

TEST(FlashAttentionTest, MatchesF32Reference) {
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  Rng rng(31);
  const int q_len = 7;
  const int kv_len = 150;
  const int d = 64;
  std::vector<F16> q(static_cast<size_t>(q_len) * d);
  std::vector<F16> k(static_cast<size_t>(kv_len) * d);
  std::vector<F16> v(static_cast<size_t>(kv_len) * d);
  std::vector<F16> o(static_cast<size_t>(q_len) * d);
  std::vector<float> qf(q.size()), kf(k.size()), vf(v.size()), of(o.size());
  for (size_t i = 0; i < q.size(); ++i) {
    q[i] = F16(static_cast<float>(rng.NextGaussian()));
    qf[i] = q[i].ToFloat();
  }
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = F16(static_cast<float>(rng.NextGaussian()));
    kf[i] = k[i].ToFloat();
    v[i] = F16(static_cast<float>(rng.NextGaussian()));
    vf[i] = v[i].ToFloat();
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  FlashAttentionF16(dev, lut, SoftmaxVariant::kLut, q.data(), k.data(), v.data(), o.data(),
                    q_len, kv_len, d, scale);
  AttentionF32Reference(qf.data(), kf.data(), vf.data(), of.data(), q_len, kv_len, d, scale);
  for (size_t i = 0; i < o.size(); ++i) {
    EXPECT_NEAR(o[i].ToFloat(), of[i], 0.03) << i;
  }
}

TEST(FlashAttentionTest, AllExpVariantsAgree) {
  Rng rng(32);
  const int q_len = 4;
  const int kv_len = 96;
  const int d = 32;
  std::vector<F16> q(static_cast<size_t>(q_len) * d);
  std::vector<F16> k(static_cast<size_t>(kv_len) * d);
  std::vector<F16> v(static_cast<size_t>(kv_len) * d);
  for (auto& x : q) {
    x = F16(static_cast<float>(rng.NextGaussian()));
  }
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = F16(static_cast<float>(rng.NextGaussian()));
    v[i] = F16(static_cast<float>(rng.NextGaussian()));
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<std::vector<F16>> outs;
  for (const auto variant :
       {SoftmaxVariant::kLut, SoftmaxVariant::kF16Poly, SoftmaxVariant::kF32Poly}) {
    NpuDevice dev(OnePlus12());
    ExpLut lut(dev);
    std::vector<F16> o(static_cast<size_t>(q_len) * d);
    FlashAttentionF16(dev, lut, variant, q.data(), k.data(), v.data(), o.data(), q_len, kv_len,
                      d, scale);
    outs.push_back(std::move(o));
  }
  for (size_t i = 0; i < outs[0].size(); ++i) {
    EXPECT_NEAR(outs[0][i].ToFloat(), outs[1][i].ToFloat(), 0.02);
    EXPECT_NEAR(outs[0][i].ToFloat(), outs[2][i].ToFloat(), 0.02);
  }
}

TEST(FlashAttentionTest, CausalMaskMatchesMaskedReference) {
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  Rng rng(33);
  const int q_len = 6;
  const int kv_len = 40;
  const int d = 32;
  const int offset = kv_len - q_len;  // standard self-attention alignment
  std::vector<F16> q(static_cast<size_t>(q_len) * d);
  std::vector<F16> k(static_cast<size_t>(kv_len) * d);
  std::vector<F16> v(static_cast<size_t>(kv_len) * d);
  std::vector<F16> o(q.size());
  std::vector<float> qf(q.size()), kf(k.size()), vf(v.size());
  for (size_t i = 0; i < q.size(); ++i) {
    q[i] = F16(static_cast<float>(rng.NextGaussian()));
    qf[i] = q[i].ToFloat();
  }
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = F16(static_cast<float>(rng.NextGaussian()));
    kf[i] = k[i].ToFloat();
    v[i] = F16(static_cast<float>(rng.NextGaussian()));
    vf[i] = v[i].ToFloat();
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  FlashAttentionF16(dev, lut, SoftmaxVariant::kLut, q.data(), k.data(), v.data(), o.data(),
                    q_len, kv_len, d, scale, offset);
  // Reference: row r attends to positions [0, offset + r].
  for (int r = 0; r < q_len; ++r) {
    const int visible = offset + r + 1;
    std::vector<float> o_ref(static_cast<size_t>(d));
    AttentionF32Reference(qf.data() + static_cast<size_t>(r) * d, kf.data(), vf.data(),
                          o_ref.data(), 1, visible, d, scale);
    for (int c = 0; c < d; ++c) {
      EXPECT_NEAR(o[static_cast<size_t>(r) * d + c].ToFloat(), o_ref[static_cast<size_t>(c)],
                  0.03)
          << r << "," << c;
    }
  }
}

TEST(FlashAttentionTest, CausalSkipsFutureChunksAndCostsLess) {
  // Query at position 0 of a long KV: every chunk beyond the first is fully masked and
  // must be skipped, making the causal call far cheaper than the unmasked one.
  std::vector<F16> q(static_cast<size_t>(1) * 64, F16(0.1f));
  std::vector<F16> k(static_cast<size_t>(2048) * 64, F16(0.1f));
  std::vector<F16> v(k.size(), F16(0.1f));
  std::vector<F16> o(q.size());
  double causal_s = 0.0;
  double full_s = 0.0;
  {
    NpuDevice dev(OnePlus12());
    ExpLut lut(dev);
    FlashAttentionF16(dev, lut, SoftmaxVariant::kLut, q.data(), k.data(), v.data(), o.data(),
                      1, 2048, 64, 0.125f, /*q_pos_offset=*/0);
    causal_s = dev.ledger().TagSeconds("attn.softmax") + dev.ledger().TagSeconds("dma");
  }
  {
    NpuDevice dev(OnePlus12());
    ExpLut lut(dev);
    FlashAttentionF16(dev, lut, SoftmaxVariant::kLut, q.data(), k.data(), v.data(), o.data(),
                      1, 2048, 64, 0.125f);
    full_s = dev.ledger().TagSeconds("attn.softmax") + dev.ledger().TagSeconds("dma");
  }
  EXPECT_LT(causal_s, full_s / 8.0);
}

TEST(FlashAttentionTest, SoftmaxDominatesAtLongContext) {
  // Figure 8's headline: at long KV, Softmax (HVX) dwarfs the HMX matmuls.
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  const int q_len = 16;
  const int kv_len = 1024;
  const int d = 64;
  std::vector<F16> q(static_cast<size_t>(q_len) * d, F16(0.1f));
  std::vector<F16> k(static_cast<size_t>(kv_len) * d, F16(0.1f));
  std::vector<F16> v(static_cast<size_t>(kv_len) * d, F16(0.1f));
  std::vector<F16> o(static_cast<size_t>(q_len) * d);
  FlashAttentionF16(dev, lut, SoftmaxVariant::kLut, q.data(), k.data(), v.data(), o.data(),
                    q_len, kv_len, d, 0.125f);
  const auto& ledger = dev.ledger();
  const double softmax_s = ledger.TagSeconds("attn.softmax");
  const double matmul_s = ledger.TagSeconds("attn.qk") + ledger.TagSeconds("attn.pv");
  EXPECT_GT(softmax_s, 4.0 * matmul_s);
}

TEST(FlashAttentionTest, CostModelTracksEmulation) {
  NpuDevice dev(OnePlus12());
  ExpLut lut(dev);
  const int q_len = 8;
  const int kv_len = 512;
  const int d = 64;
  std::vector<F16> q(static_cast<size_t>(q_len) * d, F16(0.1f));
  std::vector<F16> k(static_cast<size_t>(kv_len) * d, F16(0.1f));
  std::vector<F16> v(static_cast<size_t>(kv_len) * d, F16(0.1f));
  std::vector<F16> o(static_cast<size_t>(q_len) * d);
  FlashAttentionF16(dev, lut, SoftmaxVariant::kLut, q.data(), k.data(), v.data(), o.data(),
                    q_len, kv_len, d, 0.125f);
  const AttentionCost cost = FlashAttentionCost(OnePlus12(), SoftmaxVariant::kLut, q_len,
                                                kv_len, d);
  const auto& ledger = dev.ledger();
  EXPECT_NEAR(cost.hvx_softmax_s, ledger.TagSeconds("attn.softmax"),
              0.15 * ledger.TagSeconds("attn.softmax"));
  EXPECT_NEAR(cost.hmx_qk_s + cost.hmx_pv_s,
              ledger.TagSeconds("attn.qk") + ledger.TagSeconds("attn.pv"),
              0.01 * (ledger.TagSeconds("attn.qk") + ledger.TagSeconds("attn.pv")) + 1e-9);
  EXPECT_NEAR(cost.hvx_pack_s, ledger.TagSeconds("attn.pack"),
              0.2 * ledger.TagSeconds("attn.pack"));
}

// --- GEMM ---

TEST(GemmTest, HmxMatchesReference) {
  NpuDevice dev(OnePlus12());
  Rng rng(41);
  const int m = 32;
  const int k = 64;
  const int n = 64;
  std::vector<F16> a(static_cast<size_t>(m) * k);
  std::vector<float> w(static_cast<size_t>(k) * n);  // column-major
  for (auto& x : a) {
    x = F16(static_cast<float>(rng.NextGaussian() * 0.5));
  }
  for (auto& x : w) {
    x = static_cast<float>(rng.NextGaussian() * 0.5);
  }
  // Pack B into tile stream order via the quant permutation (stream order == tile layout).
  const auto stream = hquant::PermuteToHmxOrder(w, k, n);
  std::vector<F16> b_tiles(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    b_tiles[i] = F16(stream[i]);
  }
  std::vector<F16> c(static_cast<size_t>(m) * n);
  GemmF16Hmx(dev, a.data(), b_tiles.data(), c.data(), m, k, n, /*operands_in_tcm=*/false);
  for (int mi = 0; mi < m; ++mi) {
    for (int ni = 0; ni < n; ++ni) {
      float expected = 0.0f;
      for (int ki = 0; ki < k; ++ki) {
        expected += a[static_cast<size_t>(mi) * k + ki].ToFloat() *
                    RoundToF16(w[static_cast<size_t>(ni) * k + ki]);
      }
      EXPECT_NEAR(c[static_cast<size_t>(mi) * n + ni].ToFloat(), expected,
                  std::fabs(expected) * 2e-3 + 2e-2)
          << mi << "," << ni;
    }
  }
}

// Any row count runs on buffers of exactly m rows: the GEMM zero-packs the last partial
// strip in TCM and writes back only the live rows. Outputs and every counter equal a run on
// a zero-padded m_pad-row copy, whose charges are those of whole 32-row tiles.
TEST(GemmTest, HmxTakesAnyRowCountOnExactBuffers) {
  Rng rng(43);
  const int k = 64;
  const int n = 96;
  std::vector<float> w(static_cast<size_t>(k) * n);
  for (auto& x : w) {
    x = static_cast<float>(rng.NextGaussian() * 0.5);
  }
  const auto stream = hquant::PermuteToHmxOrder(w, k, n);
  std::vector<F16> b_tiles(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    b_tiles[i] = F16(stream[i]);
  }
  for (const bool in_tcm : {false, true}) {
    for (const int m : {1, 17, 32, 33, 63}) {
      const int m_pad = (m + 31) / 32 * 32;
      std::vector<F16> a(static_cast<size_t>(m) * k);
      for (auto& x : a) {
        x = F16(static_cast<float>(rng.NextGaussian() * 0.5));
      }
      std::vector<F16> a_pad(static_cast<size_t>(m_pad) * k);  // zero rows beyond m
      std::copy(a.begin(), a.end(), a_pad.begin());
      std::vector<F16> c(static_cast<size_t>(m) * n);
      std::vector<F16> c_pad(static_cast<size_t>(m_pad) * n);
      NpuDevice dev(OnePlus12());
      NpuDevice dev_pad(OnePlus12());
      const double s = GemmF16Hmx(dev, a.data(), b_tiles.data(), c.data(), m, k, n, in_tcm);
      const double s_pad = GemmF16Hmx(dev_pad, a_pad.data(), b_tiles.data(), c_pad.data(),
                                      m_pad, k, n, in_tcm);
      SCOPED_TRACE(testing::Message() << "m=" << m << " in_tcm=" << in_tcm);
      EXPECT_EQ(std::memcmp(c.data(), c_pad.data(), c.size() * sizeof(F16)), 0);
      EXPECT_EQ(s, s_pad);
      EXPECT_EQ(dev.hmx().tile_ops(), GemmF16HmxTileOps(m_pad, k, n));
      EXPECT_EQ(dev.hmx().tile_ops(), dev_pad.hmx().tile_ops());
      EXPECT_EQ(dev.hvx().packets(), dev_pad.hvx().packets());
      EXPECT_EQ(dev.ledger().counts(), dev_pad.ledger().counts());
      EXPECT_EQ(dev.ledger().dma_bytes(), dev_pad.ledger().dma_bytes());
      EXPECT_EQ(dev.ledger().tags(), dev_pad.ledger().tags());
      for (int e = 0; e < static_cast<int>(hexsim::Engine::kCount); ++e) {
        const auto engine = static_cast<hexsim::Engine>(e);
        EXPECT_EQ(dev.ledger().EngineSeconds(engine), dev_pad.ledger().EngineSeconds(engine))
            << hexsim::EngineName(engine);
      }
    }
  }
}

TEST(GemmTest, HvxMatchesHmxApproximately) {
  NpuDevice dev(OnePlus12());
  Rng rng(42);
  const int m = 2;
  const int k = 32;
  const int n = 64;
  std::vector<F16> a(static_cast<size_t>(m) * k);
  std::vector<F16> b_rm(static_cast<size_t>(k) * n);  // row-major for HVX
  for (auto& x : a) {
    x = F16(static_cast<float>(rng.NextGaussian() * 0.3));
  }
  for (auto& x : b_rm) {
    x = F16(static_cast<float>(rng.NextGaussian() * 0.3));
  }
  std::vector<F16> c(static_cast<size_t>(m) * n);
  GemmF16Hvx(dev, a.data(), b_rm.data(), c.data(), m, k, n);
  for (int mi = 0; mi < m; ++mi) {
    for (int ni = 0; ni < n; ++ni) {
      float expected = 0.0f;
      for (int ki = 0; ki < k; ++ki) {
        expected += a[static_cast<size_t>(mi) * k + ki].ToFloat() *
                    b_rm[static_cast<size_t>(ki) * n + ni].ToFloat();
      }
      EXPECT_NEAR(c[static_cast<size_t>(mi) * n + ni].ToFloat(), expected, 0.1);
    }
  }
}

TEST(GemmTest, Table2PeakRatio) {
  // Table 2: HMX ~12032 GFLOPS vs ~33 GFLOPS for one HVX thread — a ~365x gap.
  const auto& p = OnePlus12();
  const double flops = 2.0 * 1024 * 1024 * 1024;
  hexsim::HmxEngine hmx(p);
  const double hmx_s = hmx.TileOpsToSeconds(GemmF16HmxTileOps(1024, 1024, 1024));
  const double hmx_gflops = flops / hmx_s / 1e9;
  const int64_t hvx_packets = GemmF16HvxPackets(p, 1024, 1024, 1024);
  const double hvx_s = static_cast<double>(hvx_packets) / (p.hvx_freq_ghz * 1e9);
  const double hvx_gflops = flops / hvx_s / 1e9;
  EXPECT_NEAR(hmx_gflops, 12032.0, 200.0);
  EXPECT_NEAR(hvx_gflops, 32.9, 3.0);
  EXPECT_GT(hmx_gflops / hvx_gflops, 300.0);
}

// --- mixed GEMM / dequant kernels ---

TEST(DequantKernelTest, CoalescedLutMatchesReference) {
  NpuDevice dev(OnePlus12());
  Rng rng(51);
  std::vector<float> values(256 * 8);
  for (auto& v : values) {
    v = static_cast<float>(rng.NextGaussian() * 0.05);
  }
  const auto blocks = hquant::QuantizeQ4_0(values);
  const auto sbs = hquant::CoalesceSuperblocks(blocks);
  auto* out = reinterpret_cast<F16*>(dev.tcm().Alloc(values.size() * 2));
  const int64_t packets = DequantCoalescedLut(dev, sbs, out);
  std::vector<float> ref(values.size());
  hquant::DequantizeSuperblocks(sbs, ref);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(out[i].ToFloat(), RoundToF16(ref[static_cast<size_t>(i)]),
                std::fabs(ref[i]) * 2e-3 + 1e-6)
        << i;
  }
  // 17 packets per super-block plus 4 hoisted setup packets.
  EXPECT_EQ(packets, static_cast<int64_t>(sbs.size()) * 17 + 4);
}

TEST(DequantKernelTest, HmxLayoutMatchesReference) {
  NpuDevice dev(OnePlus12());
  Rng rng(52);
  std::vector<float> values(32 * 16);
  for (auto& v : values) {
    v = static_cast<float>(rng.NextGaussian() * 0.05);
  }
  const auto blocks = hquant::QuantizeQ4_0(values);
  auto* out = reinterpret_cast<F16*>(dev.tcm().Alloc(values.size() * 2));
  const int64_t packets = DequantHmxLayout(dev, blocks, out);
  std::vector<float> ref(values.size());
  hquant::DequantizeQ4_0(blocks, ref);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(out[i].ToFloat(), RoundToF16(ref[i]), std::fabs(ref[i]) * 2e-3 + 1e-6);
  }
  const double per64 = DequantPacketsPer64(OnePlus12(), DequantKernel::kHmxLayout);
  EXPECT_EQ(packets, static_cast<int64_t>(per64 * values.size() / 64));
}

TEST(DequantKernelTest, BaselineScatterProducesHmxStreamOrder) {
  NpuDevice dev(OnePlus12());
  Rng rng(53);
  const int64_t k = 128;
  const int64_t n = 32;
  std::vector<float> w(static_cast<size_t>(k * n));
  for (auto& v : w) {
    v = static_cast<float>(rng.NextGaussian() * 0.05);
  }
  const auto blocks = hquant::ConventionalGroupQuantizeQ4(w, k, n);
  auto* out = reinterpret_cast<F16*>(dev.tcm().Alloc(k * n * 2));
  const int64_t packets = DequantBaselineScatter(dev, blocks, k, n, out);
  // Expected: conventional dequant placed at HMX stream positions.
  std::vector<float> deq(w.size());
  hquant::DequantizeQ4_0(blocks, deq);
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t nn = 0; nn < n; ++nn) {
      const int64_t stream = hquant::KnToHmxStream(kk, nn, k, n);
      EXPECT_NEAR(out[stream].ToFloat(), RoundToF16(deq[static_cast<size_t>(nn * k + kk)]),
                  1e-3);
    }
  }
  const double per64 = DequantPacketsPer64(OnePlus12(), DequantKernel::kBaselineScatter);
  EXPECT_EQ(packets, static_cast<int64_t>(per64 * static_cast<double>(k * n) / 64));
}

TEST(DequantKernelTest, PacketOrdering) {
  const auto& p = OnePlus12();
  const double baseline = DequantPacketsPer64(p, DequantKernel::kBaselineScatter);
  const double hmx = DequantPacketsPer64(p, DequantKernel::kHmxLayout);
  const double ours = DequantPacketsPer64(p, DequantKernel::kCoalescedLut);
  EXPECT_GT(baseline, 4.0 * hmx);
  EXPECT_GT(hmx, 2.0 * ours);
  EXPECT_EQ(DequantPacketsPer64(p, DequantKernel::kNoDequant), 0.0);
}

TEST(MixedGemmCostTest, Figure15RatiosInPaperRange) {
  // Figure 15 (GEMV on OnePlus 12): ours is 9.65-19x over baseline, 1.82-3.45x over the
  // HMX-layout-only variant, and within ~27-40% of the no-dequant upper bound.
  const auto& p = OnePlus12();
  const struct {
    int k;
    int n;
  } shapes[] = {{1536, 1536}, {1536, 8960}, {2048, 2048}, {3072, 8192}, {2048, 8192}};
  for (const auto& s : shapes) {
    const auto base = MixedGemmCostModel(p, DequantKernel::kBaselineScatter,
                                         hquant::WeightScheme::kQ4_0, 1, s.k, s.n, 4);
    const auto hmx = MixedGemmCostModel(p, DequantKernel::kHmxLayout,
                                        hquant::WeightScheme::kQ4_0, 1, s.k, s.n, 4);
    const auto ours = MixedGemmCostModel(p, DequantKernel::kCoalescedLut,
                                         hquant::WeightScheme::kQ4_0, 1, s.k, s.n, 4);
    const auto nodeq = MixedGemmCostModel(p, DequantKernel::kNoDequant,
                                          hquant::WeightScheme::kQ4_0, 1, s.k, s.n, 4);
    const double r_base = base.total_s / ours.total_s;
    const double r_hmx = hmx.total_s / ours.total_s;
    const double r_nodeq = ours.total_s / nodeq.total_s;
    EXPECT_GE(r_base, 8.0) << s.k << "x" << s.n;
    EXPECT_LE(r_base, 20.0) << s.k << "x" << s.n;
    EXPECT_GE(r_hmx, 1.7) << s.k << "x" << s.n;
    EXPECT_LE(r_hmx, 3.6) << s.k << "x" << s.n;
    EXPECT_GE(r_nodeq, 1.05) << s.k << "x" << s.n;
    EXPECT_LE(r_nodeq, 1.55) << s.k << "x" << s.n;
  }
}

TEST(MixedGemmCostTest, BatchBarelyIncreasesGemmCost) {
  // §3.2's core observation: growing M from 1 to 16 leaves the mixed GEMM cost nearly
  // unchanged (the HMX tile is 32 rows tall; dequant and DMA are batch-independent).
  const auto& p = OnePlus12();
  const auto b1 = MixedGemmCostModel(p, DequantKernel::kCoalescedLut,
                                     hquant::WeightScheme::kQ4_0, 1, 2048, 2048, 4);
  const auto b16 = MixedGemmCostModel(p, DequantKernel::kCoalescedLut,
                                      hquant::WeightScheme::kQ4_0, 16, 2048, 2048, 4);
  EXPECT_LT(b16.total_s, b1.total_s * 1.1);
}

// --- misc ops ---

TEST(MiscOpsTest, RmsNormMatchesReference) {
  NpuDevice dev(OnePlus12());
  Rng rng(61);
  const int rows = 2;
  const int width = 128;
  std::vector<F16> x(static_cast<size_t>(rows) * width);
  std::vector<F16> gamma(width);
  std::vector<F16> y(x.size());
  for (auto& v : x) {
    v = F16(static_cast<float>(rng.NextGaussian()));
  }
  for (auto& v : gamma) {
    v = F16(static_cast<float>(1.0 + 0.1 * rng.NextGaussian()));
  }
  RmsNormF16(dev, x.data(), gamma.data(), y.data(), rows, width, 1e-5f);
  for (int r = 0; r < rows; ++r) {
    double ss = 0.0;
    for (int c = 0; c < width; ++c) {
      const double v = x[static_cast<size_t>(r * width + c)].ToFloat();
      ss += v * v;
    }
    const double inv = 1.0 / std::sqrt(ss / width + 1e-5);
    for (int c = 0; c < width; ++c) {
      const double expected = x[static_cast<size_t>(r * width + c)].ToFloat() * inv *
                              gamma[static_cast<size_t>(c)].ToFloat();
      EXPECT_NEAR(y[static_cast<size_t>(r * width + c)].ToFloat(), expected, 0.01);
    }
  }
  EXPECT_GT(dev.ledger().TagSeconds("misc.rmsnorm"), 0.0);
}

TEST(MiscOpsTest, RopePreservesPairNorms) {
  NpuDevice dev(OnePlus12());
  Rng rng(62);
  const int rows = 3;
  const int d = 64;
  std::vector<F16> x(static_cast<size_t>(rows) * d);
  std::vector<float> orig(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = F16(static_cast<float>(rng.NextGaussian()));
    orig[i] = x[i].ToFloat();
  }
  RopeF16(dev, x.data(), rows, d, /*pos0=*/5, 10000.0f);
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < d / 2; ++i) {
      const float a0 = orig[static_cast<size_t>(r * d + 2 * i)];
      const float b0 = orig[static_cast<size_t>(r * d + 2 * i + 1)];
      const float a1 = x[static_cast<size_t>(r * d + 2 * i)].ToFloat();
      const float b1 = x[static_cast<size_t>(r * d + 2 * i + 1)].ToFloat();
      EXPECT_NEAR(a1 * a1 + b1 * b1, a0 * a0 + b0 * b0, 0.03);
    }
  }
}

TEST(MiscOpsTest, RopeAtPositionZeroFirstRowIsIdentity) {
  NpuDevice dev(OnePlus12());
  const int d = 64;
  std::vector<F16> x(d, F16(0.5f));
  RopeF16(dev, x.data(), 1, d, /*pos0=*/0, 10000.0f);
  for (int i = 0; i < d; ++i) {
    EXPECT_FLOAT_EQ(x[static_cast<size_t>(i)].ToFloat(), 0.5f);
  }
}

TEST(MiscOpsTest, SiluMulMatchesReference) {
  NpuDevice dev(OnePlus12());
  Rng rng(63);
  const int64_t n = 128;
  std::vector<F16> a(n), b(n), y(n);
  for (int64_t i = 0; i < n; ++i) {
    a[static_cast<size_t>(i)] = F16(static_cast<float>(rng.NextGaussian()));
    b[static_cast<size_t>(i)] = F16(static_cast<float>(rng.NextGaussian()));
  }
  SiluMulF16(dev, a.data(), b.data(), y.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    const float av = a[static_cast<size_t>(i)].ToFloat();
    const float expected = av / (1.0f + std::exp(-av)) * b[static_cast<size_t>(i)].ToFloat();
    EXPECT_NEAR(y[static_cast<size_t>(i)].ToFloat(), expected, 0.01);
  }
}

TEST(MiscOpsTest, SiluMulTableMatchesPerElementExpressionForEveryInput) {
  // SiluMulF16 looks silu(a) up by a's 16 bits. For every one of the 65,536 inputs and
  // multipliers of each kind (one, a negative fraction, both zeros, the smallest subnormal,
  // the largest finite), the output bits must equal the per-element FP32 expression the
  // table replaced.
  NpuDevice dev(OnePlus12());
  const int64_t n = 65536;
  std::vector<F16> a(n), b(n), y(n);
  for (int64_t i = 0; i < n; ++i) {
    a[static_cast<size_t>(i)] = F16::FromBits(static_cast<uint16_t>(i));
  }
  for (const F16 bv : {F16(1.0f), F16(-0.5f), F16::FromBits(0x0000), F16::FromBits(0x8000),
                       F16::FromBits(0x0001), F16::Max()}) {
    SCOPED_TRACE(bv.bits());
    std::fill(b.begin(), b.end(), bv);
    SiluMulF16(dev, a.data(), b.data(), y.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      const float av = a[static_cast<size_t>(i)].ToFloat();
      const float silu = av / (1.0f + std::exp(-av));
      const F16 expected(RoundToF16(RoundToF16(silu) * bv.ToFloat()));
      ASSERT_EQ(y[static_cast<size_t>(i)].bits(), expected.bits()) << "a bits " << i;
    }
  }
}

TEST(MiscOpsTest, AddF16) {
  NpuDevice dev(OnePlus12());
  std::vector<F16> a(64, F16(1.25f)), b(64, F16(2.5f)), y(64);
  AddF16(dev, a.data(), b.data(), y.data(), 64);
  for (const auto& v : y) {
    EXPECT_FLOAT_EQ(v.ToFloat(), 3.75f);
  }
}

// --- lm_head ---

TEST(LmHeadTest, CostScalesSubLinearlyAtSmallBatchThenLinearly) {
  const auto& p = OnePlus12();
  const auto c1 = LmHeadCostModel(p, 1, 1536, 151936, hquant::WeightScheme::kF16);
  const auto c4 = LmHeadCostModel(p, 4, 1536, 151936, hquant::WeightScheme::kF16);
  const auto c16 = LmHeadCostModel(p, 16, 1536, 151936, hquant::WeightScheme::kF16);
  // Batch 1 is bandwidth-bound: batch 4 reuses the streamed weights.
  EXPECT_LT(c4.seconds, c1.seconds * 2.5);
  // By batch 16 it is compute-bound and roughly linear in batch.
  EXPECT_GT(c16.seconds, c4.seconds * 2.0);
  EXPECT_EQ(c16.cores_used, 4);
}

TEST(LmHeadTest, ForwardMatchesReference) {
  Rng rng(71);
  const int batch = 2;
  const int hidden = 16;
  const int64_t vocab = 8;
  std::vector<F16> h(static_cast<size_t>(batch) * hidden);
  std::vector<F16> w(static_cast<size_t>(hidden) * vocab);
  for (auto& v : h) {
    v = F16(static_cast<float>(rng.NextGaussian()));
  }
  for (auto& v : w) {
    v = F16(static_cast<float>(rng.NextGaussian()));
  }
  std::vector<float> logits(static_cast<size_t>(batch) * vocab);
  LmHeadForward(h.data(), w.data(), logits.data(), batch, hidden, vocab);
  for (int b = 0; b < batch; ++b) {
    for (int64_t v = 0; v < vocab; ++v) {
      float expected = 0.0f;
      for (int i = 0; i < hidden; ++i) {
        expected += h[static_cast<size_t>(b * hidden + i)].ToFloat() *
                    w[static_cast<size_t>(v * hidden + i)].ToFloat();
      }
      EXPECT_NEAR(logits[static_cast<size_t>(b * vocab + v)], expected, 1e-4);
    }
  }
}

// --- sliding-window + attention-sink masking (docs/long_context.md) ---

TEST(AttnWindowTest, SpecSemantics) {
  AttnWindowSpec off;
  EXPECT_FALSE(off.enabled());  // window_blocks == 0 disables

  AttnWindowSpec w;
  w.sink_blocks = 1;
  w.window_blocks = 2;
  w.block_tokens = 32;
  EXPECT_TRUE(w.enabled());
  EXPECT_EQ(w.sink_tokens(), 32);
  // The window is the 2 whole blocks ending at qa's own block.
  EXPECT_EQ(w.WindowStart(100), 64);  // qa in block 3 -> blocks 2..3 visible
  EXPECT_EQ(w.WindowStart(10), 0);    // clamped at the start of the context
  // Masked = outside the sinks AND before the window.
  EXPECT_FALSE(w.Masked(10, 100));  // sink
  EXPECT_TRUE(w.Masked(40, 100));   // interior
  EXPECT_FALSE(w.Masked(70, 100));  // window
  EXPECT_FALSE(w.Masked(32, 95));   // qa in block 2 -> WindowStart 32, nothing masked
  // Chunk-granular skip decision uses the FIRST query row (the masked interior only grows
  // with qa).
  EXPECT_TRUE(w.ChunkFullyMasked(32, 32, 100));
  EXPECT_FALSE(w.ChunkFullyMasked(32, 64, 100));  // tail reaches into the window
  EXPECT_FALSE(w.ChunkFullyMasked(0, 32, 100));   // overlaps the sinks
  // Full coverage: every position visible up to qa_max -> must degrade to legacy causal.
  EXPECT_TRUE(w.CoversAll(95));
  EXPECT_FALSE(w.CoversAll(96));
  EXPECT_EQ(w.ResidentTokens(), (1 + 2 + 1) * 32);
}

TEST(AttnWindowTest, AppendAttendedBlocksMatchesKernelChunkSkips) {
  // Plain causal decode stages every block up to the causal frontier.
  std::vector<int> got;
  AppendAttendedBlocks(nullptr, /*first_pos=*/511, /*last_pos=*/511, /*kv_len=*/512,
                       /*block_tokens=*/32, &got);
  ASSERT_EQ(got.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], i);
  }
  // Windowed decode at qa=511 with 1 sink + 1 window block: visible positions are
  // [0,32) + [480,512), but staging is kAttnKvChunk(=128)-granular, so only the fully
  // masked chunks [128,384) are skipped: blocks {0..3, 12..15} are staged.
  AttnWindowSpec w;
  w.sink_blocks = 1;
  w.window_blocks = 1;
  w.block_tokens = 32;
  got.clear();
  AppendAttendedBlocks(&w, 511, 511, 512, 32, &got);
  const std::vector<int> expected{0, 1, 2, 3, 12, 13, 14, 15};
  EXPECT_EQ(got, expected);
  // A full-coverage window stages everything, exactly like no window.
  AttnWindowSpec wide = w;
  wide.window_blocks = 64;
  got.clear();
  AppendAttendedBlocks(&wide, 511, 511, 512, 32, &got);
  EXPECT_EQ(got.size(), 16u);
}

// Builds a paged single-head F16 view over contiguous [kv_len, d] K/V buffers.
void FillContiguousView(const std::vector<F16>& k, const std::vector<F16>& v, int d,
                        int block_tokens, int kv_len, std::vector<const uint8_t*>* kb,
                        std::vector<const uint8_t*>* vb, PagedKvView* view) {
  const int blocks = (kv_len + block_tokens - 1) / block_tokens;
  kb->resize(static_cast<size_t>(blocks));
  vb->resize(static_cast<size_t>(blocks));
  for (int i = 0; i < blocks; ++i) {
    const size_t at = static_cast<size_t>(i) * block_tokens * d;
    (*kb)[static_cast<size_t>(i)] = reinterpret_cast<const uint8_t*>(k.data() + at);
    (*vb)[static_cast<size_t>(i)] = reinterpret_cast<const uint8_t*>(v.data() + at);
  }
  view->k_blocks = kb->data();
  view->v_blocks = vb->data();
  view->block_tokens = block_tokens;
  view->row = {hquant::KvDtype::kF16, d};
}

// One decode row (position kv_len - 1, KV head 0) over `view` as a one-span batch.
void AttendDecodeRow(NpuDevice& dev, const ExpLut& lut, const F16* q, const PagedKvView& view,
                     F16* o, int kv_len, int d, float scale, const AttnWindowSpec* window) {
  const AttnKvSpan span{view, kv_len};
  const AttnQueryRow row{q, o, kv_len - 1};
  FlashAttentionBatch(dev, lut, SoftmaxVariant::kLut, {&span, 1}, {&row, 1}, d, scale, window);
}

TEST(AttnWindowTest, FullCoverageWindowIsBitIdenticalToUnwindowed) {
  Rng rng(81);
  const int d = 32;
  const int kv_len = 96;
  const int bt = 32;
  std::vector<F16> q(static_cast<size_t>(d));
  std::vector<F16> k(static_cast<size_t>(kv_len) * d);
  std::vector<F16> v(k.size());
  for (auto& x : q) {
    x = F16(static_cast<float>(rng.NextGaussian()));
  }
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = F16(static_cast<float>(rng.NextGaussian()));
    v[i] = F16(static_cast<float>(rng.NextGaussian()));
  }
  std::vector<const uint8_t*> kb, vb;
  PagedKvView view;
  FillContiguousView(k, v, d, bt, kv_len, &kb, &vb, &view);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  // 1 sink + 8 window blocks cover the whole 3-block range: NormalizeWindow must drop the
  // window at the kernel entry, taking the exact legacy path.
  AttnWindowSpec w;
  w.sink_blocks = 1;
  w.window_blocks = 8;
  w.block_tokens = bt;
  ASSERT_TRUE(w.CoversAll(kv_len - 1));
  std::vector<F16> o_win(q.size()), o_plain(q.size());
  double win_s = 0.0, plain_s = 0.0;
  {
    NpuDevice dev(OnePlus12());
    ExpLut lut(dev);
    AttendDecodeRow(dev, lut, q.data(), view, o_win.data(), kv_len, d, scale, &w);
    // The covered window was normalized away — the windowed-call counter must NOT fire.
    EXPECT_EQ(dev.ledger().Count("kernel.flash_attention.windowed_calls"), 0);
    win_s = dev.ledger().TagSeconds("attn.softmax") + dev.ledger().TagSeconds("dma");
  }
  {
    NpuDevice dev(OnePlus12());
    ExpLut lut(dev);
    AttendDecodeRow(dev, lut, q.data(), view, o_plain.data(), kv_len, d, scale, nullptr);
    plain_s = dev.ledger().TagSeconds("attn.softmax") + dev.ledger().TagSeconds("dma");
  }
  for (size_t i = 0; i < o_win.size(); ++i) {
    EXPECT_EQ(o_win[i].bits(), o_plain[i].bits()) << i;
  }
  EXPECT_DOUBLE_EQ(win_s, plain_s);  // charges identical too
}

TEST(AttnWindowTest, MaskedInteriorIsNeverReadAndMatchesVisibleReference) {
  Rng rng(82);
  const int d = 32;
  const int kv_len = 512;  // 16 blocks, 4 kv chunks of 128
  const int bt = 32;
  std::vector<F16> q(static_cast<size_t>(d));
  std::vector<F16> k(static_cast<size_t>(kv_len) * d);
  std::vector<F16> v(k.size());
  for (auto& x : q) {
    x = F16(static_cast<float>(rng.NextGaussian()));
  }
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = F16(static_cast<float>(rng.NextGaussian()));
    v[i] = F16(static_cast<float>(rng.NextGaussian()));
  }
  // Decode row at qa=511 with 1 sink + 1 window block: visible = [0,32) + [480,512);
  // chunks [128,384) are fully masked (skipped), positions [32,128)+[384,480) are masked
  // inside staged chunks (-inf scores).
  AttnWindowSpec w;
  w.sink_blocks = 1;
  w.window_blocks = 1;
  w.block_tokens = bt;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<const uint8_t*> kb, vb;
  PagedKvView view;
  FillContiguousView(k, v, d, bt, kv_len, &kb, &vb, &view);
  std::vector<F16> o_a(q.size());
  {
    NpuDevice dev(OnePlus12());
    ExpLut lut(dev);
    AttendDecodeRow(dev, lut, q.data(), view, o_a.data(), kv_len, d, scale, &w);
    // A surviving (non-normalized) window marks the call in the ledger.
    EXPECT_EQ(dev.ledger().Count("kernel.flash_attention.windowed_calls"), 1);
  }
  // Corrupt every masked position in a copy: NaN in the fully skipped chunks (staging them
  // would poison the output), huge finite rows in the staged-but-masked stretches (an
  // unmasked score there would dominate softmax). The windowed output must not move a bit.
  std::vector<F16> k2 = k, v2 = v;
  for (int p = 32; p < 480; ++p) {
    const bool skipped_chunk = p >= 128 && p < 384;
    for (int c = 0; c < d; ++c) {
      const size_t at = static_cast<size_t>(p) * d + c;
      k2[at] = skipped_chunk ? F16(std::nanf("")) : F16(8.0f);
      v2[at] = skipped_chunk ? F16(std::nanf("")) : F16(8.0f);
    }
  }
  std::vector<const uint8_t*> kb2, vb2;
  PagedKvView view2;
  FillContiguousView(k2, v2, d, bt, kv_len, &kb2, &vb2, &view2);
  std::vector<F16> o_b(q.size());
  {
    NpuDevice dev(OnePlus12());
    ExpLut lut(dev);
    AttendDecodeRow(dev, lut, q.data(), view2, o_b.data(), kv_len, d, scale, &w);
  }
  for (size_t i = 0; i < o_a.size(); ++i) {
    EXPECT_EQ(o_a[i].bits(), o_b[i].bits()) << i;
  }
  // Semantics check: the windowed output equals plain attention over just the visible
  // rows (sinks + trailing window) packed contiguously.
  const int visible = 64;
  std::vector<float> qf(q.size()), kf(static_cast<size_t>(visible) * d),
      vf(static_cast<size_t>(visible) * d), of(q.size());
  for (size_t i = 0; i < q.size(); ++i) {
    qf[i] = q[i].ToFloat();
  }
  for (int p = 0; p < visible; ++p) {
    const int src = p < 32 ? p : 480 + (p - 32);
    for (int c = 0; c < d; ++c) {
      kf[static_cast<size_t>(p) * d + c] = k[static_cast<size_t>(src) * d + c].ToFloat();
      vf[static_cast<size_t>(p) * d + c] = v[static_cast<size_t>(src) * d + c].ToFloat();
    }
  }
  AttentionF32Reference(qf.data(), kf.data(), vf.data(), of.data(), 1, visible, d, scale);
  for (size_t i = 0; i < o_a.size(); ++i) {
    EXPECT_NEAR(o_a[i].ToFloat(), of[i], 0.03) << i;
  }
}

// --- batched attention: shared-prefix, GQA-grouped stacking ---

// Paged K/V for spans that map the same `shared_blocks` physical blocks (a shared prompt)
// followed by private tail blocks, stored in `row` format with two heads per row, K and V
// blocks in separate allocations.
struct SharedPrefixKv {
  std::vector<std::vector<uint8_t>> k_blocks, v_blocks;  // physical block bytes
  std::vector<std::vector<const uint8_t*>> k_tables, v_tables;  // per span
  std::vector<AttnKvSpan> spans;

  SharedPrefixKv(const hquant::KvRowCodec& row, int head_dim, int block_tokens,
                 int shared_blocks, const std::vector<int>& kv_lens, Rng& rng) {
    const auto new_block = [&](std::vector<std::vector<uint8_t>>* blocks) {
      std::vector<F16> src(static_cast<size_t>(row.elems));
      std::vector<uint8_t>& b = blocks->emplace_back(
          static_cast<size_t>(block_tokens * row.row_bytes()));
      for (int p = 0; p < block_tokens; ++p) {
        for (auto& x : src) {
          x = F16(static_cast<float>(rng.NextGaussian()));
        }
        row.Encode(src.data(), b.data() + p * row.row_bytes());
      }
      return b.data();
    };
    std::vector<const uint8_t*> shared_k, shared_v;
    for (int i = 0; i < shared_blocks; ++i) {
      shared_k.push_back(new_block(&k_blocks));
      shared_v.push_back(new_block(&v_blocks));
    }
    for (const int kv_len : kv_lens) {
      std::vector<const uint8_t*> kt = shared_k, vt = shared_v;
      while (static_cast<int>(kt.size()) * block_tokens < kv_len) {
        kt.push_back(new_block(&k_blocks));
        vt.push_back(new_block(&v_blocks));
      }
      k_tables.push_back(std::move(kt));
      v_tables.push_back(std::move(vt));
    }
    for (size_t s = 0; s < kv_lens.size(); ++s) {
      AttnKvSpan& span = spans.emplace_back();
      span.kv.k_blocks = k_tables[s].data();
      span.kv.v_blocks = v_tables[s].data();
      span.kv.block_tokens = block_tokens;
      span.kv.row = row;
      span.kv_len = kv_lens[s];
    }
  }
};

TEST(FlashAttentionBatchTest, RowsAreIndependentOfTheirTileMates) {
  // Rows of 1, 2, 8 and 16 spans over a two-chunk shared prefix with private tails (some a
  // whole private chunk long), two query heads per span and token (a GQA group), span 0 a
  // four-token causal span, every row on KV head 1: every row's output is bit-equal to that
  // row run alone, for F16/INT8/INT4 KV, with and without a sink+window mask. Without a
  // window every block is staged once per call as whole two-head rows.
  const int d = 64;
  const int bt = 32;
  const int shared_blocks = 8;  // two whole 128-position chunks
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  AttnWindowSpec window;
  window.sink_blocks = 1;
  window.window_blocks = 2;
  window.block_tokens = bt;
  for (const auto dtype : {hquant::KvDtype::kF16, hquant::KvDtype::kInt8,
                           hquant::KvDtype::kInt4}) {
    const hquant::KvRowCodec row{dtype, 2 * d};
    for (const int n_spans : {1, 2, 8, 16}) {
      for (const bool windowed : {false, true}) {
        const AttnWindowSpec* win = windowed ? &window : nullptr;
        Rng rng(static_cast<uint64_t>(91 + n_spans));
        std::vector<int> kv_lens;
        for (int s = 0; s < n_spans; ++s) {
          kv_lens.push_back(shared_blocks * bt + 1 + (s * 53 + 17) % 190);
        }
        const SharedPrefixKv kv(row, d, bt, shared_blocks, kv_lens, rng);
        std::vector<AttnQueryRow> rows;
        for (int s = 0; s < n_spans; ++s) {
          const int tokens = s == 0 ? 4 : 1;
          for (int t = 0; t < tokens; ++t) {
            for (int g = 0; g < 2; ++g) {
              rows.push_back(
                  {nullptr, nullptr, kv_lens[static_cast<size_t>(s)] - tokens + t, s, 1});
            }
          }
        }
        const size_t n_rows = rows.size();
        std::vector<F16> q(n_rows * d), o_all(n_rows * d), o_alone(n_rows * d);
        for (auto& x : q) {
          x = F16(static_cast<float>(rng.NextGaussian()));
        }
        for (size_t i = 0; i < n_rows; ++i) {
          rows[i].q = q.data() + i * d;
          rows[i].o = o_all.data() + i * d;
        }
        NpuDevice dev(OnePlus12());
        ExpLut lut(dev);
        const int64_t dma0 = dev.ledger().dma_bytes();
        FlashAttentionBatch(dev, lut, SoftmaxVariant::kLut, kv.spans, rows, d, scale, win);
        EXPECT_EQ(dev.ledger().Count("kernel.flash_attention.calls"), 1);
        if (win == nullptr) {
          // K and V stage the shared positions once plus each span's private positions, as
          // whole rows of both heads; Q and O move every row once.
          int64_t staged = shared_blocks * bt;
          for (const int kv_len : kv_lens) {
            staged += kv_len - shared_blocks * bt;
          }
          EXPECT_EQ(dev.ledger().dma_bytes() - dma0,
                    2 * staged * row.row_bytes() + 2 * static_cast<int64_t>(n_rows) * d * 2)
              << "spans " << n_spans;
        }
        for (size_t i = 0; i < n_rows; ++i) {
          AttnQueryRow alone = rows[i];
          alone.o = o_alone.data() + i * d;
          alone.span = 0;
          const AttnKvSpan& span = kv.spans[static_cast<size_t>(rows[i].span)];
          FlashAttentionBatch(dev, lut, SoftmaxVariant::kLut, std::span(&span, 1),
                              std::span(&alone, 1), d, scale, win);
        }
        for (size_t e = 0; e < o_all.size(); ++e) {
          ASSERT_EQ(o_all[e].bits(), o_alone[e].bits())
              << "dtype " << static_cast<int>(dtype) << " spans " << n_spans << " window "
              << (win != nullptr) << " row " << e / d;
        }
      }
    }
  }
}

// Paged K/V in PagedKvCache's block layout: each physical block holds `block_tokens` K rows
// followed by `block_tokens` V rows of `row` format, so v_block == k_block + block_tokens *
// row_bytes. Span s maps the first prefix_blocks[s] blocks of its prompt group's shared
// prefix (blocks of one group are the same physical blocks), then private blocks up to its
// kv_len.
struct PagedSlabKv {
  std::vector<std::vector<uint8_t>> blocks;  // [K plane | V plane] per physical block
  std::vector<std::vector<const uint8_t*>> k_tables, v_tables;  // per span
  std::vector<AttnKvSpan> spans;

  PagedSlabKv(const hquant::KvRowCodec& row, int block_tokens,
              const std::vector<std::vector<int>>& group_kv_lens,
              const std::vector<int>& group_prefix_blocks, Rng& rng) {
    std::vector<F16> pool(1024);
    for (auto& x : pool) {
      x = F16(static_cast<float>(rng.NextGaussian()));
    }
    size_t next = 0;
    const auto new_block = [&] {
      std::vector<uint8_t>& b =
          blocks.emplace_back(static_cast<size_t>(2 * block_tokens * row.row_bytes()));
      std::vector<F16> src(static_cast<size_t>(row.elems));
      for (int r = 0; r < 2 * block_tokens; ++r) {
        for (auto& x : src) {
          x = pool[next++ % pool.size()];
        }
        next += static_cast<size_t>(rng.NextU64() % 7);
        row.Encode(src.data(), b.data() + r * row.row_bytes());
      }
      return b.data();
    };
    for (size_t g = 0; g < group_kv_lens.size(); ++g) {
      std::vector<const uint8_t*> prefix;
      for (int i = 0; i < group_prefix_blocks[g]; ++i) {
        prefix.push_back(new_block());
      }
      for (const int kv_len : group_kv_lens[g]) {
        std::vector<const uint8_t*> kt = prefix;
        while (static_cast<int>(kt.size()) * block_tokens < kv_len) {
          kt.push_back(new_block());
        }
        std::vector<const uint8_t*> vt;
        for (const uint8_t* k : kt) {
          vt.push_back(k + block_tokens * row.row_bytes());
        }
        k_tables.push_back(std::move(kt));
        v_tables.push_back(std::move(vt));
        AttnKvSpan& span = spans.emplace_back();
        span.kv.block_tokens = block_tokens;
        span.kv.row = row;
        span.kv.v_follows_k = true;
        span.kv_len = kv_len;
      }
    }
    for (size_t s = 0; s < spans.size(); ++s) {
      spans[s].kv.k_blocks = k_tables[s].data();
      spans[s].kv.v_blocks = v_tables[s].data();
    }
  }
};

// Query rows for `spans`: KV-head-major, then span, then token (span 0 runs `first_tokens`
// causal tokens, every other span one decode token), then the `group` query heads of the
// KV head. q and o are filled in later.
std::vector<AttnQueryRow> StackRows(const std::vector<AttnKvSpan>& spans, int kv_heads,
                                    int group, int first_tokens) {
  std::vector<AttnQueryRow> rows;
  for (int kh = 0; kh < kv_heads; ++kh) {
    for (size_t s = 0; s < spans.size(); ++s) {
      const int tokens = s == 0 ? first_tokens : 1;
      for (int t = 0; t < tokens; ++t) {
        for (int g = 0; g < group; ++g) {
          rows.push_back(
              {nullptr, nullptr, spans[s].kv_len - tokens + t, static_cast<int>(s), kh});
        }
      }
    }
  }
  return rows;
}

TEST(FlashAttentionBatchTest, SharedBlocksStagedOnce) {
  // Two prompt groups with private tails in one call over both KV heads: a 96-token prompt
  // (three shared blocks inside a partly shared chunk) and a 160-token prompt (a whole
  // shared chunk plus one shared block of the next), for F16/INT8/INT4 KV, with and without
  // a sink+window mask. Every row is bit-equal to itself served alone, and the DMA is the
  // unique-block rule: per chunk, each distinct physical block of the attended chunks once,
  // with the rows its longest reader needs, as one descriptor from K row 0 through the
  // last needed V row (or two when moving the gap costs more), plus one Q and one O
  // descriptor per q tile.
  const int d = 64;
  const int bt = 32;
  const int kv_heads = 2;
  const int group = 2;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  AttnWindowSpec window;
  window.sink_blocks = 1;
  window.window_blocks = 2;
  window.block_tokens = bt;
  const std::vector<std::vector<int>> kv_lens{{97, 116, 141}, {161, 193, 230, 410}};
  const std::vector<int> prefix_blocks{3, 5};
  for (const auto dtype : {hquant::KvDtype::kF16, hquant::KvDtype::kInt8,
                           hquant::KvDtype::kInt4}) {
    const hquant::KvRowCodec row{dtype, kv_heads * d};
    for (const bool windowed : {false, true}) {
      SCOPED_TRACE(testing::Message() << "dtype " << static_cast<int>(dtype) << " window "
                                      << windowed);
      const AttnWindowSpec* win = windowed ? &window : nullptr;
      Rng rng(131);
      const PagedSlabKv kv(row, bt, kv_lens, prefix_blocks, rng);
      std::vector<AttnQueryRow> rows = StackRows(kv.spans, kv_heads, group, /*first_tokens=*/3);
      const size_t n_rows = rows.size();
      ASSERT_LE(n_rows / kv_heads, static_cast<size_t>(kAttnQTile));  // one q tile per head
      std::vector<F16> q(n_rows * d), o_all(n_rows * d), o_alone(n_rows * d);
      for (auto& x : q) {
        x = F16(static_cast<float>(rng.NextGaussian()));
      }
      for (size_t i = 0; i < n_rows; ++i) {
        rows[i].q = q.data() + i * d;
        rows[i].o = o_all.data() + i * d;
      }

      // The rule: the attended blocks of every span (AppendAttendedBlocks is the kernel's
      // chunk skip), each physical block once with its longest reader's rows.
      std::vector<std::pair<const uint8_t*, int>> unique;  // (K base, rows needed)
      size_t attended_total = 0;
      for (size_t s = 0; s < kv.spans.size(); ++s) {
        const int kv_len = kv.spans[s].kv_len;
        const int tokens = s == 0 ? 3 : 1;
        std::vector<int> attended;
        AppendAttendedBlocks(win, kv_len - tokens, kv_len - 1, kv_len, bt, &attended);
        attended_total += attended.size();
        for (const int b : attended) {
          const uint8_t* base = kv.k_tables[s][static_cast<size_t>(b)];
          const int need = std::min(bt, kv_len - b * bt);
          auto it = std::find_if(unique.begin(), unique.end(),
                                 [&](const auto& e) { return e.first == base; });
          if (it == unique.end()) {
            unique.emplace_back(base, need);
          } else {
            it->second = std::max(it->second, need);
          }
        }
      }
      NpuDevice dev(OnePlus12());
      ExpLut lut(dev);
      int64_t bytes = 2 * static_cast<int64_t>(n_rows) * d * 2;  // Q in, O out
      int64_t descriptors = 2 * kv_heads;                         // one q tile per KV head
      for (const auto& [base, need] : unique) {
        const int64_t joint = (bt + need) * row.row_bytes();
        const int64_t each = need * row.row_bytes();
        if (dev.dma().Cost1D(joint, hexsim::DmaDirection::kDdrToTcm) <=
            2 * dev.dma().Cost1D(each, hexsim::DmaDirection::kDdrToTcm)) {
          bytes += joint;
          descriptors += 1;
        } else {
          bytes += 2 * each;
          descriptors += 2;
        }
      }
      // Sharing is real: fewer blocks than the spans' attended blocks summed.
      EXPECT_LT(unique.size(), attended_total);

      const int64_t dma0 = dev.ledger().dma_bytes();
      const int64_t desc0 = dev.ledger().Count("dma.descriptors");
      FlashAttentionBatch(dev, lut, SoftmaxVariant::kLut, kv.spans, rows, d, scale, win);
      EXPECT_EQ(dev.ledger().dma_bytes() - dma0, bytes);
      EXPECT_EQ(dev.ledger().Count("dma.descriptors") - desc0, descriptors);
      EXPECT_EQ(dev.ledger().Count("kernel.flash_attention.calls"), 1);
      EXPECT_EQ(dev.ledger().Count("kernel.attn_kv_dequant.calls"), row.quantized() ? 1 : 0);

      for (size_t i = 0; i < n_rows; ++i) {
        AttnQueryRow alone = rows[i];
        alone.o = o_alone.data() + i * d;
        alone.span = 0;
        const AttnKvSpan& span = kv.spans[static_cast<size_t>(rows[i].span)];
        FlashAttentionBatch(dev, lut, SoftmaxVariant::kLut, std::span(&span, 1),
                            std::span(&alone, 1), d, scale, win);
      }
      for (size_t e = 0; e < o_all.size(); ++e) {
        ASSERT_EQ(o_all[e].bits(), o_alone[e].bits()) << "row " << e / d;
      }
    }
  }
}

TEST(FlashAttentionBatchTest, PaperWidthStagingFitsTcm) {
  // The Qwen2.5-1.5B KV shape: 2 KV heads x 128 and 12 query heads. Two calls: 16 unshared
  // spans of 1024 positions decoding, where each chunk stages 64 distinct blocks of
  // 512-byte rows, and one causal kPrefillChunk-row prefill span ending at position 1023.
  // Each call's TCM working set stays inside the 8 MiB TCM.
  const int d = 128;
  const int kv_heads = 2;
  const int group = 6;
  const int bt = 32;
  const hquant::KvRowCodec row{hquant::KvDtype::kF16, kv_heads * d};
  Rng rng(7);
  for (const int spans : {16, 1}) {
    SCOPED_TRACE(spans);
    const int first_tokens = spans == 1 ? kPrefillChunk : 1;
    const std::vector<std::vector<int>> kv_lens(static_cast<size_t>(spans),
                                                std::vector<int>{1024});
    const PagedSlabKv kv(row, bt, kv_lens, std::vector<int>(static_cast<size_t>(spans), 0),
                         rng);
    std::vector<AttnQueryRow> rows = StackRows(kv.spans, kv_heads, group, first_tokens);
    std::vector<F16> q(rows.size() * d), o(rows.size() * d);
    for (size_t i = 0; i < rows.size(); ++i) {
      q[i * d + i % d] = F16(1.0f);
      rows[i].q = q.data() + i * d;
      rows[i].o = o.data() + i * d;
    }
    NpuDevice dev(OnePlus12());
    ExpLut lut(dev);
    FlashAttentionBatch(dev, lut, SoftmaxVariant::kLut, kv.spans, rows, d,
                        1.0f / std::sqrt(static_cast<float>(d)));
    EXPECT_LE(dev.tcm().high_watermark(), 8 * 1024 * 1024);
    // Every block once, as one whole-row descriptor of its K plane and V rows.
    EXPECT_EQ(dev.ledger().dma_bytes(), spans * 32 * 2 * bt * row.row_bytes() +
                                            2 * static_cast<int64_t>(rows.size()) * d * 2);
    for (const F16& x : o) {
      ASSERT_TRUE(std::isfinite(x.ToFloat()));
    }
  }
}

}  // namespace
}  // namespace hkern
