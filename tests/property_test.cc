// Property-based and parameterized sweeps across the stack: invariants that must hold for
// whole families of shapes, devices and inputs, not just the hand-picked cases in the unit
// tests.
#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/fp16.h"
#include "src/base/rng.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/gemm.h"
#include "src/kernels/mixed_gemm.h"
#include "src/kernels/softmax.h"
#include "src/quant/error_stats.h"
#include "src/quant/group_quant.h"
#include "src/quant/synthetic_weights.h"
#include "src/quant/tile_quant.h"
#include "src/runtime/engine.h"
#include "src/tts/capability_model.h"
#include "src/tts/reward_model.h"
#include "src/tts/tts.h"

namespace {

using hexllm::F16;
using hexllm::Rng;
using hexsim::HvxVec;

// --- FP16 order-preservation ---

TEST(F16PropertyTest, ConversionIsMonotone) {
  // For any a <= b (finite), F32ToF16Bits must not invert the order after decoding.
  Rng rng(1);
  std::vector<float> samples;
  for (int i = 0; i < 4000; ++i) {
    samples.push_back(static_cast<float>(rng.NextGaussian() * std::exp(rng.NextGaussian() * 4)));
  }
  std::sort(samples.begin(), samples.end());
  float prev = hexllm::RoundToF16(samples[0]);
  for (size_t i = 1; i < samples.size(); ++i) {
    const float cur = hexllm::RoundToF16(samples[i]);
    EXPECT_LE(prev, cur) << samples[i];
    prev = cur;
  }
}

TEST(F16PropertyTest, NegationIsExact) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.NextGaussian() * 100);
    EXPECT_EQ(hexllm::F32ToF16Bits(-v), hexllm::F32ToF16Bits(v) ^ 0x8000);
  }
}

TEST(F16PropertyTest, RoundingErrorBounded) {
  // Relative rounding error <= 2^-11 for normal-range values.
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>((rng.NextDouble() + 0.01) * 1000);
    EXPECT_LE(std::fabs(hexllm::RoundToF16(v) - v), v * std::ldexp(1.0f, -11) * 1.001);
  }
}

// --- HVX ISA algebraic identities ---

class HvxAlgebraTest : public ::testing::Test {
 protected:
  HvxAlgebraTest() : ctx_(hexsim::OnePlus12()), rng_(4) {
    for (int i = 0; i < HvxVec::kBytes; ++i) {
      a_.b[static_cast<size_t>(i)] = static_cast<uint8_t>(rng_.NextU64());
      b_.b[static_cast<size_t>(i)] = static_cast<uint8_t>(rng_.NextU64());
    }
  }
  hexsim::HvxContext ctx_;
  Rng rng_;
  HvxVec a_, b_;
};

TEST_F(HvxAlgebraTest, ShiftsCompose) {
  const HvxVec once = ctx_.VShlH(ctx_.VShlH(a_, 1), 2);
  const HvxVec combined = ctx_.VShlH(a_, 3);
  EXPECT_EQ(once, combined);
  const HvxVec down = ctx_.VShrH(ctx_.VShrH(a_, 2), 3);
  EXPECT_EQ(down, ctx_.VShrH(a_, 5));
}

TEST_F(HvxAlgebraTest, NibbleSplitIsLossless) {
  // The dequant kernel's vand/vshr split must partition every byte exactly.
  const HvxVec mask = ctx_.VSplatB(0x0F);
  const HvxVec lo = ctx_.VAnd(a_, mask);
  const HvxVec hi = ctx_.VAnd(ctx_.VShrH(a_, 4), mask);
  for (int i = 0; i < HvxVec::kBytes; ++i) {
    EXPECT_EQ(lo.b[static_cast<size_t>(i)] | (hi.b[static_cast<size_t>(i)] << 4),
              a_.b[static_cast<size_t>(i)]);
  }
}

TEST_F(HvxAlgebraTest, VLut16IdentityTable) {
  // Looking indices up in a table that maps i -> i reproduces the (masked) indices.
  HvxVec table{};
  for (int i = 0; i < 16; ++i) {
    table.SetU16(i, static_cast<uint16_t>(i));
  }
  const auto out = ctx_.VLut16(a_, table);
  for (int i = 0; i < HvxVec::kBytes; ++i) {
    const uint16_t got = (i < 64) ? out.lo.GetU16(i) : out.hi.GetU16(i - 64);
    EXPECT_EQ(got, a_.b[static_cast<size_t>(i)] & 0x0F);
  }
}

TEST_F(HvxAlgebraTest, AddSubRoundTripF16IsStableWhenExact) {
  // (x + y) - y == x when both magnitudes are close (no catastrophic cancellation cases).
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    a_.SetHf(i, static_cast<float>(1.0 + 0.25 * (i % 4)));
    b_.SetHf(i, 0.25f);
  }
  const HvxVec sum = ctx_.VAddHf(a_, b_);
  const HvxVec back = ctx_.VSubHf(sum, b_);
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    EXPECT_FLOAT_EQ(back.GetHf(i), a_.GetHf(i));
  }
}

TEST_F(HvxAlgebraTest, GatherScatterRoundTrip) {
  hexllm::Arena tcm(1 << 16, 128, "TCM");
  tcm.Alloc(8192);
  HvxVec offsets{};
  for (int i = 0; i < 64; ++i) {
    offsets.SetU16(i, static_cast<uint16_t>(((i * 37) % 1024) * 2));
  }
  ctx_.VScatterH(tcm, 0, offsets, a_);
  const HvxVec back = ctx_.VGather(tcm, 0, offsets);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(back.GetU16(i), a_.GetU16(i));
  }
}

// --- quantization properties across shapes ---

class QuantShapeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QuantShapeTest, PermutationBijective) {
  const auto [k, n] = GetParam();
  std::vector<float> w(static_cast<size_t>(k) * n);
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(i) * 0.001f;
  }
  const auto stream = hquant::PermuteToHmxOrder(w, k, n);
  EXPECT_EQ(hquant::UnpermuteFromHmxOrder(stream, k, n), w);
}

TEST_P(QuantShapeTest, TileQuantErrorScaleInvariant) {
  // Quantizing c*W must give exactly c times the reconstruction (scales are linear), for
  // power-of-two c (exact in FP16).
  const auto [k, n] = GetParam();
  Rng rng(5);
  const auto w = hquant::GenerateGaussianMatrix(k, n, rng, 0.05);
  std::vector<float> w4(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    w4[i] = 4.0f * w[i];
  }
  const auto r1 = hquant::DequantizeTileGroupQ4(hquant::TileGroupQuantizeQ4(w, k, n), k, n);
  const auto r4 = hquant::DequantizeTileGroupQ4(hquant::TileGroupQuantizeQ4(w4, k, n), k, n);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(r4[i], 4.0f * r1[i], std::fabs(r1[i]) * 1e-3 + 1e-6);
  }
}

TEST_P(QuantShapeTest, RequantizationIsIdempotent) {
  // Quantizing a reconstruction reproduces the same reconstruction (Q(D(Q(w))) == Q(w)).
  const auto [k, n] = GetParam();
  Rng rng(6);
  const auto w = hquant::GenerateLlmLikeMatrix(k, n, rng);
  const auto rec = hquant::DequantizeTileGroupQ4(hquant::TileGroupQuantizeQ4(w, k, n), k, n);
  const auto rec2 =
      hquant::DequantizeTileGroupQ4(hquant::TileGroupQuantizeQ4(rec, k, n), k, n);
  const auto err = hquant::ComputeErrorStats(rec, rec2);
  EXPECT_LT(err.rel_rms, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QuantShapeTest,
                         ::testing::Values(std::make_tuple(32, 32), std::make_tuple(64, 128),
                                           std::make_tuple(96, 64),
                                           std::make_tuple(128, 256),
                                           std::make_tuple(256, 96)),
                         [](const auto& info) {
                           return std::to_string(std::get<0>(info.param)) + "x" +
                                  std::to_string(std::get<1>(info.param));
                         });

// --- softmax across shapes, variants and devices ---

class SoftmaxSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, hkern::SoftmaxVariant>> {};

TEST_P(SoftmaxSweepTest, RowsAreDistributions) {
  const auto [rows, cols, variant] = GetParam();
  for (const auto* profile : {&hexsim::OnePlus12(), &hexsim::OnePlusAce5Pro()}) {
    hexsim::NpuDevice dev(*profile);
    hkern::ExpLut lut(dev);
    auto* s = reinterpret_cast<F16*>(dev.tcm().Alloc(static_cast<int64_t>(rows) * cols * 2));
    Rng rng(7);
    for (int i = 0; i < rows * cols; ++i) {
      s[i] = F16(static_cast<float>(rng.NextGaussian() * 4.0));
    }
    hkern::SoftmaxRowsF16(dev, variant, &lut, s, rows, cols);
    for (int r = 0; r < rows; ++r) {
      float sum = 0.0f;
      float mx = -1.0f;
      for (int c = 0; c < cols; ++c) {
        const float v = s[r * cols + c].ToFloat();
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.001f);
        sum += v;
        mx = std::max(mx, v);
      }
      EXPECT_NEAR(sum, 1.0f, 0.03f) << profile->device_name << " row " << r;
      EXPECT_GT(mx, 1.0f / cols);  // not uniform-degenerate
    }
    // Packet model stays exact on every shape/device/variant combination.
    hexsim::NpuDevice dev2(*profile);
    hkern::ExpLut lut2(dev2);
    auto* s2 = reinterpret_cast<F16*>(dev2.tcm().Alloc(static_cast<int64_t>(rows) * cols * 2));
    for (int i = 0; i < rows * cols; ++i) {
      s2[i] = F16(0.25f);
    }
    const int64_t before = dev2.hvx().packets();
    hkern::SoftmaxRowsF16(dev2, variant, &lut2, s2, rows, cols);
    EXPECT_EQ(dev2.hvx().packets() - before,
              hkern::SoftmaxPacketCost(*profile, variant, rows, cols));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SoftmaxSweepTest,
    ::testing::Combine(::testing::Values(1, 3, 8), ::testing::Values(64, 192, 512),
                       ::testing::Values(hkern::SoftmaxVariant::kF32Poly,
                                         hkern::SoftmaxVariant::kF16Poly,
                                         hkern::SoftmaxVariant::kLut)),
    [](const auto& info) {
      const char* v = std::get<2>(info.param) == hkern::SoftmaxVariant::kLut ? "Lut"
                      : std::get<2>(info.param) == hkern::SoftmaxVariant::kF16Poly ? "F16"
                                                                                   : "F32";
      return std::string(v) + "_r" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param));
    });

// --- attention across shapes ---

class AttentionSweepTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(AttentionSweepTest, MatchesReference) {
  const auto [q_len, kv_len, d] = GetParam();
  Rng rng(8);
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  hkern::ExpLut lut(dev);
  std::vector<F16> q(static_cast<size_t>(q_len) * d), o(q.size());
  std::vector<F16> k(static_cast<size_t>(kv_len) * d), v(k.size());
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
  hkern::FlashAttentionF16(dev, lut, hkern::SoftmaxVariant::kLut, q.data(), k.data(),
                           v.data(), o.data(), q_len, kv_len, d, scale);
  hkern::AttentionF32Reference(qf.data(), kf.data(), vf.data(), of.data(), q_len, kv_len, d,
                               scale);
  double max_err = 0.0;
  for (size_t i = 0; i < o.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::fabs(o[i].ToFloat() - of[i])));
  }
  EXPECT_LT(max_err, 0.035) << "q=" << q_len << " kv=" << kv_len << " d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AttentionSweepTest,
                         ::testing::Values(std::make_tuple(1, 1, 32),
                                           std::make_tuple(1, 33, 32),
                                           std::make_tuple(2, 128, 64),
                                           std::make_tuple(5, 129, 64),
                                           std::make_tuple(16, 100, 32),
                                           std::make_tuple(33, 257, 64),
                                           std::make_tuple(3, 640, 128)),
                         [](const auto& info) {
                           std::string name("q");
                           name += std::to_string(std::get<0>(info.param));
                           name += "_kv";
                           name += std::to_string(std::get<1>(info.param));
                           name += "_d";
                           name += std::to_string(std::get<2>(info.param));
                           return name;
                         });

// --- engine monotonicity across the full model x device grid ---

TEST(EngineSweepTest, ThroughputMonotoneAndPowerBounded) {
  for (const auto* device : hexsim::AllDevices()) {
    for (const auto* model : hllm::EvaluationModels()) {
      hrt::EngineOptions o;
      o.model = model;
      o.device = device;
      const hrt::Engine e(o);
      if (!e.CanRun()) {
        continue;
      }
      double prev_tput = 0.0;
      double prev_energy = 1e9;
      for (int b : {1, 2, 4, 8, 16}) {
        const double t = e.DecodeThroughput(b, 1024);
        EXPECT_GT(t, prev_tput) << model->name << " on " << device->device_name;
        prev_tput = t;
        const auto p = e.DecodePower(b, 1024);
        EXPECT_LT(p.watts, 5.5) << model->name << " on " << device->device_name;
        EXPECT_LT(p.joules_per_token, prev_energy);
        prev_energy = p.joules_per_token;
      }
    }
  }
}

TEST(EngineSweepTest, ContextMonotonicallySlowsDecode) {
  hrt::EngineOptions o;
  o.model = &hllm::Qwen25_1_5B();
  o.device = &hexsim::OnePlus12();
  const hrt::Engine e(o);
  for (int b : {1, 8}) {
    double prev = 0.0;
    for (int ctx : {128, 512, 1024, 2048, 4096}) {
      const double s = e.DecodeStep(b, ctx).total_s;
      EXPECT_GE(s, prev);
      prev = s;
    }
  }
}

TEST(EngineSweepTest, PrefillFasterThanDecodePerToken) {
  for (const auto* model : hllm::EvaluationModels()) {
    hrt::EngineOptions o;
    o.model = model;
    o.device = &hexsim::OnePlus12();
    const hrt::Engine e(o);
    EXPECT_GT(e.PrefillThroughput(1024), 5.0 * e.DecodeThroughput(1, 1024)) << model->name;
  }
}

// --- DMA cost properties ---

TEST(DmaPropertyTest, CostMonotoneInBytes) {
  hexsim::CycleLedger ledger;
  hexsim::DmaEngine dma(hexsim::OnePlus12(), ledger);
  double prev = 0.0;
  for (int64_t bytes : {64, 256, 4096, 1 << 16, 1 << 20}) {
    const double c = dma.Cost1D(bytes, hexsim::DmaDirection::kDdrToTcm);
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(DmaPropertyTest, Fragmented2DNeverBeats1D) {
  hexsim::CycleLedger ledger;
  hexsim::DmaEngine dma(hexsim::OnePlus12(), ledger);
  const int64_t total = 1 << 20;
  const double flat = dma.Cost1D(total, hexsim::DmaDirection::kDdrToTcm);
  for (int64_t row : {32, 128, 512, 4096}) {
    EXPECT_GE(dma.Cost2D(row, total / row, hexsim::DmaDirection::kDdrToTcm), flat * 0.999)
        << row;
  }
}

// --- TTS statistical properties ---

TEST(TtsPropertyTest, AccuracyMonotoneInSkill) {
  const auto tasks = htts::GenerateTaskSet(htts::Dataset::kMath500, 2000, 9);
  double prev = 0.0;
  for (double theta : {-3.0, -1.0, 0.0, 1.0, 3.0}) {
    const double acc = htts::CapabilityModel::MeanAccuracy(tasks, theta);
    EXPECT_GT(acc, prev);
    prev = acc;
  }
  EXPECT_LT(prev, 1.0);
}

TEST(TtsPropertyTest, OracleDominatesEverySelector) {
  const auto tasks = htts::GenerateTaskSet(htts::Dataset::kGsm8k, 300, 10);
  Rng rng(11);
  const htts::OutcomeRewardModel orm;
  for (int n : {2, 4, 8}) {
    const auto r = htts::RunBestOfN(tasks, 0.3, orm, n, 6, rng);
    EXPECT_LE(r.accuracy, r.oracle_accuracy + 1e-9);
    const auto mv = htts::RunMajorityVote(tasks, 0.3, n, 6, rng);
    EXPECT_LE(mv.accuracy, mv.oracle_accuracy + 1e-9);
  }
}

TEST(TtsPropertyTest, BeamBatchNeverExceedsBudget) {
  const auto tasks = htts::GenerateTaskSet(htts::Dataset::kGsm8k, 50, 12);
  Rng rng(13);
  const htts::ProcessRewardModel prm;
  for (int n : {1, 2, 3, 4, 8, 16}) {
    const auto r = htts::RunBeamSearch(tasks, 0.0, prm, n, 4, 1, rng);
    EXPECT_LE(r.batch, n) << n;
    EXPECT_GE(r.batch, 1);
  }
}

TEST(TtsPropertyTest, DeterministicGivenSeed) {
  const auto tasks = htts::GenerateTaskSet(htts::Dataset::kMath500, 200, 14);
  const htts::OutcomeRewardModel orm;
  Rng rng1(15);
  Rng rng2(15);
  const auto a = htts::RunBestOfN(tasks, 0.5, orm, 8, 3, rng1);
  const auto b = htts::RunBestOfN(tasks, 0.5, orm, 8, 3, rng2);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.oracle_accuracy, b.oracle_accuracy);
}

// --- GEMM sweep ---

class GemmSweepTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSweepTest, HmxMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(16);
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  std::vector<F16> a(static_cast<size_t>(m) * k);
  std::vector<float> w(static_cast<size_t>(k) * n);
  for (auto& x : a) {
    x = F16(static_cast<float>(rng.NextGaussian() * 0.3));
  }
  for (auto& x : w) {
    x = static_cast<float>(rng.NextGaussian() * 0.3);
  }
  const auto stream = hquant::PermuteToHmxOrder(w, k, n);
  std::vector<F16> b_tiles(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    b_tiles[i] = F16(stream[i]);
  }
  std::vector<F16> c(static_cast<size_t>(m) * n);
  hkern::GemmF16Hmx(dev, a.data(), b_tiles.data(), c.data(), m, k, n, true);
  EXPECT_EQ(dev.hmx().tile_ops(), hkern::GemmF16HmxTileOps(m, k, n));
  Rng probe(17);
  for (int t = 0; t < 50; ++t) {
    const int mi = static_cast<int>(probe.NextBounded(static_cast<uint64_t>(m)));
    const int ni = static_cast<int>(probe.NextBounded(static_cast<uint64_t>(n)));
    float expected = 0.0f;
    for (int ki = 0; ki < k; ++ki) {
      expected += a[static_cast<size_t>(mi) * k + ki].ToFloat() *
                  hexllm::RoundToF16(w[static_cast<size_t>(ni) * k + ki]);
    }
    EXPECT_NEAR(c[static_cast<size_t>(mi) * n + ni].ToFloat(), expected,
                std::fabs(expected) * 3e-3 + 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSweepTest,
                         ::testing::Values(std::make_tuple(32, 32, 32),
                                           std::make_tuple(32, 96, 64),
                                           std::make_tuple(64, 64, 128),
                                           std::make_tuple(96, 128, 32)),
                         [](const auto& info) {
                           return std::to_string(std::get<0>(info.param)) + "x" +
                                  std::to_string(std::get<1>(info.param)) + "x" +
                                  std::to_string(std::get<2>(info.param));
                         });

// --- mixed-GEMM cost-model properties ---

TEST(MixedGemmPropertyTest, CostOrderingHoldsOnAllDevices) {
  for (const auto* p : hexsim::AllDevices()) {
    for (int k : {512, 2048}) {
      for (int n : {512, 8192}) {
        const auto base = hkern::MixedGemmCostModel(*p, hkern::DequantKernel::kBaselineScatter,
                                                    hquant::WeightScheme::kQ4_0, 1, k, n, 4);
        const auto hmx = hkern::MixedGemmCostModel(*p, hkern::DequantKernel::kHmxLayout,
                                                   hquant::WeightScheme::kQ4_0, 1, k, n, 4);
        const auto ours = hkern::MixedGemmCostModel(*p, hkern::DequantKernel::kCoalescedLut,
                                                    hquant::WeightScheme::kQ4_0, 1, k, n, 4);
        const auto nodeq = hkern::MixedGemmCostModel(*p, hkern::DequantKernel::kNoDequant,
                                                     hquant::WeightScheme::kQ4_0, 1, k, n, 4);
        EXPECT_GT(base.total_s, hmx.total_s) << p->device_name;
        EXPECT_GT(hmx.total_s, ours.total_s) << p->device_name;
        EXPECT_GE(ours.total_s, nodeq.total_s * 0.999) << p->device_name;
      }
    }
  }
}

TEST(MixedGemmPropertyTest, V79CheaperThanV75PerPacketModel) {
  // Native IEEE FP16 removes qfloat conversions: conventional dequant must cost fewer
  // packets on V79.
  EXPECT_LT(hkern::DequantPacketsPer64(hexsim::OnePlusAce5Pro(),
                                       hkern::DequantKernel::kHmxLayout),
            hkern::DequantPacketsPer64(hexsim::OnePlus12(), hkern::DequantKernel::kHmxLayout));
}

}  // namespace
