#include <string>

#include <gtest/gtest.h>

#include "src/hexsim/device_profile.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/mixed_gemm.h"
#include "src/llm/model_config.h"
#include "src/runtime/engine.h"

namespace hrt {
namespace {

using hexsim::OnePlus12;
using hexsim::OnePlusAce3;
using hexsim::OnePlusAce5Pro;
using hllm::Llama32_1B;
using hllm::Qwen25_1_5B;
using hllm::Qwen25_3B;

Engine MakeEngine(const hllm::ModelConfig& m, const hexsim::DeviceProfile& d,
                  Backend b = Backend::kNpuOurs) {
  EngineOptions o;
  o.model = &m;
  o.device = &d;
  o.backend = b;
  return Engine(o);
}

// --- address-space policy (§7.2.1 / §7.2.2) ---

TEST(EngineTest, V73Rejects3BModels) {
  std::string reason;
  EXPECT_FALSE(MakeEngine(Qwen25_3B(), OnePlusAce3()).CanRun(&reason));
  EXPECT_NE(reason.find("Snapdragon 8 Gen 2"), std::string::npos);
  EXPECT_TRUE(MakeEngine(Qwen25_3B(), OnePlus12()).CanRun());
  EXPECT_TRUE(MakeEngine(Qwen25_1_5B(), OnePlusAce3()).CanRun());
  EXPECT_TRUE(MakeEngine(Llama32_1B(), OnePlusAce3()).CanRun());
}

// --- decode scaling (Figure 11) ---

TEST(EngineTest, DecodeThroughputGrowsWithBatch) {
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  double prev = 0.0;
  for (int b : {1, 2, 4, 8, 16}) {
    const double t = e.DecodeThroughput(b, 1024);
    EXPECT_GT(t, prev) << "batch " << b;
    prev = t;
  }
}

TEST(EngineTest, DecodeScalingIsSubLinear) {
  // "the decoding throughput does not scale perfectly linearly" — the CPU lm_head drag.
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  const double t1 = e.DecodeThroughput(1, 1024);
  const double t16 = e.DecodeThroughput(16, 1024);
  EXPECT_GT(t16, 4.0 * t1);
  EXPECT_LT(t16, 14.0 * t1);
}

TEST(EngineTest, StepTimeBarelyGrowsToBatch4) {
  // §3.2: the idle HMX rows make small-batch decode nearly free.
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  const double s1 = e.DecodeStep(1, 1024).total_s;
  const double s4 = e.DecodeStep(4, 1024).total_s;
  EXPECT_LT(s4, s1 * 1.15);
}

TEST(EngineTest, LmHeadShareApproachesHalfAtBatch16) {
  // §7.2.2: "when the batch size equals 16, the proportion of the computation time of
  // logits on the CPU is close to or exceeds 50%".
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  const StepCost c16 = e.DecodeStep(16, 1024);
  const double share = c16.lm_head_s / c16.total_s;
  EXPECT_GT(share, 0.40);
  EXPECT_LT(share, 0.65);
  const StepCost c1 = e.DecodeStep(1, 1024);
  EXPECT_LT(c1.lm_head_s / c1.total_s, share);
}

TEST(EngineTest, NewerDevicesAreFaster) {
  const double v73 = MakeEngine(Llama32_1B(), OnePlusAce3()).DecodeThroughput(8, 1024);
  const double v75 = MakeEngine(Llama32_1B(), OnePlus12()).DecodeThroughput(8, 1024);
  const double v79 = MakeEngine(Llama32_1B(), OnePlusAce5Pro()).DecodeThroughput(8, 1024);
  EXPECT_GT(v75, v73);
  EXPECT_GT(v79, v75);
}

// --- backend comparison (Figure 13) ---

TEST(EngineTest, GpuWinsBatch1NpuWinsBatched) {
  const Engine npu = MakeEngine(Qwen25_1_5B(), OnePlus12(), Backend::kNpuOurs);
  const Engine gpu = MakeEngine(Qwen25_1_5B(), OnePlus12(), Backend::kGpuOpenCl);
  EXPECT_GT(gpu.DecodeThroughput(1, 1024), npu.DecodeThroughput(1, 1024));
  EXPECT_GT(npu.DecodeThroughput(4, 1024), gpu.DecodeThroughput(4, 1024));
  EXPECT_GT(npu.DecodeThroughput(16, 1024), 3.0 * gpu.DecodeThroughput(16, 1024));
}

TEST(EngineTest, QnnHasNoBatchScaling) {
  const Engine qnn = MakeEngine(Qwen25_1_5B(), OnePlus12(), Backend::kQnnF16);
  const double t1 = qnn.DecodeThroughput(1, 1024);
  const double t8 = qnn.DecodeThroughput(8, 1024);
  EXPECT_LT(t8, t1 * 1.6);  // static graphs: nearly flat
}

TEST(EngineTest, PrefillOrdering) {
  // "Our system consistently outperforms the GPU-based system in prefilling, achieving
  // comparable performance with proprietary QNN under certain workloads."
  const Engine npu = MakeEngine(Qwen25_1_5B(), OnePlus12(), Backend::kNpuOurs);
  const Engine gpu = MakeEngine(Qwen25_1_5B(), OnePlus12(), Backend::kGpuOpenCl);
  const Engine qnn = MakeEngine(Qwen25_1_5B(), OnePlus12(), Backend::kQnnF16);
  const double p_npu = npu.PrefillThroughput(1024);
  const double p_gpu = gpu.PrefillThroughput(1024);
  const double p_qnn = qnn.PrefillThroughput(1024);
  EXPECT_GT(p_npu, 1.5 * p_gpu);
  EXPECT_GT(p_npu, 0.5 * p_qnn);  // comparable with QNN
  EXPECT_LT(p_npu, 1.5 * p_qnn);
}

// --- power & energy (Figure 12, §7.2.3) ---

TEST(EngineTest, PowerWithinFiveWatts) {
  const Engine e15 = MakeEngine(Qwen25_1_5B(), OnePlus12());
  double prev = 0.0;
  for (int b : {1, 2, 4, 8, 16}) {
    const auto p = e15.DecodePower(b, 1024);
    EXPECT_LT(p.watts, 5.0) << "batch " << b;
    EXPECT_GT(p.watts, 2.0) << "batch " << b;
    EXPECT_GE(p.watts, prev) << "power rises with batch";
    prev = p.watts;
  }
  const auto p3 = MakeEngine(Qwen25_3B(), OnePlus12()).DecodePower(8, 1024);
  EXPECT_NEAR(p3.watts, 4.3, 1.2);  // "stabilizes at around 4.3W"
}

TEST(EngineTest, EnergyPerTokenFallsWithBatch) {
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  double prev = 1e9;
  for (int b : {1, 2, 4, 8, 16}) {
    const double j = e.DecodePower(b, 1024).joules_per_token;
    EXPECT_LT(j, prev);
    prev = j;
  }
}

TEST(EngineTest, SmallModelBatch8BeatsLargeModelBatch1Energy) {
  // §7.2.3: "the decoding energy consumption of the 1.5B model at a batch size of 8 is
  // lower than that of the 3B model at a batch size of 1".
  const double e15 = MakeEngine(Qwen25_1_5B(), OnePlus12()).DecodePower(8, 1024).joules_per_token;
  const double e3 = MakeEngine(Qwen25_3B(), OnePlus12()).DecodePower(1, 1024).joules_per_token;
  EXPECT_LT(e15, e3);
}

// --- memory / CPU usage (Figure 16) ---

TEST(EngineTest, DmabufConstantAcrossBatch) {
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  const auto m1 = e.Memory(1);
  const auto m16 = e.Memory(16);
  EXPECT_EQ(m1.dmabuf_bytes, m16.dmabuf_bytes);
  EXPECT_NEAR(static_cast<double>(m1.dmabuf_bytes) / (1 << 20), 1056.0, 80.0);
}

TEST(EngineTest, CpuUtilizationGrowsWithBatchBoundedByFourCores) {
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  double prev = 0.0;
  for (int b : {1, 4, 8, 16}) {
    const double u = e.Memory(b).cpu_utilization;
    EXPECT_GE(u, prev);
    EXPECT_LE(u, 4.0);
    prev = u;
  }
  EXPECT_GT(prev, 1.0);  // multiple cores busy at batch 16
}

// --- prompt-length sensitivity (Figure 17) ---

TEST(EngineTest, PromptLengthMildlyReducesThroughput) {
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  for (int b : {1, 8}) {
    const double t512 = e.DecodeThroughput(b, 512);
    const double t4096 = e.DecodeThroughput(b, 4096);
    EXPECT_LT(t4096, t512);
    EXPECT_GT(t4096, 0.70 * t512) << "decline must remain subtle (batch " << b << ")";
  }
}

// --- internal consistency ---

TEST(EngineTest, DecodeStepPricesWithTheKernelCostModels) {
  // The engine calls the kernels' own cost functions rather than re-deriving them: linear
  // layers are MixedGemmCostModel at the decode pipeline's two dequant threads, summed per
  // layer and scaled by depth; the lm_head is LmHeadCostModel over the model's scheme.
  for (const hllm::ModelConfig* m : hllm::EvaluationModels()) {
    for (const hexsim::DeviceProfile* d : hexsim::AllDevices()) {
      const Engine e = MakeEngine(*m, *d);
      for (const int batch : {1, 4, 16}) {
        double linear = 0.0;
        for (const auto& mat : m->LayerMatrices()) {
          linear += hkern::MixedGemmCostModel(*d, hkern::DequantKernel::kCoalescedLut,
                                              mat.scheme, batch, static_cast<int>(mat.k),
                                              static_cast<int>(mat.n), /*threads=*/2)
                        .total_s;
        }
        linear *= m->layers;
        const double lm_head =
            hkern::LmHeadCostModel(*d, batch, m->hidden, m->vocab, m->lm_head_scheme).seconds;
        for (const int context : {256, 4096}) {
          const StepCost c = e.DecodeStep(batch, context);
          EXPECT_EQ(c.linear_s, linear) << m->name << " " << d->soc_name << " b" << batch;
          EXPECT_EQ(c.lm_head_s, lm_head) << m->name << " " << d->soc_name << " b" << batch;
        }
      }
    }
  }
}

TEST(EngineTest, StepCostComponentsSumToTotal) {
  const Engine e = MakeEngine(Qwen25_1_5B(), OnePlus12());
  const StepCost c = e.DecodeStep(4, 2048);
  EXPECT_NEAR(c.total_s, c.linear_s + c.attention_s + c.misc_s + c.lm_head_s + c.comm_s,
              1e-12);
  EXPECT_GT(c.ddr_bytes, 0);
  EXPECT_GT(c.hvx_busy_s, 0.0);
  EXPECT_GT(c.hmx_busy_s, 0.0);
}

}  // namespace
}  // namespace hrt
