// Cross-module integration tests: the full system wired together on the toy model —
// functional analogues of the paper's end-to-end accuracy experiments.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/softmax.h"
#include "src/llm/model_config.h"
#include "src/llm/sampling.h"
#include "src/llm/transformer.h"
#include "src/llm/weights.h"
#include "src/runtime/engine.h"

namespace {

using hexllm::Rng;

// --- Table 5, functionally: LUT-softmax FP16 attention vs F32-poly attention end-to-end ---

TEST(IntegrationTest, AttentionVariantBarelyChangesToyModelLogits) {
  // The functional analogue of Table 5: decode the same context with the LUT exp variant
  // and the F32 polynomial variant; logits must be near-identical, and both must produce
  // the same greedy tokens.
  const hllm::ModelConfig config = hllm::ToyConfig();
  const hllm::ModelWeights weights = hllm::ModelWeights::Random(config, 77);
  const std::vector<int> prompt{3, 141, 59, 265};

  std::vector<float> logits_lut(static_cast<size_t>(config.vocab));
  std::vector<float> logits_f32(static_cast<size_t>(config.vocab));
  std::vector<int> greedy_lut;
  std::vector<int> greedy_f32;
  for (const auto variant : {hkern::SoftmaxVariant::kLut, hkern::SoftmaxVariant::kF32Poly}) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    hllm::Transformer tf(dev, weights, 1, 32);
    tf.Prefill(0, prompt);
    auto& logits = (variant == hkern::SoftmaxVariant::kLut) ? logits_lut : logits_f32;
    auto& greedy = (variant == hkern::SoftmaxVariant::kLut) ? greedy_lut : greedy_f32;
    int tok = prompt.back();
    const int seq = 0;
    const int one_row = 1;
    for (int i = 0; i < 5; ++i) {
      tf.Forward({{&tok, 1}, {&seq, 1}, {&one_row, 1}, logits}, variant);
      tok = hllm::ArgmaxToken(logits);
      greedy.push_back(tok);
    }
  }
  EXPECT_EQ(greedy_lut, greedy_f32);
  double max_diff = 0.0;
  for (size_t i = 0; i < logits_lut.size(); ++i) {
    max_diff = std::max(max_diff,
                        static_cast<double>(std::fabs(logits_lut[i] - logits_f32[i])));
  }
  EXPECT_LT(max_diff, 0.05);
}

// --- generation-quality smoke: temperature sampling produces diverse sequences ---

TEST(IntegrationTest, TemperatureSamplingDiversifiesParallelPaths) {
  // The mechanism Best-of-N relies on: N parallel samples from the same prompt diverge.
  const hllm::ModelConfig config = hllm::ToyConfig();
  const hllm::ModelWeights weights = hllm::ModelWeights::Random(config, 78);
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  const int batch = 4;
  hllm::Transformer tf(dev, weights, batch, 32);
  for (int s = 0; s < batch; ++s) {
    // All sequences share the prompt (the TTS setting).
    // Prefill per sequence: same tokens.
  }
  std::vector<int> tokens(batch, 200);
  const std::vector<int> seqs{0, 1, 2, 3};
  const std::vector<int> one_row_each(batch, 1);
  std::vector<float> logits(static_cast<size_t>(batch) * config.vocab);
  hllm::SamplerOptions sampler;
  sampler.temperature = 1.2f;
  Rng rng(5);
  std::vector<std::vector<int>> paths(batch);
  for (int step = 0; step < 6; ++step) {
    tf.Forward({tokens, seqs, one_row_each, logits});
    for (int b = 0; b < batch; ++b) {
      const std::span<const float> row{logits.data() + static_cast<size_t>(b) * config.vocab,
                                       static_cast<size_t>(config.vocab)};
      tokens[static_cast<size_t>(b)] = hllm::SampleToken(row, sampler, rng);
      paths[static_cast<size_t>(b)].push_back(tokens[static_cast<size_t>(b)]);
    }
  }
  int distinct_pairs = 0;
  for (int a = 0; a < batch; ++a) {
    for (int b = a + 1; b < batch; ++b) {
      distinct_pairs += (paths[static_cast<size_t>(a)] != paths[static_cast<size_t>(b)]);
    }
  }
  EXPECT_GE(distinct_pairs, 4);  // most pairs diverge
}

// --- engine consistency against the functional path ---

TEST(IntegrationTest, ToyEngineCanRunEverywhere) {
  // The toy config maps into every device's session window; the same API that gates the 3B
  // models accepts it.
  hllm::ModelConfig toy = hllm::ToyConfig();
  for (const auto* d : hexsim::AllDevices()) {
    hrt::EngineOptions o;
    o.model = &toy;
    o.device = d;
    const hrt::Engine e(o);
    EXPECT_TRUE(e.CanRun()) << d->device_name;
    EXPECT_GT(e.DecodeThroughput(1, 16), 0.0);
  }
}

TEST(IntegrationTest, FunctionalLedgerAgreesWithEngineOrderOfMagnitude) {
  // One functional toy decode step's simulated busy time must be within an order of
  // magnitude of the timing engine's prediction for the same config (the engine models a
  // production pipeline; the functional path is unoptimized, so exact agreement is not
  // expected — this guards against unit errors like ns-vs-us).
  const hllm::ModelConfig config = hllm::ToyConfig();
  const hllm::ModelWeights weights = hllm::ModelWeights::Random(config, 79);
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  hllm::Transformer tf(dev, weights, 1, 16);
  std::vector<float> logits(static_cast<size_t>(config.vocab));
  const int tok = 1;
  const int seq = 0;
  const int one_row = 1;
  tf.Forward({{&tok, 1}, {&seq, 1}, {&one_row, 1}, logits});
  const double functional_busy = dev.ledger().EngineSeconds(hexsim::Engine::kHvx) +
                                 dev.ledger().EngineSeconds(hexsim::Engine::kHmx);

  hrt::EngineOptions o;
  o.model = &config;
  o.device = &hexsim::OnePlus12();
  const hrt::Engine engine(o);
  const auto cost = engine.DecodeStep(1, 1);
  const double engine_busy = cost.hvx_busy_s + cost.hmx_busy_s;
  EXPECT_GT(functional_busy, engine_busy * 0.1);
  EXPECT_LT(functional_busy, engine_busy * 10.0);
}

}  // namespace
