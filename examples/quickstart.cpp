// Quickstart: load a (synthetic) quantized model, decode a few tokens end-to-end through
// the simulated Hexagon NPU, and inspect where the cycles went.
//
//   1. Pick a device profile (Table 3) and create the NPU simulation state.
//   2. Build a model: weights are tile-group quantized (Q4 projections in HMX stream order,
//      coalesced into HVX-register-sized super-blocks; Q8 FFN-down).
//   3. Decode: every layer runs on the simulated NPU (mixed-precision GEMM, FP16
//      FlashAttention with the 64 KiB exp LUT, RMSNorm/RoPE/SwiGLU on HVX); the vocabulary
//      projection runs on the CPU, as in the paper's system (§6).
#include <cstdio>
#include <vector>

#include "src/hexsim/npu_device.h"
#include "src/llm/model_config.h"
#include "src/llm/sampling.h"
#include "src/llm/transformer.h"
#include "src/llm/weights.h"

int main() {
  // 1. Device: OnePlus 12 (Snapdragon 8 Gen 3, Hexagon V75).
  const hexsim::DeviceProfile& profile = hexsim::OnePlus12();
  hexsim::NpuDevice device(profile);
  std::printf("device: %s (%s, NPU %s)\n", profile.device_name.c_str(),
              profile.soc_name.c_str(), hexsim::NpuArchName(profile.arch));

  // 2. Model: the toy configuration runs the full functional pipeline in milliseconds.
  const hllm::ModelConfig config = hllm::ToyConfig();
  const hllm::ModelWeights weights = hllm::ModelWeights::Random(config, /*seed=*/1234);
  std::printf("model: %s (%d layers, hidden %d, %d heads / %d KV heads, vocab %lld)\n",
              config.name.c_str(), config.layers, config.hidden, config.heads,
              config.kv_heads, static_cast<long long>(config.vocab));

  // 3. Decode 12 tokens greedily from a short prompt.
  hllm::Transformer model(device, weights, /*max_batch=*/1, /*max_context=*/64);
  const std::vector<int> prompt{17, 98, 256, 4};
  model.Prefill(0, prompt);

  std::vector<float> logits(static_cast<size_t>(config.vocab));
  int token = prompt.back();
  // Each step is one forward over a row plan: here one span of one row, sequence 0. Best-of-N
  // lanes, speculative verify spans and prefill chunks are other plans of the same forward.
  const int seq = 0;
  const int rows = 1;
  std::printf("generated:");
  for (int i = 0; i < 12; ++i) {
    model.Forward({{&token, 1}, {&seq, 1}, {&rows, 1}, logits});
    token = hllm::ArgmaxToken(logits);
    std::printf(" %d", token);
  }
  std::printf("\n");

  // 4. Where did the simulated cycles go?
  const auto& ledger = device.ledger();
  std::printf("\nsimulated engine busy time:\n");
  std::printf("  HVX: %.3f ms   HMX: %.3f ms   DMA: %.3f ms\n",
              ledger.EngineSeconds(hexsim::Engine::kHvx) * 1e3,
              ledger.EngineSeconds(hexsim::Engine::kHmx) * 1e3,
              ledger.EngineSeconds(hexsim::Engine::kDma) * 1e3);
  std::printf("top operator tags:\n");
  for (const auto& [tag, seconds] : ledger.tags()) {
    if (seconds > 1e-5) {
      std::printf("  %-16s %.3f ms\n", tag.c_str(), seconds * 1e3);
    }
  }
  std::printf("\nTCM high watermark: %lld KiB of %lld KiB\n",
              static_cast<long long>(device.tcm().high_watermark() >> 10),
              static_cast<long long>(device.tcm().capacity() >> 10));
  return 0;
}
