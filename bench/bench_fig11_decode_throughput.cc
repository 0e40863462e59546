// Figure 11: end-to-end decoding throughput vs batch size for the four on-device models on
// all three devices. Models that exceed a device's NPU address space are skipped, exactly as
// the paper only evaluates the 1B-class models on the OnePlus Ace3.
//
// A second section decodes the toy configuration through the FUNCTIONAL pipeline and
// measures host wall-clock, exercising the parallel execution layer (src/exec). Its
// decoded-token checksum is lane-count invariant: CI runs this bench at
// HEXLLM_NUM_THREADS=1 and =4 and asserts the reports agree (tools/compare_bench_tokens.py).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "bench/reporter.h"
#include "src/exec/thread_pool.h"
#include "src/llm/sampling.h"
#include "src/llm/transformer.h"
#include "src/llm/weights.h"
#include "src/runtime/engine.h"

int main() {
  bench::Reporter rep("fig11_decode_throughput",
                      "End-to-end decoding throughput vs batch size", "Figure 11");

  std::vector<const hexsim::DeviceProfile*> devices = hexsim::AllDevices();
  std::vector<int> batches = {1, 2, 4, 8, 16};
  if (bench::SmokePreset()) {
    devices = {&hexsim::OnePlus12()};
    batches = {1, 4, 16};
  }

  for (const auto* device : devices) {
    rep.Section(device->device_name + " (" + device->soc_name + ")");
    std::printf("%-24s", "batch:");
    for (int b : batches) {
      std::printf("%9d", b);
    }
    std::printf("   (tokens/s)\n");
    for (const auto* model : hllm::EvaluationModels()) {
      hrt::EngineOptions o;
      o.model = model;
      o.device = device;
      const hrt::Engine engine(o);
      std::string reason;
      if (!engine.CanRun(&reason)) {
        std::printf("%-24s  skipped: exceeds NPU virtual address space\n",
                    model->name.c_str());
        obs::Json& row = rep.AddRow("skipped");
        row.Set("device", device->device_name);
        row.Set("model", model->name);
        row.Set("reason", reason);
        continue;
      }
      std::printf("%-24s", model->name.c_str());
      for (int b : batches) {
        const double tps = engine.DecodeThroughput(b, 1024);
        std::printf("%9.1f", tps);
        obs::Json& row = rep.AddRow("decode_throughput");
        row.Set("device", device->device_name);
        row.Set("model", model->name);
        row.Set("batch", b);
        row.Set("context", 1024);
        row.Set("tokens_per_second", tps);
      }
      std::printf("\n");
    }
  }

  // Headline cells EXPERIMENTS.md tracks (OnePlus 12; the simulator's calibrated outputs,
  // not paper cells — the paper states shapes, these pin regression drift).
  {
    hrt::EngineOptions o;
    o.model = &hllm::Qwen25_1_5B();
    o.device = &hexsim::OnePlus12();
    const hrt::Engine engine(o);
    rep.AddReference("qwen2.5-1.5b b=1 tokens/s (OnePlus 12)", engine.DecodeThroughput(1, 1024),
                     22.7, "tokens/s");
    rep.AddReference("qwen2.5-1.5b b=16 tokens/s (OnePlus 12)",
                     engine.DecodeThroughput(16, 1024), 198.3, "tokens/s");
    obs::Registry reg;
    engine.ExportMetrics(reg, 16, 1024);
    rep.AttachMetrics(reg.Snapshot(), "qwen2.5-1.5b b=16 ctx=1024 (OnePlus 12)");
  }
  // Functional decode: real numerics through the emulated kernels, timed on the HOST
  // clock. The greedy-argmax token stream feeds back into the model, so the checksum
  // certifies bit-identical decoding at any HEXLLM_NUM_THREADS (docs/threading_model.md).
  {
    const hllm::ModelConfig toy = hllm::ToyConfig();
    const hllm::ModelWeights weights = hllm::ModelWeights::Random(toy, 1234);
    std::vector<int> fbatches = {1, 2, 4, 8};
    int steps = 24;
    if (bench::SmokePreset()) {
      fbatches = {1, 4};
      steps = 8;
    }
    const int threads = hexec::MaxSlots();
    // Each batch decodes kRepeats times from scratch and reports the fastest pass: one
    // pass is only tens of milliseconds of host time, so the minimum is the estimate least
    // disturbed by a shared host. Every pass must decode the same tokens.
    constexpr int kRepeats = 5;

    // Decodes `steps` greedy tokens for `batch` rows; returns the token checksum.
    const auto decode_pass = [&](int batch) {
      hexsim::NpuDevice dev(hexsim::OnePlus12());
      hllm::Transformer model(dev, weights, batch, /*max_context=*/steps + 8);
      std::vector<float> logits(static_cast<size_t>(batch) * toy.vocab);
      std::vector<int> tokens(static_cast<size_t>(batch));
      std::vector<int> seqs(static_cast<size_t>(batch));
      for (int b = 0; b < batch; ++b) {
        tokens[static_cast<size_t>(b)] = (7 * b + 1) % toy.vocab;
        seqs[static_cast<size_t>(b)] = b;
      }
      // Plain decode's row plan: one one-row span per sequence.
      const std::vector<int> one_row_each(static_cast<size_t>(batch), 1);
      uint64_t checksum = 14695981039346656037ull;  // FNV-1a over the decoded stream
      for (int s = 0; s < steps; ++s) {
        model.Forward({tokens, seqs, one_row_each, logits});
        for (int b = 0; b < batch; ++b) {
          const int tok = hllm::ArgmaxToken(std::span<const float>(
              logits.data() + static_cast<size_t>(b) * toy.vocab,
              static_cast<size_t>(toy.vocab)));
          tokens[static_cast<size_t>(b)] = tok;
          checksum = (checksum ^ static_cast<uint64_t>(tok)) * 1099511628211ull;
        }
      }
      return checksum;
    };

    rep.Section("functional decode, toy config (host wall-clock)");
    std::printf("%-8s%12s%16s%20s   (threads=%d, min of %d passes)\n", "batch", "wall (ms)",
                "host tokens/s", "token checksum", threads, kRepeats);
    for (const int batch : fbatches) {
      uint64_t checksum = 0;
      double wall_s = 0.0;
      for (int pass = 0; pass < kRepeats; ++pass) {
        const auto t0 = std::chrono::steady_clock::now();
        const uint64_t pass_checksum = decode_pass(batch);
        const double pass_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        if (pass == 0 || pass_s < wall_s) {
          wall_s = pass_s;
        }
        if (pass > 0 && pass_checksum != checksum) {
          std::fprintf(stderr, "functional decode is not deterministic at batch %d\n", batch);
          std::exit(1);
        }
        checksum = pass_checksum;
      }
      const int64_t produced = static_cast<int64_t>(batch) * steps;
      char checksum_hex[20];
      std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                    static_cast<unsigned long long>(checksum));
      std::printf("%-8d%12.1f%16.1f%20s\n", batch, wall_s * 1e3,
                  static_cast<double>(produced) / wall_s, checksum_hex);
      obs::Json& row = rep.AddRow("functional_decode");
      row.Set("batch", batch);
      row.Set("steps", steps);
      row.Set("threads", threads);
      row.Set("repeats", kRepeats);
      row.Set("tokens", produced);
      row.Set("token_checksum", checksum_hex);
      row.Set("wall_seconds", wall_s);
      row.Set("host_tokens_per_second", static_cast<double>(produced) / wall_s);
    }
    rep.Note("functional rows time the HOST emulation wall clock (not simulated seconds), "
             "the fastest of `repeats` identical passes; "
             "token_checksum and tokens are bit-identical at any HEXLLM_NUM_THREADS, "
             "wall_seconds shrinks with lanes for batch >= 4.");
  }
  rep.Note("throughput rises strongly with batch because the HMX tile rows were idle at "
           "batch 1; scaling is sub-linear because the CPU-resident lm_head grows with "
           "batch (~50% of step time at batch 16, §7.2.2).");
  return 0;
}
