// Long-context decoding through tiered KV offload + attention-sink sliding windows
// (docs/long_context.md) — the §2 observation that smartphone DRAM, not compute, caps the
// context a mobile NPU can serve, answered with the storage tier below it.
//
// Three parts:
//   1. The headline demo: a 64k-token context decodes under a DRAM budget that holds only
//      16k tokens of resident KV. Without offload this is an ADMISSION ERROR (the batcher
//      rejects the job stream); with the flash tier enabled the same budget serves it, and
//      a sliding window serves it without touching flash at all.
//   2. Analytic sweep: context {8k..64k} x flash read bandwidth x window size on the
//      calibrated Qwen2.5-7B cost model. Reports tok/s, TTFT/TPOT, flash traffic and the
//      stall fraction — throughput degrades gracefully as offload bandwidth shrinks, and
//      only for contexts that overflow the resident budget.
//   3. Functional gates: a toy model decodes the same jobs with and without offload — the
//      committed streams must be IDENTICAL (demoted blocks restore bit-exactly), and a
//      full-coverage window must also be bit-identical (the kernel normalizes it away).
//      A genuinely truncating window reports its token-agreement accuracy proxy. Per-job
//      checksums are emitted as `serving_request` rows for the 1- vs 4-thread CI diff.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/reporter.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/flash.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kvcache/kv_offload.h"
#include "src/llm/model_config.h"
#include "src/llm/weights.h"
#include "src/runtime/engine.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"

namespace {

// FNV-1a over the committed token stream (same construction as bench_speculative and the
// serving frontend): thread-count invariant, order sensitive.
uint64_t TokenChecksum(const std::vector<int>& tokens) {
  uint64_t h = 1469598103934665603ull;
  for (const int t : tokens) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(t));
    h *= 1099511628211ull;
  }
  return h;
}

struct LongRun {
  bool admitted = false;
  double tokens_per_second = 0.0;
  double ttft_s = 0.0;
  double tpot_s = 0.0;
  double flash_s = 0.0;
  int64_t flash_bytes = 0;
  double stall_s = 0.0;
  double makespan_s = 0.0;
  std::string error;
};

}  // namespace

int main() {
  bench::Reporter rep("longcontext",
                      "Tiered KV offload + sliding-window attention for long contexts",
                      "Section 2 (DRAM capacity wall) / docs/long_context.md");
  const bool smoke = bench::SmokePreset();

  const hexsim::DeviceProfile& device = hexsim::OnePlus12();
  const hllm::ModelConfig& model = hllm::Qwen25_7B();
  const int bt = hkv::kDefaultBlockTokens;
  const int64_t block_bytes = model.KvCacheBytes(bt);
  const int decode = smoke ? 32 : 64;
  const int resident_tokens = 16384;  // the DRAM budget: 16k tokens of resident KV
  const int64_t resident_blocks = resident_tokens / bt;
  const int64_t budget_bytes = resident_blocks * block_bytes;

  hrt::EngineOptions eopt;
  eopt.model = &model;
  eopt.device = &device;
  eopt.context_budget = 65536 + decode + bt;
  const hrt::Engine engine(eopt);

  // Runs ONE long-context job through the analytic serving stack under the 16k-token DRAM
  // budget and returns the latency/traffic digest (admitted=false carries the admission
  // error instead).
  const auto run_one = [&](int context, int64_t offload_blocks, double read_gbps,
                           int sink_blocks, int window_blocks) {
    hserve::AnalyticBackend::Options bo;
    bo.kv_budget_bytes = budget_bytes;
    bo.kv_offload_resident_blocks = offload_blocks;
    bo.flash.read_gbps = read_gbps;
    bo.flash.write_gbps = read_gbps * 1.5 / 3.5;  // keep the base spec's read/write ratio
    bo.attn_window.sink_blocks = sink_blocks;
    bo.attn_window.window_blocks = window_blocks;
    hserve::AnalyticBackend backend(engine, bo);
    hserve::ServeOptions so;
    so.max_batch = 1;
    hserve::ServeJob j;
    j.id = 0;
    j.prompt_tokens = context;
    j.decode_tokens = decode;
    const hserve::ScheduleResult r =
        hserve::ContinuousBatcher(backend, so).Run({j});
    LongRun out;
    out.error = r.error;
    if (!r.error.empty()) {
      return out;
    }
    out.admitted = true;
    out.tokens_per_second = r.tokens_per_second;
    out.ttft_s = r.admissions.empty() ? 0.0 : r.admissions.front().time_s;
    out.tpot_s = r.completions.empty() || decode <= 0
                     ? 0.0
                     : (r.completions.back().time_s - out.ttft_s) / decode;
    out.flash_s = r.flash_s;
    out.flash_bytes = r.flash_bytes;
    out.stall_s = r.metrics.GaugeValue("kv.offload.stall_seconds");
    out.makespan_s = r.makespan_s;
    return out;
  };

  const auto add_row = [&](const char* variant, int context, int64_t offload_blocks,
                           double read_gbps, int sink_blocks, int window_blocks,
                           const LongRun& r) {
    obs::Json& row = rep.AddRow("longcontext_sweep");
    row.Set("variant", variant);
    row.Set("context", context);
    row.Set("decode_tokens", decode);
    row.Set("resident_block_budget", offload_blocks);
    row.Set("read_gbps", read_gbps);
    row.Set("sink_blocks", sink_blocks);
    row.Set("window_blocks", window_blocks);
    row.Set("admitted", r.admitted);
    row.Set("tokens_per_second", r.tokens_per_second);
    row.Set("ttft_seconds", r.ttft_s);
    row.Set("tpot_seconds", r.tpot_s);
    row.Set("flash_bytes", r.flash_bytes);
    row.Set("flash_seconds", r.flash_s);
    row.Set("stall_fraction",
            r.makespan_s > 0.0 ? r.stall_s / r.makespan_s : 0.0);
    if (!r.error.empty()) {
      row.Set("error", r.error);
    }
  };

  // --- 1. 64k tokens under a 16k-token DRAM budget -------------------------------------
  rep.Section(device.soc_name + " / " + model.name + ", 64k context, 16k-token DRAM budget");
  std::printf("%-26s %9s %9s %10s %10s %12s %8s\n", "variant", "admitted", "tok/s",
              "ttft (s)", "tpot (ms)", "flash MB/tok", "stall%");
  const auto print_run = [&](const char* variant, const LongRun& r) {
    if (!r.admitted) {
      std::printf("%-26s %9s   (%s)\n", variant, "NO", r.error.c_str());
      return;
    }
    std::printf("%-26s %9s %9.2f %10.2f %10.2f %12.3f %7.1f%%\n", variant, "yes",
                r.tokens_per_second, r.ttft_s, r.tpot_s * 1e3,
                decode > 0 ? static_cast<double>(r.flash_bytes) / 1e6 / decode : 0.0,
                r.makespan_s > 0.0 ? 100.0 * r.stall_s / r.makespan_s : 0.0);
  };

  const LongRun rejected = run_one(65536, /*offload_blocks=*/0, 3.5, 0, 0);
  if (rejected.admitted || rejected.error.empty()) {
    std::fprintf(stderr, "expected the 64k job to be REJECTED without offload\n");
    return 1;
  }
  print_run("dram-only (baseline)", rejected);
  add_row("dram_only", 65536, 0, 3.5, 0, 0, rejected);

  const LongRun offloaded = run_one(65536, resident_blocks, 3.5, 0, 0);
  if (!offloaded.admitted) {
    std::fprintf(stderr, "64k job must ADMIT with the flash tier: %s\n",
                 offloaded.error.c_str());
    return 1;
  }
  print_run("flash offload", offloaded);
  add_row("offload", 65536, resident_blocks, 3.5, 0, 0, offloaded);

  // Sinks + a 128-block (4k-token) window keep the attended set inside the resident
  // budget: same 64k context, zero flash traffic.
  const LongRun windowed = run_one(65536, resident_blocks, 3.5, /*sink_blocks=*/4,
                                   /*window_blocks=*/128);
  if (!windowed.admitted || windowed.flash_bytes != 0) {
    std::fprintf(stderr, "windowed 64k run should admit with zero flash traffic\n");
    return 1;
  }
  print_run("offload + 4k window", windowed);
  add_row("offload_window", 65536, resident_blocks, 3.5, 4, 128, windowed);

  // --- 2. context x bandwidth x window sweep -------------------------------------------
  rep.Section("context x flash bandwidth x window sweep");
  const std::vector<int> contexts = smoke ? std::vector<int>{8192, 65536}
                                          : std::vector<int>{8192, 16384, 32768, 65536};
  const std::vector<double> bandwidths =
      smoke ? std::vector<double>{3.5, 0.5} : std::vector<double>{3.5, 1.0, 0.5, 0.25};
  const std::vector<int> windows = smoke ? std::vector<int>{0, 128}
                                         : std::vector<int>{0, 64, 128, 256};
  std::printf("%8s %8s %8s %9s %10s %12s %8s\n", "context", "GB/s", "window", "tok/s",
              "tpot (ms)", "flash MB/tok", "stall%");
  for (const int ctx : contexts) {
    for (const double gbps : bandwidths) {
      for (const int win : windows) {
        const LongRun r = run_one(ctx, resident_blocks, gbps, win > 0 ? 4 : 0, win);
        if (!r.admitted) {
          std::fprintf(stderr, "sweep run (ctx %d) unexpectedly rejected: %s\n", ctx,
                       r.error.c_str());
          return 1;
        }
        std::printf("%8d %8.2f %8d %9.2f %10.2f %12.3f %7.1f%%\n", ctx, gbps, win,
                    r.tokens_per_second, r.tpot_s * 1e3,
                    decode > 0 ? static_cast<double>(r.flash_bytes) / 1e6 / decode : 0.0,
                    r.makespan_s > 0.0 ? 100.0 * r.stall_s / r.makespan_s : 0.0);
        add_row("sweep", ctx, resident_blocks, gbps, win > 0 ? 4 : 0, win, r);
      }
    }
  }

  // --- 3. functional gates: bit-identity + windowed accuracy proxy ---------------------
  rep.Section("functional toy: offload bit-identity, window parity, per-job checksums");
  const hllm::ModelConfig toy = hllm::ToyConfig();
  const hllm::ModelWeights weights = hllm::ModelWeights::Random(toy, 42);
  const int fn_jobs = smoke ? 3 : 5;
  const int fn_prompt = 40;
  const int fn_decode = smoke ? 16 : 24;
  std::vector<hserve::ServeJob> jobs;
  for (int i = 0; i < fn_jobs; ++i) {
    hserve::ServeJob j;
    j.id = i;
    j.prompt_tokens = fn_prompt;
    j.decode_tokens = fn_decode;
    j.seed = 300 + static_cast<uint64_t>(i);
    if (i % 2 == 1) {  // bit-identity must hold for stochastic samplers too
      j.sampler.temperature = 0.8f;
      j.sampler.top_k = 8;
    }
    jobs.push_back(j);
  }
  hserve::ServeOptions fso;
  fso.max_batch = 3;
  // offload_budget <= 0 and window_blocks == 0 run the exact legacy path.
  const auto run_functional = [&](const std::vector<hserve::ServeJob>& js,
                                  int64_t offload_budget, int sink_blocks,
                                  int window_blocks) {
    hexsim::NpuDevice dev(device);
    hserve::FunctionalBackend::Options options;
    options.offload.resident_block_budget = offload_budget;
    options.window.sink_blocks = sink_blocks;
    options.window.window_blocks = window_blocks;
    hserve::FunctionalBackend backend(dev, weights, fso.max_batch, /*max_context=*/160,
                                      options);
    return hserve::ContinuousBatcher(backend, fso).Run(js);
  };

  const hserve::ScheduleResult fn_plain = run_functional(jobs, 0, 0, 0);
  // Budget 4 blocks vs ~3 slots x 2-3 blocks live: demotion + fault traffic every step.
  const hserve::ScheduleResult fn_off = run_functional(jobs, /*offload_budget=*/4, 0, 0);
  // Sinks + window covering the whole 160-token context: the kernel must normalize it
  // away, so the stream is bit-identical and no chunk is ever skipped.
  const hserve::ScheduleResult fn_fullwin = run_functional(jobs, 0, /*sink_blocks=*/2,
                                                           /*window_blocks=*/6);
  if (!fn_plain.error.empty() || !fn_off.error.empty() || !fn_fullwin.error.empty()) {
    std::fprintf(stderr, "functional run failed: %s%s%s\n", fn_plain.error.c_str(),
                 fn_off.error.c_str(), fn_fullwin.error.c_str());
    return 1;
  }
  if (fn_off.job_tokens != fn_plain.job_tokens) {
    std::fprintf(stderr, "OFFLOAD BIT-IDENTITY VIOLATION: demote/fault changed the "
                         "committed stream\n");
    return 1;
  }
  if (fn_fullwin.job_tokens != fn_plain.job_tokens) {
    std::fprintf(stderr, "FULL-COVERAGE WINDOW VIOLATION: a window covering the whole "
                         "context changed the committed stream\n");
    return 1;
  }
  std::printf("%-8s %-8s %8s %8s %20s\n", "request", "sampler", "prompt", "tokens",
              "checksum");
  for (size_t i = 0; i < fn_off.job_tokens.size(); ++i) {
    const std::vector<int>& toks = fn_off.job_tokens[i];
    char checksum_hex[20];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  static_cast<unsigned long long>(TokenChecksum(toks)));
    const char* sampler = jobs[i].sampler.temperature > 0.0f ? "top_k" : "greedy";
    std::printf("%-8d %-8s %8d %8zu %20s\n", jobs[i].id, sampler, jobs[i].prompt_tokens,
                toks.size(), checksum_hex);
    obs::Json& row = rep.AddRow("serving_request");
    row.Set("request", jobs[i].id);
    row.Set("sampler", sampler);
    row.Set("prompt_tokens", jobs[i].prompt_tokens);
    row.Set("tokens", static_cast<int64_t>(toks.size()));
    row.Set("token_checksum", checksum_hex);
  }
  const auto count = [&](const hserve::ScheduleResult& r, const char* name) {
    return static_cast<long long>(r.metrics.CounterValue(name));
  };
  std::printf("offload run: %lld demotions, %lld promotions (%lld prefetch hits, %lld "
              "demand faults), %lld flash bytes, %lld wear writes\n",
              count(fn_off, "kv.offload.demotions"), count(fn_off, "kv.offload.promotions"),
              count(fn_off, "kv.offload.prefetch_hits"),
              count(fn_off, "kv.offload.demand_faults"),
              count(fn_off, "kv.offload.flash_read_bytes"),
              count(fn_off, "kv.offload.wear_write_ops"));
  if (count(fn_off, "kv.offload.demotions") <= 0) {
    std::fprintf(stderr, "offload run never demoted a block — the gate proved nothing\n");
    return 1;
  }
  obs::Json& orow = rep.AddRow("functional_offload_summary");
  orow.Set("demotions", fn_off.metrics.CounterValue("kv.offload.demotions"));
  orow.Set("promotions", fn_off.metrics.CounterValue("kv.offload.promotions"));
  orow.Set("prefetch_hits", fn_off.metrics.CounterValue("kv.offload.prefetch_hits"));
  orow.Set("demand_faults", fn_off.metrics.CounterValue("kv.offload.demand_faults"));
  orow.Set("flash_read_bytes", fn_off.metrics.CounterValue("kv.offload.flash_read_bytes"));
  orow.Set("wear_write_ops", fn_off.metrics.CounterValue("kv.offload.wear_write_ops"));
  orow.Set("lossless", true);
  rep.AttachMetrics(fn_off.metrics, "functional toy offload run (4-block resident budget)");

  // A genuinely truncating window DOES change attention; the token-agreement fraction
  // against the full-attention stream is the accuracy proxy the sweep's quality column
  // would carry on a real model. The 40-token prompts above fit inside any window, so this
  // comparison runs its own longer-context jobs (96 + decode > ResidentTokens).
  {
    std::vector<hserve::ServeJob> long_jobs = jobs;
    for (auto& j : long_jobs) {
      j.prompt_tokens = 96;
    }
    hkern::AttnWindowSpec win;
    win.sink_blocks = 1;
    win.window_blocks = 1;
    if (win.CoversAll(96 + fn_decode - 1)) {
      std::fprintf(stderr, "accuracy-proxy window unexpectedly covers the whole context\n");
      return 1;
    }
    const hserve::ScheduleResult long_plain = run_functional(long_jobs, 0, 0, 0);
    const hserve::ScheduleResult fn_win =
        run_functional(long_jobs, 0, win.sink_blocks, win.window_blocks);
    if (!fn_win.error.empty() || !long_plain.error.empty()) {
      std::fprintf(stderr, "windowed functional run failed: %s%s\n",
                   long_plain.error.c_str(), fn_win.error.c_str());
      return 1;
    }
    int64_t agree = 0;
    int64_t total = 0;
    for (size_t i = 0; i < fn_win.job_tokens.size(); ++i) {
      const std::vector<int>& w = fn_win.job_tokens[i];
      const std::vector<int>& p = long_plain.job_tokens[i];
      for (size_t t = 0; t < w.size() && t < p.size(); ++t) {
        agree += w[t] == p[t] ? 1 : 0;
        ++total;
      }
    }
    const double agreement = total > 0 ? static_cast<double>(agree) / total : 0.0;
    std::printf("truncating window (1 sink + 1 window block, 96-token prompts): token "
                "agreement %.2f (%lld/%lld) vs full attention\n",
                agreement, static_cast<long long>(agree), static_cast<long long>(total));
    obs::Json& wrow = rep.AddRow("window_accuracy");
    wrow.Set("sink_blocks", 1);
    wrow.Set("window_blocks", 1);
    wrow.Set("prompt_tokens", 96);
    wrow.Set("token_agreement", agreement);
    wrow.Set("tokens_compared", total);
  }

  rep.Note("The 64k row decodes under a DRAM budget holding 16k resident KV tokens — "
           "without the flash tier the same job stream is an admission error. Analytic "
           "flash traffic and stall come from the same hexsim::FlashTier the functional "
           "offload engine charges; the functional gates prove demote/fault round trips "
           "and full-coverage windows are bit-identical to plain decode, so the "
           "serving_request checksums stay valid for the 1- vs 4-thread CI diff "
           "(tools/compare_bench_tokens.py).");
  return 0;
}
