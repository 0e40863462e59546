// Extension bench: static vs continuous batching for Best-of-N workloads. Samples finish at
// different lengths; reclaiming finished slots immediately trims the batch-dependent costs
// (CPU lm_head, attention) and removes padding decode — the scheduler a production TTS
// runtime wants on top of the paper's kernels.
//
// Both policies run through the serving runtime's ContinuousBatcher (kStaticWaves vs
// kContinuous), so the second table can show what the old fixed-context scheduler hid:
// per-slot contexts GROW as samples decode, and admissions charge the prompt's chunked
// prefill (shared once per Best-of-N group).
#include <cstdio>
#include <vector>

#include "bench/reporter.h"
#include "src/base/rng.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"
#include "src/tts/tts.h"

namespace {

// The legacy sample-job stream on the serving runtime: fixed uncharged starting context,
// one slot per sample, policy-selected slot reclamation.
hserve::ScheduleResult Schedule(const std::vector<htts::SampleJob>& jobs, int max_batch,
                                const hrt::Engine& engine, int context,
                                hserve::SchedulePolicy policy) {
  hserve::AnalyticBackend backend(engine);
  hserve::ServeOptions so;
  so.max_batch = max_batch;
  so.policy = policy;
  std::vector<hserve::ServeJob> serve_jobs;
  serve_jobs.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    hserve::ServeJob sj;
    sj.id = static_cast<int>(j);
    sj.context_tokens = context;
    sj.decode_tokens = jobs[j].total_tokens;
    serve_jobs.push_back(sj);
  }
  return hserve::ContinuousBatcher(backend, so).Run(serve_jobs);
}

}  // namespace

int main() {
  bench::Reporter rep("ext_scheduler",
                      "Static vs continuous batching for Best-of-N decoding (Qwen2.5-1.5B, "
                      "OnePlus 12)",
                      "runtime scheduling extension");

  hrt::EngineOptions o;
  o.model = &hllm::Qwen25_1_5B();
  o.device = &hexsim::OnePlus12();
  const hrt::Engine engine(o);
  hexllm::Rng rng(404);

  // 12 tasks x Best-of-8 samples, ~384-token solutions with realistic length spread.
  const auto jobs = htts::MakeSampleJobs(/*tasks=*/12, /*samples_per_task=*/8,
                                        /*mean_tokens=*/384, rng);

  std::printf("%-10s %14s %14s %14s %14s %12s\n", "max_batch", "static t/s", "contin. t/s",
              "speedup", "static util", "avg active");
  for (int max_batch : {4, 8, 16}) {
    const auto st =
        Schedule(jobs, max_batch, engine, 768, hserve::SchedulePolicy::kStaticWaves);
    const auto ct =
        Schedule(jobs, max_batch, engine, 768, hserve::SchedulePolicy::kContinuous);
    std::printf("%-10d %14.1f %14.1f %13.2fx %13.1f%% %12.1f\n", max_batch,
                st.tokens_per_second, ct.tokens_per_second,
                ct.tokens_per_second / st.tokens_per_second, 100.0 * st.slot_utilization,
                ct.avg_active_batch);
    obs::Json& row = rep.AddRow("scheduler_comparison");
    row.Set("max_batch", max_batch);
    row.Set("static_tokens_per_second", st.tokens_per_second);
    row.Set("continuous_tokens_per_second", ct.tokens_per_second);
    row.Set("speedup", ct.tokens_per_second / st.tokens_per_second);
    row.Set("static_slot_utilization", st.slot_utilization);
    row.Set("continuous_avg_active_batch", ct.avg_active_batch);
  }
  rep.Note("the gap is the padding the static scheduler decodes while waiting for each "
           "wave's longest sample; continuous batching keeps every decoded row useful. "
           "The NPU kernels are unchanged — this is purely runtime policy.");

  // --- serving-runtime fidelity: growing contexts + chunked-prefill admissions ---
  rep.Section("per-slot context pricing and prefill accounting");
  std::printf("\nper-slot context pricing and prefill accounting (max_batch 8, 768-token "
              "prompts):\n");
  std::printf("%-26s %12s %12s %12s %12s\n", "pricing", "makespan s", "t/s", "avg ctx",
              "energy J");
  std::vector<hserve::ServeJob> serve_jobs;
  for (const auto& j : jobs) {
    hserve::ServeJob sj;
    sj.id = j.id;
    sj.prompt_group = j.id / 8;  // 8 samples share each task's prompt
    sj.prompt_tokens = 768;
    sj.decode_tokens = j.total_tokens;
    serve_jobs.push_back(sj);
  }
  hserve::ServeOptions so;
  so.max_batch = 8;
  const auto report_pricing = [&](const char* pricing, const hserve::ScheduleResult& r) {
    std::printf("%-26s %12.1f %12.1f %12.0f %12.1f\n", pricing, r.makespan_s,
                r.tokens_per_second, r.avg_context, r.energy_j);
    obs::Json& row = rep.AddRow("pricing_ablation");
    row.Set("pricing", pricing);
    row.Set("makespan_s", r.makespan_s);
    row.Set("tokens_per_second", r.tokens_per_second);
    row.Set("avg_context", r.avg_context);
    row.Set("energy_j", r.energy_j);
  };
  {
    hserve::AnalyticBackend backend(engine);
    const auto r = hserve::ContinuousBatcher(backend, so).Run(serve_jobs);
    report_pricing("growing ctx + prefill", r);
    rep.AttachMetrics(r.metrics, "serving run, growing ctx + prefill");
  }
  {
    // Legacy wrapper semantics for contrast: slots start at the prompt's depth but the
    // prefill itself is never charged.
    std::vector<hserve::ServeJob> free_prompts = serve_jobs;
    for (auto& j : free_prompts) {
      j.prompt_tokens = 0;
      j.context_tokens = 768;
    }
    hserve::AnalyticBackend backend(engine);
    const auto r = hserve::ContinuousBatcher(backend, so).Run(free_prompts);
    report_pricing("growing ctx, free prompts", r);
  }
  {
    // And with no prompt context at all: what pricing from a zero-depth KV would claim.
    std::vector<hserve::ServeJob> no_prompt = serve_jobs;
    for (auto& j : no_prompt) {
      j.prompt_tokens = 0;
    }
    hserve::AnalyticBackend backend(engine);
    const auto r = hserve::ContinuousBatcher(backend, so).Run(no_prompt);
    report_pricing("no prompt context", r);
  }
  rep.Note("ignoring prompt depth understates the cost of every decode step, and "
           "skipping the prefill charge hides work the device must finish before the "
           "first token; the serving runtime prices both, which is what the Pareto "
           "sweep now consumes.");
  return 0;
}
