#include "src/tts/pareto.h"

#include <algorithm>
#include <vector>

#include "src/base/check.h"
#include "src/runtime/engine.h"
#include "src/serving/continuous_batcher.h"
#include "src/tts/reward_model.h"
#include "src/tts/speculative.h"
#include "src/tts/tts.h"

namespace htts {

const char* TtsMethodName(TtsMethod m) {
  switch (m) {
    case TtsMethod::kBase:
      return "base";
    case TtsMethod::kBestOfN:
      return "Best-of-N";
    case TtsMethod::kBeamSearch:
      return "Beam Search";
    case TtsMethod::kSpeculative:
      return "Speculative";
  }
  return "?";
}

std::vector<ParetoPoint> SweepPareto(const CapabilityModel& cap,
                                     const ParetoSweepOptions& options) {
  HEXLLM_CHECK(options.device != nullptr && !options.models.empty());
  std::vector<ParetoPoint> points;
  const TaskSet tasks = GenerateTaskSet(options.dataset, options.tasks, options.seed);
  const OutcomeRewardModel orm;
  const ProcessRewardModel prm;
  hexllm::Rng rng(options.seed ^ 0xFACADE);

  for (const auto* model : options.models) {
    const double theta = cap.EffectiveTheta(*model, options.dataset,
                                            cap.DeployedWeightErr(*model),
                                            cap.lut_f16_attention_err());
    hrt::EngineOptions eo;
    eo.model = model;
    eo.device = options.device;
    hrt::Engine engine(eo);
    const bool runnable = engine.CanRun();

    // Cost now comes from actually serving the method's job stream through the continuous
    // batcher at the method's sustained batch: per-slot growing contexts, shared-prompt
    // chunked prefill, and energy integrated per step (§7.2.1's "increased context" falls
    // out of the per-slot KV lengths instead of a hand-picked fixed context).
    const auto add_point = [&](TtsMethod method, int budget, const MethodResult& r,
                               const std::vector<hserve::ServeJob>& jobs,
                               const hrt::Engine* draft_engine = nullptr,
                               double spec_acceptance = 0.0) {
      ParetoPoint p;
      p.model = model->name;
      p.method = method;
      p.budget = budget;
      p.accuracy = r.accuracy;
      p.runnable = runnable;
      if (draft_engine != nullptr) {
        p.spec_draft = options.spec_draft->name;
        p.spec_acceptance = spec_acceptance;
      }
      if (runnable) {
        // F16 KV, tracked without a DRAM budget gate.
        hserve::AnalyticBackend::Options bo;
        if (draft_engine != nullptr) {
          bo.draft_engine = draft_engine;
          bo.spec_gamma = options.spec_gamma;
          bo.spec_acceptance = spec_acceptance;
        }
        hserve::AnalyticBackend backend(engine, bo);
        hserve::ServeOptions so;
        so.max_batch = std::max(1, r.batch);
        hserve::ContinuousBatcher batcher(backend, so);
        const hserve::ScheduleResult s = batcher.Run(jobs);
        if (!s.error.empty()) {
          p.runnable = false;  // stream rejected (context limit)
        }
        p.makespan_s = s.makespan_s;
        p.kv_physical_peak_bytes = s.kv.peak_physical_bytes();
        p.kv_logical_peak_bytes = s.kv.peak_logical_bytes();
        if (s.kv.peak_physical_blocks > 0) {
          p.kv_sharing_ratio = static_cast<double>(s.kv.peak_logical_blocks) /
                               static_cast<double>(s.kv.peak_physical_blocks);
        }
        if (s.steps > 0) {
          p.latency_per_token_s = s.makespan_s / static_cast<double>(s.steps);
        }
        if (s.decoded_tokens > 0) {
          p.energy_per_token_j = s.energy_j / static_cast<double>(s.decoded_tokens);
        }
        if (s.decode_s > 0.0) {
          p.watts = s.energy_j / s.decode_s;
        }
      }
      points.push_back(p);
    };

    // Base point (conventional sampling).
    {
      std::vector<hserve::ServeJob> jobs;
      const MethodResult r = RunSingleSample(tasks, theta, options.trials, rng, &jobs);
      add_point(TtsMethod::kBase, 1, r, jobs);

      // Speculative axis: the same single-sample stream decoded draft-assisted. Lossless
      // under any sampler, so accuracy is the base point's; the point exists to show where
      // generate-then-verify lands on the cost axis next to the scaling methods.
      if (options.spec_draft != nullptr && options.spec_draft != model &&
          options.spec_gamma > 0) {
        hrt::EngineOptions deo;
        deo.model = options.spec_draft;
        deo.device = options.device;
        hrt::Engine draft_engine(deo);
        if (draft_engine.CanRun()) {
          const double beta = SpeculativeAcceptanceRate(cap, *options.spec_draft, *model);
          std::vector<hserve::ServeJob> spec_jobs = jobs;
          for (auto& job : spec_jobs) {
            job.speculative = true;
          }
          add_point(TtsMethod::kSpeculative, 1, r, spec_jobs, &draft_engine, beta);
        }
      }
    }

    for (const int budget : options.budgets) {
      if (budget < 2) {
        continue;
      }
      {
        std::vector<hserve::ServeJob> jobs;
        const MethodResult r = RunBestOfN(tasks, theta, orm, budget, options.trials, rng,
                                          &jobs);
        add_point(TtsMethod::kBestOfN, budget, r, jobs);
      }
      {
        std::vector<hserve::ServeJob> jobs;
        const MethodResult r = RunBeamSearch(tasks, theta, prm, budget, /*expansion=*/4,
                                             options.trials, rng, &jobs);
        add_point(TtsMethod::kBeamSearch, budget, r, jobs);
      }
    }
  }
  return points;
}

bool OnParetoFrontier(const ParetoPoint& p, const std::vector<ParetoPoint>& points) {
  if (!p.runnable) {
    return false;
  }
  for (const auto& q : points) {
    if (!q.runnable) {
      continue;
    }
    const bool dominates = q.accuracy >= p.accuracy &&
                           q.latency_per_token_s <= p.latency_per_token_s &&
                           (q.accuracy > p.accuracy ||
                            q.latency_per_token_s < p.latency_per_token_s);
    if (dominates) {
      return false;
    }
  }
  return true;
}

}  // namespace htts
