/// \file
/// Deterministic traffic generation for serving experiments: seeded Poisson/bursty
/// arrivals, lognormal prompt/output-length dispersion, an interactive (latency-critical)
/// request class, and multi-turn dialog sessions. The same (options, seed) pair always
/// produces the same trace, so serving benchmarks are bit-reproducible
/// (docs/serving_frontend.md lists every knob).
#ifndef SRC_FRONTEND_TRAFFIC_H_
#define SRC_FRONTEND_TRAFFIC_H_

#include <cstdint>
#include <vector>

#include "src/frontend/request.h"

namespace hfront {

struct TrafficOptions {
  // Number of INITIAL arrivals. Sessions append their follow-up turns on top, so the trace
  // holds up to `arrivals * session_turns` requests.
  int arrivals = 32;
  uint64_t seed = 1;

  // --- arrival process ---
  double arrival_rate_hz = 4.0;   // Poisson rate of the base process
  // Each arrival is a burst head with this probability: the next `burst_size - 1` arrivals
  // land within `burst_spread_s` of it instead of waiting out exponential gaps (a traffic
  // spike hitting the admission queue at once).
  double burst_fraction = 0.0;
  int burst_size = 4;
  double burst_spread_s = 1e-3;

  // --- length mix (lognormal with sigma 0.5 around the mean, floored) ---
  int mean_prompt_tokens = 48;
  int min_prompt_tokens = 8;
  int mean_decode_tokens = 24;
  int min_decode_tokens = 4;

  // --- request classes ---
  // Interactive requests get priority 1 and `interactive_slo`; the rest are batch
  // (priority 0, `batch_slo`). Priority 1 preempts running batch decodes when the engine's
  // batcher has ServeOptions::enable_preemption set.
  double interactive_fraction = 0.25;
  SloSpec interactive_slo{0.5, 0.1};
  SloSpec batch_slo{0.0, 0.0};

  // --- sessions ---
  // An initial arrival starts a dialog session with this probability; the session runs
  // `session_turns` turns total. Follow-up turns' think time is exponential with mean
  // `mean_think_s`, and their lengths are drawn from the same distributions.
  double session_fraction = 0.0;
  int session_turns = 3;
  double mean_think_s = 1.0;

  // --- long-context requests (tiered KV offload, docs/long_context.md) ---
  // With long_context_fraction > 0, an initial arrival is a document-grounded long-context
  // request with this probability: its prompt length is drawn around
  // `mean_long_prompt_tokens` (same lognormal dispersion, floored at
  // `min_long_prompt_tokens`) instead of the short-prompt mean. These are the sessions
  // whose resident KV overflows the DRAM budget and exercises the flash tier / sliding
  // window. All draws are gated on the fraction, so the default (0) produces byte-identical
  // traces to older options.
  double long_context_fraction = 0.0;
  int mean_long_prompt_tokens = 8192;
  int min_long_prompt_tokens = 1024;

  // --- shared system prompts (fleet prefix registry, docs/fleet.md) ---
  // With prefix_count > 0 and prefix_tokens > 0, each initial arrival uses a registered
  // shared system prompt with probability `prefix_fraction`: its Request carries a
  // prefix_id in [0, prefix_count) and prompt_tokens grows by prefix_tokens (the prefix
  // rides in front of the turn's own prompt). All prefix draws are gated on these knobs, so
  // the default (0) produces byte-identical traces to older options.
  int prefix_count = 0;
  int prefix_tokens = 0;
  double prefix_fraction = 0.5;

  // Sampling policy stamped on every request (greedy default); each request still gets its
  // own Rng seed from the trace seed.
  hllm::SamplerOptions sampler = hserve::GreedySampler();
};

// Generates the trace, sorted by arrival time for the initial turns (follow-up turns carry
// relative think times and ride behind their session head). Request ids are dense from 0.
std::vector<Request> GenerateTraffic(const TrafficOptions& options);

}  // namespace hfront

#endif  // SRC_FRONTEND_TRAFFIC_H_
