#include "src/frontend/traffic.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"
#include "src/base/rng.h"

namespace hfront {

namespace {

// Lognormal with sigma 0.5 around `mean` (the same dispersion MakeSampleJobs and the TTS
// library use), floored at `min`.
int Length(int mean, int min, hexllm::Rng& rng) {
  const double len = mean * std::exp(0.5 * rng.NextGaussian() - 0.125);
  return std::max(min, static_cast<int>(len));
}

}  // namespace

std::vector<Request> GenerateTraffic(const TrafficOptions& o) {
  HEXLLM_CHECK(o.arrivals >= 0);
  HEXLLM_CHECK(o.arrival_rate_hz > 0.0);
  HEXLLM_CHECK(o.session_turns >= 1);
  hexllm::Rng rng(o.seed);
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(o.arrivals));

  double t = 0.0;
  int id = 0;
  int session_id = 0;
  int burst_left = 0;  // arrivals still to land inside the current burst window
  double burst_t0 = 0.0;

  for (int i = 0; i < o.arrivals; ++i) {
    if (burst_left > 0) {
      --burst_left;
      t = burst_t0 + o.burst_spread_s * rng.NextDouble();
    } else {
      t += rng.NextExponential() / o.arrival_rate_hz;
      if (o.burst_fraction > 0.0 && o.burst_size > 1 && rng.NextBool(o.burst_fraction)) {
        burst_left = o.burst_size - 1;
        burst_t0 = t;
      }
    }

    const bool interactive = rng.NextBool(o.interactive_fraction);
    const bool in_session = o.session_fraction > 0.0 && o.session_turns > 1 &&
                            rng.NextBool(o.session_fraction);
    // Long-context draw, gated on the knob so legacy traces are unchanged. Every turn of a
    // long session stays in the long regime — the document context persists across turns.
    const bool long_context =
        o.long_context_fraction > 0.0 && rng.NextBool(o.long_context_fraction);
    // Shared-system-prompt draw, gated on the prefix knobs so legacy traces are unchanged.
    int prefix = -1;
    if (o.prefix_count > 0 && o.prefix_tokens > 0 && rng.NextBool(o.prefix_fraction)) {
      prefix = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(o.prefix_count)));
    }
    const int turns = in_session ? o.session_turns : 1;
    const int session = in_session ? session_id++ : -1;
    for (int turn = 0; turn < turns; ++turn) {
      Request r;
      r.id = id++;
      r.arrival_s = turn == 0 ? t : o.mean_think_s * rng.NextExponential();
      r.session = session;
      r.turn_index = turn;
      r.prompt_tokens = long_context
                            ? Length(o.mean_long_prompt_tokens, o.min_long_prompt_tokens, rng)
                            : Length(o.mean_prompt_tokens, o.min_prompt_tokens, rng);
      r.decode_tokens = Length(o.mean_decode_tokens, o.min_decode_tokens, rng);
      if (turn == 0 && prefix >= 0) {
        // The registered prefix rides in front of the first turn's own prompt.
        r.prefix_id = prefix;
        r.prefix_tokens = o.prefix_tokens;
        r.prompt_tokens += o.prefix_tokens;
      }
      r.priority = interactive ? 1 : 0;
      r.slo = interactive ? o.interactive_slo : o.batch_slo;
      r.sampler = o.sampler;
      r.seed = rng.NextU64();
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace hfront
