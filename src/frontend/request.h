/// \file
/// The request frontend's wire types: a timestamped request (optionally one turn of a
/// multi-turn dialog session), its latency SLO, and the per-request accounting the
/// RequestBook folds for both serving drivers (docs/serving_frontend.md).
#ifndef SRC_FRONTEND_REQUEST_H_
#define SRC_FRONTEND_REQUEST_H_

#include <cstdint>

#include "src/serving/job.h"

namespace hfront {

// Latency targets. <= 0 disables the bound.
struct SloSpec {
  double ttft_s = 0.0;  // time-to-first-token budget, measured from arrival
  double tpot_s = 0.0;  // time-per-output-token budget (mean over the decode)
};

// One timestamped decode request. Requests with the same non-negative `session` form a
// multi-turn dialog: turn 0 arrives at the absolute time `arrival_s`; every later turn's
// `arrival_s` is the user's THINK TIME — the gap between the previous turn's completion and
// this turn's arrival — because a user cannot send a follow-up before reading the reply.
// Follow-up turns re-prefill only their own `prompt_tokens`: the prior turns' KV stays
// resident (retained under the previous turn's job) and is mapped, not recomputed.
struct Request {
  int id = 0;            // unique; doubles as the ServeJob id
  double arrival_s = 0.0;
  int session = -1;      // dialog session id, -1 = single-turn request
  int turn_index = 0;    // position within the session (0-based, contiguous)
  int prompt_tokens = 0; // THIS turn's new tokens (not the accumulated dialog)
  int decode_tokens = 0;
  int priority = 0;      // higher admits first and may preempt (ServeJob::priority)
  // Fleet routing hint (src/fleet): a non-negative value asks the FleetRouter to place this
  // request on that device index, overriding the policy (a hint >= the fleet's device count
  // is an error). Ignored by the single-engine frontend.
  int device_hint = -1;
  // Registered shared system prompt (docs/fleet.md). A non-negative id declares that the
  // FIRST `prefix_tokens` of `prompt_tokens` are the registered prefix: the fleet's
  // PrefixRegistry anchors it once per device and later requests CoW-map it instead of
  // re-prefilling (turn 0 only). Ignored by the single-engine frontend (requests there pay
  // their own prompts).
  int prefix_id = -1;
  int prefix_tokens = 0;
  hllm::SamplerOptions sampler = hserve::GreedySampler();
  uint64_t seed = 0;     // seeds the request's sampler Rng
  SloSpec slo;
};

// What happened to one request, folded by the RequestBook as events stream out of the
// batcher(s). Times are the batcher's simulated clock (identical at any thread count).
struct RequestStats {
  int id = 0;
  int session = -1;
  int turn_index = 0;
  double arrival_s = 0.0;      // absolute arrival (follow-up turns: completion + think)
  double admit_s = -1.0;       // first admission (prefill complete); -1 until admitted
  double first_token_s = -1.0; // first streamed token; -1 until produced
  double done_s = -1.0;        // last token; -1 until complete
  int tokens = 0;              // streamed tokens so far
  uint64_t checksum = 14695981039346656037ull;  // FNV-1a over the token stream
  int preemptions = 0;         // times this request's decode was paused
  int resumes = 0;             // times it resumed from its retained KV
  bool done = false;
  SloSpec slo;                 // copied from the request, for post-hoc evaluation

  double ttft_s() const { return first_token_s - arrival_s; }
  double tpot_s() const {
    return tokens > 1 ? (done_s - first_token_s) / (tokens - 1) : 0.0;
  }
  bool slo_ok() const {
    if (!done) {
      return false;
    }
    return (slo.ttft_s <= 0.0 || ttft_s() <= slo.ttft_s) &&
           (slo.tpot_s <= 0.0 || tpot_s() <= slo.tpot_s);
  }
};

}  // namespace hfront

#endif  // SRC_FRONTEND_REQUEST_H_
