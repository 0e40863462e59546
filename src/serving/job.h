/// \file
/// The serving runtime's request type.
///
/// Kept dependency-light so workload producers (the TTS methods in src/tts, the request
/// frontend in src/frontend, benches, examples) can emit job streams without pulling in the
/// execution backends. The only dependency is hllm::SamplerOptions (src/llm/sampling.h),
/// itself header-light, so every decode path samples through one seeded sampler.
#ifndef SRC_SERVING_JOB_H_
#define SRC_SERVING_JOB_H_

#include <algorithm>
#include <cstdint>

#include "src/llm/sampling.h"

namespace hserve {

// A SamplerOptions whose default is greedy argmax — the serving runtime's default decode
// policy (hllm::SamplerOptions itself defaults to temperature 1.0 for the TTS library).
inline hllm::SamplerOptions GreedySampler() {
  hllm::SamplerOptions o;
  o.temperature = 0.0f;
  return o;
}

// One decode request: a sample that must generate `decode_tokens` tokens on top of a prompt.
struct ServeJob {
  int id = 0;
  // Jobs sharing a prompt_group share one charged prefill (parallel TTS samples of one task
  // decode against a common prompt). Negative means the job pays its own prompt.
  int prompt_group = -1;
  int prompt_tokens = 0;   // chunked-prefill charged on the group's first admission
  int context_tokens = 0;  // pre-existing uncharged context (e.g. a beam prefix, or the
                           // legacy scheduler API's fixed `context` parameter)
  int decode_tokens = 0;   // tokens this job generates
  // Admission wave within the prompt_group: a job admits only after every job of the same
  // group with a smaller barrier has completed (beam-search expansion rounds).
  int barrier = 0;
  // Length of the group's SHARED PROMPT PREFIX. By default (-1) the whole prompt is the
  // shared unit — every member of a prompt_group decodes against one identical prompt, the
  // original TTS semantics: the group's first admission prefills and anchors the full
  // prompt, later members map it and charge nothing. A non-negative value instead declares
  // that only the first `group_prefix_tokens` prompt positions are common to the group (a
  // registered system prompt — src/fleet's PrefixRegistry): the anchor covers only the
  // prefix, later members map the prefix and prefill (and charge) their remaining
  // `prompt_tokens - group_prefix_tokens` positions. Ignored for ungrouped jobs.
  int group_prefix_tokens = -1;
  // Fork source: id of a completed job whose KV this job continues. The child admits by
  // mapping the parent's retained KV blocks — zero re-prefill of the shared stem;
  // divergence is copy-on-write. The child's starting context (prompt_tokens +
  // context_tokens) must be at least the parent's final KV length; any EXCESS over the
  // parent's length is fresh tokens prefilled (and charged) at admission — this is how a
  // dialog session's follow-up turn re-prefills only the new turn (src/frontend). Negative
  // means no fork (fresh admission). In a batched stream (ContinuousBatcher::Run) the
  // parent must share a non-negative prompt_group at a strictly smaller barrier; in live
  // submission (Submit/Step) the parent must already have completed with retained KV. Job
  // ids are unique in either mode.
  int parent_job = -1;
  // Admission priority: higher admits first, and (with ServeOptions::enable_preemption) a
  // higher-priority arrival may pause a running lower-priority decode to take its slot.
  int priority = 0;
  // Retain the job's final KV past completion under its id (a retained-handle snapshot), so
  // later jobs can fork from it (session follow-up turns). The owner releases it via
  // ContinuousBatcher::ReleaseRetained. Jobs with fork children in a batched stream are
  // retained automatically regardless of this flag.
  bool retain_kv = false;
  // Decode with speculative drafting (docs/speculative_decoding.md): a smaller draft model
  // proposes gamma tokens per cycle and the target verifies all gamma+1 positions in one
  // batched multi-row step, rolling rejected suffixes back through the paged-KV tail.
  // Honored only when the backend was configured with a draft model; plain decode
  // otherwise. Lossless: the committed token stream is bit-identical to plain decode for
  // any sampler, because every committed token is sampled from the target's own logits
  // under identical conditioning.
  bool speculative = false;
  // Per-request sampling policy, applied by token-producing backends. Defaults to greedy
  // argmax, which keeps decoded streams identical to the pre-sampler runtime. Together with
  // `seed`, decoded text is deterministic at any thread count: sampling happens on the
  // bookkeeping thread from a per-slot Rng seeded at admission.
  hllm::SamplerOptions sampler = GreedySampler();
  uint64_t seed = 0;  // seeds the per-job sampler Rng at admission
};

// Prompt positions `job` shares with its prompt_group: the whole prompt by default, or the
// explicit group_prefix_tokens cap. Zero for ungrouped / promptless jobs.
inline int GroupPrefixLen(const ServeJob& job) {
  if (job.prompt_group < 0 || job.prompt_tokens <= 0) {
    return 0;
  }
  return job.group_prefix_tokens >= 0 ? std::min(job.group_prefix_tokens, job.prompt_tokens)
                                      : job.prompt_tokens;
}

}  // namespace hserve

#endif  // SRC_SERVING_JOB_H_
