// Token sampling from logits: greedy, temperature, top-k.
#ifndef SRC_LLM_SAMPLING_H_
#define SRC_LLM_SAMPLING_H_

#include <cstdint>
#include <span>

#include "src/base/rng.h"

namespace hllm {

struct SamplerOptions {
  float temperature = 1.0f;  // <= 0 means greedy
  int top_k = 0;             // 0 disables
};

// Samples one token id from `logits` under `opts`. Deterministic given the Rng state.
// Candidates are the top_k logits sorted descending when top_k is set, else every logit in
// index order.
// A small top_k (<= 64) is selected in one scan, without a heap allocation, whenever the
// k largest logits are distinct, strictly above every other logit and no logit is NaN:
// then every sort puts exactly those indices first, in that order, so the tokens match a
// full sort. Tied or NaN logits fall back to std::sort, and only those tokens still depend
// on the standard library's sort order.
int SampleToken(std::span<const float> logits, const SamplerOptions& opts, hexllm::Rng& rng);

// Greedy argmax.
int ArgmaxToken(std::span<const float> logits);

}  // namespace hllm

#endif  // SRC_LLM_SAMPLING_H_
