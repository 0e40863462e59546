#include "src/llm/sampling.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/base/check.h"

namespace hllm {

int ArgmaxToken(std::span<const float> logits) {
  HEXLLM_CHECK(!logits.empty());
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) - logits.begin());
}

namespace {

// Largest top_k the selection path serves from stack arrays; larger k sorts.
constexpr int kMaxSelect = 64;

// Softmax at `temperature` over the candidates `idx` (in their given order), then one Rng
// draw. `p` is scratch with idx.size() entries.
int Draw(std::span<const float> logits, std::span<const int> idx, std::span<double> p,
         float temperature, hexllm::Rng& rng) {
  double max_logit = -1e30;
  for (int i : idx) {
    max_logit = std::max(max_logit, static_cast<double>(logits[static_cast<size_t>(i)]));
  }
  double sum = 0.0;
  for (size_t j = 0; j < idx.size(); ++j) {
    p[j] = std::exp((logits[static_cast<size_t>(idx[j])] - max_logit) / temperature);
    sum += p[j];
  }
  for (auto& v : p) {
    v /= sum;
  }

  double r = rng.NextDouble();
  for (size_t j = 0; j < p.size(); ++j) {
    r -= p[j];
    if (r <= 0.0) {
      return idx[j];
    }
  }
  return idx.back();
}

// Scans `logits` once into the `k` largest, descending, in `top`. Returns false (and the
// caller sorts instead) unless those k values are pairwise distinct, strictly above every
// other logit, and no logit is NaN: only then is the result the unique first k of any
// sort by logit descending, whatever the library's algorithm.
bool SelectTopK(std::span<const float> logits, int k, int* top) {
  float val[kMaxSelect] = {};
  int filled = 0;
  float rest_max = -INFINITY;  // largest logit outside the current top k
  for (size_t i = 0; i < logits.size(); ++i) {
    const float v = logits[i];
    if (std::isnan(v)) {
      return false;
    }
    if (filled == k) {
      if (!(v > val[k - 1])) {
        rest_max = std::max(rest_max, v);
        continue;
      }
      rest_max = std::max(rest_max, val[k - 1]);
      --filled;
    }
    int j = filled++;
    for (; j > 0 && val[j - 1] < v; --j) {
      val[j] = val[j - 1];
      top[j] = top[j - 1];
    }
    val[j] = v;
    top[j] = static_cast<int>(i);
  }
  for (int j = 1; j < k; ++j) {
    if (!(val[j - 1] > val[j])) {
      return false;
    }
  }
  return val[k - 1] > rest_max;
}

}  // namespace

int SampleToken(std::span<const float> logits, const SamplerOptions& opts, hexllm::Rng& rng) {
  HEXLLM_CHECK(!logits.empty());
  if (opts.temperature <= 0.0f) {
    return ArgmaxToken(logits);
  }

  const int vocab = static_cast<int>(logits.size());
  const bool top_k = opts.top_k > 0 && opts.top_k < vocab;
  if (top_k && opts.top_k <= kMaxSelect) {
    int idx[kMaxSelect] = {};
    if (SelectTopK(logits, opts.top_k, idx)) {
      double p[kMaxSelect] = {};
      const size_t k = static_cast<size_t>(opts.top_k);
      return Draw(logits, {idx, k}, {p, k}, opts.temperature, rng);
    }
  }

  // Candidate set: the top_k logits, descending, or the whole vocabulary in index order.
  std::vector<int> idx(logits.size());
  std::iota(idx.begin(), idx.end(), 0);
  if (top_k) {
    std::sort(idx.begin(), idx.end(),
              [&](int a, int b) { return logits[static_cast<size_t>(a)] > logits[static_cast<size_t>(b)]; });
    idx.resize(static_cast<size_t>(opts.top_k));
  }
  std::vector<double> p(idx.size());
  return Draw(logits, idx, p, opts.temperature, rng);
}

}  // namespace hllm
