#include "src/kernels/lm_head.h"

#include <algorithm>

#include "src/exec/thread_pool.h"

namespace hkern {

LmHeadCost LmHeadCostModel(const hexsim::DeviceProfile& profile, int batch, int hidden,
                           int64_t vocab, hquant::WeightScheme scheme) {
  LmHeadCost cost;
  cost.cores_used = std::min(profile.cpu_big_cores, std::max(1, batch));
  const double weight_bytes =
      static_cast<double>(hidden) * vocab * hquant::WeightSchemeBpw(scheme) / 8.0;
  const double flops = 2.0 * batch * hidden * static_cast<double>(vocab);
  // One streaming pass over the weights (shared across the batch) plus per-core compute.
  const double mem_s = weight_bytes / (profile.cpu_mem_gbps * 1e9);
  const double compute_s =
      flops / (profile.cpu_gflops_per_core * 1e9 * cost.cores_used);
  cost.seconds = std::max(mem_s, compute_s);
  cost.cpu_busy_s = cost.seconds * cost.cores_used;
  return cost;
}

void LmHeadForward(const hexllm::F16* h, const hexllm::F16* w, float* logits, int batch,
                   int hidden, int64_t vocab) {
  // Pure host math with no device accounting; every (row, vocab-column) output is an
  // independent dot product, so the flattened index space parallelizes directly and each
  // logit is bit-identical at any lane count.
  hexec::ParallelFor(static_cast<int64_t>(batch) * vocab,
                     [&](int64_t begin, int64_t end, int /*slot*/) {
                       for (int64_t idx = begin; idx < end; ++idx) {
                         const int64_t b = idx / vocab;
                         const int64_t v = idx % vocab;
                         const hexllm::F16* hb = h + b * hidden;
                         const hexllm::F16* col = w + v * hidden;
                         float acc = 0.0f;
                         for (int i = 0; i < hidden; ++i) {
                           acc += hb[i].ToFloat() * col[i].ToFloat();
                         }
                         logits[b * vocab + v] = acc;
                       }
                     });
}

void LmHeadForwardF32W(const float* h, const float* w, float* logits, int batch, int hidden,
                       int64_t vocab) {
  constexpr int64_t kVocabTile = 64;  // columns per register-blocked accumulator sweep
  // A lane needs at least two toy-model rows (2 x 128 x 512 MACs) to beat its fork-join
  // round trip, so batch-1 decode stays on the caller. lm_head charges no simulated cost,
  // so the lane count moves no counter; each logit is one lane's plain chain either way.
  constexpr int64_t kMinLaneMacs = int64_t{1} << 17;
  const int64_t n = static_cast<int64_t>(batch) * vocab;
  hexec::ParallelFor(
      n, [&](int64_t begin, int64_t end, int /*slot*/) {
        int64_t idx = begin;
        while (idx < end) {
          const int64_t b = idx / vocab;
          const int64_t v_begin = idx % vocab;
          // Columns of row `b` covered by this range (ranges may span row boundaries).
          const int64_t seg_end = std::min(end, (b + 1) * vocab);
          const int64_t v_end = v_begin + (seg_end - idx);
          const float* hb = h + b * hidden;
          float* out = logits + b * vocab;
          for (int64_t vt = v_begin; vt < v_end; vt += kVocabTile) {
            const int64_t width = std::min(v_end, vt + kVocabTile) - vt;
            // One accumulator per column, hidden index outermost: each column's sum is the
            // plain ascending-i chain (bit-identical to a per-column dot), while the inner
            // sweep runs over contiguous weight-row slices and vectorizes.
            float acc[kVocabTile];
            std::fill(acc, acc + width, 0.0f);
            for (int i = 0; i < hidden; ++i) {
              const float hi = hb[i];
              const float* wrow = w + static_cast<int64_t>(i) * vocab + vt;
              for (int64_t c = 0; c < width; ++c) {
                acc[c] += hi * wrow[c];
              }
            }
            for (int64_t c = 0; c < width; ++c) {
              out[vt + c] = acc[c];
            }
          }
          idx = seg_end;
        }
      },
      hexec::SlotsForWork(n, n * hidden, kMinLaneMacs));
}

}  // namespace hkern
