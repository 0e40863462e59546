// The accuracy-cost sweep driver behind Figures 5 and 10: couples the statistical TTS
// algorithms (accuracy) with the runtime engine (per-token decode latency and energy at the
// method's sustained batch size, accounting for the longer contexts TTS produces).
#ifndef SRC_TTS_PARETO_H_
#define SRC_TTS_PARETO_H_

#include <string>
#include <vector>

#include "src/hexsim/device_profile.h"
#include "src/llm/model_config.h"
#include "src/tts/capability_model.h"
#include "src/tts/task.h"

namespace htts {

enum class TtsMethod : uint8_t {
  kBase,          // conventional single-sample decoding
  kBestOfN,
  kBeamSearch,
  kSpeculative,   // draft-assisted decoding: base accuracy at a lower cost per token
};

const char* TtsMethodName(TtsMethod m);

struct ParetoPoint {
  std::string model;
  TtsMethod method = TtsMethod::kBase;
  // kSpeculative only: the draft model and the per-token acceptance rate the point ran at.
  // Speculation is lossless, so its accuracy equals the base point's — it moves the point
  // along the cost axis alone.
  std::string spec_draft;
  double spec_acceptance = 0.0;
  int budget = 1;                 // generation budget (max decode batch)
  double accuracy = 0.0;          // task accuracy (fraction)
  double latency_per_token_s = 0.0;  // average decode latency per step (cost axis, Fig 10)
  double energy_per_token_j = 0.0;   // energy cost alternative (§7.2.3)
  double watts = 0.0;
  double makespan_s = 0.0;        // serving makespan of the method's whole job stream
  // Paged-KV accounting from the serving run: peak physical bytes the block pool held vs
  // the dense per-sequence bytes it stood in for, and the end-of-run sharing ratio.
  int64_t kv_physical_peak_bytes = 0;
  int64_t kv_logical_peak_bytes = 0;
  double kv_sharing_ratio = 1.0;
  bool runnable = true;           // false if the model does not fit the device NPU, or the
                                  // job stream exceeded the context limit
};

struct ParetoSweepOptions {
  Dataset dataset = Dataset::kMath500;
  const hexsim::DeviceProfile* device = nullptr;
  std::vector<const hllm::ModelConfig*> models;
  std::vector<int> budgets = {1, 2, 4, 8, 16};
  int tasks = 500;
  int trials = 8;
  uint64_t seed = 7;
  // Optional speculative-decoding axis: when set (and distinct from the swept model), each
  // model additionally gets a kSpeculative point — the base single-sample job stream decoded
  // with this draft at `spec_gamma` proposals per cycle, acceptance derived from the
  // capability-model skill gap (SpeculativeAcceptanceRate). Lossless, so the point keeps
  // base accuracy and only moves cost (docs/speculative_decoding.md).
  const hllm::ModelConfig* spec_draft = nullptr;
  int spec_gamma = 4;
};

// Runs base + Best-of-N + Beam Search sweeps for every model/budget on one device+dataset.
std::vector<ParetoPoint> SweepPareto(const CapabilityModel& cap,
                                     const ParetoSweepOptions& options);

// True if `p` is on the Pareto frontier of (latency low, accuracy high) within `points`.
bool OnParetoFrontier(const ParetoPoint& p, const std::vector<ParetoPoint>& points);

}  // namespace htts

#endif  // SRC_TTS_PARETO_H_
