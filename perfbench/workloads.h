// The benchmark's three workloads, each served through the repository's public serving API.
//
//   bon_toy        Best-of-N (N = 8) job stream from htts::RunBestOfN on MATH500-class
//                  tasks, one closed batch through ContinuousBatcher over the functional
//                  toy model (max_batch 16, seeded top-k sampling per sample).
//   chat_toy       open-loop bursty traffic from hfront::GenerateTraffic served by
//                  hfront::ServingEngine on the functional toy model (max_batch 4,
//                  preemption on, interactive + batch SLO classes, sessions, long prompts).
//   beam_qwen1.5b  step-level beam search job stream from htts::RunBeamSearch for
//                  Qwen2.5-1.5B on OnePlus 12, priced by AnalyticBackend under a DRAM KV
//                  budget that forces admission deferrals.
//
// perfbench/README.md explains why each workload was chosen and what every metric means.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class WorkloadId { kBonToy, kChatToy, kBeamQwen };

inline constexpr WorkloadId kAllWorkloads[] = {WorkloadId::kBonToy, WorkloadId::kChatToy,
                                               WorkloadId::kBeamQwen};

const char* WorkloadName(WorkloadId id);
bool ParseWorkload(std::string_view name, WorkloadId* out);

// Named values with their unit. Simulated values are deterministic per seed.
using MetricMap = std::map<std::string, double>;

// Everything one serving pass produced.
struct PassResult {
  std::string error;          // non-empty when the serving run reported an error
  int64_t attempted = 0;      // jobs or requests submitted
  int64_t completed = 0;      // jobs or requests that finished
  int64_t decoded_tokens = 0;
  double host_s = 0.0;        // host wall time of the serving call
  // Per-request output checksums in submission order (FNV-1a over the token stream), and
  // their fold. beam_qwen1.5b decodes no tokens: its fingerprint folds the TTS accuracy and
  // the KV end state instead.
  std::vector<uint64_t> request_checksums;
  uint64_t fingerprint = 0;
  MetricMap sim;        // simulated end-to-end metrics
  MetricMap sim_layer;  // simulated per-layer metrics (traced passes add the step.* sums)
  MetricMap host_layer; // host-clock per-layer metrics (traced passes only)
};

// A workload after set-up: inputs generated from the seed, backend built and warmed up.
class Workload {
 public:
  virtual ~Workload() = default;

  // Full set-up: weights, backend, job/traffic generation and a warm-up that fills the
  // lazy caches (dequant-once weights, exp LUTs, step-cost cache).
  static std::unique_ptr<Workload> Create(WorkloadId id, uint64_t seed);

  // Serves the whole generated input once. With `traced`, the backend is wrapped in a
  // TracedBackend and the per-layer host metrics are filled; a non-empty `span_path`
  // additionally records every backend call and writes them there as Chrome trace JSON.
  virtual PassResult RunPass(bool traced, const std::string& span_path) = 0;

  // Re-serves a sample of the requests in isolation on a fresh backend at one lane and
  // counts those whose output differs from `pass`. Returns -1 if the check could not run.
  virtual int64_t CountReferenceMismatches(const PassResult& pass) = 0;

  // Host seconds spent generating the job stream or traffic during set-up.
  double emit_host_s() const { return emit_host_s_; }

  // Non-empty when the warm-up run failed; the workload must not be served then (a failed
  // run leaves the backend's KV state behind).
  const std::string& setup_error() const { return setup_error_; }

 protected:
  double emit_host_s_ = 0.0;
  std::string setup_error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
