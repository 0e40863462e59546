// Parallel test-time scaling algorithms (§2.1, Figure 1): Best-of-N with an outcome reward
// model, self-consistency / majority voting, and step-level beam search with a process
// reward model. All operate on the statistical policy (capability model skill) and report
// accuracy plus generation-volume statistics; the runtime engine converts those into
// latency/energy (pareto.h).
#ifndef SRC_TTS_TTS_H_
#define SRC_TTS_TTS_H_

#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/serving/job.h"
#include "src/tts/reward_model.h"
#include "src/tts/task.h"

namespace htts {

// Samples one solution path from a policy with skill `theta` on `task` (temperature
// sampling: step successes are independent Bernoulli draws).
SamplePath SamplePolicyPath(const ReasoningTask& task, double theta, hexllm::Rng& rng);

struct MethodResult {
  double accuracy = 0.0;          // fraction of tasks answered correctly (pass@1 of the
                                  // selected answer)
  double oracle_accuracy = 0.0;   // pass@N (any sampled path correct) — the verifier ceiling
  double avg_seq_tokens = 0.0;    // tokens generated along ONE path (sequential depth)
  double avg_total_tokens = 0.0;  // tokens across all parallel paths
  int batch = 1;                  // decode batch the method sustains
};

// Each method optionally emits its generation workload as a serving job stream (`jobs`,
// appended): one ServeJob per sampled path, with per-sample decode lengths drawn from a
// dispersion stream that is independent of `rng` (emitting jobs never perturbs accuracy
// statistics). Samples of one (trial, task) share a prompt_group, so the batcher charges
// that prompt's chunked prefill once. Feed the stream to hserve::ContinuousBatcher for
// makespan / energy / trace — one run yields accuracy AND cost.

// Conventional sampling (budget 1).
MethodResult RunSingleSample(const TaskSet& tasks, double theta, int trials, hexllm::Rng& rng,
                             std::vector<hserve::ServeJob>* jobs = nullptr);

// Best-of-N: N parallel full generations, ORM picks the winner (§2.1).
MethodResult RunBestOfN(const TaskSet& tasks, double theta, const OutcomeRewardModel& orm,
                        int n, int trials, hexllm::Rng& rng,
                        std::vector<hserve::ServeJob>* jobs = nullptr);

// Self-consistency / majority voting over N samples; ties broken by first occurrence.
MethodResult RunMajorityVote(const TaskSet& tasks, double theta, int n, int trials,
                             hexllm::Rng& rng, std::vector<hserve::ServeJob>* jobs = nullptr);

// Step-level beam search (§2.1): budget n = beam_width x expansion candidates decoded in
// parallel each step; the PRM keeps the best `beam_width` prefixes after every step.
// Emitted jobs carry the expansion round as their barrier (round r+1 admits only after
// round r completes) and the kept prefix as uncharged context_tokens.
MethodResult RunBeamSearch(const TaskSet& tasks, double theta, const ProcessRewardModel& prm,
                           int n, int expansion, int trials, hexllm::Rng& rng,
                           std::vector<hserve::ServeJob>* jobs = nullptr);

// A bare parallel-sampling workload for scheduler studies: N samples per task whose decode
// lengths disperse lognormally (a short confident solution vs a long meandering one), so
// static batching idles finished rows until the longest sample of the wave ends while
// continuous batching reclaims them. Drive it through hserve::ContinuousBatcher with
// ServeJobs (context_tokens = the starting KV depth, decode_tokens = total_tokens).
struct SampleJob {
  int id = 0;
  int total_tokens = 0;  // decode length of this sample
};

// Generates N-per-task sample jobs with lengths lognormal around `mean_tokens` (clamped to
// [16, 4 * mean]).
std::vector<SampleJob> MakeSampleJobs(int tasks, int samples_per_task, int mean_tokens,
                                      hexllm::Rng& rng);

}  // namespace htts

#endif  // SRC_TTS_TTS_H_
