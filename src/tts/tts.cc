#include "src/tts/tts.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/tts/capability_model.h"

namespace htts {

// Samples within one attempt at a task are correlated: the model tends to misread or
// mis-plan a given problem the same way across all N parallel samples. Each (task, trial)
// therefore draws a shared skill perturbation before sampling; this is what keeps pass@N
// from exploding and makes the Figure 5/10 scaling curves saturate realistically.
namespace {
double TrialTheta(double theta, hexllm::Rng& rng) {
  return theta + kTrialSkillSd * rng.NextGaussian();
}

// Decode length for sample `index` of (task, trial): the same lognormal dispersion as
// MakeSampleJobs, but drawn from a stream keyed on (task, trial, index) instead of the
// method's rng, so emitting jobs does not perturb the accuracy statistics or any caller's
// rng-dependent expectations.
int SampledDecodeTokens(const ReasoningTask& t, int trial, int index) {
  hexllm::Rng lrng(0x9E3779B97F4A7C15ull ^ (static_cast<uint64_t>(t.id) << 32) ^
                   (static_cast<uint64_t>(trial) * 1000003ull) ^
                   static_cast<uint64_t>(index));
  const double len = t.gen_tokens * std::exp(0.5 * lrng.NextGaussian() - 0.125);
  return static_cast<int>(std::clamp(len, 16.0, 4.0 * t.gen_tokens));
}

// Appends the (trial, task) attempt's `n` parallel samples as serving jobs sharing one
// prompt_group (the batcher charges the prompt's chunked prefill once for the group).
void EmitSampleJobs(std::vector<hserve::ServeJob>* jobs, const ReasoningTask& t, int group,
                    int trial, int n) {
  if (jobs == nullptr) {
    return;
  }
  for (int i = 0; i < n; ++i) {
    hserve::ServeJob j;
    j.id = static_cast<int>(jobs->size());
    j.prompt_group = group;
    j.prompt_tokens = t.prompt_tokens;
    j.decode_tokens = SampledDecodeTokens(t, trial, i);
    jobs->push_back(j);
  }
}
}  // namespace

SamplePath SamplePolicyPath(const ReasoningTask& task, double theta, hexllm::Rng& rng) {
  SamplePath path;
  const double p = CapabilityModel::SolveProb(theta, task);
  // Per-step success probability so that a full chain succeeds with probability p.
  const double q = std::pow(p, 1.0 / task.num_steps);
  path.step_ok.resize(static_cast<size_t>(task.num_steps));
  bool ok = true;
  for (int s = 0; s < task.num_steps; ++s) {
    ok = ok && rng.NextBool(q);
    path.step_ok[static_cast<size_t>(s)] = ok ? 1 : 0;
  }
  path.correct = ok;
  path.answer = ok ? task.answer
                   : 100000 + static_cast<int>(rng.NextBounded(kWrongAnswerSpace));
  path.gen_tokens = task.gen_tokens;
  return path;
}

namespace {

// The trial x task loop of the parallel-sampling methods. Per (trial, task) attempt it emits
// the n sample jobs, draws the attempt's skill, then draws n policy paths, handing each to
// `observe` in draw order (Best-of-N draws its ORM score from `rng` there). After the last
// path `select(task)` reports whether the selected answer is correct and resets its state.
template <typename Observe, typename Select>
MethodResult RunParallelSampling(const TaskSet& tasks, double theta, int n, int trials,
                                 hexllm::Rng& rng, std::vector<hserve::ServeJob>* jobs,
                                 Observe observe, Select select) {
  HEXLLM_CHECK(n >= 1);
  MethodResult r;
  r.batch = n;
  int64_t correct = 0;
  int64_t oracle = 0;
  int64_t total = 0;
  double seq_tokens = 0.0;
  const int num_tasks = static_cast<int>(tasks.tasks.size());
  for (int trial = 0; trial < trials; ++trial) {
    for (int ti = 0; ti < num_tasks; ++ti) {
      const auto& t = tasks.tasks[static_cast<size_t>(ti)];
      EmitSampleJobs(jobs, t, trial * num_tasks + ti, trial, n);
      bool any_correct = false;
      const double trial_theta = TrialTheta(theta, rng);
      for (int i = 0; i < n; ++i) {
        const SamplePath p = SamplePolicyPath(t, trial_theta, rng);
        any_correct = any_correct || p.correct;
        observe(p);
      }
      correct += select(t) ? 1 : 0;
      oracle += any_correct ? 1 : 0;
      seq_tokens += t.gen_tokens;
      ++total;
    }
  }
  r.accuracy = static_cast<double>(correct) / total;
  r.oracle_accuracy = static_cast<double>(oracle) / total;
  r.avg_seq_tokens = seq_tokens / total;
  r.avg_total_tokens = r.avg_seq_tokens * n;
  return r;
}

}  // namespace

// One sample's vote is its own answer, which equals the task's exactly when the path is
// correct (true answers are below 1000, wrong ones at least 100000).
MethodResult RunSingleSample(const TaskSet& tasks, double theta, int trials,
                             hexllm::Rng& rng, std::vector<hserve::ServeJob>* jobs) {
  return RunMajorityVote(tasks, theta, 1, trials, rng, jobs);
}

MethodResult RunBestOfN(const TaskSet& tasks, double theta, const OutcomeRewardModel& orm,
                        int n, int trials, hexllm::Rng& rng,
                        std::vector<hserve::ServeJob>* jobs) {
  double best_score = -1e30;
  bool best_correct = false;
  return RunParallelSampling(
      tasks, theta, n, trials, rng, jobs,
      [&](const SamplePath& p) {
        const double s = orm.Score(p, rng);
        if (s > best_score) {
          best_score = s;
          best_correct = p.correct;
        }
      },
      [&](const ReasoningTask&) {
        const bool picked = best_correct;
        best_score = -1e30;
        best_correct = false;
        return picked;
      });
}

MethodResult RunMajorityVote(const TaskSet& tasks, double theta, int n, int trials,
                             hexllm::Rng& rng, std::vector<hserve::ServeJob>* jobs) {
  std::vector<int> answers;  // in draw order
  return RunParallelSampling(
      tasks, theta, n, trials, rng, jobs,
      [&](const SamplePath& p) { answers.push_back(p.answer); },
      [&](const ReasoningTask& t) {
        // Scanning in draw order with a strict > gives a tie to the first-drawn answer.
        int best_answer = -1;
        int64_t best_count = 0;
        for (const int ans : answers) {
          const int64_t count = std::count(answers.begin(), answers.end(), ans);
          if (count > best_count) {
            best_count = count;
            best_answer = ans;
          }
        }
        answers.clear();
        return best_answer == t.answer;
      });
}

MethodResult RunBeamSearch(const TaskSet& tasks, double theta, const ProcessRewardModel& prm,
                           int n, int expansion, int trials, hexllm::Rng& rng,
                           std::vector<hserve::ServeJob>* jobs) {
  HEXLLM_CHECK(n >= 1 && expansion >= 1);
  // The budget is the maximum decode batch; clamp the expansion so width x expansion <= n.
  const int eff_expansion = std::min(expansion, n);
  const int width = std::max(1, n / eff_expansion);
  MethodResult r;
  r.batch = width * eff_expansion;
  int64_t correct = 0;
  int64_t oracle = 0;
  int64_t total = 0;
  double seq_tokens = 0.0;

  struct Beam {
    bool ok = true;
    double score = 0.0;  // cumulative PRM score
  };

  const int num_tasks = static_cast<int>(tasks.tasks.size());
  for (int trial = 0; trial < trials; ++trial) {
    for (int ti = 0; ti < num_tasks; ++ti) {
      const auto& t = tasks.tasks[static_cast<size_t>(ti)];
      if (jobs != nullptr) {
        // Each expansion round decodes one reasoning-step's worth of tokens for every
        // candidate, on top of the kept prefix (uncharged context: the KV rows survive
        // pruning). Rounds are barriers: round r+1 admits only after round r completes.
        const int group = trial * num_tasks + ti;
        const int step_tokens =
            std::max(1, static_cast<int>(hexllm::CeilDiv(t.gen_tokens, t.num_steps)));
        std::vector<int> prev_ids;  // previous round's job ids, kept-beam-major
        std::vector<int> cur_ids;
        for (int round = 0; round < t.num_steps; ++round) {
          cur_ids.clear();
          for (int c = 0; c < width * eff_expansion; ++c) {
            hserve::ServeJob j;
            j.id = static_cast<int>(jobs->size());
            j.prompt_group = group;
            j.prompt_tokens = t.prompt_tokens;
            j.context_tokens = round * step_tokens;
            j.decode_tokens = step_tokens;
            j.barrier = round;
            if (round > 0) {
              // Expansion c continues kept beam c / eff_expansion: fork the stem's KV
              // (prompt + rounds decoded so far) instead of re-prefilling it. The serving
              // runtime maps the parent's retained blocks copy-on-write at admission.
              j.parent_job = prev_ids[static_cast<size_t>(c / eff_expansion)];
            }
            cur_ids.push_back(j.id);
            jobs->push_back(j);
          }
          std::swap(prev_ids, cur_ids);
        }
      }
      const double p = CapabilityModel::SolveProb(TrialTheta(theta, rng), t);
      const double q = std::pow(p, 1.0 / t.num_steps);
      std::vector<Beam> beams(static_cast<size_t>(width));
      bool any_correct_ever = false;
      for (int step = 0; step < t.num_steps; ++step) {
        std::vector<Beam> candidates;
        candidates.reserve(beams.size() * static_cast<size_t>(eff_expansion));
        for (const Beam& b : beams) {
          for (int e = 0; e < eff_expansion; ++e) {
            Beam c = b;
            c.ok = c.ok && rng.NextBool(q);
            c.score += prm.StepScore(c.ok, rng);
            candidates.push_back(c);
          }
        }
        std::partial_sort(candidates.begin(),
                          candidates.begin() + std::min<size_t>(candidates.size(),
                                                                static_cast<size_t>(width)),
                          candidates.end(),
                          [](const Beam& a, const Beam& b) { return a.score > b.score; });
        candidates.resize(std::min<size_t>(candidates.size(), static_cast<size_t>(width)));
        beams = std::move(candidates);
        for (const Beam& b : beams) {
          any_correct_ever = any_correct_ever || b.ok;
        }
      }
      const Beam& best =
          *std::max_element(beams.begin(), beams.end(),
                            [](const Beam& a, const Beam& b) { return a.score < b.score; });
      correct += best.ok ? 1 : 0;
      oracle += any_correct_ever ? 1 : 0;
      seq_tokens += t.gen_tokens;
      ++total;
    }
  }
  r.accuracy = static_cast<double>(correct) / total;
  r.oracle_accuracy = static_cast<double>(oracle) / total;
  r.avg_seq_tokens = seq_tokens / total;
  r.avg_total_tokens = r.avg_seq_tokens * r.batch;
  return r;
}

std::vector<SampleJob> MakeSampleJobs(int tasks, int samples_per_task, int mean_tokens,
                                      hexllm::Rng& rng) {
  HEXLLM_CHECK(tasks >= 1 && samples_per_task >= 1 && mean_tokens >= 16);
  std::vector<SampleJob> jobs;
  jobs.reserve(static_cast<size_t>(tasks) * samples_per_task);
  int id = 0;
  for (int t = 0; t < tasks; ++t) {
    for (int s = 0; s < samples_per_task; ++s) {
      // Lognormal with sigma ~0.5: a realistic generation-length spread.
      const double len = mean_tokens * std::exp(0.5 * rng.NextGaussian() - 0.125);
      SampleJob job;
      job.id = id++;
      job.total_tokens = static_cast<int>(std::clamp(len, 16.0, 4.0 * mean_tokens));
      jobs.push_back(job);
    }
  }
  return jobs;
}

}  // namespace htts
