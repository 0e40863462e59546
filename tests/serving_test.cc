#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/math_util.h"
#include "src/base/rng.h"
#include "src/exec/thread_pool.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/llm/model_config.h"
#include "src/llm/weights.h"
#include "src/runtime/engine.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"
#include "src/tts/capability_model.h"
#include "src/tts/reward_model.h"
#include "src/tts/task.h"
#include "src/tts/tts.h"

namespace hserve {
namespace {

// Unit-cost test double: every decode step takes 1 ms, every charged prefill token 1 us.
// Records the slot sets so scheduling policy (reclamation, barriers, batch bound) can be
// asserted independent of any engine's pricing.
class RecordingBackend : public ExecutionBackend {
 public:
  const char* name() const override { return "recording"; }

  double AdmitSlot(int slot, const ServeJob& job, int /*context_tokens*/,
                   int charged_prefill_tokens) override {
    admitted_jobs.push_back(job.id);
    admitted_slots.push_back(slot);
    return charged_prefill_tokens * 1e-6;
  }

  void ReleaseSlot(int slot) override { released.push_back(slot); }

  StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) override {
    step_slots.emplace_back(slots.begin(), slots.end());
    step_contexts.emplace_back(contexts.begin(), contexts.end());
    StepOutcome out;
    out.cost.total_s = 1e-3;
    out.watts = 2.0;
    return out;
  }

  std::vector<int> admitted_jobs;
  std::vector<int> admitted_slots;
  std::vector<int> released;
  std::vector<std::vector<int>> step_slots;
  std::vector<std::vector<int>> step_contexts;
};

ServeJob Job(int id, int decode, int group = -1, int prompt = 0, int context = 0,
             int barrier = 0) {
  ServeJob j;
  j.id = id;
  j.prompt_group = group;
  j.prompt_tokens = prompt;
  j.context_tokens = context;
  j.decode_tokens = decode;
  j.barrier = barrier;
  return j;
}

TEST(ContinuousBatcherTest, EmptyJobsYieldZeroedResult) {
  RecordingBackend backend;
  ServeOptions so;
  const ScheduleResult r = ContinuousBatcher(backend, so).Run({});
  EXPECT_EQ(r.steps, 0);
  EXPECT_EQ(r.decoded_tokens, 0);
  EXPECT_EQ(r.makespan_s, 0.0);
  EXPECT_EQ(r.tokens_per_second, 0.0);
  EXPECT_EQ(r.avg_active_batch, 0.0);
  EXPECT_EQ(r.slot_utilization, 0.0);
  EXPECT_FALSE(std::isnan(r.tokens_per_second));
  EXPECT_FALSE(std::isnan(r.slot_utilization));
}

TEST(ContinuousBatcherTest, ActiveBatchNeverExceedsMaxBatch) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 4;
  std::vector<ServeJob> jobs;
  hexllm::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(Job(i, 1 + static_cast<int>(rng.NextBounded(9))));
  }
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  EXPECT_EQ(static_cast<int>(r.completions.size()), 20);
  for (const auto& slots : backend.step_slots) {
    EXPECT_LE(static_cast<int>(slots.size()), 4);
    EXPECT_GE(static_cast<int>(slots.size()), 1);
  }
  // Everything decoded, nothing double-counted.
  int64_t want = 0;
  for (const auto& j : jobs) {
    want += j.decode_tokens;
  }
  EXPECT_EQ(r.decoded_tokens, want);
}

TEST(ContinuousBatcherTest, FreedSlotIsReusedOnTheVeryNextStep) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 4;
  // Job 0 finishes after one step; job 4 is queued behind the full batch and must take
  // job 0's slot on the immediately following step.
  const std::vector<ServeJob> jobs = {Job(0, 1), Job(1, 5), Job(2, 5), Job(3, 5),
                                      Job(4, 2)};
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  ASSERT_EQ(r.admissions.size(), 5u);
  const int freed_slot = r.completions.front().slot;
  EXPECT_EQ(r.completions.front().job_id, 0);
  EXPECT_EQ(r.completions.front().step, 0);
  // Job 4's admission lands on step 1 and reuses job 0's slot.
  const Admission& a4 = r.admissions.back();
  EXPECT_EQ(a4.job_id, 4);
  EXPECT_EQ(a4.step, 1);
  EXPECT_EQ(a4.slot, freed_slot);
  ASSERT_GE(backend.step_slots.size(), 2u);
  EXPECT_NE(std::find(backend.step_slots[1].begin(), backend.step_slots[1].end(),
                      freed_slot),
            backend.step_slots[1].end());
  // The reused slot's context restarted from zero, not from job 0's leftovers.
  const size_t idx = static_cast<size_t>(
      std::find(backend.step_slots[1].begin(), backend.step_slots[1].end(), freed_slot) -
      backend.step_slots[1].begin());
  EXPECT_EQ(backend.step_contexts[1][idx], 0);
}

TEST(ContinuousBatcherTest, StaticWavesHoldSlotsUntilWaveDrains) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 2;
  so.policy = SchedulePolicy::kStaticWaves;
  const std::vector<ServeJob> jobs = {Job(0, 1), Job(1, 4), Job(2, 1)};
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  // Wave 1 runs 4 steps (padding job 0's row for 3 of them); wave 2 runs 1 step.
  EXPECT_EQ(r.steps, 5);
  EXPECT_EQ(r.decoded_tokens, 6);
  EXPECT_LT(r.slot_utilization, 1.0);
  // Job 2 admits only after the first wave fully drained.
  EXPECT_EQ(r.admissions.back().job_id, 2);
  EXPECT_EQ(r.admissions.back().step, 4);
}

TEST(ContinuousBatcherTest, BarriersGateAdmissionWaves) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 8;
  // One group, two expansion rounds: round 1 must not admit until BOTH round-0 jobs done.
  const std::vector<ServeJob> jobs = {
      Job(0, 3, /*group=*/5, /*prompt=*/0, /*context=*/0, /*barrier=*/0),
      Job(1, 1, 5, 0, 0, 0),
      Job(2, 2, 5, 0, 3, 1),
      Job(3, 2, 5, 0, 3, 1),
  };
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  std::map<int, int64_t> admit_step;
  for (const auto& a : r.admissions) {
    admit_step[a.job_id] = a.step;
  }
  std::map<int, int64_t> complete_step;
  for (const auto& c : r.completions) {
    complete_step[c.job_id] = c.step;
  }
  // Round 0's slowest job finishes on step 2; round 1 admits on step 3, not before.
  EXPECT_EQ(complete_step[0], 2);
  EXPECT_GT(admit_step[2], complete_step[0]);
  EXPECT_GT(admit_step[3], complete_step[0]);
  EXPECT_EQ(r.decoded_tokens, 8);
}

TEST(ContinuousBatcherTest, PrefillChargedOncePerPromptGroup) {
  RecordingBackend backend;
  ServeOptions so;
  so.max_batch = 4;
  // Jobs 0-2 share a prompt group (one charge); job 3 pays its own prompt.
  const std::vector<ServeJob> jobs = {
      Job(0, 2, /*group=*/1, /*prompt=*/128),
      Job(1, 2, 1, 128),
      Job(2, 2, 1, 128),
      Job(3, 2, -1, 64),
  };
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  EXPECT_EQ(r.prefilled_tokens, 128 + 64);
  EXPECT_NEAR(r.prefill_s, (128 + 64) * 1e-6, 1e-12);
  EXPECT_NEAR(r.makespan_s, r.prefill_s + r.decode_s, 1e-12);
  // Ungrouped jobs each pay: doubling the lone job's copies doubles the charge.
  RecordingBackend backend2;
  const std::vector<ServeJob> solo = {Job(0, 2, -1, 64), Job(1, 2, -1, 64)};
  const ScheduleResult r2 = ContinuousBatcher(backend2, so).Run(solo);
  EXPECT_EQ(r2.prefilled_tokens, 128);
}

class AnalyticServingTest : public ::testing::Test {
 protected:
  AnalyticServingTest() {
    options_.model = &hllm::Qwen25_1_5B();
    options_.device = &hexsim::OnePlus12();
    engine_ = std::make_unique<hrt::Engine>(options_);
  }
  hrt::EngineOptions options_;
  std::unique_ptr<hrt::Engine> engine_;
};

TEST_F(AnalyticServingTest, StepPricingIsMonotoneInPerSlotContext) {
  AnalyticBackend backend(*engine_);
  const double t64 = backend.BucketedCost(8, 64).total_s;
  const double t1024 = backend.BucketedCost(8, 1024).total_s;
  const double t4096 = backend.BucketedCost(8, 4096).total_s;
  EXPECT_GT(t1024, t64);
  EXPECT_GT(t4096, t1024);
}

TEST_F(AnalyticServingTest, GrowingContextRunsCostAtLeastFixedZeroContext) {
  // The fidelity fix: pricing follows each slot's actual growing KV length, so a run whose
  // slots start deep in context can never be cheaper than one starting from zero.
  std::vector<ServeJob> fresh;
  std::vector<ServeJob> deep;
  for (int i = 0; i < 12; ++i) {
    fresh.push_back(Job(i, 200));
    deep.push_back(Job(i, 200, -1, 0, /*context=*/2048));
  }
  ServeOptions so;
  so.max_batch = 8;
  AnalyticBackend b1(*engine_);
  AnalyticBackend b2(*engine_);
  const ScheduleResult rf = ContinuousBatcher(b1, so).Run(fresh);
  const ScheduleResult rd = ContinuousBatcher(b2, so).Run(deep);
  EXPECT_EQ(rf.steps, rd.steps);
  EXPECT_GT(rd.makespan_s, rf.makespan_s);
  EXPECT_GT(rd.avg_context, rf.avg_context + 2000);
  // Both integrate energy step by step.
  EXPECT_GT(rd.energy_j, rf.energy_j);
  EXPECT_GT(rf.energy_j, 0.0);
}

TEST_F(AnalyticServingTest, ChunkedPrefillAdmissionExtendsMakespan) {
  std::vector<ServeJob> no_prompt;
  std::vector<ServeJob> with_prompt;
  for (int i = 0; i < 8; ++i) {
    no_prompt.push_back(Job(i, 100));
    with_prompt.push_back(Job(i, 100, /*group=*/-1, /*prompt=*/256));
  }
  ServeOptions so;
  so.max_batch = 8;
  AnalyticBackend b1(*engine_);
  AnalyticBackend b2(*engine_);
  const ScheduleResult r0 = ContinuousBatcher(b1, so).Run(no_prompt);
  const ScheduleResult rp = ContinuousBatcher(b2, so).Run(with_prompt);
  EXPECT_EQ(r0.prefill_s, 0.0);
  EXPECT_GT(rp.prefill_s, 0.0);
  EXPECT_EQ(rp.prefilled_tokens, 8 * 256);
  // Prefill cost plus the deeper starting context both push the makespan up.
  EXPECT_GT(rp.makespan_s, r0.makespan_s + rp.prefill_s * 0.99);
}

TEST_F(AnalyticServingTest, TraceRecordsStepsAndAdmissions) {
  std::vector<ServeJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(Job(i, 20, /*group=*/0, /*prompt=*/128));
  }
  ServeOptions so;
  so.max_batch = 4;
  so.record_trace = true;
  AnalyticBackend backend(*engine_);
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  EXPECT_FALSE(r.trace.events().empty());
  const std::string json = r.trace.ToChromeJson();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("lm_head"), std::string::npos);
  // Tracing leaves the run itself unaffected.
  EXPECT_EQ(r.steps, 20);
  std::set<std::string> lanes;
  for (const auto& e : r.trace.events()) {
    lanes.insert(e.lane);
  }
  EXPECT_TRUE(lanes.count("ADMIT"));
  EXPECT_TRUE(lanes.count("CPU"));
}

TEST_F(AnalyticServingTest, OffloadStallStepPowerUsesFinalCost) {
  // A 4096-token context over a 4-block DRAM-resident budget streams ~125 blocks from a
  // slow flash tier every step, so the read outlasts the step's compute and stalls it. The
  // step's power is drawn over that stalled wall time: watts come from the final cost, for
  // a plain step and for a speculative cycle alike.
  hrt::EngineOptions dopt = options_;
  dopt.model = &hllm::Qwen25_0_5B();
  const hrt::Engine draft(dopt);
  AnalyticBackend::Options opts;
  opts.kv_offload_resident_blocks = 4;
  opts.flash.read_gbps = 0.5;
  opts.draft_engine = &draft;
  opts.spec_gamma = 2;
  AnalyticBackend backend(*engine_, opts);
  constexpr int kContext = 4096;
  ServeJob job = Job(0, 16, /*group=*/-1, /*prompt=*/kContext);
  job.speculative = true;
  backend.AdmitSlot(/*slot=*/0, job, kContext, kContext);
  const int slot = 0;
  int context = kContext;
  const auto expect_final_cost_power = [&](const StepOutcome& out) {
    EXPECT_GT(out.cost.flash_s, 0.0);
    EXPECT_GT(out.cost.flash_bytes, 0);
    EXPECT_EQ(out.watts, hrt::StepPower(*options_.device, out.cost, /*batch=*/1).watts);
  };
  const StepOutcome plain =
      backend.Step(std::span<const int>(&slot, 1), std::span<const int>(&context, 1));
  // The stall extends the step past the priced compute time.
  EXPECT_GT(plain.cost.total_s, backend.BucketedCost(1, kContext).total_s);
  expect_final_cost_power(plain);
  context += 1;
  const int gamma = 2;
  const StepOutcome cycle = backend.SpeculativeStep(std::span<const int>(&slot, 1),
                                                    std::span<const int>(&context, 1),
                                                    std::span<const int>(&gamma, 1));
  ASSERT_EQ(cycle.row_token_counts.size(), 1u);
  expect_final_cost_power(cycle);
}

// --- the acceptance-criteria centerpiece: both backends, one batcher code path ---

class BackendParityTest : public ::testing::Test {
 protected:
  BackendParityTest()
      : config_(hllm::ToyConfig()),
        weights_(hllm::ModelWeights::Random(config_, 42)),
        dev_(hexsim::OnePlus12()) {
    toy_options_.model = &config_;
    toy_options_.device = &hexsim::OnePlus12();
    toy_engine_ = std::make_unique<hrt::Engine>(toy_options_);
  }

  hllm::ModelConfig config_;
  hllm::ModelWeights weights_;
  hexsim::NpuDevice dev_;
  hrt::EngineOptions toy_options_;
  std::unique_ptr<hrt::Engine> toy_engine_;
};

TEST_F(BackendParityTest, BackendsScheduleIdenticalJobStreamsIdentically) {
  // The same job stream through the same ContinuousBatcher code path, once priced
  // analytically and once actually decoded on the functional toy model: scheduling
  // decisions (admissions, completions, step counts) must agree exactly; only the
  // clock differs.
  const std::vector<ServeJob> jobs = {
      Job(0, 6, /*group=*/0, /*prompt=*/5), Job(1, 3, 0, 5),
      Job(2, 9, 0, 5),                      Job(3, 4, -1, 3),
      Job(4, 5, -1, 0, /*context=*/4),
  };
  ServeOptions so;
  so.max_batch = 3;
  so.record_steps = true;

  AnalyticBackend analytic(*toy_engine_);
  const ScheduleResult ra = ContinuousBatcher(analytic, so).Run(jobs);

  FunctionalBackend functional(dev_, weights_, so.max_batch, /*max_context=*/64);
  const ScheduleResult rf = ContinuousBatcher(functional, so).Run(jobs);

  EXPECT_EQ(ra.steps, rf.steps);
  EXPECT_EQ(ra.decoded_tokens, rf.decoded_tokens);
  EXPECT_EQ(ra.prefilled_tokens, rf.prefilled_tokens);
  EXPECT_EQ(ra.step_active, rf.step_active);
  EXPECT_EQ(ra.step_occupied, rf.step_occupied);
  ASSERT_EQ(ra.admissions.size(), rf.admissions.size());
  for (size_t i = 0; i < ra.admissions.size(); ++i) {
    EXPECT_EQ(ra.admissions[i].job_id, rf.admissions[i].job_id) << i;
    EXPECT_EQ(ra.admissions[i].slot, rf.admissions[i].slot) << i;
    EXPECT_EQ(ra.admissions[i].step, rf.admissions[i].step) << i;
  }
  ASSERT_EQ(ra.completions.size(), rf.completions.size());
  for (size_t i = 0; i < ra.completions.size(); ++i) {
    EXPECT_EQ(ra.completions[i].job_id, rf.completions[i].job_id) << i;
    EXPECT_EQ(ra.completions[i].step, rf.completions[i].step) << i;
  }
  // Both clocks advance; the analytic one prices the full-pipeline cost model.
  EXPECT_GT(ra.makespan_s, 0.0);
  EXPECT_GT(rf.makespan_s, 0.0);
  EXPECT_GT(ra.energy_j, 0.0);
  EXPECT_GT(rf.energy_j, 0.0);
  // Only the functional backend emits real tokens: one per decoded position.
  EXPECT_TRUE(ra.job_tokens.empty());
  ASSERT_EQ(rf.job_tokens.size(), jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(static_cast<int>(rf.job_tokens[j].size()), jobs[j].decode_tokens) << j;
    for (const int tok : rf.job_tokens[j]) {
      EXPECT_GE(tok, 0);
      EXPECT_LT(tok, config_.vocab);
    }
  }
}

TEST_F(BackendParityTest, FunctionalDecodeIsDeterministicAcrossRuns) {
  const std::vector<ServeJob> jobs = {Job(0, 5, -1, 4), Job(1, 7, -1, 2), Job(2, 3)};
  ServeOptions so;
  so.max_batch = 2;
  std::vector<std::vector<std::vector<int>>> outs;
  for (int run = 0; run < 2; ++run) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    FunctionalBackend backend(dev, weights_, so.max_batch, 64);
    outs.push_back(ContinuousBatcher(backend, so).Run(jobs).job_tokens);
  }
  EXPECT_EQ(outs[0], outs[1]);
}

// --- TTS methods served through the batcher ---

TEST(TtsServingTest, BestOfNJobStreamYieldsAccuracyMakespanAndTrace) {
  const htts::TaskSet tasks = htts::GenerateTaskSet(htts::Dataset::kMath500, 20, 3);
  const htts::CapabilityModel cap;
  const double theta = cap.ThetaF16(hllm::Qwen25_1_5B(), htts::Dataset::kMath500);
  const htts::OutcomeRewardModel orm;
  hexllm::Rng rng(11);
  std::vector<ServeJob> jobs;
  const htts::MethodResult res = htts::RunBestOfN(tasks, theta, orm, 8, 2, rng, &jobs);
  // 2 trials x 20 tasks x 8 samples.
  ASSERT_EQ(jobs.size(), 320u);
  std::set<int> groups;
  for (const auto& j : jobs) {
    EXPECT_GE(j.decode_tokens, 16);
    EXPECT_LE(j.decode_tokens, 4 * 1024);
    EXPECT_GT(j.prompt_tokens, 0);
    groups.insert(j.prompt_group);
  }
  EXPECT_EQ(groups.size(), 40u);  // one prompt group per (trial, task)

  hrt::EngineOptions eo;
  eo.model = &hllm::Qwen25_1_5B();
  eo.device = &hexsim::OnePlus12();
  hrt::Engine engine(eo);
  AnalyticBackend backend(engine);
  ServeOptions so;
  so.max_batch = 8;
  so.record_trace = true;
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(jobs);
  // One run: accuracy from the method, latency/energy/trace from the batcher.
  EXPECT_GT(res.accuracy, 0.0);
  EXPECT_LT(res.accuracy, 1.0);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  int64_t want = 0;
  for (const auto& j : jobs) {
    want += j.decode_tokens;
  }
  EXPECT_EQ(r.decoded_tokens, want);
  // Shared prompts charged once per group.
  int64_t group_prompt = 0;
  std::set<int> seen;
  for (const auto& j : jobs) {
    if (seen.insert(j.prompt_group).second) {
      group_prompt += j.prompt_tokens;
    }
  }
  EXPECT_EQ(r.prefilled_tokens, group_prompt);
  EXPECT_NE(r.trace.ToChromeJson().find("traceEvents"), std::string::npos);
}

TEST(TtsServingTest, EmittingJobsDoesNotPerturbAccuracy) {
  const htts::TaskSet tasks = htts::GenerateTaskSet(htts::Dataset::kMath500, 50, 4);
  const htts::OutcomeRewardModel orm;
  hexllm::Rng rng1(5);
  hexllm::Rng rng2(5);
  std::vector<ServeJob> jobs;
  const htts::MethodResult with_jobs = htts::RunBestOfN(tasks, 0.2, orm, 4, 3, rng1, &jobs);
  const htts::MethodResult without = htts::RunBestOfN(tasks, 0.2, orm, 4, 3, rng2);
  EXPECT_EQ(with_jobs.accuracy, without.accuracy);
  EXPECT_EQ(with_jobs.avg_total_tokens, without.avg_total_tokens);
  EXPECT_FALSE(jobs.empty());
}

TEST(TtsServingTest, BeamSearchRoundsBecomeBarrierWaves) {
  const htts::TaskSet tasks = htts::GenerateTaskSet(htts::Dataset::kGsm8k, 4, 9);
  const htts::ProcessRewardModel prm;
  hexllm::Rng rng(3);
  std::vector<ServeJob> jobs;
  htts::RunBeamSearch(tasks, 0.3, prm, 8, 4, 1, rng, &jobs);
  ASSERT_FALSE(jobs.empty());
  // Jobs arrive grouped per task; within a group, barriers cover 0..num_steps-1 with
  // width x expansion jobs per round and context advancing by the round's decode length.
  std::map<int, std::vector<const ServeJob*>> by_group;
  for (const auto& j : jobs) {
    by_group[j.prompt_group].push_back(&j);
  }
  EXPECT_EQ(by_group.size(), tasks.tasks.size());
  for (const auto& [group, gjobs] : by_group) {
    std::map<int, int> per_barrier;
    for (const auto* j : gjobs) {
      per_barrier[j->barrier] += 1;
      EXPECT_EQ(j->context_tokens, j->barrier * j->decode_tokens);
    }
    const int rounds = static_cast<int>(per_barrier.size());
    EXPECT_GE(rounds, 2);
    int count = -1;
    for (int b = 0; b < rounds; ++b) {
      ASSERT_TRUE(per_barrier.count(b)) << "missing round " << b;
      if (count < 0) {
        count = per_barrier[b];
      }
      EXPECT_EQ(per_barrier[b], count);  // same expansion width every round
    }
    EXPECT_EQ(count, 8);  // width x eff_expansion = budget
  }
  // Serve one group's stream: expansion waves must serialize (steps >= rounds x per-round
  // decode), unlike an unconstrained batch.
  hrt::EngineOptions eo;
  eo.model = &hllm::Qwen25_1_5B();
  eo.device = &hexsim::OnePlus12();
  hrt::Engine engine(eo);
  AnalyticBackend backend(engine);
  ServeOptions so;
  so.max_batch = 8;
  const auto& first_group = *by_group.begin()->second.front();
  std::vector<ServeJob> one_group;
  for (const auto& j : jobs) {
    if (j.prompt_group == first_group.prompt_group) {
      one_group.push_back(j);
    }
  }
  const ScheduleResult r = ContinuousBatcher(backend, so).Run(one_group);
  std::map<int, int> per_barrier;
  for (const auto& j : one_group) {
    per_barrier[j.barrier] += 1;
  }
  const int rounds = static_cast<int>(per_barrier.size());
  const int per_round_decode = one_group.front().decode_tokens;
  EXPECT_GE(r.steps, static_cast<int64_t>(rounds) * per_round_decode);
}

// --- speculative decoding (docs/speculative_decoding.md) ---

// A draft smaller than ToyConfig along every axis, sharing the vocabulary (exact-match
// acceptance compares token ids, so draft and target must agree on the id space).
hllm::ModelConfig DraftToyConfig() {
  hllm::ModelConfig c = hllm::ToyConfig();
  c.name = "toy-draft";
  c.params_b = 0.004;
  c.hidden = 64;
  c.layers = 1;
  c.heads = 2;
  c.kv_heads = 2;
  c.head_dim = 32;
  c.ffn_hidden = 128;
  return c;
}

class SpeculativeServingTest : public ::testing::Test {
 protected:
  SpeculativeServingTest()
      : config_(hllm::ToyConfig()),
        draft_config_(DraftToyConfig()),
        weights_(hllm::ModelWeights::Random(config_, 42)),
        draft_weights_(hllm::ModelWeights::Random(draft_config_, 7)) {}

  // Runs `jobs` through a fresh functional backend; gamma <= 0 builds a plain backend.
  ScheduleResult RunFunctional(const std::vector<ServeJob>& jobs, int max_batch, int gamma,
                               int max_context = 96) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    ServeOptions so;
    so.max_batch = max_batch;
    if (gamma <= 0) {
      FunctionalBackend backend(dev, weights_, max_batch, max_context);
      return ContinuousBatcher(backend, so).Run(jobs);
    }
    FunctionalBackend::Options options;
    options.draft = &draft_weights_;
    options.gamma = gamma;
    FunctionalBackend backend(dev, weights_, max_batch, max_context, options);
    return ContinuousBatcher(backend, so).Run(jobs);
  }

  static std::vector<ServeJob> SpecJobs(int n, int decode, int prompt, bool speculative) {
    std::vector<ServeJob> jobs;
    for (int i = 0; i < n; ++i) {
      ServeJob j = Job(i, decode, /*group=*/-1, prompt);
      j.speculative = speculative;
      jobs.push_back(j);
    }
    return jobs;
  }

  hllm::ModelConfig config_;
  hllm::ModelConfig draft_config_;
  hllm::ModelWeights weights_;
  hllm::ModelWeights draft_weights_;
};

TEST_F(SpeculativeServingTest, GreedySpeculativeMatchesPlainDecodeTokenForToken) {
  // The headline correctness gate: under greedy sampling the committed stream must be
  // BIT-IDENTICAL to plain decode — for any gamma and any lane count. Rejections only cost
  // time (rolled back through the paged-KV tail), never change tokens.
  for (const int max_batch : {1, 3}) {
    for (const int gamma : {1, 2, 4}) {
      const std::vector<ServeJob> jobs = SpecJobs(max_batch, 12, /*prompt=*/8, true);
      const ScheduleResult plain = RunFunctional(SpecJobs(max_batch, 12, 8, false),
                                                 max_batch, /*gamma=*/0);
      const ScheduleResult spec = RunFunctional(jobs, max_batch, gamma);
      ASSERT_TRUE(plain.error.empty()) << plain.error;
      ASSERT_TRUE(spec.error.empty()) << spec.error;
      EXPECT_EQ(spec.job_tokens, plain.job_tokens)
          << "greedy divergence at max_batch=" << max_batch << " gamma=" << gamma;
      EXPECT_EQ(spec.decoded_tokens, plain.decoded_tokens);
      // The cycle accounting is consistent and the run actually drafted.
      EXPECT_GT(spec.spec_cycles, 0);
      EXPECT_GT(spec.spec_proposed_tokens, 0);
      EXPECT_GE(spec.spec_proposed_tokens, spec.spec_accepted_tokens);
      // Accepted proposals remove charged steps (exactly one each in the single-lane
      // case; multi-lane runs end on the slowest lane's cycle count).
      EXPECT_LE(spec.steps, plain.steps);
      if (max_batch == 1) {
        EXPECT_EQ(spec.steps, plain.steps - spec.spec_accepted_tokens);
      }
    }
  }
}

TEST_F(SpeculativeServingTest, AnySamplerSpeculativeMatchesPlainDecodeTokenForToken) {
  // Losslessness holds for ANY sampler, not just greedy: every committed token is sampled
  // from the target's own logits under exact plain-decode conditioning, consuming the
  // per-slot Rng one draw per committed token in stream order.
  std::vector<ServeJob> plain_jobs = SpecJobs(2, 10, /*prompt=*/6, false);
  std::vector<ServeJob> spec_jobs = SpecJobs(2, 10, /*prompt=*/6, true);
  for (int i = 0; i < 2; ++i) {
    hllm::SamplerOptions s;
    s.temperature = 0.9f;
    s.top_k = 8;
    plain_jobs[static_cast<size_t>(i)].sampler = s;
    plain_jobs[static_cast<size_t>(i)].seed = 100 + static_cast<uint64_t>(i);
    spec_jobs[static_cast<size_t>(i)].sampler = s;
    spec_jobs[static_cast<size_t>(i)].seed = 100 + static_cast<uint64_t>(i);
  }
  const ScheduleResult plain = RunFunctional(plain_jobs, /*max_batch=*/2, /*gamma=*/0);
  const ScheduleResult spec = RunFunctional(spec_jobs, /*max_batch=*/2, /*gamma=*/3);
  ASSERT_TRUE(plain.error.empty()) << plain.error;
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  EXPECT_EQ(spec.job_tokens, plain.job_tokens);
  EXPECT_GT(spec.spec_cycles, 0);
}

TEST_F(SpeculativeServingTest, RunGammaCapAndDisableControlTheCycle) {
  const auto run = [&](int gamma, bool speculative) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    FunctionalBackend::Options options;
    options.draft = &draft_weights_;
    options.gamma = gamma;
    FunctionalBackend backend(dev, weights_, 1, 96, options);
    ServeOptions so;
    so.max_batch = 1;
    return ContinuousBatcher(backend, so).Run(SpecJobs(1, 12, /*prompt=*/8, speculative));
  };
  // Jobs that do not opt in decode plainly even on a spec-capable backend...
  const ScheduleResult r_off = run(/*gamma=*/4, /*speculative=*/false);
  ASSERT_TRUE(r_off.error.empty()) << r_off.error;
  EXPECT_EQ(r_off.spec_cycles, 0);
  EXPECT_EQ(r_off.steps, 12);
  // ...and spec.* metrics stay out of the snapshot entirely (legacy byte-identity).
  bool found = false;
  r_off.metrics.CounterValue("spec.cycles", {}, &found);
  EXPECT_FALSE(found);
  r_off.metrics.CounterValue("spec.rollback_blocks", {}, &found);
  EXPECT_FALSE(found);

  // The backend's configured gamma sets the draft length per cycle.
  const ScheduleResult r_cap = run(/*gamma=*/1, /*speculative=*/true);
  ASSERT_TRUE(r_cap.error.empty()) << r_cap.error;
  EXPECT_GT(r_cap.spec_cycles, 0);
  EXPECT_EQ(r_cap.spec_proposed_tokens, r_cap.spec_cycles);  // one proposal per cycle
  found = false;
  EXPECT_EQ(r_cap.metrics.CounterValue("spec.cycles", {}, &found), r_cap.spec_cycles);
  EXPECT_TRUE(found);
  EXPECT_GE(r_cap.metrics.CounterValue("spec.rollback_blocks"), 0);
}

TEST_F(SpeculativeServingTest, SpeculativeForkChildMatchesPlainForkedDecode) {
  // Rollback on a CoW-forked child: the child's verify appends split the shared tail and a
  // rejected suffix truncates the child's PRIVATE copy — the parent's retained stem and
  // the committed stream must both survive intact.
  const auto forked = [](bool speculative) {
    std::vector<ServeJob> jobs = {Job(0, 4, /*group=*/0, /*prompt=*/8, 0, /*barrier=*/0),
                                  Job(1, 8, 0, 8, /*context=*/4, /*barrier=*/1)};
    jobs[1].parent_job = 0;
    jobs[1].speculative = speculative;
    return jobs;
  };
  const ScheduleResult plain = RunFunctional(forked(false), /*max_batch=*/1, /*gamma=*/0);
  const ScheduleResult spec = RunFunctional(forked(true), /*max_batch=*/1, /*gamma=*/3);
  ASSERT_TRUE(plain.error.empty()) << plain.error;
  ASSERT_TRUE(spec.error.empty()) << spec.error;
  EXPECT_EQ(spec.job_tokens, plain.job_tokens);
  EXPECT_EQ(spec.forked_admissions, 1);
  EXPECT_GT(spec.spec_cycles, 0);
}

TEST_F(SpeculativeServingTest, PauseResumeOfSpeculativeJobIsBitIdentical) {
  // Preempting a drafting job drops its draft KV; resume re-primes the draft and the
  // committed stream continues bit-identically (the target-side snapshot carries sampler
  // state; draft conditioning only moves acceptance).
  const auto run = [&](bool pause) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    FunctionalBackend::Options options;
    options.draft = &draft_weights_;
    options.gamma = 2;
    FunctionalBackend backend(dev, weights_, 1, 96, options);
    ServeOptions so;
    so.max_batch = 1;
    ContinuousBatcher batcher(backend, so);
    ServeJob j = Job(0, 14, /*group=*/-1, /*prompt=*/6);
    j.speculative = true;
    std::string err;
    EXPECT_TRUE(batcher.Submit(j, &err)) << err;
    std::vector<int> tokens;
    const auto drain = [&](int steps) {
      for (int s = 0; s < steps && batcher.HasWork(); ++s) {
        const StepEvents ev = batcher.Step();
        for (const auto& t : ev.tokens) {
          tokens.push_back(t.token);
        }
      }
    };
    drain(3);
    if (pause) {
      EXPECT_TRUE(batcher.PauseJob(0));
      EXPECT_EQ(batcher.job_state(0), JobState::kPaused);
    }
    while (batcher.HasWork()) {
      drain(1);
    }
    const ScheduleResult r = batcher.Finish();
    EXPECT_TRUE(r.error.empty()) << r.error;
    return tokens;
  };
  const std::vector<int> uninterrupted = run(false);
  const std::vector<int> preempted = run(true);
  EXPECT_EQ(preempted, uninterrupted);
  EXPECT_EQ(uninterrupted.size(), 14u);
}

TEST_F(SpeculativeServingTest, AnalyticSpeculativeSpeedsUpDecodeAndExportsMetrics) {
  // The analytic twin: costs from the calibrated capability model, acceptance from the
  // configured geometric process. At the acceptance-favorable default preset (big target,
  // small draft) speculation must clearly beat plain decode.
  hrt::EngineOptions topt;
  topt.model = &hllm::Qwen25_7B();
  topt.device = &hexsim::OnePlus12();
  hrt::Engine target(topt);
  hrt::EngineOptions dopt;
  dopt.model = &hllm::Qwen25_0_5B();
  dopt.device = &hexsim::OnePlus12();
  hrt::Engine draft(dopt);

  std::vector<ServeJob> plain_jobs;
  std::vector<ServeJob> spec_jobs;
  for (int i = 0; i < 8; ++i) {
    plain_jobs.push_back(Job(i, 96, /*group=*/-1, /*prompt=*/64));
    ServeJob j = Job(i, 96, /*group=*/-1, /*prompt=*/64);
    j.speculative = true;
    spec_jobs.push_back(j);
  }
  ServeOptions so;
  so.max_batch = 4;

  AnalyticBackend b_plain(target);
  const ScheduleResult r_plain = ContinuousBatcher(b_plain, so).Run(plain_jobs);
  ASSERT_TRUE(r_plain.error.empty()) << r_plain.error;

  AnalyticBackend::Options opts;
  opts.draft_engine = &draft;
  opts.spec_gamma = 4;
  opts.spec_acceptance = 0.8;
  AnalyticBackend b_spec(target, opts);
  EXPECT_EQ(b_spec.spec_gamma(), 4);
  const ScheduleResult r_spec = ContinuousBatcher(b_spec, so).Run(spec_jobs);
  ASSERT_TRUE(r_spec.error.empty()) << r_spec.error;

  EXPECT_EQ(r_spec.decoded_tokens, r_plain.decoded_tokens);
  EXPECT_GT(r_spec.spec_cycles, 0);
  EXPECT_LT(r_spec.steps, r_plain.steps);
  EXPECT_GT(r_spec.tokens_per_second, 1.5 * r_plain.tokens_per_second);
  const double acc = r_spec.metrics.GaugeValue("spec.acceptance_rate");
  EXPECT_GT(acc, 0.5);
  EXPECT_LE(acc, 1.0);
  EXPECT_EQ(r_spec.metrics.CounterValue("spec.proposed_tokens"),
            r_spec.spec_proposed_tokens);
  EXPECT_EQ(r_spec.metrics.CounterValue("spec.rejected_tokens"),
            r_spec.spec_proposed_tokens - r_spec.spec_accepted_tokens);
}


// --- the step path's numbers, pinned across every decode body ---

// Forwards every call to the wrapped backend and prints one line per admission (its
// seconds) and per decode call (every StepOutcome::cost field in %a, watts, tokens and
// per-row token counts).
class StepRecorder : public ExecutionBackend {
 public:
  explicit StepRecorder(ExecutionBackend& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  double AdmitSlot(int slot, const ServeJob& job, int context_tokens,
                   int charged_prefill_tokens) override {
    const double s = inner_.AdmitSlot(slot, job, context_tokens, charged_prefill_tokens);
    char line[128];
    std::snprintf(line, sizeof(line), "admit job %d slot %d ctx %d -> %a\n", job.id, slot,
                  context_tokens, s);
    profile_ += line;
    return s;
  }
  StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) override {
    return Record("step", inner_.Step(slots, contexts));
  }
  StepOutcome SpeculativeStep(std::span<const int> slots, std::span<const int> contexts,
                              std::span<const int> gammas) override {
    return Record("cycle", inner_.SpeculativeStep(slots, contexts, gammas));
  }
  int spec_gamma() const override { return inner_.spec_gamma(); }
  void ReleaseSlot(int slot) override { inner_.ReleaseSlot(slot); }
  void RetainKv(int slot, int job_id) override { inner_.RetainKv(slot, job_id); }
  void DropRetained(int job_id) override { inner_.DropRetained(job_id); }
  void PauseSlot(int slot, int job_id) override { inner_.PauseSlot(slot, job_id); }
  void ResumeSlot(int slot, int job_id, int context_tokens) override {
    inner_.ResumeSlot(slot, job_id, context_tokens);
  }
  bool CanResume(int job_id) override { return inner_.CanResume(job_id); }
  void ReleaseGroup(int prompt_group) override { inner_.ReleaseGroup(prompt_group); }
  bool CanAdmit(const ServeJob& job, int context_tokens) override {
    return inner_.CanAdmit(job, context_tokens);
  }
  void ClearKv() override { inner_.ClearKv(); }
  int max_context() const override { return inner_.max_context(); }
  hkv::KvStats kv_stats() const override { return inner_.kv_stats(); }
  hquant::KvDtype kv_dtype() const override { return inner_.kv_dtype(); }

  const std::string& profile() const { return profile_; }

 private:
  StepOutcome Record(const char* kind, StepOutcome out) {
    const hrt::StepCost& c = out.cost;
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s total %a linear %a attn %a misc %a lm %a comm %a flash %a fbytes %lld "
                  "hvx %a hmx %a dma %a cpu %a gpu %a ddr %lld watts %a tokens",
                  kind, c.total_s, c.linear_s, c.attention_s, c.misc_s, c.lm_head_s, c.comm_s,
                  c.flash_s, static_cast<long long>(c.flash_bytes), c.hvx_busy_s,
                  c.hmx_busy_s, c.dma_busy_s, c.cpu_busy_s, c.gpu_busy_s,
                  static_cast<long long>(c.ddr_bytes), out.watts);
    profile_ += line;
    for (const int t : out.tokens) {
      profile_ += ' ';
      profile_ += std::to_string(t);
    }
    profile_ += " counts";
    for (const int n : out.row_token_counts) {
      profile_ += ' ';
      profile_ += std::to_string(n);
    }
    profile_ += '\n';
    return out;
  }

  ExecutionBackend& inner_;
  std::string profile_;
};

// The fixed serving script behind StepCostProfileIsPinned, driven live at max_batch 3: a
// two-job shared prompt group whose first job retains its KV, an ungrouped job paused after
// two steps and resumed, and a fork of the first job submitted once it completes. With
// `speculative`, every job but job 1 drafts, so cycles mix drafting and plain rows.
std::string ServeScriptProfile(ExecutionBackend& backend, int prompt, bool speculative) {
  StepRecorder rec(backend);
  ServeOptions so;
  so.max_batch = 3;
  ContinuousBatcher batcher(rec, so);
  std::vector<ServeJob> jobs = {Job(0, 4, /*group=*/0, prompt), Job(1, 6, 0, prompt),
                                Job(2, 7, /*group=*/-1, prompt - 3)};
  jobs[0].retain_kv = true;
  ServeJob fork = Job(3, 3, /*group=*/0, prompt, /*context=*/4);
  fork.parent_job = 0;
  jobs.push_back(fork);
  for (ServeJob& j : jobs) {
    j.speculative = speculative && j.id != 1;
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(batcher.Submit(jobs[static_cast<size_t>(i)]));
  }
  for (int step = 0; batcher.HasWork(); ++step) {
    const StepEvents ev = batcher.Step();
    if (step == 1) {
      EXPECT_TRUE(batcher.PauseJob(2));
    }
    if (std::find(ev.completed.begin(), ev.completed.end(), 0) != ev.completed.end()) {
      EXPECT_TRUE(batcher.Submit(jobs[3]));
    }
  }
  batcher.ReleaseRetained(0);
  const ScheduleResult r = batcher.Finish();
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_EQ(r.forked_admissions, 1);
  return rec.profile();
}

constexpr const char* kStepProfileF16 = R"(admit job 0 slot 0 ctx 8 -> 0x1.00cf8f5a64562p-14
admit job 1 slot 1 ctx 8 -> 0x0p+0
admit job 2 slot 2 ctx 5 -> 0x1.f7f7dca1919e9p-15
step total 0x1.18a04822e068p-14 linear 0x1.13ff1348dff12p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.714788b49d49cp-16 hmx 0x1.c7cadddae1d54p-20 dma 0x1.13ff1348dff12p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 33792 watts 0x1.45100c10eef28p+1 tokens 149 149 59 counts
step total 0x1.18ae0692cd53cp-14 linear 0x1.146d06c8474eap-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.714788b49d4bp-16 hmx 0x1.c7cadddae1d68p-20 dma 0x1.146d06c8474eap-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 34560 watts 0x1.4514b0239517p+1 tokens 166 166 59 counts
step total 0x1.18bbc502ba3fap-14 linear 0x1.14dafa47aeaep-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.714788b49d4bp-16 hmx 0x1.c7cadddae1d74p-20 dma 0x1.14dafa47aeaep-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 35328 watts 0x1.451953c1e6f5dp+1 tokens 166 166 59 counts
step total 0x1.18c98372a72bbp-14 linear 0x1.1548edc7160e8p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.714788b49d478p-16 hmx 0x1.c7cadddae1d7p-20 dma 0x1.1548edc7160e8p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 36096 watts 0x1.451df6ebf5a39p+1 tokens 166 166 59 counts
admit job 3 slot 0 ctx 12 -> 0x0p+0
step total 0x1.18d741e294178p-14 linear 0x1.15b6e1467d6dp-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.714788b49d47p-16 hmx 0x1.c7cadddae1d7p-20 dma 0x1.15b6e1467d6dp-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 36864 watts 0x1.452299a1d2326p+1 tokens 166 166 59 counts
step total 0x1.18e5005281035p-14 linear 0x1.1624d4c5e4cb8p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.714788b49d47p-16 hmx 0x1.c7cadddae1d7p-20 dma 0x1.1624d4c5e4cb8p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 37632 watts 0x1.45273be38db08p+1 tokens 166 166 59 counts
step total 0x1.0d52b6ef911eep-14 linear 0x1.7325135ccb4f8p-18 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.5b28c8e9c8348p-16 hmx 0x1.bc1aff8d108fp-20 dma 0x1.7325135ccb4f8p-18 cpu 0x1.3a256c02c62f3p-17 gpu 0x0p+0 ddr 25344 watts 0x1.3d3486b8715b9p+1 tokens 166 59 counts
)";
constexpr const char* kStepProfileInt4 = R"(admit job 0 slot 0 ctx 8 -> 0x1.00eba477b381fp-14
admit job 1 slot 1 ctx 8 -> 0x0p+0
admit job 2 slot 2 ctx 5 -> 0x1.f81c3430e9046p-15
step total 0x1.1715251104eacp-14 linear 0x1.07a5faba0406ep-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.76c05aa6dd5a8p-16 hmx 0x1.c7cadddae1d54p-20 dma 0x1.07a5faba0406ep-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 11712 watts 0x1.44bedcaac972ep+1 tokens 149 149 59 counts
step total 0x1.171902a07f8cfp-14 linear 0x1.07c4e735d9188p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.775ef00114e9p-16 hmx 0x1.c7cadddae1d68p-20 dma 0x1.07c4e735d9188p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 11928 watts 0x1.44c62de199e14p+1 tokens 166 166 59 counts
step total 0x1.171ce02ffa2f5p-14 linear 0x1.07e3d3b1ae2b4p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.77fd855b4c77p-16 hmx 0x1.c7cadddae1d74p-20 dma 0x1.07e3d3b1ae2b4p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 12144 watts 0x1.44cd7ee487ce3p+1 tokens 166 166 59 counts
step total 0x1.1720bdbf74d1dp-14 linear 0x1.0802c02d833f4p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.78b688ef37eacp-16 hmx 0x1.c7cadddae1d7p-20 dma 0x1.0802c02d833f4p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 12360 watts 0x1.44d5cfaea14bdp+1 tokens 166 166 59 counts
admit job 3 slot 0 ctx 12 -> 0x0p+0
step total 0x1.17249b4eef741p-14 linear 0x1.0821aca958518p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.79551e496f7bp-16 hmx 0x1.c7cadddae1d7p-20 dma 0x1.0821aca958518p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 12576 watts 0x1.44dd2046453a2p+1 tokens 166 166 59 counts
step total 0x1.172878de6a167p-14 linear 0x1.084099252d648p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.79f3b3a3a707p-16 hmx 0x1.c7cadddae1d7p-20 dma 0x1.084099252d648p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 12792 watts 0x1.44e470aa0d371p+1 tokens 166 166 59 counts
step total 0x1.0c32c1d98d283p-14 linear 0x1.6125c1fc8be48p-18 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.6125c1fc8be48p-16 hmx 0x1.bc1aff8d108fp-20 dma 0x1.606abf2eca93p-18 cpu 0x1.3a256c02c62f3p-17 gpu 0x0p+0 ddr 8600 watts 0x1.3cfcaa1ad898bp+1 tokens 166 59 counts
)";
constexpr const char* kStepProfileSpec = R"(admit job 0 slot 0 ctx 8 -> 0x1.e98021b4e20a6p-14
admit job 1 slot 1 ctx 8 -> 0x0p+0
admit job 2 slot 2 ctx 5 -> 0x1.e46c5d4b9f8c1p-14
cycle total 0x1.03347cecf82e1p-12 linear 0x1.19e6e760ad4a6p-16 attn 0x0p+0 misc 0x0p+0 lm 0x1.e2ffefaaaa4efp-17 comm 0x1.c4fc1df3300dep-13 flash 0x0p+0 fbytes 0 hvx 0x1.4bac331a5b584p-15 hmx 0x1.4d143fa9cc6b5p-19 dma 0x1.19e6e760ad4a6p-16 cpu 0x1.6d31e7299ffd4p-15 gpu 0x0p+0 ddr 74112 watts 0x1.370171af8721cp+1 tokens 149 149 59 counts 1 1 1
cycle total 0x1.00ddb5bbd7602p-12 linear 0x1.0238e43b8c4a7p-16 attn 0x0p+0 misc 0x0p+0 lm 0x1.c7830fd0d2914p-17 comm 0x1.c4fc1df3300dep-13 flash 0x0p+0 fbytes 0 hvx 0x1.3cf77edf4f2d2p-15 hmx 0x1.4a284816581ap-19 dma 0x1.0238e43b8c4a7p-16 cpu 0x1.3e12b08f9bdcap-15 gpu 0x0p+0 ddr 68480 watts 0x1.3442fdfb6ef38p+1 tokens 166 166 59 counts 1 1 1
cycle total 0x1.fd0cb7e16ebb6p-13 linear 0x1.d5036eecf005p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.ac062ff6fad38p-17 comm 0x1.c4fc1df3300dep-13 flash 0x0p+0 fbytes 0 hvx 0x1.2ee15ffe7a908p-15 hmx 0x1.473c5082e3c8p-19 dma 0x1.d5036eecf005p-17 cpu 0x1.0ef379f597bbep-15 gpu 0x0p+0 ddr 62720 watts 0x1.317aa98584f2ap+1 tokens 166 166 59 counts 1 1 1
cycle total 0x1.f85cdf17304dcp-13 linear 0x1.a582c222e0e7cp-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.9089501d2315cp-17 comm 0x1.c4fc1df3300dep-13 flash 0x0p+0 fbytes 0 hvx 0x1.215c9f5b038bcp-15 hmx 0x1.445058ef6f76p-19 dma 0x1.a582c222e0e7cp-17 cpu 0x1.bfa886b727367p-16 gpu 0x0p+0 ddr 56832 watts 0x1.2ea7e2302245p+1 tokens 166 166 59 counts 1 1 1
admit job 3 slot 0 ctx 12 -> 0x1.d30e1b9b008e6p-15
cycle total 0x1.86fe4d2c74a4ep-13 linear 0x1.d696966ac06p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.5d7cd4f64947bp-17 comm 0x1.53bd1676640a6p-13 flash 0x0p+0 fbytes 0 hvx 0x1.1975083923facp-15 hmx 0x1.2a04a4c058958p-19 dma 0x1.d696966ac06p-17 cpu 0x1.0ef379f597bbep-15 gpu 0x0p+0 ddr 65536 watts 0x1.37f37c5f3aad2p+1 tokens 166 166 59 counts 1 1 1
cycle total 0x1.08a24033381eap-13 linear 0x1.76a70297ecd78p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.d73822042946cp-18 comm 0x1.c4fc1df3300dep-14 flash 0x0p+0 fbytes 0 hvx 0x1.d0f61018b768p-16 hmx 0x1.06f509d6e4c08p-19 dma 0x1.76a70297ecd78p-17 cpu 0x1.88aec70377bbp-16 gpu 0x0p+0 ddr 52096 watts 0x1.3bc7894605f4bp+1 tokens 166 166 59 counts 1 1 1
step total 0x1.0d52b6ef911ecp-14 linear 0x1.7325135ccb4ep-18 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.5b28c8e9c82fp-16 hmx 0x1.bc1aff8d108cp-20 dma 0x1.7325135ccb4ep-18 cpu 0x1.3a256c02c62f3p-17 gpu 0x0p+0 ddr 25344 watts 0x1.3d3486b8715b6p+1 tokens 166 59 counts
)";
constexpr const char* kStepProfileOffload = R"(admit job 0 slot 0 ctx 72 -> 0x1.5ba727edac78ep-14
admit job 1 slot 1 ctx 72 -> 0x0p+0
admit job 2 slot 2 ctx 69 -> 0x1.56ce92393f35fp-14
step total 0x1.b79ff9bcd188ep-13 linear 0x1.38a59315ff988p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x1.97c1b40841cecp-11 fbytes 114688 hvx 0x1.76f5371a45348p-16 hmx 0x1.06f509d6e4bf8p-19 dma 0x1.38a59315ff988p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 99328 watts 0x1.2877b6ce35052p+1 tokens 390 390 13 counts
step total 0x1.47edcc85368afp-12 linear 0x1.3913869566f7p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x1.531d8f758aa1cp-11 fbytes 98304 hvx 0x1.76f5371a4533p-16 hmx 0x1.06f509d6e4bf8p-19 dma 0x1.3913869566f7p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 100096 watts 0x1.23924e7ab4c31p+1 tokens 291 291 28 counts
step total 0x1.47edcc85368afp-12 linear 0x1.39817a14ce554p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x1.531d8f758aa1cp-11 fbytes 98304 hvx 0x1.76f5371a4533p-16 hmx 0x1.06f509d6e4bep-19 dma 0x1.39817a14ce554p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 100864 watts 0x1.2393c1486800fp+1 tokens 390 390 10 counts
step total 0x1.47edcc85368adp-12 linear 0x1.39ef6d9435b3p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x1.531d8f758aa1bp-11 fbytes 98304 hvx 0x1.76f5371a4533p-16 hmx 0x1.06f509d6e4bep-19 dma 0x1.39ef6d9435b3p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 101632 watts 0x1.239534161b3edp+1 tokens 291 291 10 counts
admit job 3 slot 0 ctx 76 -> 0x0p+0
step total 0x1.3e1e511894dd9p-12 linear 0x1.3a5d61139d13p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x1.97c1b40841cecp-11 fbytes 114688 hvx 0x1.76f5371a4533p-16 hmx 0x1.06f509d6e4bep-19 dma 0x1.3a5d61139d13p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 102400 watts 0x1.23e5824f43cc2p+1 tokens 390 390 276 counts
step total 0x1.47edcc85368b1p-12 linear 0x1.3acb54930473p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x1.531d8f758aa1cp-11 fbytes 98304 hvx 0x1.76f5371a4533p-16 hmx 0x1.06f509d6e4bep-19 dma 0x1.3acb54930473p-17 cpu 0x1.d73822042946cp-17 gpu 0x0p+0 ddr 103168 watts 0x1.239819b181ba9p+1 tokens 337 337 144 counts
step total 0x1.471ea98496149p-12 linear 0x1.2154e7fe5d03p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x1.c42769f20e2dp-12 fbytes 65536 hvx 0x1.5f7ede614d0fp-16 hmx 0x1.eada78c455acp-20 dma 0x1.2154e7fe5d03p-17 cpu 0x1.3a256c02c62f3p-17 gpu 0x0p+0 ddr 90880 watts 0x1.218a5ce584059p+1 tokens 390 10 counts
)";
constexpr const char* kStepProfileAnalytic = R"(admit job 0 slot 0 ctx 8 -> 0x1.11663fe74821dp-12
admit job 1 slot 1 ctx 8 -> 0x0p+0
admit job 2 slot 2 ctx 5 -> 0x1.10733658afa8bp-12
step total 0x1.2f64892d38d61p-14 linear 0x1.0f2c3d3be0d9dp-17 attn 0x1.c5c1198201ad4p-18 misc 0x1.cce20e31745fp-23 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.285cf203fcc08p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.aab3b777ac1aap-17 cpu 0x1.49da7e361ce4cp-17 gpu 0x0p+0 ddr 231424 watts 0x1.3ef2e0fba2e36p+1 tokens counts
step total 0x1.2f64892d38d61p-14 linear 0x1.0f2c3d3be0d9dp-17 attn 0x1.c5c1198201ad4p-18 misc 0x1.cce20e31745fp-23 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.285cf203fcc08p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.aab3b777ac1aap-17 cpu 0x1.49da7e361ce4cp-17 gpu 0x0p+0 ddr 231424 watts 0x1.3ef2e0fba2e36p+1 tokens counts
step total 0x1.2f64892d38d61p-14 linear 0x1.0f2c3d3be0d9dp-17 attn 0x1.c5c1198201ad4p-18 misc 0x1.cce20e31745fp-23 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.285cf203fcc08p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.aab3b777ac1aap-17 cpu 0x1.49da7e361ce4cp-17 gpu 0x0p+0 ddr 231424 watts 0x1.3ef2e0fba2e36p+1 tokens counts
step total 0x1.2f64892d38d61p-14 linear 0x1.0f2c3d3be0d9dp-17 attn 0x1.c5c1198201ad4p-18 misc 0x1.cce20e31745fp-23 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.285cf203fcc08p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.aab3b777ac1aap-17 cpu 0x1.49da7e361ce4cp-17 gpu 0x0p+0 ddr 231424 watts 0x1.3ef2e0fba2e36p+1 tokens counts
admit job 3 slot 0 ctx 12 -> 0x0p+0
step total 0x1.2f64892d38d61p-14 linear 0x1.0f2c3d3be0d9dp-17 attn 0x1.c5c1198201ad4p-18 misc 0x1.cce20e31745fp-23 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.285cf203fcc08p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.aab3b777ac1aap-17 cpu 0x1.49da7e361ce4cp-17 gpu 0x0p+0 ddr 231424 watts 0x1.3ef2e0fba2e36p+1 tokens counts
step total 0x1.2f64892d38d61p-14 linear 0x1.0f2c3d3be0d9dp-17 attn 0x1.c5c1198201ad4p-18 misc 0x1.cce20e31745fp-23 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.285cf203fcc08p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.aab3b777ac1aap-17 cpu 0x1.49da7e361ce4cp-17 gpu 0x0p+0 ddr 231424 watts 0x1.3ef2e0fba2e36p+1 tokens counts
step total 0x1.2e1042b92eba8p-14 linear 0x1.0e23eefad998p-17 attn 0x1.b75a543e9d046p-18 misc 0x1.33415ecba2eap-23 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.1711d342c331fp-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.a9bf6178ff479p-17 cpu 0x1.b7cdfd9d7bdbbp-18 gpu 0x0p+0 ddr 231424 watts 0x1.394455050baafp+1 tokens counts
)";
constexpr const char* kStepProfileAnalyticSpec = R"(admit job 0 slot 0 ctx 8 -> 0x1.11663fe74821dp-12
admit job 1 slot 1 ctx 8 -> 0x0p+0
admit job 2 slot 2 ctx 5 -> 0x1.10733658afa8bp-12
cycle total 0x1.1251d892a74adp-12 linear 0x1.f4a46c517e50dp-17 attn 0x1.2766601d15237p-16 misc 0x1.ab6e8d29bc70dp-21 lm 0x1.9c511dc3a41dep-17 comm 0x1.c4fc1df3300dep-13 flash 0x0p+0 fbytes 0 hvx 0x1.133fe4ebc1f1ap-15 hmx 0x1.52ec2ed0b50d9p-19 dma 0x1.daf749a6acae1p-16 cpu 0x1.49da7e361ce4dp-15 gpu 0x0p+0 ddr 361984 watts 0x1.3501d6f97d5a8p+1 tokens counts 3 1 2
cycle total 0x1.0e473a43edf67p-12 linear 0x1.f0c05232d15dap-17 attn 0x1.16cab02e0f706p-16 misc 0x1.0f53885b0cc45p-21 lm 0x1.49da7e361ce4cp-17 comm 0x1.c4fc1df3300dep-13 flash 0x0p+0 fbytes 0 hvx 0x1.d924af75aa8cbp-16 hmx 0x1.52ec2ed0b50d9p-19 dma 0x1.d8d18829a7d34p-16 cpu 0x1.9c511dc3a41ep-16 gpu 0x0p+0 ddr 361984 watts 0x1.2e12362227786p+1 tokens counts 1 1 4
admit job 3 slot 0 ctx 12 -> 0x0p+0
cycle total 0x1.9a54dd70df5e3p-13 linear 0x1.a58ef5e08131bp-17 attn 0x1.bed4f2b2913c7p-17 misc 0x1.b6950d81a46aep-22 lm 0x1.eec7bd512b573p-18 comm 0x1.53bd1676640a6p-13 flash 0x0p+0 fbytes 0 hvx 0x1.9d2f220ebeb18p-16 hmx 0x1.2fdc93e741385p-19 dma 0x1.82544eafb73bfp-16 cpu 0x1.49da7e361ce4dp-16 gpu 0x0p+0 ddr 318464 watts 0x1.302af9b361783p+1 tokens counts 3 1 1
step total 0x1.2cbf4a0c5b1cap-14 linear 0x1.0d1ba0b9d2563p-17 attn 0x1.a9286b6ea0358p-18 misc 0x1.33415ecba2eap-24 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.05fb90f4f17d8p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.a8cb0b7a52748p-17 cpu 0x1.b7cdfd9d7bdbbp-19 gpu 0x0p+0 ddr 231424 watts 0x1.338a7fb2028f1p+1 tokens counts
step total 0x1.2cbf4a0c5b1cap-14 linear 0x1.0d1ba0b9d2563p-17 attn 0x1.a9286b6ea0358p-18 misc 0x1.33415ecba2eap-24 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.05fb90f4f17d8p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.a8cb0b7a52748p-17 cpu 0x1.b7cdfd9d7bdbbp-19 gpu 0x0p+0 ddr 231424 watts 0x1.338a7fb2028f1p+1 tokens counts
step total 0x1.2cbf4a0c5b1cap-14 linear 0x1.0d1ba0b9d2563p-17 attn 0x1.a9286b6ea0358p-18 misc 0x1.33415ecba2eap-24 lm 0x1.b7cdfd9d7bdbbp-19 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.05fb90f4f17d8p-16 hmx 0x1.d37abc28b31bap-20 dma 0x1.a8cb0b7a52748p-17 cpu 0x1.b7cdfd9d7bdbbp-19 gpu 0x0p+0 ddr 231424 watts 0x1.338a7fb2028f1p+1 tokens counts
)";

constexpr const char* kStepProfileAllOptions = R"(admit job 0 slot 0 ctx 72 -> 0x1.2e9f814aac27ap-13
admit job 1 slot 1 ctx 72 -> 0x0p+0
admit job 2 slot 2 ctx 69 -> 0x1.2ba4f11ddb028p-13
cycle total 0x1.8c963e59b0e3dp-13 linear 0x1.180ad49f42278p-16 attn 0x0p+0 misc 0x0p+0 lm 0x1.5d7cd4f64947bp-17 comm 0x1.53bd1676640a6p-13 flash 0x1.5e523082d7f6dp-12 fbytes 26112 hvx 0x1.358389f9e2ce8p-15 hmx 0x1.6473fc456ef68p-19 dma 0x1.180ad49f42278p-16 cpu 0x1.0ef379f597bbep-15 gpu 0x0p+0 ddr 105568 watts 0x1.392414868455fp+1 tokens 374 374 28 counts 1 1 1
cycle total 0x1.0b4be25e139f4p-12 linear 0x1.183b81c0fe962p-16 attn 0x0p+0 misc 0x0p+0 lm 0x1.5d7cd4f64947bp-17 comm 0x1.53bd1676640a6p-13 flash 0x1.b4d0962beb7fap-13 fbytes 17408 hvx 0x1.35e00bc3d8888p-15 hmx 0x1.6473fc456ef84p-19 dma 0x1.183b81c0fe962p-16 cpu 0x1.0ef379f597bbep-15 gpu 0x0p+0 ddr 106248 watts 0x1.31030aa2f7018p+1 tokens 332 332 71 counts 1 1 1
cycle total 0x1.084d6c68bb962p-12 linear 0x1.ec867ef44ca4p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.41fff51c718ap-17 comm 0x1.53bd1676640a6p-13 flash 0x1.b4d0962beb7fdp-13 fbytes 17408 hvx 0x1.24a3cb03143p-15 hmx 0x1.5bb0158b1205p-19 dma 0x1.ec867ef44ca4p-17 cpu 0x1.bfa886b727367p-16 gpu 0x0p+0 ddr 93816 watts 0x1.2e356bfe3324bp+1 tokens 289 289 12 counts 1 1 1
cycle total 0x1.080e4a3e1ea78p-12 linear 0x1.a88c3e2ca9a28p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-17 comm 0x1.53bd1676640a6p-13 flash 0x1.b4d0962beb7fcp-13 fbytes 17408 hvx 0x1.13ebb162d376p-15 hmx 0x1.52ec2ed0b50fp-19 dma 0x1.a88c3e2ca9a28p-17 cpu 0x1.88aec70377bbp-16 gpu 0x0p+0 ddr 81316 watts 0x1.2c3cb12b72408p+1 tokens 332 332 505 counts 1 1 1
admit job 3 slot 0 ctx 76 -> 0x1.02963f930f9a8p-14
cycle total 0x1.024cec3b907c1p-12 linear 0x1.18cd892633decp-16 attn 0x0p+0 misc 0x0p+0 lm 0x1.5d7cd4f64947bp-17 comm 0x1.53bd1676640a6p-13 flash 0x1.b4d0962beb7fdp-12 fbytes 34816 hvx 0x1.370fff5b6dbbp-15 hmx 0x1.6473fc456efbp-19 dma 0x1.18cd892633decp-16 cpu 0x1.0ef379f597bbep-15 gpu 0x0p+0 ddr 108288 watts 0x1.31dee02069bb2p+1 tokens 289 289 429 counts 1 1 1
cycle total 0x1.2155b6969e2f7p-12 linear 0x1.a93b7a3fb66p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.d73822042946cp-18 comm 0x1.c4fc1df3300dep-14 flash 0x1.5e523082d7f6cp-12 fbytes 26112 hvx 0x1.fe7df17faaccp-16 hmx 0x1.35b4830e29dc8p-19 dma 0x1.a93b7a3fb66p-17 cpu 0x1.88aec70377bbp-16 gpu 0x0p+0 ddr 82540 watts 0x1.2a1c44dd578c3p+1 tokens 332 332 278 counts 1 1 1
step total 0x1.1e19fe68b8e71p-13 linear 0x1.0a0b7ddab066p-17 attn 0x0p+0 misc 0x0p+0 lm 0x1.3a256c02c62f3p-18 comm 0x1.c4fc1df3300dep-15 flash 0x0p+0 fbytes 0 hvx 0x1.77585472a804p-16 hmx 0x1.eada78c455a6p-20 dma 0x1.0a0b7ddab066p-17 cpu 0x1.3a256c02c62f3p-17 gpu 0x0p+0 ddr 49240 watts 0x1.2b7ea52c10952p+1 tokens 289 62 counts
)";

class ServingStepTest : public SpeculativeServingTest {};

TEST_F(ServingStepTest, StepCostProfileIsPinned) {
  // Every admission's seconds and every decode call's cost, power and tokens keep exactly
  // their recorded values at one lane, whichever decode body serves the call: plain F16 and
  // INT4 functional runs, a functional draft-model run, a functional sink + window run over
  // a small resident budget, and plain and speculative analytic runs.
  hexec::ParallelismOverride serial(1);
  const auto functional = [&](const FunctionalBackend::Options& options, int prompt) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    FunctionalBackend backend(dev, weights_, /*max_batch=*/3, /*max_context=*/128, options);
    return ServeScriptProfile(backend, prompt, options.draft != nullptr);
  };
  const std::string f16 = functional({}, /*prompt=*/8);
  EXPECT_TRUE(f16 == kStepProfileF16) << "F16 profile:\n" << f16;
  FunctionalBackend::Options int4_options;
  int4_options.kv_dtype = hquant::KvDtype::kInt4;
  const std::string int4 = functional(int4_options, /*prompt=*/8);
  EXPECT_TRUE(int4 == kStepProfileInt4) << "INT4 profile:\n" << int4;
  FunctionalBackend::Options draft;
  draft.draft = &draft_weights_;
  draft.gamma = 3;
  const std::string spec = functional(draft, /*prompt=*/8);
  EXPECT_TRUE(spec == kStepProfileSpec) << "speculative profile:\n" << spec;
  FunctionalBackend::Options long_context;
  long_context.offload.resident_block_budget = 4;
  long_context.window.sink_blocks = 1;
  long_context.window.window_blocks = 1;
  const std::string offload = functional(long_context, /*prompt=*/72);
  EXPECT_TRUE(offload == kStepProfileOffload) << "offload profile:\n" << offload;

  hrt::EngineOptions topt;
  topt.model = &config_;
  topt.device = &hexsim::OnePlus12();
  const hrt::Engine target(topt);
  hrt::EngineOptions dopt = topt;
  dopt.model = &draft_config_;
  const hrt::Engine draft_engine(dopt);
  AnalyticBackend plain(target);
  const std::string analytic = ServeScriptProfile(plain, /*prompt=*/8, false);
  EXPECT_TRUE(analytic == kStepProfileAnalytic) << "analytic profile:\n" << analytic;
  AnalyticBackend::Options ao;
  ao.draft_engine = &draft_engine;
  ao.spec_gamma = 3;
  AnalyticBackend speculative(target, ao);
  const std::string analytic_spec = ServeScriptProfile(speculative, /*prompt=*/8, true);
  EXPECT_TRUE(analytic_spec == kStepProfileAnalyticSpec)
      << "analytic speculative profile:\n" << analytic_spec;
}

TEST_F(ServingStepTest, AllOptionsProfileIsPinned) {
  // Every FunctionalBackend::Options field set at once, applied at construction: an
  // explicit pool, INT8 KV, a gamma-2 draft, a 6-block resident budget and a 1-sink +
  // 2-block window, with drafting and plain rows mixed in the cycles. Every admission and
  // cycle keeps the values recorded when offload and window were wired in after
  // construction.
  hexec::ParallelismOverride serial(1);
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  FunctionalBackend::Options options;
  options.kv_pool_blocks = 48;
  options.kv_dtype = hquant::KvDtype::kInt8;
  options.draft = &draft_weights_;
  options.gamma = 2;
  options.offload.resident_block_budget = 6;
  options.window.sink_blocks = 1;
  options.window.window_blocks = 2;
  FunctionalBackend backend(dev, weights_, /*max_batch=*/3, /*max_context=*/128, options);
  const std::string profile = ServeScriptProfile(backend, /*prompt=*/72, /*speculative=*/true);
  EXPECT_TRUE(profile == kStepProfileAllOptions) << "all-options profile:\n" << profile;
  EXPECT_TRUE(backend.transformer().kv().offload_enabled());
  EXPECT_TRUE(backend.transformer().attention_window().enabled());
  EXPECT_FALSE(backend.draft_transformer()->attention_window().enabled());
}

TEST_F(ServingStepTest, PrefillDispatchesMatchAnalyticEngine) {
  // A functional admission charges one mailbox round trip per prefill forward, for the
  // target's prompt and the draft's alike, and Engine::Prefill charges one per
  // kPrefillChunk chunk: the same count at every prompt length. The NPU part of each
  // admission is rebuilt from the device ledger the way the backend composes it (the
  // slowest of DMA, HMX and HVX over its threads); what is left is the dispatch charge.
  hexec::ParallelismOverride serial(1);
  constexpr int kMaxContext = 768;
  const double dispatch_s = hexsim::kDispatchSeconds;
  // DMA, HMX and HVX seconds charged since `before`.
  using Busy = std::array<double, 3>;
  const auto busy = [](const hexsim::CycleLedger& after, const hexsim::CycleLedger& before) {
    const auto e = [&](hexsim::Engine x) {
      return after.EngineSeconds(x) - before.EngineSeconds(x);
    };
    return Busy{e(hexsim::Engine::kDma), e(hexsim::Engine::kHmx), e(hexsim::Engine::kHvx)};
  };
  const int hvx_threads = hexsim::OnePlus12().hvx_threads;
  const auto npu_s = [&](const Busy& b) { return std::max({b[0], b[1], b[2] / hvx_threads}); };
  const auto dispatches = [&](double seconds) {
    const double n = seconds / dispatch_s;
    EXPECT_NEAR(n, std::round(n), 1e-6);
    return static_cast<int64_t>(std::llround(n));
  };
  hrt::EngineOptions opt;
  opt.model = &config_;
  opt.device = &hexsim::OnePlus12();
  const hrt::Engine engine(opt);
  FunctionalBackend::Options draft;
  draft.draft = &draft_weights_;
  draft.gamma = 3;
  for (const int n : {1, 31, 32, 33, 255, 256, 257, 700}) {
    SCOPED_TRACE(n);
    const int64_t analytic = dispatches(engine.Prefill(n).comm_s);
    EXPECT_EQ(analytic, hexllm::CeilDiv(n, hkern::kPrefillChunk));
    ServeJob job = Job(0, /*decode=*/1, /*group=*/-1, /*prompt=*/n);
    job.speculative = true;

    hexsim::NpuDevice dev(hexsim::OnePlus12());
    FunctionalBackend plain(dev, weights_, /*max_batch=*/1, kMaxContext);
    const hexsim::CycleLedger mark = dev.ledger();
    const double target_s = plain.AdmitSlot(0, job, n, n);
    const Busy target = busy(dev.ledger(), mark);
    EXPECT_EQ(dispatches(target_s - npu_s(target)), analytic);
    // One forward per dispatch: each forward runs one attention call per layer.
    EXPECT_EQ(dev.ledger().Count("kernel.flash_attention.calls") -
                  mark.Count("kernel.flash_attention.calls"),
              config_.layers * analytic);

    // The same admission with a draft model: the target's prefill charges exactly as above,
    // and the draft's prefill of the same prompt adds its own dispatches.
    hexsim::NpuDevice spec_dev(hexsim::OnePlus12());
    FunctionalBackend spec(spec_dev, weights_, /*max_batch=*/1, kMaxContext, draft);
    const hexsim::CycleLedger spec_mark = spec_dev.ledger();
    const double both_s = spec.AdmitSlot(0, job, n, n);
    Busy drafted = busy(spec_dev.ledger(), spec_mark);
    for (size_t e = 0; e < drafted.size(); ++e) {
      drafted[e] -= target[e];
    }
    EXPECT_EQ(dispatches(both_s - target_s - npu_s(drafted)), analytic);
  }
}

}  // namespace
}  // namespace hserve
