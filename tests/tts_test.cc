#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/hexsim/device_profile.h"
#include "src/llm/model_config.h"
#include "src/tts/capability_model.h"
#include "src/tts/pareto.h"
#include "src/tts/reward_model.h"
#include "src/tts/task.h"
#include "src/tts/tts.h"

namespace htts {
namespace {

using hexllm::Rng;

const CapabilityModel& Cap() {
  static const CapabilityModel cap;
  return cap;
}

// --- task generation ---

TEST(TaskTest, DatasetsHaveDistinctDifficulty) {
  const TaskSet math = GenerateTaskSet(Dataset::kMath500, 1000, 1);
  const TaskSet gsm = GenerateTaskSet(Dataset::kGsm8k, 1000, 1);
  double dm = 0.0, dg = 0.0;
  for (const auto& t : math.tasks) {
    dm += t.difficulty;
  }
  for (const auto& t : gsm.tasks) {
    dg += t.difficulty;
  }
  EXPECT_GT(dm / 1000, dg / 1000 + 0.5);  // MATH500 is much harder
}

TEST(TaskTest, GenerationIsDeterministic) {
  const TaskSet a = GenerateTaskSet(Dataset::kMath500, 50, 9);
  const TaskSet b = GenerateTaskSet(Dataset::kMath500, 50, 9);
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].difficulty, b.tasks[i].difficulty);
    EXPECT_EQ(a.tasks[i].answer, b.tasks[i].answer);
  }
}

// --- capability model ---

TEST(CapabilityModelTest, MeasuredErrorOrdering) {
  const auto& c = Cap();
  EXPECT_GT(c.per_channel_q4_err(), 3.0 * c.common_group_q4_err());
  EXPECT_NEAR(c.tile_group_q4_err(), c.common_group_q4_err(),
              0.5 * c.common_group_q4_err());
  EXPECT_LT(c.q8_err(), 0.3 * c.common_group_q4_err());
  EXPECT_LT(c.lut_f16_attention_err(), 0.01);
}

TEST(CapabilityModelTest, MeasuresOncePerProcess) {
  // Every instance copies one measurement: two constructions agree on every accessor, and
  // the measured errors keep their values from when each construction measured afresh.
  const CapabilityModel a;
  const CapabilityModel b;
  const auto& m = hllm::Qwen25_1_5B();
  EXPECT_EQ(a.common_group_q4_err(), 0x1.e2e8db60f0712p-4);
  EXPECT_EQ(a.tile_group_q4_err(), 0x1.8c34d18dc804p-4);
  EXPECT_EQ(a.per_channel_q4_err(), 0x1.283ed8fabafe2p-1);
  EXPECT_EQ(a.q8_err(), 0x1.06c5308f7455p-7);
  EXPECT_EQ(a.lut_f16_attention_err(), 0x1.4ee8dd67dbf65p-11);
  EXPECT_EQ(a.AttentionErr(hquant::KvDtype::kInt8), 0x1.083394d6f80bbp-7);
  EXPECT_EQ(a.AttentionErr(hquant::KvDtype::kInt4), 0x1.c830103bc149cp-4);
  EXPECT_EQ(a.common_group_q4_err(), b.common_group_q4_err());
  EXPECT_EQ(a.tile_group_q4_err(), b.tile_group_q4_err());
  EXPECT_EQ(a.per_channel_q4_err(), b.per_channel_q4_err());
  EXPECT_EQ(a.q8_err(), b.q8_err());
  EXPECT_EQ(a.lut_f16_attention_err(), b.lut_f16_attention_err());
  for (const hquant::KvDtype dtype :
       {hquant::KvDtype::kF16, hquant::KvDtype::kInt8, hquant::KvDtype::kInt4}) {
    EXPECT_EQ(a.AttentionErr(dtype), b.AttentionErr(dtype));
  }
  EXPECT_EQ(a.DeployedWeightErr(m), b.DeployedWeightErr(m));
  const double werr = a.DeployedWeightErr(m);
  const double aerr = a.lut_f16_attention_err();
  for (const Dataset d : {Dataset::kMath500, Dataset::kGsm8k}) {
    EXPECT_EQ(a.ThetaF16(m, d), b.ThetaF16(m, d));
    EXPECT_EQ(a.EffectiveTheta(m, d, werr, aerr), b.EffectiveTheta(m, d, werr, aerr));
    EXPECT_EQ(a.SkillPenalty(d, werr, aerr), b.SkillPenalty(d, werr, aerr));
  }
  for (const Dataset d : {Dataset::kWinoGrande, Dataset::kMmlu}) {
    EXPECT_EQ(a.ChoiceAccuracy(d, m, werr, aerr), b.ChoiceAccuracy(d, m, werr, aerr));
  }
  for (const auto* model : {&m, &hllm::Llama32_1B()}) {
    EXPECT_EQ(a.WikiPerplexity(*model, werr, aerr), b.WikiPerplexity(*model, werr, aerr));
  }
}

TEST(CapabilityModelTest, Table1Reproduction) {
  // AWQ-like per-group vs QNN-like per-channel W4 on Llama3.2-1B. The AWQ cells are
  // calibration anchors (must match tightly); the QNN accuracy cells are anchored too,
  // while QNN perplexity is a genuine prediction.
  const auto& c = Cap();
  const auto& m = hllm::Llama32_1B();
  const TaskSet math = GenerateTaskSet(Dataset::kMath500, 3000, 17);
  const TaskSet gsm = GenerateTaskSet(Dataset::kGsm8k, 3000, 18);
  const double awq_math = 100 * CapabilityModel::MeanAccuracy(
      math, c.EffectiveTheta(m, Dataset::kMath500, c.common_group_q4_err(), 0.0));
  const double qnn_math = 100 * CapabilityModel::MeanAccuracy(
      math, c.EffectiveTheta(m, Dataset::kMath500, c.per_channel_q4_err(), 0.0));
  const double awq_gsm = 100 * CapabilityModel::MeanAccuracy(
      gsm, c.EffectiveTheta(m, Dataset::kGsm8k, c.common_group_q4_err(), 0.0));
  const double qnn_gsm = 100 * CapabilityModel::MeanAccuracy(
      gsm, c.EffectiveTheta(m, Dataset::kGsm8k, c.per_channel_q4_err(), 0.0));
  EXPECT_NEAR(awq_math, 15.9, 2.5);
  EXPECT_NEAR(qnn_math, 2.1, 1.5);
  EXPECT_NEAR(awq_gsm, 32.6, 3.0);
  EXPECT_NEAR(qnn_gsm, 3.4, 2.0);
  // Wiki perplexity: AWQ anchored at 19.42; QNN predicted near the paper's 28.99.
  EXPECT_NEAR(c.WikiPerplexity(m, c.common_group_q4_err(), 0.0), 19.42, 0.1);
  EXPECT_NEAR(c.WikiPerplexity(m, c.per_channel_q4_err(), 0.0), 28.99, 4.5);
}

TEST(CapabilityModelTest, Table4TileVsCommonIsSmall) {
  // §7.3: tile-group quantization does not significantly change accuracy.
  const auto& c = Cap();
  const auto& m = hllm::Qwen25_1_5B();
  const double wino_tile = c.ChoiceAccuracy(Dataset::kWinoGrande, m, c.tile_group_q4_err(), 0);
  const double wino_common =
      c.ChoiceAccuracy(Dataset::kWinoGrande, m, c.common_group_q4_err(), 0);
  const double wino_f16 = c.ChoiceAccuracy(Dataset::kWinoGrande, m, 0, 0);
  EXPECT_LT(std::fabs(wino_tile - wino_common), 1.0);
  EXPECT_LT(std::fabs(wino_f16 - wino_tile), 2.5);
  const double ppl_tile = c.WikiPerplexity(m, c.tile_group_q4_err(), 0);
  const double ppl_common = c.WikiPerplexity(m, c.common_group_q4_err(), 0);
  EXPECT_LT(std::fabs(ppl_tile - ppl_common), 0.15);
  // Both quantization deltas dwarf the tile-vs-common delta (the paper's argument).
  EXPECT_GT(ppl_common - 9.798, 3.0 * std::fabs(ppl_tile - ppl_common));
}

TEST(CapabilityModelTest, Table5LutAttentionIsAccuracyNeutral) {
  const auto& c = Cap();
  const auto& m = hllm::Qwen25_1_5B();
  const double err = c.tile_group_q4_err();
  const double with_lut = c.ChoiceAccuracy(Dataset::kWinoGrande, m, err,
                                           c.lut_f16_attention_err());
  const double with_f32 = c.ChoiceAccuracy(Dataset::kWinoGrande, m, err, 0.0);
  EXPECT_LT(std::fabs(with_lut - with_f32), 0.5);
  const double ppl_lut = c.WikiPerplexity(m, err, c.lut_f16_attention_err());
  const double ppl_f32 = c.WikiPerplexity(m, err, 0.0);
  EXPECT_LT(std::fabs(ppl_lut - ppl_f32), 0.05);
}

TEST(CapabilityModelTest, BiggerModelsAreStronger) {
  const auto& c = Cap();
  for (const auto d : {Dataset::kMath500, Dataset::kGsm8k}) {
    EXPECT_GT(c.ThetaF16(hllm::Qwen25_7B(), d), c.ThetaF16(hllm::Qwen25_3B(), d));
    EXPECT_GT(c.ThetaF16(hllm::Qwen25_3B(), d), c.ThetaF16(hllm::Qwen25_1_5B(), d));
    EXPECT_GT(c.ThetaF16(hllm::Llama32_3B(), d), c.ThetaF16(hllm::Llama32_1B(), d));
  }
}

TEST(CapabilityModelTest, PenaltyMonotoneInError) {
  const auto& c = Cap();
  EXPECT_GT(c.SkillPenalty(Dataset::kMath500, 0.3, 0.0),
            c.SkillPenalty(Dataset::kMath500, 0.1, 0.0));
  EXPECT_EQ(c.SkillPenalty(Dataset::kMath500, 0.0, 0.0), 0.0);
}

TEST(CapabilityModelTest, DeployedErrBetweenQ8AndQ4) {
  const auto& c = Cap();
  const double e = c.DeployedWeightErr(hllm::Qwen25_1_5B());
  EXPECT_GT(e, c.q8_err());
  EXPECT_LT(e, c.tile_group_q4_err());
}

// --- TTS algorithms ---

class TtsAlgoTest : public ::testing::Test {
 protected:
  TtsAlgoTest() : tasks_(GenerateTaskSet(Dataset::kMath500, 400, 3)), rng_(11) {
    theta_ = Cap().EffectiveTheta(hllm::Qwen25_1_5B(), Dataset::kMath500,
                                  Cap().DeployedWeightErr(hllm::Qwen25_1_5B()),
                                  Cap().lut_f16_attention_err());
  }
  TaskSet tasks_;
  double theta_ = 0.0;
  Rng rng_;
};

TEST_F(TtsAlgoTest, BestOfNImprovesMonotonically) {
  // Figure 5: accuracy improves significantly as the generation budget increases.
  const OutcomeRewardModel orm;
  double prev = RunSingleSample(tasks_, theta_, 6, rng_).accuracy;
  const double base = prev;
  for (int n : {2, 4, 8, 16}) {
    const auto r = RunBestOfN(tasks_, theta_, orm, n, 6, rng_);
    EXPECT_GT(r.accuracy, prev - 0.02) << n;  // monotone up to sampling noise
    EXPECT_LE(r.accuracy, r.oracle_accuracy + 1e-9);
    prev = r.accuracy;
  }
  EXPECT_GT(prev, base + 0.10);  // budget 16 is far above base
}

TEST_F(TtsAlgoTest, OracleBoundsSelection) {
  const OutcomeRewardModel strong(8.0);
  const OutcomeRewardModel blind(0.0);
  const auto strong_r = RunBestOfN(tasks_, theta_, strong, 8, 6, rng_);
  const auto blind_r = RunBestOfN(tasks_, theta_, blind, 8, 6, rng_);
  const auto single = RunSingleSample(tasks_, theta_, 6, rng_);
  // A near-oracle verifier approaches pass@N; a blind verifier falls back to single-sample.
  EXPECT_GT(strong_r.accuracy, 0.9 * strong_r.oracle_accuracy);
  EXPECT_NEAR(blind_r.accuracy, single.accuracy, 0.05);
}

TEST_F(TtsAlgoTest, MajorityVoteHelpsButTrailsOrm) {
  const OutcomeRewardModel orm;
  const auto single = RunSingleSample(tasks_, theta_, 6, rng_);
  const auto mv = RunMajorityVote(tasks_, theta_, 16, 6, rng_);
  const auto bon = RunBestOfN(tasks_, theta_, orm, 16, 6, rng_);
  EXPECT_GT(mv.accuracy, single.accuracy);
  EXPECT_GT(bon.accuracy, mv.accuracy - 0.03);
}

TEST(MajorityVoteTest, TieGoesToTheFirstDrawnAnswer) {
  // Two samples of one task: find seeds whose first draw is wrong and whose second is
  // right (a 1-1 tie), and the reverse, by replaying the method's draws — the attempt's
  // skill, then each sample's path. The first-drawn answer must win either way, so the
  // wrong-first tie is unsolved although the correct answer sorts first.
  TaskSet tasks{Dataset::kGsm8k, {}};
  ReasoningTask task;
  task.difficulty = 0.0;
  task.num_steps = 4;
  task.answer = 7;
  tasks.tasks.push_back(task);
  const double theta = 0.0;
  std::vector<bool> found(2, false);
  for (uint64_t seed = 1; seed < 1000 && !(found[0] && found[1]); ++seed) {
    Rng replay(seed);
    const double trial_theta = theta + kTrialSkillSd * replay.NextGaussian();
    const SamplePath first = SamplePolicyPath(task, trial_theta, replay);
    const SamplePath second = SamplePolicyPath(task, trial_theta, replay);
    if (first.correct == second.correct) {
      continue;
    }
    SCOPED_TRACE(seed);
    found[first.correct ? 1 : 0] = true;
    Rng rng(seed);
    const MethodResult r = RunMajorityVote(tasks, theta, /*n=*/2, /*trials=*/1, rng);
    EXPECT_EQ(r.oracle_accuracy, 1.0);
    EXPECT_EQ(r.accuracy, first.correct ? 1.0 : 0.0);
  }
  EXPECT_TRUE(found[0] && found[1]);
}

TEST_F(TtsAlgoTest, BeamSearchBeatsBestOfNPerBudget) {
  // Figure 10 bottom row: step-level pruning extracts more accuracy from the same budget.
  const OutcomeRewardModel orm;
  const ProcessRewardModel prm;
  const auto bon = RunBestOfN(tasks_, theta_, orm, 16, 10, rng_);
  const auto beam = RunBeamSearch(tasks_, theta_, prm, 16, 4, 10, rng_);
  EXPECT_EQ(beam.batch, 16);
  EXPECT_GT(beam.accuracy, bon.accuracy - 0.05);
}

TEST_F(TtsAlgoTest, TokensScaleWithBudget) {
  const OutcomeRewardModel orm;
  const auto r4 = RunBestOfN(tasks_, theta_, orm, 4, 2, rng_);
  const auto r16 = RunBestOfN(tasks_, theta_, orm, 16, 2, rng_);
  EXPECT_NEAR(r16.avg_total_tokens / r4.avg_total_tokens, 4.0, 0.2);
  EXPECT_NEAR(r16.avg_seq_tokens, r4.avg_seq_tokens, 1.0);  // sequential depth unchanged
}

TEST_F(TtsAlgoTest, SampledBaseAccuracyMatchesMarginalizedModel) {
  const auto single = RunSingleSample(tasks_, theta_, 20, rng_);
  const double predicted = CapabilityModel::MeanAccuracy(tasks_, theta_);
  EXPECT_NEAR(single.accuracy, predicted, 0.03);
}

TEST(TtsSamplingTest, SingleSampleIsMajorityVoteOfOne) {
  // Same draws in the same order, the same jobs, and every field equal: one sample's vote
  // is its own answer, correct exactly when the path is.
  const TaskSet tasks = GenerateTaskSet(Dataset::kMath500, 120, 5);
  for (const uint64_t seed : {11ull, 29ull}) {
    Rng rng_single(seed);
    Rng rng_vote(seed);
    std::vector<hserve::ServeJob> jobs_single;
    std::vector<hserve::ServeJob> jobs_vote;
    const MethodResult single = RunSingleSample(tasks, 0.4, 3, rng_single, &jobs_single);
    const MethodResult vote = RunMajorityVote(tasks, 0.4, 1, 3, rng_vote, &jobs_vote);
    EXPECT_EQ(single.accuracy, vote.accuracy) << seed;
    EXPECT_EQ(single.oracle_accuracy, vote.oracle_accuracy) << seed;
    EXPECT_EQ(single.avg_seq_tokens, vote.avg_seq_tokens) << seed;
    EXPECT_EQ(single.avg_total_tokens, vote.avg_total_tokens) << seed;
    EXPECT_EQ(single.batch, vote.batch) << seed;
    EXPECT_EQ(single.accuracy, single.oracle_accuracy) << seed;
    EXPECT_EQ(rng_single.NextU64(), rng_vote.NextU64()) << seed;  // same number of draws
    ASSERT_EQ(jobs_single.size(), 3u * tasks.tasks.size());
    ASSERT_EQ(jobs_single.size(), jobs_vote.size());
    for (size_t i = 0; i < jobs_single.size(); ++i) {
      const hserve::ServeJob& a = jobs_single[i];
      const hserve::ServeJob& b = jobs_vote[i];
      EXPECT_EQ(std::tie(a.id, a.prompt_group, a.prompt_tokens, a.context_tokens,
                         a.decode_tokens, a.barrier, a.parent_job),
                std::tie(b.id, b.prompt_group, b.prompt_tokens, b.context_tokens,
                         b.decode_tokens, b.barrier, b.parent_job))
          << seed << " job " << i;
    }
  }
}

// --- Pareto sweep (Figure 10) ---

TEST(ParetoTest, SmallModelWithTtsBeatsLargeModelBase) {
  // The headline: Qwen2.5-1.5B + Best-of-16 reaches higher MATH500 accuracy than the 3B
  // model decoded conventionally, at lower per-token latency.
  ParetoSweepOptions opts;
  opts.device = &hexsim::OnePlus12();
  opts.models = {&hllm::Qwen25_1_5B(), &hllm::Qwen25_3B()};
  opts.budgets = {16};
  opts.tasks = 400;
  opts.trials = 6;
  const auto points = SweepPareto(Cap(), opts);

  const ParetoPoint* small_scaled = nullptr;
  const ParetoPoint* large_base = nullptr;
  for (const auto& p : points) {
    if (p.model == hllm::Qwen25_1_5B().name && p.method == TtsMethod::kBestOfN &&
        p.budget == 16) {
      small_scaled = &p;
    }
    if (p.model == hllm::Qwen25_3B().name && p.method == TtsMethod::kBase) {
      large_base = &p;
    }
  }
  ASSERT_NE(small_scaled, nullptr);
  ASSERT_NE(large_base, nullptr);
  EXPECT_GT(small_scaled->accuracy, large_base->accuracy);
  EXPECT_LT(small_scaled->latency_per_token_s, 1.2 * large_base->latency_per_token_s);
}

TEST(ParetoTest, SpeculativeAxisKeepsBaseAccuracyAtLowerCost) {
  // The §9 generate-then-verify point: with a draft configured, every swept model gains a
  // kSpeculative point that is lossless (base accuracy, bit-for-bit the same stream) and
  // sits left of base on the cost axis.
  ParetoSweepOptions opts;
  opts.device = &hexsim::OnePlus12();
  opts.models = {&hllm::Qwen25_7B()};
  opts.budgets = {};
  opts.tasks = 100;
  opts.trials = 2;
  opts.spec_draft = &hllm::Qwen25_0_5B();
  opts.spec_gamma = 4;
  const auto points = SweepPareto(Cap(), opts);

  const ParetoPoint* base = nullptr;
  const ParetoPoint* spec = nullptr;
  for (const auto& p : points) {
    if (p.method == TtsMethod::kBase) {
      base = &p;
    }
    if (p.method == TtsMethod::kSpeculative) {
      spec = &p;
    }
  }
  ASSERT_NE(base, nullptr);
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->runnable);
  EXPECT_EQ(spec->spec_draft, hllm::Qwen25_0_5B().name);
  EXPECT_GT(spec->spec_acceptance, 0.5);
  EXPECT_LE(spec->spec_acceptance, 0.88);
  EXPECT_DOUBLE_EQ(spec->accuracy, base->accuracy);   // lossless: same stream, same answers
  EXPECT_LT(spec->makespan_s, base->makespan_s);      // but cheaper to decode
  EXPECT_LT(spec->energy_per_token_j, base->energy_per_token_j);
}

TEST(ParetoTest, V73SkipsThreeBillionModels) {
  ParetoSweepOptions opts;
  opts.device = &hexsim::OnePlusAce3();
  opts.models = {&hllm::Qwen25_3B()};
  opts.budgets = {4};
  opts.tasks = 50;
  opts.trials = 1;
  const auto points = SweepPareto(Cap(), opts);
  for (const auto& p : points) {
    EXPECT_FALSE(p.runnable);
  }
}

TEST(ParetoTest, FrontierDetection) {
  std::vector<ParetoPoint> pts(3);
  pts[0].accuracy = 0.3;
  pts[0].latency_per_token_s = 0.05;
  pts[1].accuracy = 0.4;
  pts[1].latency_per_token_s = 0.06;
  pts[2].accuracy = 0.35;
  pts[2].latency_per_token_s = 0.07;  // dominated by pts[1]
  EXPECT_TRUE(OnParetoFrontier(pts[0], pts));
  EXPECT_TRUE(OnParetoFrontier(pts[1], pts));
  EXPECT_FALSE(OnParetoFrontier(pts[2], pts));
}

TEST(ParetoTest, EnergyCostGivesSimilarTradeoffShape) {
  // §7.2.3: replacing latency with energy preserves the trade-off characteristics.
  ParetoSweepOptions opts;
  opts.device = &hexsim::OnePlus12();
  opts.models = {&hllm::Qwen25_1_5B(), &hllm::Qwen25_3B()};
  opts.budgets = {8};
  opts.tasks = 300;
  opts.trials = 4;
  const auto points = SweepPareto(Cap(), opts);
  const ParetoPoint* small_scaled = nullptr;
  const ParetoPoint* large_base = nullptr;
  for (const auto& p : points) {
    if (p.model == hllm::Qwen25_1_5B().name && p.method == TtsMethod::kBestOfN) {
      small_scaled = &p;
    }
    if (p.model == hllm::Qwen25_3B().name && p.method == TtsMethod::kBase) {
      large_base = &p;
    }
  }
  ASSERT_NE(small_scaled, nullptr);
  ASSERT_NE(large_base, nullptr);
  EXPECT_LT(small_scaled->energy_per_token_j, large_base->energy_per_token_j);
}

}  // namespace
}  // namespace htts
