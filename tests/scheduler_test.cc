#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/serving/continuous_batcher.h"
#include "src/tts/tts.h"

namespace hrt {
namespace {

using htts::MakeSampleJobs;
using htts::SampleJob;

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    options_.model = &hllm::Qwen25_1_5B();
    options_.device = &hexsim::OnePlus12();
    engine_ = std::make_unique<Engine>(options_);
  }

  // Runs a legacy sample-job stream through the serving runtime: each job decodes from a
  // fixed uncharged starting context, under the requested slot-reclamation policy.
  hserve::ScheduleResult Schedule(const std::vector<SampleJob>& jobs, int max_batch,
                                  int context, hserve::SchedulePolicy policy) {
    hserve::AnalyticBackend backend(*engine_);
    hserve::ServeOptions so;
    so.max_batch = max_batch;
    so.policy = policy;
    std::vector<hserve::ServeJob> serve_jobs;
    serve_jobs.reserve(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
      hserve::ServeJob sj;
      sj.id = static_cast<int>(j);
      sj.context_tokens = context;
      sj.decode_tokens = jobs[j].total_tokens;
      serve_jobs.push_back(sj);
    }
    hserve::ScheduleResult r = hserve::ContinuousBatcher(backend, so).Run(serve_jobs);
    EXPECT_TRUE(r.error.empty()) << r.error;
    return r;
  }

  hserve::ScheduleResult Static(const std::vector<SampleJob>& jobs, int max_batch,
                                int context) {
    return Schedule(jobs, max_batch, context, hserve::SchedulePolicy::kStaticWaves);
  }
  hserve::ScheduleResult Continuous(const std::vector<SampleJob>& jobs, int max_batch,
                                    int context) {
    return Schedule(jobs, max_batch, context, hserve::SchedulePolicy::kContinuous);
  }

  EngineOptions options_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(SchedulerTest, JobGeneratorRespectsBounds) {
  hexllm::Rng rng(1);
  const auto jobs = MakeSampleJobs(10, 8, 256, rng);
  EXPECT_EQ(jobs.size(), 80u);
  for (const auto& j : jobs) {
    EXPECT_GE(j.total_tokens, 16);
    EXPECT_LE(j.total_tokens, 1024);
  }
  // Lengths are dispersed, not constant.
  int min_len = 1 << 30, max_len = 0;
  for (const auto& j : jobs) {
    min_len = std::min(min_len, j.total_tokens);
    max_len = std::max(max_len, j.total_tokens);
  }
  EXPECT_GT(max_len, min_len + 50);
}

TEST_F(SchedulerTest, JobGeneratorIsDeterministicForFixedSeed) {
  hexllm::Rng a(77);
  hexllm::Rng b(77);
  const auto ja = MakeSampleJobs(5, 6, 128, a);
  const auto jb = MakeSampleJobs(5, 6, 128, b);
  ASSERT_EQ(ja.size(), 30u);
  ASSERT_EQ(jb.size(), 30u);
  for (size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].id, jb[i].id);
    EXPECT_EQ(ja[i].total_tokens, jb[i].total_tokens);
  }
  // Different seeds draw different lengths.
  hexllm::Rng c(78);
  const auto jc = MakeSampleJobs(5, 6, 128, c);
  bool any_diff = false;
  for (size_t i = 0; i < ja.size(); ++i) {
    any_diff |= ja[i].total_tokens != jc[i].total_tokens;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(SchedulerTest, JobGeneratorClampsAtTheMinimumMean) {
  // mean_tokens = 16 squeezes the clamp window to [16, 64]; the lognormal tail must not
  // escape it.
  hexllm::Rng rng(9);
  const auto jobs = MakeSampleJobs(25, 4, 16, rng);
  EXPECT_EQ(jobs.size(), 100u);
  for (const auto& j : jobs) {
    EXPECT_GE(j.total_tokens, 16);
    EXPECT_LE(j.total_tokens, 64);
  }
  // IDs are dense and ordered.
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<int>(i));
  }
}

TEST_F(SchedulerTest, ContinuousNeverSlowerThanStatic) {
  hexllm::Rng rng(2);
  const auto jobs = MakeSampleJobs(6, 8, 200, rng);
  for (int max_batch : {4, 8, 16}) {
    const auto st = Static(jobs, max_batch, 512);
    const auto ct = Continuous(jobs, max_batch, 512);
    EXPECT_LE(ct.makespan_s, st.makespan_s * 1.0001) << max_batch;
    EXPECT_GE(ct.tokens_per_second, st.tokens_per_second * 0.9999) << max_batch;
  }
}

TEST_F(SchedulerTest, ContinuousBeatsStaticWithDispersedLengths) {
  hexllm::Rng rng(3);
  const auto jobs = MakeSampleJobs(8, 8, 300, rng);
  const auto st = Static(jobs, 8, 512);
  const auto ct = Continuous(jobs, 8, 512);
  EXPECT_GT(ct.tokens_per_second, st.tokens_per_second * 1.05);
  EXPECT_LT(st.slot_utilization, 0.95);
  EXPECT_DOUBLE_EQ(ct.slot_utilization, 1.0);
}

TEST_F(SchedulerTest, UniformLengthsMakeSchedulersEquivalent) {
  // With identical job lengths there is no padding to reclaim.
  std::vector<SampleJob> jobs(16);
  for (int i = 0; i < 16; ++i) {
    jobs[static_cast<size_t>(i)] = {i, 100};
  }
  const auto st = Static(jobs, 8, 512);
  const auto ct = Continuous(jobs, 8, 512);
  EXPECT_NEAR(ct.makespan_s, st.makespan_s, st.makespan_s * 1e-9);
  EXPECT_NEAR(st.slot_utilization, 1.0, 1e-12);
}

TEST_F(SchedulerTest, StepCountsAreConsistent) {
  hexllm::Rng rng(4);
  const auto jobs = MakeSampleJobs(4, 4, 128, rng);
  const auto ct = Continuous(jobs, 4, 256);
  int64_t total_tokens = 0;
  int longest = 0;
  for (const auto& j : jobs) {
    total_tokens += j.total_tokens;
    longest = std::max(longest, j.total_tokens);
  }
  // Steps at least ceil(total/maxbatch) and at least the longest single job.
  EXPECT_GE(ct.steps, (total_tokens + 3) / 4);
  EXPECT_GE(ct.steps, longest);
  EXPECT_LE(ct.avg_active_batch, 4.0);
}

}  // namespace
}  // namespace hrt
