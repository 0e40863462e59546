// Tests for the request-serving frontend (src/frontend) and the batcher's live
// Submit/Step/pause/resume machinery it drives.
//
// The centerpiece is pause/resume bit-identity: a decode preempted mid-stream and later
// resumed from its retained paged KV must reproduce the un-preempted run token-for-token
// AND block-for-block — including under stochastic sampling, where the per-slot Rng
// snapshot is what carries the sampler state across the pause.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/frontend/request.h"
#include "src/frontend/serving_engine.h"
#include "src/frontend/traffic.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/llm/model_config.h"
#include "src/llm/weights.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"

namespace hfront {
namespace {

using hserve::ContinuousBatcher;
using hserve::FunctionalBackend;
using hserve::ServeJob;
using hserve::ServeOptions;
using hserve::StepEvents;

uint64_t Fnv(const std::vector<int>& tokens) {
  uint64_t h = 14695981039346656037ull;
  for (const int t : tokens) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(t))) * 1099511628211ull;
  }
  return h;
}

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest()
      : config_(hllm::ToyConfig()), weights_(hllm::ModelWeights::Random(config_, 42)) {}

  std::unique_ptr<FunctionalBackend> MakeBackend(int max_batch, int max_context = 96) {
    devs_.push_back(std::make_unique<hexsim::NpuDevice>(hexsim::OnePlus12()));
    return std::make_unique<FunctionalBackend>(*devs_.back(), weights_, max_batch,
                                               max_context);
  }

  hllm::ModelConfig config_;
  hllm::ModelWeights weights_;
  std::vector<std::unique_ptr<hexsim::NpuDevice>> devs_;
};

// Drives the batcher until drained, collecting each job's streamed tokens.
std::map<int, std::vector<int>> Drain(ContinuousBatcher& b) {
  std::map<int, std::vector<int>> tokens;
  while (b.HasWork()) {
    const StepEvents ev = b.Step();
    for (const auto& t : ev.tokens) {
      tokens[t.job_id].push_back(t.token);
    }
    if (!ev.stepped) {
      break;
    }
  }
  return tokens;
}

TEST_F(FrontendTest, PauseResumeIsBitIdenticalToUnpreemptedRun) {
  ServeJob job;
  job.id = 7;
  job.prompt_tokens = 11;
  job.decode_tokens = 10;
  // Stochastic sampling makes this a strong test: the resumed stream only matches if the
  // sampler Rng state survives the pause exactly.
  job.sampler.temperature = 0.8f;
  job.sampler.top_k = 16;
  job.seed = 123;

  ServeOptions so;
  so.max_batch = 2;

  // Baseline: never preempted.
  auto be_a = MakeBackend(so.max_batch);
  ContinuousBatcher a(*be_a, so);
  ASSERT_TRUE(a.Submit(job));
  const auto base_tokens = Drain(a);
  const auto base_r = a.Finish();
  ASSERT_TRUE(base_r.error.empty()) << base_r.error;

  // Preempted mid-stream: 4 tokens, pause (slot freed, KV resident, job requeued), resume
  // on the next step, finish.
  auto be_b = MakeBackend(so.max_batch);
  ContinuousBatcher b(*be_b, so);
  ASSERT_TRUE(b.Submit(job));
  std::vector<int> got;
  for (int i = 0; i < 4; ++i) {
    const StepEvents ev = b.Step();
    ASSERT_TRUE(ev.stepped);
    for (const auto& t : ev.tokens) {
      got.push_back(t.token);
    }
  }
  ASSERT_TRUE(b.PauseJob(job.id));
  EXPECT_EQ(b.job_state(job.id), hserve::JobState::kPaused);
  EXPECT_EQ(b.free_slots(), so.max_batch);
  while (b.HasWork()) {
    const StepEvents ev = b.Step();
    ASSERT_TRUE(ev.stepped);
    for (const auto& t : ev.tokens) {
      got.push_back(t.token);
    }
  }
  const auto r = b.Finish();
  ASSERT_TRUE(r.error.empty()) << r.error;

  EXPECT_EQ(got, base_tokens.at(job.id));
  EXPECT_EQ(Fnv(got), Fnv(base_tokens.at(job.id)));
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_EQ(r.resumes, 1);
  // KV block accounting matches the un-preempted run exactly: the pause keeps pages
  // resident behind a handle and the resume's handle drop restores exclusive tail
  // ownership, so no extra blocks and no copy-on-write splits.
  EXPECT_EQ(r.kv.physical_blocks, base_r.kv.physical_blocks);
  EXPECT_EQ(r.kv.logical_blocks, base_r.kv.logical_blocks);
  EXPECT_EQ(r.kv.peak_physical_blocks, base_r.kv.peak_physical_blocks);
  EXPECT_EQ(r.kv.cow_splits, base_r.kv.cow_splits);
  EXPECT_EQ(r.decoded_tokens, base_r.decoded_tokens);
}

TEST_F(FrontendTest, HighPriorityArrivalPreemptsAndVictimResumesIdentically) {
  ServeJob low;
  low.id = 0;
  low.prompt_tokens = 9;
  low.decode_tokens = 12;
  low.seed = 5;
  ServeJob high;
  high.id = 1;
  high.prompt_tokens = 6;
  high.decode_tokens = 3;
  high.priority = 2;

  ServeOptions so;
  so.max_batch = 1;
  so.enable_preemption = true;

  // Baseline for the victim: the same job decoding alone, uncontended.
  auto be_solo = MakeBackend(1);
  ContinuousBatcher solo(*be_solo, so);
  ASSERT_TRUE(solo.Submit(low));
  const auto solo_tokens = Drain(solo);
  (void)solo.Finish();

  auto be = MakeBackend(1);
  ContinuousBatcher b(*be, so);
  ASSERT_TRUE(b.Submit(low));
  std::map<int, std::vector<int>> tokens;
  for (int i = 0; i < 5; ++i) {
    for (const auto& t : b.Step().tokens) {
      tokens[t.job_id].push_back(t.token);
    }
  }
  // The latency-critical request lands: with the one slot busy, its admission pauses the
  // running decode (KV stays resident) and prefills in its place.
  ASSERT_TRUE(b.Submit(high));
  const StepEvents ev = b.Step();
  ASSERT_EQ(ev.paused.size(), 1u);
  EXPECT_EQ(ev.paused[0], low.id);
  ASSERT_EQ(ev.admitted.size(), 1u);
  EXPECT_EQ(ev.admitted[0], high.id);
  EXPECT_EQ(b.job_state(low.id), hserve::JobState::kPaused);
  for (const auto& t : ev.tokens) {
    tokens[t.job_id].push_back(t.token);
  }
  for (const auto& [id, toks] : Drain(b)) {
    auto& dst = tokens[id];
    dst.insert(dst.end(), toks.begin(), toks.end());
  }
  const auto r = b.Finish();
  ASSERT_TRUE(r.error.empty()) << r.error;

  EXPECT_EQ(r.preemptions, 1);
  EXPECT_EQ(r.resumes, 1);
  EXPECT_EQ(tokens.at(high.id).size(), 3u);
  // The victim's full stream is exactly its uncontended decode.
  EXPECT_EQ(tokens.at(low.id), solo_tokens.at(low.id));
  EXPECT_EQ(b.job_state(low.id), hserve::JobState::kDone);
}

TEST_F(FrontendTest, SessionFollowUpTurnsReprefillOnlyTheNewTurn) {
  // A 3-turn dialog: every follow-up forks the prior turn's retained KV, so the charged
  // prefill is the sum of the turn prompts only — never the accumulated dialog.
  std::vector<Request> trace(3);
  for (int turn = 0; turn < 3; ++turn) {
    Request& r = trace[static_cast<size_t>(turn)];
    r.id = turn;
    r.session = 0;
    r.turn_index = turn;
    r.arrival_s = turn == 0 ? 0.0 : 0.25;  // think time for follow-ups
    r.prompt_tokens = 7 + turn;
    r.decode_tokens = 5;
    r.seed = 77u + static_cast<uint64_t>(turn);
  }

  ServeOptions so;
  so.max_batch = 2;
  auto be = MakeBackend(so.max_batch, /*max_context=*/96);
  ContinuousBatcher b(*be, so);
  ServingEngine engine(b);
  const EngineSummary s = engine.Run(trace);
  ASSERT_TRUE(s.schedule.error.empty()) << s.schedule.error;

  EXPECT_EQ(s.schedule.prefilled_tokens, 7 + 8 + 9);
  EXPECT_EQ(s.schedule.forked_admissions, 2);
  ASSERT_EQ(s.requests.size(), 3u);
  for (int turn = 0; turn < 3; ++turn) {
    const RequestStats& st = s.requests[static_cast<size_t>(turn)];
    EXPECT_TRUE(st.done);
    EXPECT_EQ(st.tokens, 5);
    if (turn > 0) {
      // The follow-up arrives exactly think-time after the prior turn's completion.
      EXPECT_DOUBLE_EQ(st.arrival_s,
                       s.requests[static_cast<size_t>(turn - 1)].done_s + 0.25);
    }
  }
  // Turn KV is chained, not recomputed: the dialog's logical footprint exceeds a single
  // turn's, and the think-time gaps are accounted as idle, not decode.
  EXPECT_GT(s.schedule.idle_s, 0.0);

  // The whole engine pipeline is deterministic: a second run over a fresh backend matches
  // checksum-for-checksum and timestamp-for-timestamp.
  auto be2 = MakeBackend(so.max_batch, 96);
  ContinuousBatcher b2(*be2, so);
  ServingEngine engine2(b2);
  const EngineSummary s2 = engine2.Run(trace);
  ASSERT_TRUE(s2.schedule.error.empty()) << s2.schedule.error;
  for (size_t i = 0; i < s.requests.size(); ++i) {
    EXPECT_EQ(s.requests[i].checksum, s2.requests[i].checksum);
    EXPECT_DOUBLE_EQ(s.requests[i].done_s, s2.requests[i].done_s);
  }
}

TEST_F(FrontendTest, TrafficGeneratorIsSeedDeterministic) {
  TrafficOptions o;
  o.arrivals = 24;
  o.seed = 9;
  o.burst_fraction = 0.3;
  o.interactive_fraction = 0.4;
  o.session_fraction = 0.3;
  o.session_turns = 3;
  const std::vector<Request> a = GenerateTraffic(o);
  const std::vector<Request> b = GenerateTraffic(o);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GE(a.size(), 24u);  // sessions append follow-up turns
  bool any_session = false;
  bool any_interactive = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
    EXPECT_EQ(a[i].decode_tokens, b[i].decode_tokens);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].priority, b[i].priority);
    any_session = any_session || a[i].session >= 0;
    any_interactive = any_interactive || a[i].priority > 0;
  }
  EXPECT_TRUE(any_session);
  EXPECT_TRUE(any_interactive);

  o.seed = 10;
  const std::vector<Request> c = GenerateTraffic(o);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival_s != c[i].arrival_s || a[i].prompt_tokens != c[i].prompt_tokens;
  }
  EXPECT_TRUE(differs);
}

TEST_F(FrontendTest, LongContextTrafficIsGatedAndDrawsLongPrompts) {
  // Default options (fraction 0) must keep traces byte-identical to the pre-knob
  // generator: the long-context draw may not consume RNG state when gated off.
  TrafficOptions base;
  base.arrivals = 32;
  base.seed = 13;
  base.session_fraction = 0.25;
  const std::vector<Request> legacy = GenerateTraffic(base);
  TrafficOptions gated = base;
  gated.long_context_fraction = 0.0;
  gated.mean_long_prompt_tokens = 1 << 20;  // would be obvious if it leaked
  const std::vector<Request> same = GenerateTraffic(gated);
  ASSERT_EQ(legacy.size(), same.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].prompt_tokens, same[i].prompt_tokens);
    EXPECT_EQ(legacy[i].arrival_s, same[i].arrival_s);
    EXPECT_EQ(legacy[i].seed, same[i].seed);
  }

  // Turned on, a fraction of arrivals draw document-scale prompts (floored well above the
  // short-prompt regime) while the rest keep short ones.
  TrafficOptions lo = base;
  lo.long_context_fraction = 0.5;
  lo.mean_long_prompt_tokens = 8192;
  lo.min_long_prompt_tokens = 1024;
  const std::vector<Request> mixed = GenerateTraffic(lo);
  int long_reqs = 0;
  int short_reqs = 0;
  for (const Request& r : mixed) {
    if (r.prompt_tokens >= lo.min_long_prompt_tokens) {
      ++long_reqs;
    } else {
      ++short_reqs;
    }
  }
  EXPECT_GT(long_reqs, 0);
  EXPECT_GT(short_reqs, 0);
}

TEST_F(FrontendTest, EngineServesBurstyTrafficDeterministicallyWithPreemption) {
  TrafficOptions o;
  o.arrivals = 10;
  o.seed = 21;
  o.arrival_rate_hz = 50.0;  // compressed arrivals force queueing and preemption
  o.burst_fraction = 0.5;
  o.burst_size = 3;
  o.interactive_fraction = 0.4;
  o.interactive_slo = {0.5, 0.2};
  o.mean_prompt_tokens = 16;
  o.min_prompt_tokens = 4;
  o.mean_decode_tokens = 12;
  o.min_decode_tokens = 4;
  const std::vector<Request> trace = GenerateTraffic(o);

  ServeOptions so;
  so.max_batch = 2;
  so.enable_preemption = true;

  const auto run = [&](FunctionalBackend& backend) {
    ContinuousBatcher b(backend, so);
    ServingEngine engine(b);
    return engine.Run(trace);
  };
  auto be1 = MakeBackend(so.max_batch, 256);
  const EngineSummary s1 = run(*be1);
  ASSERT_TRUE(s1.schedule.error.empty()) << s1.schedule.error;
  auto be2 = MakeBackend(so.max_batch, 256);
  const EngineSummary s2 = run(*be2);

  int64_t done = 0;
  for (size_t i = 0; i < s1.requests.size(); ++i) {
    EXPECT_EQ(s1.requests[i].checksum, s2.requests[i].checksum);
    EXPECT_EQ(s1.requests[i].tokens, s2.requests[i].tokens);
    EXPECT_DOUBLE_EQ(s1.requests[i].first_token_s, s2.requests[i].first_token_s);
    EXPECT_EQ(s1.requests[i].preemptions, s2.requests[i].preemptions);
    done += s1.requests[i].done ? 1 : 0;
  }
  EXPECT_EQ(done, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(s1.schedule.preemptions, s2.schedule.preemptions);
  EXPECT_GT(s1.schedule.preemptions, 0);
  EXPECT_EQ(s1.schedule.resumes, s1.schedule.preemptions);
  EXPECT_GT(s1.slo_total, 0);
  EXPECT_GT(s1.goodput_tps, 0.0);

  // The run's metrics snapshot carries the frontend's latency histograms, with one
  // observation per completed request.
  const obs::HistogramSample* ttft = s1.schedule.metrics.FindHistogram("serve.ttft_seconds");
  ASSERT_NE(ttft, nullptr);
  EXPECT_EQ(ttft->count, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(s1.schedule.metrics.CounterValue("serve.preemptions"),
            s1.schedule.preemptions);
  EXPECT_EQ(s1.schedule.metrics.CounterValue("serve.resumes"), s1.schedule.resumes);
}

TEST_F(FrontendTest, PercentileHelper) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({3.0, 1.0, 2.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, 0.5), 1.5);
}

}  // namespace
}  // namespace hfront
