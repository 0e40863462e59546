// Tests for the fleet-scale serving simulation (src/fleet, docs/fleet.md): the thermal
// throttle model, the router policies, the prefix registry's refcount/eviction invariants,
// pinned prompt-anchor reuse, and end-to-end multi-device runs — including the headline
// contrast (session-affine routing + prefix registry beats round-robin on follow-up-turn
// latency and fleet KV footprint) and bit-identical reruns.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fleet/fleet.h"
#include "src/fleet/throttled_backend.h"
#include "src/frontend/serving_engine.h"
#include "src/frontend/traffic.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/hexsim/thermal.h"
#include "src/llm/model_config.h"
#include "src/llm/weights.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"

namespace hfleet {
namespace {

// ---------------------------------------------------------------------------------------
// Thermal model

TEST(ThermalTest, HeatsUnderLoadAndCoolsWhenIdleTowardAmbient) {
  hexsim::ThermalParams p;
  hexsim::ThermalState t(p);
  EXPECT_DOUBLE_EQ(t.temperature_c(), p.ambient_c);
  EXPECT_DOUBLE_EQ(t.clock_scale(), 1.0);
  t.AddBusy(1.0);
  const double hot1 = t.temperature_c();
  EXPECT_GT(hot1, p.ambient_c);
  t.AddBusy(1.0);
  EXPECT_GT(t.temperature_c(), hot1);  // heating is monotone in busy time
  t.AddIdle(0.5);
  EXPECT_LT(t.temperature_c(), hot1 + p.heat_c_per_busy_s);
  t.AddIdle(1e9);
  EXPECT_DOUBLE_EQ(t.temperature_c(), p.ambient_c);  // cooling floors at ambient
}

TEST(ThermalTest, ClockScaleIsMonotoneNonIncreasingAndBounded) {
  hexsim::ThermalParams p;
  hexsim::ThermalState t(p);
  double prev = t.clock_scale();
  double min_seen = prev;
  for (int i = 0; i < 40; ++i) {
    t.AddBusy(0.5);
    const double s = t.clock_scale();
    EXPECT_LE(s, prev + 1e-12);  // more accumulated heat never raises the clock
    EXPECT_GE(s, p.min_clock_scale);
    EXPECT_LE(s, 1.0);
    prev = s;
    min_seen = std::min(min_seen, s);
  }
  EXPECT_LT(min_seen, 1.0);  // 20 sustained busy seconds must throttle
  EXPECT_DOUBLE_EQ(t.min_scale_reached(), min_seen);
  // Past throttle_full_c the scale clamps at the floor.
  t.AddBusy(1e3);
  EXPECT_DOUBLE_EQ(t.clock_scale(), p.min_clock_scale);
  // Recovery: cooling back below throttle_start_c restores the full clock, but the
  // lifetime minimum stays recorded.
  t.AddIdle(1e9);
  EXPECT_DOUBLE_EQ(t.clock_scale(), 1.0);
  EXPECT_DOUBLE_EQ(t.min_scale_reached(), p.min_clock_scale);
}

// ---------------------------------------------------------------------------------------
// Throttled backend

class FleetFixture : public ::testing::Test {
 protected:
  FleetFixture()
      : config_(hllm::ToyConfig()),
        weights_(hllm::ModelWeights::Random(config_, 42)),
        draft_weights_(hllm::ModelWeights::Random(config_, 7)) {}

  // `speculative` gives the backend a draft model (gamma 3).
  std::unique_ptr<hserve::FunctionalBackend> MakeBackend(int max_batch,
                                                         int max_context = 256,
                                                         bool speculative = false) {
    devs_.push_back(std::make_unique<hexsim::NpuDevice>(hexsim::OnePlus12()));
    hserve::FunctionalBackend::Options options;
    options.draft = speculative ? &draft_weights_ : nullptr;
    options.gamma = 3;
    return std::make_unique<hserve::FunctionalBackend>(*devs_.back(), weights_, max_batch,
                                                       max_context, options);
  }

  // Four jobs of 8 prompt and `decode` tokens, drafting when `speculative`.
  static std::vector<hserve::ServeJob> Jobs(int decode, bool speculative) {
    std::vector<hserve::ServeJob> jobs;
    for (int i = 0; i < 4; ++i) {
      hserve::ServeJob j;
      j.id = i;
      j.prompt_tokens = 8;
      j.decode_tokens = decode;
      j.speculative = speculative;
      jobs.push_back(j);
    }
    return jobs;
  }

  hllm::ModelConfig config_;
  hllm::ModelWeights weights_;
  hllm::ModelWeights draft_weights_;
  std::vector<std::unique_ptr<hexsim::NpuDevice>> devs_;
};

TEST_F(FleetFixture, ThrottlingDilatesTimeButPreservesTokensAndEnergy) {
  hexsim::ThermalParams aggressive;
  aggressive.heat_c_per_busy_s = 1e7;  // throttles to the floor almost immediately
  const auto run = [&](bool thermal, bool speculative) {
    auto inner = MakeBackend(2, 256, speculative);
    ThrottledBackend backend(*inner, aggressive, thermal);
    hserve::ServeOptions so;
    so.max_batch = 2;
    return hserve::ContinuousBatcher(backend, so).Run(Jobs(12, speculative));
  };
  // Plain decode steps and speculative cycles both go through the throttle.
  for (const bool speculative : {false, true}) {
    SCOPED_TRACE(speculative ? "speculative" : "plain");
    const hserve::ScheduleResult cool = run(false, speculative);
    const hserve::ScheduleResult hot = run(true, speculative);
    ASSERT_TRUE(cool.error.empty()) << cool.error;
    ASSERT_TRUE(hot.error.empty()) << hot.error;
    // Same work decoded, token-for-token, in the same cycles.
    EXPECT_EQ(hot.decoded_tokens, cool.decoded_tokens);
    ASSERT_EQ(hot.job_tokens.size(), cool.job_tokens.size());
    for (size_t j = 0; j < hot.job_tokens.size(); ++j) {
      EXPECT_EQ(hot.job_tokens[j], cool.job_tokens[j]) << "job " << j;
    }
    EXPECT_EQ(hot.spec_cycles, cool.spec_cycles);
    EXPECT_EQ(cool.spec_cycles > 0, speculative);
    // Throttled clocks stretch the makespan toward 1/min_clock_scale...
    EXPECT_GT(hot.makespan_s, cool.makespan_s * 1.5);
    EXPECT_LE(hot.makespan_s, cool.makespan_s / aggressive.min_clock_scale * 1.0001);
    // ...but DVFS trades latency, not joules: each step's energy is clock-invariant.
    EXPECT_NEAR(hot.energy_j, cool.energy_j, cool.energy_j * 1e-9);
  }
}

TEST_F(FleetFixture, DisabledThrottleIsTransparent) {
  auto inner = MakeBackend(2);
  hexsim::ThermalParams p;
  ThrottledBackend backend(*inner, p, /*enabled=*/false);
  backend.AddIdle(100.0);
  EXPECT_DOUBLE_EQ(backend.clock_scale(), 1.0);
  EXPECT_DOUBLE_EQ(backend.min_scale_reached(), 1.0);
  hserve::ServeOptions so;
  so.max_batch = 2;
  hserve::ServeJob j;
  j.id = 0;
  j.prompt_tokens = 8;
  j.decode_tokens = 6;
  const hserve::ScheduleResult r = hserve::ContinuousBatcher(backend, so).Run({j});
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.decoded_tokens, 6);
  EXPECT_DOUBLE_EQ(backend.clock_scale(), 1.0);  // no heat accumulated

  // A speculative backend behind a disabled throttle schedules exactly like the bare
  // backend: same cycles, same clock, same energy, same tokens.
  const auto run_spec = [&](bool wrapped) {
    auto spec_inner = MakeBackend(2, 256, /*speculative=*/true);
    ThrottledBackend throttled(*spec_inner, p, /*enabled=*/false);
    hserve::ExecutionBackend& b = wrapped ? static_cast<hserve::ExecutionBackend&>(throttled)
                                          : *spec_inner;
    return hserve::ContinuousBatcher(b, so).Run(Jobs(10, /*speculative=*/true));
  };
  const hserve::ScheduleResult bare = run_spec(false);
  const hserve::ScheduleResult thr = run_spec(true);
  ASSERT_TRUE(bare.error.empty()) << bare.error;
  ASSERT_TRUE(thr.error.empty()) << thr.error;
  EXPECT_GT(bare.spec_cycles, 0);
  EXPECT_EQ(thr.spec_cycles, bare.spec_cycles);
  EXPECT_EQ(thr.spec_proposed_tokens, bare.spec_proposed_tokens);
  EXPECT_EQ(thr.spec_accepted_tokens, bare.spec_accepted_tokens);
  EXPECT_EQ(thr.steps, bare.steps);
  EXPECT_EQ(thr.decoded_tokens, bare.decoded_tokens);
  EXPECT_EQ(thr.makespan_s, bare.makespan_s);
  EXPECT_EQ(thr.prefill_s, bare.prefill_s);
  EXPECT_EQ(thr.decode_s, bare.decode_s);
  EXPECT_EQ(thr.energy_j, bare.energy_j);
  EXPECT_EQ(thr.avg_context, bare.avg_context);
  EXPECT_EQ(thr.job_tokens, bare.job_tokens);
  ASSERT_EQ(thr.completions.size(), bare.completions.size());
  for (size_t i = 0; i < thr.completions.size(); ++i) {
    EXPECT_EQ(thr.completions[i].time_s, bare.completions[i].time_s) << i;
  }
  EXPECT_EQ(thr.metrics.CounterValue("spec.rollback_blocks"),
            bare.metrics.CounterValue("spec.rollback_blocks"));
}

// ---------------------------------------------------------------------------------------
// Prefix registry

TEST(PrefixRegistryTest, HitsMissesAndRefcounts) {
  PrefixRegistry reg(/*devices=*/2, /*capacity_per_device=*/0);
  auto a = reg.Acquire(0, 7);
  EXPECT_FALSE(a.hit);
  EXPECT_EQ(a.evicted_prefix, -1);
  EXPECT_EQ(reg.refcount(0, 7), 1);
  a = reg.Acquire(0, 7);
  EXPECT_TRUE(a.hit);
  EXPECT_EQ(reg.refcount(0, 7), 2);
  // Residency is per device: the other device misses on the same prefix.
  a = reg.Acquire(1, 7);
  EXPECT_FALSE(a.hit);
  reg.Release(0, 7);
  reg.Release(0, 7);
  // Refcount 0 does NOT drop residency — the next acquire is still a hit.
  EXPECT_EQ(reg.refcount(0, 7), 0);
  EXPECT_TRUE(reg.resident(0, 7));
  EXPECT_TRUE(reg.Acquire(0, 7).hit);
  EXPECT_EQ(reg.hits(), 2);
  EXPECT_EQ(reg.misses(), 2);
  EXPECT_EQ(reg.evictions(), 0);
}

TEST(PrefixRegistryTest, LruEvictionSkipsReferencedPrefixes) {
  PrefixRegistry reg(/*devices=*/1, /*capacity_per_device=*/2);
  ASSERT_FALSE(reg.Acquire(0, 1).hit);
  ASSERT_FALSE(reg.Acquire(0, 2).hit);
  reg.Release(0, 1);  // prefix 1 idle (refcount 0), prefix 2 still referenced
  // At capacity: admitting prefix 3 must evict the idle LRU entry (1), never the
  // referenced one (2).
  const auto a3 = reg.Acquire(0, 3);
  EXPECT_FALSE(a3.hit);
  EXPECT_EQ(a3.evicted_prefix, 1);
  EXPECT_FALSE(reg.resident(0, 1));
  EXPECT_TRUE(reg.resident(0, 2));
  EXPECT_EQ(reg.evictions(), 1);
  // Every resident prefix referenced: over-subscribe rather than evict.
  const auto a4 = reg.Acquire(0, 4);
  EXPECT_FALSE(a4.hit);
  EXPECT_EQ(a4.evicted_prefix, -1);
  EXPECT_EQ(reg.resident_count(0), 3);
  // LRU order follows last USE, not insertion: touching 2 makes 3 the idle LRU victim.
  reg.Release(0, 2);
  reg.Release(0, 3);
  reg.Release(0, 4);
  EXPECT_TRUE(reg.Acquire(0, 2).hit);
  reg.Release(0, 2);
  EXPECT_EQ(reg.Acquire(0, 5).evicted_prefix, 3);
}

// ---------------------------------------------------------------------------------------
// Router

TEST(FleetRouterTest, LeastLoadedTieBreaksDeterministicallyByIndex) {
  FleetRouter router(RouterPolicy::kLeastLoaded, 4);
  hfront::Request req;
  std::vector<DeviceLoad> loads(4);
  // All equal: lowest index wins, and the choice is stable across repeats.
  EXPECT_EQ(router.Route(req, loads), 0);
  EXPECT_EQ(router.Route(req, loads), 0);
  loads[0].inflight = 2;
  loads[1].inflight = 1;
  loads[2].inflight = 1;
  loads[3].inflight = 3;
  // Queue-depth tie between 1 and 2: resident KV breaks it...
  loads[2].kv_blocks = 5;
  EXPECT_EQ(router.Route(req, loads), 1);
  // ...and an exact tie falls back to the lower index.
  loads[2].kv_blocks = 0;
  EXPECT_EQ(router.Route(req, loads), 1);
}

TEST(FleetRouterTest, RoundRobinCyclesAndHintOverrides) {
  FleetRouter router(RouterPolicy::kRoundRobin, 3);
  hfront::Request req;
  const std::vector<DeviceLoad> loads(3);
  EXPECT_EQ(router.Route(req, loads), 0);
  EXPECT_EQ(router.Route(req, loads), 1);
  EXPECT_EQ(router.Route(req, loads), 2);
  EXPECT_EQ(router.Route(req, loads), 0);
  req.device_hint = 1;
  EXPECT_EQ(router.Route(req, loads), 1);
}

TEST(FleetRouterTest, SessionAffinePinsEveryTurnToOneDevice) {
  FleetRouter router(RouterPolicy::kSessionAffine, 3);
  hfront::Request first;
  first.session = 11;
  std::vector<DeviceLoad> loads(3);
  loads[0].inflight = 4;  // device 1 is emptiest at the first turn
  loads[1].inflight = 0;
  loads[2].inflight = 2;
  EXPECT_EQ(router.Route(first, loads), 1);
  // Later turns stick to the pin even when the load picture inverts completely.
  loads[1].inflight = 50;
  hfront::Request followup;
  followup.session = 11;
  followup.turn_index = 1;
  EXPECT_EQ(router.Route(followup, loads), 1);
  // Sessionless traffic still routes by load (device 2 is now the emptiest).
  hfront::Request single;
  EXPECT_EQ(router.Route(single, loads), 2);
}

// ---------------------------------------------------------------------------------------
// Pinned prompt anchors (ContinuousBatcher::PinGroup / EvictGroup)

TEST_F(FleetFixture, PinnedGroupSharesAcrossSubmissionsAndEvictRecharges) {
  auto backend = MakeBackend(2);
  hserve::ServeOptions so;
  so.max_batch = 2;
  hserve::ContinuousBatcher b(*backend, so);
  b.Reset();
  const auto submit_and_drain = [&](int id) {
    hserve::ServeJob j;
    j.id = id;
    j.prompt_group = 9;
    j.prompt_tokens = 48;
    j.group_prefix_tokens = 32;  // the first 32 tokens are the registered shared prefix
    j.decode_tokens = 4;
    std::string error;
    ASSERT_TRUE(b.Submit(j, &error)) << error;
    while (b.HasWork()) {
      ASSERT_TRUE(b.Step().stepped);
    }
  };
  b.PinGroup(9);
  submit_and_drain(0);  // first member prefills (and is charged) the full prompt
  submit_and_drain(1);  // anchor pinned past the drain: only the 16 fresh tokens charge
  b.EvictGroup(9);
  submit_and_drain(2);  // eviction reset the charge flag: full prompt again
  const hserve::ScheduleResult r = b.Finish();
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.prefilled_tokens, 48 + 16 + 48);
  // And without a pin, the anchor auto-releases when the group drains, so a later member
  // re-prefills from scratch.
  auto backend2 = MakeBackend(2);
  hserve::ContinuousBatcher b2(*backend2, so);
  b2.Reset();
  {
    hserve::ServeJob j;
    j.id = 0;
    j.prompt_group = 9;
    j.prompt_tokens = 48;
    j.group_prefix_tokens = 32;
    j.decode_tokens = 4;
    std::string error;
    ASSERT_TRUE(b2.Submit(j, &error)) << error;
    while (b2.HasWork()) {
      ASSERT_TRUE(b2.Step().stepped);
    }
    j.id = 1;
    ASSERT_TRUE(b2.Submit(j, &error)) << error;
    while (b2.HasWork()) {
      ASSERT_TRUE(b2.Step().stepped);
    }
  }
  const hserve::ScheduleResult r2 = b2.Finish();
  ASSERT_TRUE(r2.error.empty()) << r2.error;
  EXPECT_EQ(r2.prefilled_tokens, 48 + 48);
}

// ---------------------------------------------------------------------------------------
// End-to-end fleet runs

class FleetEndToEndTest : public FleetFixture {
 protected:
  FleetOptions Options(int devices, RouterPolicy policy) {
    FleetOptions o;
    o.devices = HeterogeneousFleet(devices);
    o.policy = policy;
    o.serve.max_batch = 4;
    o.serve.enable_preemption = true;
    o.max_context = 768;
    return o;
  }

  // Session-heavy traffic with registered shared prefixes — the preset the affine router
  // and prefix registry exist for.
  std::vector<hfront::Request> SessionTrace(int arrivals, uint64_t seed,
                                            int prefix_count = 2) {
    hfront::TrafficOptions t;
    t.arrivals = arrivals;
    t.seed = seed;
    t.arrival_rate_hz = 200.0;
    t.burst_fraction = 0.3;
    t.burst_size = 4;
    t.mean_prompt_tokens = 40;
    t.mean_decode_tokens = 16;
    t.interactive_fraction = 0.5;
    t.session_fraction = 0.7;
    t.session_turns = 3;
    t.mean_think_s = 0.002;
    t.prefix_count = prefix_count;
    t.prefix_tokens = 64;
    t.prefix_fraction = 0.6;
    return hfront::GenerateTraffic(t);
  }
};

TEST_F(FleetEndToEndTest, FourDeviceTraceCompletesAndRerunsBitIdentically) {
  const std::vector<hfront::Request> trace = SessionTrace(24, 5);
  FleetSimulator sim(Options(4, RouterPolicy::kSessionAffine), weights_);
  const FleetSummary a = sim.Run(trace);
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(a.requests.size(), trace.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_TRUE(a.requests[i].done) << "request " << i;
    EXPECT_EQ(a.requests[i].tokens, trace[i].decode_tokens);
    EXPECT_GE(a.request_device[i], 0);
    EXPECT_LT(a.request_device[i], 4);
  }
  EXPECT_GT(a.makespan_s, 0.0);
  EXPECT_GT(a.energy_j, 0.0);
  EXPECT_GT(a.prefix_hits, 0);          // shared prefixes actually dedupe
  EXPECT_GT(a.prefix_misses, 0);        // and each device paid its first prefill
  EXPECT_GE(a.load_imbalance, 1.0);
  // Session affinity: every turn of a session ran on the session's pinned device.
  std::map<int, int> session_device;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].session < 0) {
      continue;
    }
    const auto [it, fresh] =
        session_device.try_emplace(trace[i].session, a.request_device[i]);
    if (!fresh) {
      EXPECT_EQ(it->second, a.request_device[i]) << "session " << trace[i].session;
    }
  }
  // fleet.* metrics mirror the summary scalars.
  EXPECT_EQ(a.metrics.CounterValue("fleet.decoded_tokens"), a.decoded_tokens);
  EXPECT_EQ(a.metrics.CounterValue("fleet.prefix.hits"), a.prefix_hits);
  EXPECT_DOUBLE_EQ(a.metrics.GaugeValue("fleet.makespan_seconds"), a.makespan_s);
  bool found = false;
  a.metrics.GaugeValue("fleet.device.makespan_seconds", a.devices[0].name, &found);
  EXPECT_TRUE(found);  // per-device labeled series present

  // Determinism: a second run of the same trace is bit-identical.
  const FleetSummary b = sim.Run(trace);
  ASSERT_TRUE(b.error.empty()) << b.error;
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.request_device, b.request_device);
  for (size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].checksum, b.requests[i].checksum) << "request " << i;
    EXPECT_EQ(a.requests[i].done_s, b.requests[i].done_s) << "request " << i;
  }
}

TEST_F(FleetEndToEndTest, AffinitySurvivesPreemption) {
  // Preemption-heavy: tiny batch with a 50/50 interactive mix forces pauses; a paused
  // session turn must still resume — and its follow-ups still land — on its pinned device.
  hfront::TrafficOptions t;
  t.arrivals = 16;
  t.seed = 11;
  t.arrival_rate_hz = 400.0;
  t.mean_prompt_tokens = 32;
  t.mean_decode_tokens = 24;
  t.interactive_fraction = 0.5;
  t.session_fraction = 0.8;
  t.session_turns = 3;
  t.mean_think_s = 0.001;
  const std::vector<hfront::Request> trace = hfront::GenerateTraffic(t);
  FleetOptions o = Options(2, RouterPolicy::kSessionAffine);
  o.serve.max_batch = 2;
  FleetSimulator sim(o, weights_);
  const FleetSummary s = sim.Run(trace);
  ASSERT_TRUE(s.error.empty()) << s.error;
  int64_t preemptions = 0;
  for (const auto& st : s.requests) {
    preemptions += st.preemptions;
    EXPECT_TRUE(st.done);
    EXPECT_EQ(st.resumes, st.preemptions);  // every pause resumed from retained KV
  }
  EXPECT_GT(preemptions, 0) << "preset no longer exercises preemption";
  std::map<int, int> session_device;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].session < 0) {
      continue;
    }
    const auto [it, fresh] =
        session_device.try_emplace(trace[i].session, s.request_device[i]);
    if (!fresh) {
      EXPECT_EQ(it->second, s.request_device[i]) << "session " << trace[i].session;
    }
  }
}

TEST_F(FleetEndToEndTest, ThermalDevicesThrottleAndRecordIt) {
  // Saturate a 2-device fleet where device 1 (V79 per the heterogeneous pattern's 5th
  // entry) is thermal. Use specs directly so exactly one device throttles.
  FleetOptions o;
  o.devices.resize(2);
  o.devices[0].arch = hexsim::NpuArch::kV75;
  o.devices[1].arch = hexsim::NpuArch::kV75;
  o.devices[1].thermal = true;
  o.devices[1].thermal_params.heat_c_per_busy_s = 1e6;  // throttles on the first step
  o.policy = RouterPolicy::kLeastLoaded;
  o.serve.max_batch = 2;
  o.max_context = 512;
  hfront::TrafficOptions t;
  t.arrivals = 8;
  t.seed = 3;
  t.arrival_rate_hz = 500.0;
  t.mean_prompt_tokens = 24;
  t.mean_decode_tokens = 32;
  const std::vector<hfront::Request> trace = hfront::GenerateTraffic(t);
  FleetSimulator sim(o, weights_);
  const FleetSummary s = sim.Run(trace);
  ASSERT_TRUE(s.error.empty()) << s.error;
  EXPECT_DOUBLE_EQ(s.devices[0].min_clock_scale, 1.0);
  EXPECT_LT(s.devices[1].min_clock_scale, 1.0);
  EXPECT_GT(s.devices[1].final_temperature_c,
            o.devices[1].thermal_params.ambient_c - 1e-9);
}

TEST_F(FleetEndToEndTest, AffineWithPrefixRegistryBeatsRoundRobin) {
  const std::vector<hfront::Request> trace = SessionTrace(32, 17);
  const auto run = [&](RouterPolicy policy) {
    FleetSimulator sim(Options(4, policy), weights_);
    FleetSummary s = sim.Run(trace);
    EXPECT_TRUE(s.error.empty()) << s.error;
    return s;
  };
  const FleetSummary affine = run(RouterPolicy::kSessionAffine);
  const FleetSummary rr = run(RouterPolicy::kRoundRobin);
  const auto p99_ttft = [](const FleetSummary& s) {
    std::vector<double> v;
    for (const auto& st : s.requests) {
      v.push_back(st.ttft_s());
    }
    return hfront::Percentile(v, 0.99);
  };
  // The acceptance contrast (ISSUE 7): session-affine + prefix registry strictly beats
  // round-robin on tail TTFT (follow-up turns fork retained KV instead of re-prefilling
  // the dialog) and on fleet KV footprint (no duplicate dialog/prefix blocks).
  EXPECT_LT(p99_ttft(affine), p99_ttft(rr));
  EXPECT_LT(affine.kv_peak_physical_bytes, rr.kv_peak_physical_bytes);
  // Both policies decode the same token budget.
  EXPECT_EQ(affine.decoded_tokens, rr.decoded_tokens);
}

// Both drivers run one request protocol (hfront::RequestBook), so a one-device,
// non-thermal, session-affine fleet serves a session trace exactly like the single-engine
// frontend over the same functional configuration: every per-request number, the
// makespan, the energy and the SLO roll-up are bit-equal.
TEST_F(FleetEndToEndTest, OneDeviceFleetMatchesServingEngine) {
  const std::vector<hfront::Request> trace = SessionTrace(16, 1, /*prefix_count=*/0);
  FleetOptions o = Options(1, RouterPolicy::kSessionAffine);
  o.devices[0] = FleetDeviceSpec{};  // V75, full-size, never throttled
  const FleetSummary fleet = FleetSimulator(o, weights_).Run(trace);
  ASSERT_TRUE(fleet.error.empty()) << fleet.error;

  auto backend = MakeBackend(o.serve.max_batch, o.max_context);
  hserve::ContinuousBatcher batcher(*backend, o.serve);
  const hfront::EngineSummary engine = hfront::ServingEngine(batcher).Run(trace);
  ASSERT_TRUE(engine.schedule.error.empty()) << engine.schedule.error;

  ASSERT_EQ(fleet.requests.size(), trace.size());
  ASSERT_EQ(engine.requests.size(), trace.size());
  int preemptions = 0;
  int follow_ups = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const hfront::RequestStats& f = fleet.requests[i];
    const hfront::RequestStats& e = engine.requests[i];
    EXPECT_EQ(f.id, e.id) << "request " << i;
    EXPECT_EQ(f.session, e.session) << "request " << i;
    EXPECT_EQ(f.turn_index, e.turn_index) << "request " << i;
    EXPECT_EQ(f.arrival_s, e.arrival_s) << "request " << i;
    EXPECT_EQ(f.admit_s, e.admit_s) << "request " << i;
    EXPECT_EQ(f.first_token_s, e.first_token_s) << "request " << i;
    EXPECT_EQ(f.done_s, e.done_s) << "request " << i;
    EXPECT_EQ(f.tokens, e.tokens) << "request " << i;
    EXPECT_EQ(f.checksum, e.checksum) << "request " << i;
    EXPECT_EQ(f.preemptions, e.preemptions) << "request " << i;
    EXPECT_EQ(f.resumes, e.resumes) << "request " << i;
    EXPECT_EQ(f.done, e.done) << "request " << i;
    EXPECT_EQ(f.slo.ttft_s, e.slo.ttft_s) << "request " << i;
    EXPECT_EQ(f.slo.tpot_s, e.slo.tpot_s) << "request " << i;
    EXPECT_TRUE(f.done) << "request " << i;
    preemptions += f.preemptions;
    follow_ups += f.turn_index > 0 ? 1 : 0;
  }
  EXPECT_GT(preemptions, 0) << "preset no longer exercises preemption";
  EXPECT_GT(follow_ups, 0) << "preset no longer exercises session forks";
  EXPECT_EQ(fleet.makespan_s, engine.schedule.makespan_s);
  EXPECT_EQ(fleet.energy_j, engine.schedule.energy_j);
  EXPECT_EQ(fleet.goodput_tps, engine.goodput_tps);
  EXPECT_EQ(fleet.slo_met, engine.slo_met);
  EXPECT_EQ(fleet.slo_total, engine.slo_total);
}

// A malformed trace is an error, never an abort, in both drivers: it is rejected before
// any batcher steps, so nothing is routed or served.
TEST_F(FleetEndToEndTest, MalformedTracesReturnAnErrorInBothDrivers) {
  std::vector<hfront::Request> base(3);
  for (int i = 0; i < 3; ++i) {
    base[static_cast<size_t>(i)].id = i;
    base[static_cast<size_t>(i)].prompt_tokens = 8;
    base[static_cast<size_t>(i)].decode_tokens = 4;
  }
  base[1].session = 0;  // a two-turn dialog: request 1 is turn 0, request 2 turn 1
  base[2].session = 0;
  base[2].turn_index = 1;
  base[2].arrival_s = 0.001;  // think time

  struct Case {
    const char* name;
    void (*mutate)(std::vector<hfront::Request>&);
    bool engine_rejects;  // the single-engine frontend ignores device_hint
  };
  const Case cases[] = {
      {"duplicate id", [](auto& t) { t[2].id = 0; }, true},
      {"duplicate session turn", [](auto& t) { t[2].turn_index = 0; }, true},
      {"non-contiguous turns", [](auto& t) { t[2].turn_index = 2; }, true},
      {"negative turn", [](auto& t) { t[2].turn_index = -1; }, true},
      {"follow-up without session", [](auto& t) { t[0].turn_index = 1; }, true},
      {"negative arrival", [](auto& t) { t[0].arrival_s = -1.0; }, true},
      {"NaN arrival",
       [](auto& t) { t[1].arrival_s = std::numeric_limits<double>::quiet_NaN(); }, true},
      {"device_hint out of range", [](auto& t) { t[0].device_hint = 7; }, false},
  };
  const FleetOptions o = Options(1, RouterPolicy::kSessionAffine);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<hfront::Request> trace = base;
    c.mutate(trace);

    const FleetSummary fleet = FleetSimulator(o, weights_).Run(trace);
    EXPECT_FALSE(fleet.error.empty());
    ASSERT_EQ(fleet.requests.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_FALSE(fleet.requests[i].done);
      EXPECT_EQ(fleet.request_device[i], -1);
    }
    EXPECT_EQ(fleet.decoded_tokens, 0);

    auto backend = MakeBackend(o.serve.max_batch, o.max_context);
    hserve::ContinuousBatcher batcher(*backend, o.serve);
    const hfront::EngineSummary engine = hfront::ServingEngine(batcher).Run(trace);
    ASSERT_EQ(engine.requests.size(), trace.size());
    EXPECT_EQ(!engine.schedule.error.empty(), c.engine_rejects) << engine.schedule.error;
    if (c.engine_rejects) {
      EXPECT_EQ(engine.schedule.decoded_tokens, 0);
      for (const hfront::RequestStats& st : engine.requests) {
        EXPECT_FALSE(st.done);
      }
    }
  }
}

}  // namespace
}  // namespace hfleet
