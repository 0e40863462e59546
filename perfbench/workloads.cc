#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "perfbench/traced_backend.h"
#include "src/exec/thread_pool.h"
#include "src/frontend/serving_engine.h"
#include "src/frontend/traffic.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/llm/model_config.h"
#include "src/llm/weights.h"
#include "src/runtime/engine.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"
#include "src/tts/capability_model.h"
#include "src/tts/reward_model.h"
#include "src/tts/task.h"
#include "src/tts/tts.h"

namespace perfbench {
namespace {

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;
constexpr double kMiB = 1024.0 * 1024.0;

// FNV-1a over the eight bytes of `word`.
uint64_t FoldWord(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((word >> (8 * i)) & 0xffu)) * kFnvPrime;
  }
  return h;
}

uint64_t FoldDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FoldWord(h, bits);
}

// The frontend's per-request checksum (hfront::RequestStats::checksum) over a token list.
uint64_t TokenChecksum(const std::vector<int>& tokens) {
  uint64_t h = kFnvOffset;
  for (const int t : tokens) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(t))) * kFnvPrime;
  }
  return h;
}

uint64_t FoldChecksums(const std::vector<uint64_t>& sums) {
  uint64_t h = kFnvOffset;
  for (const uint64_t s : sums) {
    h = FoldWord(h, s);
  }
  return h;
}

// Derives independent sub-seeds from the run seed (SplitMix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Timeline of one request on the simulated clock. TTFT runs from `release_s`: the
// scheduled arrival (chat) or the start of the closed batch (Best-of-N, beam search). The
// admission wait runs from `ready_s`, when the request became admissible: its arrival, or
// for a beam-search expansion the completion of its query's previous wave.
struct RequestTiming {
  double release_s = 0.0;
  double ready_s = 0.0;
  double admit_s = 0.0;  // first admission, prefill complete
  double first_token_s = 0.0;
  double done_s = 0.0;
  int tokens = 0;
};

// End-to-end and per-layer simulated metrics every workload shares.
// TTFT and TPOT come from `latency` (one entry per request, or per query for beam search);
// admission waits from `admissions` (one entry per admitted job).
void AddScheduleMetrics(const hserve::ScheduleResult& r,
                        const std::vector<RequestTiming>& latency,
                        const std::vector<RequestTiming>& admissions, int64_t slo_met,
                        int64_t good_tokens, int64_t attempted, int64_t cow_splits_before,
                        PassResult* out) {
  std::vector<double> ttft;
  std::vector<double> tpot;
  std::vector<double> wait;
  for (const RequestTiming& x : latency) {
    ttft.push_back(x.first_token_s - x.release_s);
    tpot.push_back(x.tokens > 0 ? (x.done_s - x.admit_s) / x.tokens : 0.0);
  }
  for (const RequestTiming& x : admissions) {
    wait.push_back(x.admit_s - x.ready_s);
  }
  const double tokens = static_cast<double>(r.decoded_tokens);
  MetricMap& s = out->sim;
  s["sim_tok_s"] = tokens / r.makespan_s;
  s["sim_tpot_p50_ms"] = hfront::Percentile(tpot, 0.5) * 1e3;
  s["sim_tpot_p90_ms"] = hfront::Percentile(tpot, 0.9) * 1e3;
  s["sim_ttft_p50_ms"] = hfront::Percentile(ttft, 0.5) * 1e3;
  s["sim_ttft_p90_ms"] = hfront::Percentile(ttft, 0.9) * 1e3;
  s["sim_mj_per_tok"] = r.energy_j * 1e3 / tokens;
  s["goodput_tok_s"] = static_cast<double>(good_tokens) / r.makespan_s;
  s["slo_attain"] = static_cast<double>(slo_met) / static_cast<double>(attempted);

  MetricMap& l = out->sim_layer;
  l["frontend.admit_wait_p50_ms"] = hfront::Percentile(wait, 0.5) * 1e3;
  l["frontend.admit_wait_p90_ms"] = hfront::Percentile(wait, 0.9) * 1e3;
  l["serving.steps"] = static_cast<double>(r.steps);
  l["serving.avg_active_batch"] = r.avg_active_batch;
  l["serving.slot_utilization"] = r.slot_utilization;
  l["serving.admission_deferrals"] = static_cast<double>(r.admission_deferrals);
  l["serving.preemptions"] = static_cast<double>(r.preemptions);
  l["serving.resumes"] = static_cast<double>(r.resumes);
  l["serving.prefill_sim_s"] = r.prefill_s;
  l["serving.decode_sim_s"] = r.decode_s;
  l["serving.overlap_saved_sim_s"] = r.metrics.GaugeValue("exec.overlap.saved_seconds");
  l["kv.peak_physical_mb"] = static_cast<double>(r.kv.peak_physical_bytes()) / kMiB;
  l["kv.peak_logical_mb"] = static_cast<double>(r.kv.peak_logical_bytes()) / kMiB;
  l["kv.sharing_ratio"] = r.kv.peak_physical_blocks > 0
                              ? static_cast<double>(r.kv.peak_logical_blocks) /
                                    static_cast<double>(r.kv.peak_physical_blocks)
                              : 1.0;
  l["kv.cow_splits"] = static_cast<double>(r.kv.cow_splits - cow_splits_before);
  l["kv.end_physical_blocks"] = static_cast<double>(r.kv.physical_blocks);
  l["exec.workspace_mb"] = r.metrics.GaugeValue("exec.workspace.bytes") / kMiB;
}

// Per-layer metrics of a traced pass: the decorator's call statistics, split into the
// simulated step-cost sums and host-clock timings.
void AddTracedMetrics(const TracedBackend& tb, const hserve::ScheduleResult& r, double host_s,
                      PassResult* out) {
  const BackendCallStats& st = tb.stats();
  MetricMap& l = out->sim_layer;
  l["backend.step_calls"] = static_cast<double>(st.step_calls);
  l["backend.admit_calls"] = static_cast<double>(st.admit_calls);
  l["step.linear_sim_s"] = st.step_cost.linear_s;
  l["step.attention_sim_s"] = st.step_cost.attention_s;
  l["step.misc_sim_s"] = st.step_cost.misc_s;
  l["step.lm_head_sim_s"] = st.step_cost.lm_head_s;
  l["step.comm_sim_s"] = st.step_cost.comm_s;
  l["step.total_sim_s"] = st.step_cost.total_s;
  // Every step's serial cost is either charged to decode time or saved by the lm_head
  // overlap, so the residual is summation-order rounding only.
  l["step.reconcile_residual_s"] =
      st.step_cost.total_s - (r.decode_s + r.metrics.GaugeValue("exec.overlap.saved_seconds"));

  MetricMap& h = out->host_layer;
  h["serving.self_host_s"] = host_s - st.total_host_s();
  h["backend.step_host_s"] = st.step_host_s;
  h["backend.admit_host_s"] = st.admit_host_s;
  for (size_t b = 0; b < kRowBuckets.size(); ++b) {
    h[std::string("backend.step_host_us_per_row.") + kRowBuckets[b]] =
        st.bucket_rows[b] > 0
            ? st.bucket_host_s[b] * 1e6 / static_cast<double>(st.bucket_rows[b])
            : 0.0;
  }
  h["backend.admit_host_us_per_prefill_token"] =
      st.admit_prefill_tokens > 0
          ? st.admit_host_s * 1e6 / static_cast<double>(st.admit_prefill_tokens)
          : 0.0;
}

// Activity of the benchmark-owned simulated device over one pass. The ledger is cleared at
// the start of every pass, so its seconds are the pass's totals, summed in the same order
// every pass (the functional backend composes step costs from ledger deltas, so this also
// keeps simulated step costs identical pass to pass). The HVX/HMX instruction counters are
// monotonic integers and are taken as deltas.
struct DeviceMark {
  int64_t hvx_packets = 0;
  int64_t vlut16_ops = 0;
  int64_t tile_ops = 0;
};

DeviceMark StartDevicePass(hexsim::NpuDevice& dev) {
  dev.ledger().Clear();
  return DeviceMark{dev.hvx().packets(), dev.hvx().vlut16_ops(), dev.hmx().tile_ops()};
}

void AddDeviceMetrics(const hexsim::NpuDevice& dev, const DeviceMark& m, PassResult* out) {
  const hexsim::CycleLedger& led = dev.ledger();
  MetricMap& l = out->sim_layer;
  l["hexsim.linear.dequant_s"] = led.TagSeconds("linear.dequant");
  l["hexsim.gemm.hmx_s"] = led.TagSeconds("gemm.hmx");
  l["hexsim.gemm.pack_s"] = led.TagSeconds("gemm.pack");
  for (const char* op : {"qk", "softmax", "pv", "rescale", "pack"}) {
    l[std::string("hexsim.attn.") + op + "_s"] = led.TagSeconds(std::string("attn.") + op);
  }
  double misc = 0.0;
  for (const auto& [tag, seconds] : led.tags()) {
    if (tag.rfind("misc.", 0) == 0) {
      misc += seconds;
    }
  }
  l["hexsim.misc_s"] = misc;
  l["hexsim.dma_s"] = led.TagSeconds("dma");
  l["hexsim.hvx_busy_s"] = led.EngineSeconds(hexsim::Engine::kHvx);
  l["hexsim.hmx_busy_s"] = led.EngineSeconds(hexsim::Engine::kHmx);
  l["hexsim.dma_busy_s"] = led.EngineSeconds(hexsim::Engine::kDma);
  l["hexsim.cpu_busy_s"] = led.EngineSeconds(hexsim::Engine::kCpu);
  l["hexsim.hmx_tile_ops"] = static_cast<double>(dev.hmx().tile_ops() - m.tile_ops);
  l["hexsim.hvx_packets"] = static_cast<double>(dev.hvx().packets() - m.hvx_packets);
  l["hexsim.vlut16_ops"] = static_cast<double>(dev.hvx().vlut16_ops() - m.vlut16_ops);
  l["hexsim.ddr_bytes"] = static_cast<double>(led.dma_bytes());
  l["kernels.flash_attention_calls"] =
      static_cast<double>(led.Count("kernel.flash_attention.calls"));
  l["kernels.gemm_hmx_calls"] = static_cast<double>(led.Count("kernel.gemm_hmx.calls"));
  int64_t dequant = 0;
  for (const auto& [name, n] : led.counts()) {
    if (name.rfind("kernel.dequant", 0) == 0) {
      dequant += n;
    }
  }
  l["kernels.dequant_calls"] = static_cast<double>(dequant);
}

// Backend step host time per simulated HMX tile op (functional workloads).
void AddHostPerTileOp(PassResult* out) {
  const double tile_ops = out->sim_layer["hexsim.hmx_tile_ops"];
  out->host_layer["hexsim.host_ns_per_tile_op"] =
      tile_ops > 0.0 ? out->host_layer["backend.step_host_s"] * 1e9 / tile_ops : 0.0;
}

// Per-request timings of a batch-mode run (ContinuousBatcher::Run), from its admission and
// completion logs. Batch mode streams no per-token timestamps, so the first token is placed
// one mean step after admission: (done - admit) / tokens is the job's mean time per token.
std::vector<RequestTiming> BatchTimings(const std::vector<hserve::ServeJob>& jobs,
                                        const hserve::ScheduleResult& r) {
  std::map<int, size_t> index;
  for (size_t i = 0; i < jobs.size(); ++i) {
    index[jobs[i].id] = i;
  }
  std::vector<RequestTiming> t(jobs.size());
  std::vector<bool> admitted(jobs.size(), false);
  for (const hserve::Admission& a : r.admissions) {
    const size_t i = index.at(a.job_id);
    if (!a.resumed && !admitted[i]) {
      admitted[i] = true;
      t[i].admit_s = a.time_s;
    }
  }
  // A job of barrier wave b becomes admissible when the last job of its group's wave b - 1
  // completes (the batcher enqueues the next wave at that instant).
  std::map<std::pair<int, int>, double> wave_done;
  for (const hserve::Completion& c : r.completions) {
    const size_t i = index.at(c.job_id);
    t[i].done_s = c.time_s;
    t[i].tokens = jobs[i].decode_tokens;
    double& w = wave_done[{jobs[i].prompt_group, jobs[i].barrier}];
    w = std::max(w, c.time_s);
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const hserve::ServeJob& j = jobs[i];
    if (j.barrier > 0) {
      t[i].ready_s = wave_done[{j.prompt_group, j.barrier - 1}];
    }
    t[i].first_token_s = t[i].admit_s + (t[i].done_s - t[i].admit_s) / j.decode_tokens;
  }
  return t;
}

// Per-query timings of a beam-search stream: a query (prompt_group) streams its first token
// with its first expansion, finishes with its last, and its answer path holds one
// expansion's tokens per wave. Barrier waits and admission deferrals between waves count
// against its time per output token, as its user sees them.
std::vector<RequestTiming> QueryTimings(const std::vector<hserve::ServeJob>& jobs,
                                        const std::vector<RequestTiming>& t) {
  std::map<int, RequestTiming> q;
  std::map<std::pair<int, int>, int> wave_tokens;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, fresh] = q.try_emplace(jobs[i].prompt_group, t[i]);
    RequestTiming& x = it->second;
    if (!fresh) {
      x.admit_s = std::min(x.admit_s, t[i].admit_s);
      x.first_token_s = std::min(x.first_token_s, t[i].first_token_s);
      x.done_s = std::max(x.done_s, t[i].done_s);
    }
    wave_tokens[{jobs[i].prompt_group, jobs[i].barrier}] = jobs[i].decode_tokens;
  }
  std::vector<RequestTiming> out;
  for (auto& [group, x] : q) {
    x.tokens = 0;
    for (auto it = wave_tokens.lower_bound({group, std::numeric_limits<int>::min()});
         it != wave_tokens.end() && it->first.first == group; ++it) {
      x.tokens += it->second;
    }
    out.push_back(x);
  }
  return out;
}

// Statistical TTS policy skill of Qwen2.5-1.5B on MATH500 as deployed (tile-group Q4
// weights, LUT softmax): drives the Best-of-N and beam-search accuracy and job streams.
double PolicyTheta() {
  const htts::CapabilityModel cap;
  const hllm::ModelConfig& m = hllm::Qwen25_1_5B();
  return cap.EffectiveTheta(m, htts::Dataset::kMath500, cap.DeployedWeightErr(m),
                            cap.lut_f16_attention_err());
}

// Weights of the functional toy model. Fixed: the model is part of the program under test;
// the seed varies only the served inputs.
constexpr uint64_t kToyWeightSeed = 1234;

// Serves one closed batch of short jobs through `backend` so that the lazy caches the
// measured passes would otherwise fill (dequant-once weights, per-lane exp LUTs, the
// workspace arena at full batch) are warm before timing starts.
std::string WarmUp(hserve::ExecutionBackend& backend, int max_batch, int prompt_tokens) {
  std::vector<hserve::ServeJob> jobs;
  for (int i = 0; i < max_batch; ++i) {
    hserve::ServeJob j;
    j.id = 1000000 + i;
    j.prompt_group = i % 2;
    j.prompt_tokens = prompt_tokens;
    j.decode_tokens = 8;
    jobs.push_back(j);
  }
  hserve::ServeOptions so;
  so.max_batch = max_batch;
  return hserve::ContinuousBatcher(backend, so).Run(jobs).error;
}

// Runs one batch-mode pass over `backend`, wrapped in a TracedBackend when `tb` is set.
hserve::ScheduleResult RunBatch(hserve::ExecutionBackend& backend, TracedBackend* tb,
                                const hserve::ServeOptions& so,
                                const std::vector<hserve::ServeJob>& jobs) {
  if (tb == nullptr) {
    return hserve::ContinuousBatcher(backend, so).Run(jobs);
  }
  hserve::ContinuousBatcher batcher(*tb, so);
  tb->set_clock(&batcher);
  return batcher.Run(jobs);
}

std::unique_ptr<TracedBackend> MaybeTrace(hserve::ExecutionBackend& backend, bool traced,
                                          const std::string& span_path) {
  return traced ? std::make_unique<TracedBackend>(backend, !span_path.empty()) : nullptr;
}

// Fills the traced pass's per-layer metrics and writes its span file.
void FinishTraced(const TracedBackend& tb, const hserve::ScheduleResult& r,
                  const std::string& span_path, PassResult* out) {
  AddTracedMetrics(tb, r, out->host_s, out);
  if (!span_path.empty() && !tb.WriteChromeTrace(span_path)) {
    out->error = "cannot write " + span_path;
  }
}

// ---------------------------------------------------------------------------------------
// bon_toy
// ---------------------------------------------------------------------------------------

class BonToy : public Workload {
 public:
  static constexpr int kN = 8;
  static constexpr int kTasks = 64;
  // The toy model decodes the MATH500-class samples at 1/8 of their length, so that one
  // pass over 512 jobs takes seconds of host time.
  static constexpr int kDecodeScale = 8;
  static constexpr int kMaxBatch = 16;
  static constexpr int kMaxContext = 4096;

  explicit BonToy(uint64_t seed)
      : weights_(hllm::ModelWeights::Random(hllm::ToyConfig(), kToyWeightSeed)),
        dev_(hexsim::OnePlus12()) {
    const auto t0 = HostClock::now();
    const htts::TaskSet tasks = htts::GenerateTaskSet(htts::Dataset::kMath500, kTasks, seed);
    hexllm::Rng rng(SubSeed(seed, 1));
    const htts::OutcomeRewardModel orm;
    tts_ = htts::RunBestOfN(tasks, PolicyTheta(), orm, kN, /*trials=*/1, rng, &jobs_);
    // Seeded top-k sampling per sample, so the N samples of a task really diverge.
    for (hserve::ServeJob& j : jobs_) {
      j.sampler.temperature = 0.8f;
      j.sampler.top_k = 8;
      j.seed = SubSeed(seed, 1000 + static_cast<uint64_t>(j.id));
      j.decode_tokens = std::max(8, j.decode_tokens / kDecodeScale);
    }
    emit_host_s_ = SecondsSince(t0);
    backend_ = std::make_unique<hserve::FunctionalBackend>(dev_, weights_, kMaxBatch,
                                                           kMaxContext);
    setup_error_ = WarmUp(*backend_, kMaxBatch, /*prompt_tokens=*/160);
  }

  PassResult RunPass(bool traced, const std::string& span_path) override {
    const DeviceMark mark = StartDevicePass(dev_);
    const std::unique_ptr<TracedBackend> tb = MaybeTrace(*backend_, traced, span_path);
    const int64_t cow0 = backend_->kv_stats().cow_splits;
    PassResult out;
    const auto t0 = HostClock::now();
    const hserve::ScheduleResult r = RunBatch(*backend_, tb.get(), Options(), jobs_);
    out.host_s = SecondsSince(t0);
    Collect(r, cow0, &out);
    AddDeviceMetrics(dev_, mark, &out);
    if (tb != nullptr) {
      FinishTraced(*tb, r, span_path, &out);
      AddHostPerTileOp(&out);
    }
    return out;
  }

  int64_t CountReferenceMismatches(const PassResult& pass) override {
    // The last prompt group, served alone at one lane, must decode the same tokens as it
    // did inside the full batch.
    const int group = jobs_.back().prompt_group;
    std::vector<hserve::ServeJob> sub;
    std::vector<size_t> where;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].prompt_group == group) {
        sub.push_back(jobs_[i]);
        where.push_back(i);
      }
    }
    const hexec::ParallelismOverride one_lane(1);
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    hserve::FunctionalBackend backend(dev, weights_, kN, kMaxContext);
    hserve::ServeOptions so = Options();
    so.max_batch = kN;
    const hserve::ScheduleResult r = hserve::ContinuousBatcher(backend, so).Run(sub);
    if (!r.error.empty() || r.job_tokens.size() != sub.size() ||
        pass.request_checksums.size() != jobs_.size()) {
      return -1;
    }
    int64_t bad = 0;
    for (size_t k = 0; k < sub.size(); ++k) {
      bad += TokenChecksum(r.job_tokens[k]) != pass.request_checksums[where[k]] ? 1 : 0;
    }
    return bad;
  }

 private:
  static hserve::ServeOptions Options() {
    hserve::ServeOptions so;
    so.max_batch = kMaxBatch;
    return so;
  }

  void Collect(const hserve::ScheduleResult& r, int64_t cow0, PassResult* out) const {
    out->error = r.error;
    out->attempted = static_cast<int64_t>(jobs_.size());
    out->completed = static_cast<int64_t>(r.completions.size());
    out->decoded_tokens = r.decoded_tokens;
    if (!r.error.empty()) {
      return;
    }
    for (size_t i = 0; i < jobs_.size(); ++i) {
      out->request_checksums.push_back(i < r.job_tokens.size() ? TokenChecksum(r.job_tokens[i])
                                                               : 0);
    }
    out->fingerprint = FoldChecksums(out->request_checksums);
    // An offline batch carries no latency SLO: every completed job counts as meeting it.
    const std::vector<RequestTiming> t = BatchTimings(jobs_, r);
    AddScheduleMetrics(r, t, t, out->completed, r.decoded_tokens, out->attempted, cow0, out);
    out->sim_layer["tts.jobs"] = static_cast<double>(jobs_.size());
    out->sim_layer["tts.accuracy"] = tts_.accuracy;
    out->sim_layer["tts.oracle_accuracy"] = tts_.oracle_accuracy;
  }

  hllm::ModelWeights weights_;
  hexsim::NpuDevice dev_;
  std::vector<hserve::ServeJob> jobs_;
  htts::MethodResult tts_;
  std::unique_ptr<hserve::FunctionalBackend> backend_;
};

// ---------------------------------------------------------------------------------------
// chat_toy
// ---------------------------------------------------------------------------------------

class ChatToy : public Workload {
 public:
  static constexpr int kMaxBatch = 4;
  static constexpr int kMaxContext = 8192;

  explicit ChatToy(uint64_t seed)
      : weights_(hllm::ModelWeights::Random(hllm::ToyConfig(), kToyWeightSeed)),
        dev_(hexsim::OnePlus12()) {
    const auto t0 = HostClock::now();
    trace_ = hfront::GenerateTraffic(Traffic(seed));
    emit_host_s_ = SecondsSince(t0);
    backend_ = std::make_unique<hserve::FunctionalBackend>(dev_, weights_, kMaxBatch,
                                                           kMaxContext);
    setup_error_ = WarmUp(*backend_, kMaxBatch, /*prompt_tokens=*/96);
  }

  PassResult RunPass(bool traced, const std::string& span_path) override {
    const DeviceMark mark = StartDevicePass(dev_);
    const std::unique_ptr<TracedBackend> tb = MaybeTrace(*backend_, traced, span_path);
    const int64_t cow0 = backend_->kv_stats().cow_splits;
    PassResult out;
    const auto t0 = HostClock::now();
    hserve::ContinuousBatcher batcher(tb != nullptr ? static_cast<hserve::ExecutionBackend&>(*tb)
                                                    : *backend_,
                                      Options());
    if (tb != nullptr) {
      tb->set_clock(&batcher);
    }
    const hfront::EngineSummary s = hfront::ServingEngine(batcher).Run(trace_);
    out.host_s = SecondsSince(t0);
    Collect(s, cow0, &out);
    AddDeviceMetrics(dev_, mark, &out);
    if (tb != nullptr) {
      FinishTraced(*tb, s.schedule, span_path, &out);
      AddHostPerTileOp(&out);
    }
    return out;
  }

  int64_t CountReferenceMismatches(const PassResult& pass) override {
    // Up to four single-turn requests, each served alone at one lane: batching and
    // preemption must not change a request's tokens.
    if (pass.request_checksums.size() != trace_.size()) {
      return -1;
    }
    const hexec::ParallelismOverride one_lane(1);
    int64_t bad = 0;
    int checked = 0;
    for (size_t i = trace_.size(); i-- > 0 && checked < 4;) {
      hfront::Request req = trace_[i];
      if (req.session >= 0) {
        continue;
      }
      req.arrival_s = 0.0;
      hexsim::NpuDevice dev(hexsim::OnePlus12());
      hserve::FunctionalBackend backend(dev, weights_, kMaxBatch, kMaxContext);
      hserve::ContinuousBatcher batcher(backend, Options());
      const hfront::EngineSummary s = hfront::ServingEngine(batcher).Run({req});
      if (!s.schedule.error.empty() || s.requests.size() != 1) {
        return -1;
      }
      bad += s.requests[0].checksum != pass.request_checksums[i] ? 1 : 0;
      ++checked;
    }
    return bad;
  }

 private:
  // Open-loop arrivals at one fixed offered rate below the knee of the toy model's capacity
  // at max_batch 4 (which sits near 250-300 requests per simulated second): the batch is
  // busy, bursts queue and interactive requests preempt, but no backlog grows. Nearer the
  // knee the p90 TTFT swings from seed to seed by more than the benchmark's bound.
  static hfront::TrafficOptions Traffic(uint64_t seed) {
    hfront::TrafficOptions t;
    t.seed = SubSeed(seed, 2);
    t.arrivals = 1200;
    t.arrival_rate_hz = 225.0;
    t.burst_fraction = 0.05;
    t.burst_size = 4;
    t.burst_spread_s = 2e-4;
    t.mean_prompt_tokens = 32;
    t.min_prompt_tokens = 8;
    t.mean_decode_tokens = 12;
    t.min_decode_tokens = 8;
    t.interactive_fraction = 0.3;
    t.interactive_slo = {5e-3, 0.25e-3};
    t.batch_slo = {20e-3, 0.3e-3};
    t.session_fraction = 0.2;
    t.session_turns = 3;
    t.mean_think_s = 5e-3;
    t.long_context_fraction = 0.01;
    t.mean_long_prompt_tokens = 512;
    t.min_long_prompt_tokens = 256;
    t.sampler.temperature = 0.8f;
    t.sampler.top_k = 8;
    return t;
  }

  static hserve::ServeOptions Options() {
    hserve::ServeOptions so;
    so.max_batch = kMaxBatch;
    so.enable_preemption = true;
    return so;
  }

  void Collect(const hfront::EngineSummary& s, int64_t cow0, PassResult* out) const {
    const hserve::ScheduleResult& r = s.schedule;
    out->error = r.error;
    out->attempted = static_cast<int64_t>(trace_.size());
    out->decoded_tokens = r.decoded_tokens;
    std::vector<RequestTiming> t;
    int64_t good_tokens = 0;
    int64_t slo_met = 0;
    for (const hfront::RequestStats& st : s.requests) {
      out->completed += st.done ? 1 : 0;
      out->request_checksums.push_back(st.checksum);
      if (st.slo_ok()) {
        ++slo_met;
        good_tokens += st.tokens;
      }
      t.push_back(RequestTiming{st.arrival_s, st.arrival_s, st.admit_s, st.first_token_s,
                                st.done_s, st.tokens});
    }
    if (!r.error.empty()) {
      return;
    }
    out->fingerprint = FoldChecksums(out->request_checksums);
    AddScheduleMetrics(r, t, t, slo_met, good_tokens, out->attempted, cow0, out);
    out->sim_layer["frontend.session_forks"] = static_cast<double>(r.forked_admissions);
  }

  hllm::ModelWeights weights_;
  hexsim::NpuDevice dev_;
  std::vector<hfront::Request> trace_;
  std::unique_ptr<hserve::FunctionalBackend> backend_;
};

// ---------------------------------------------------------------------------------------
// beam_qwen1.5b
// ---------------------------------------------------------------------------------------

class BeamQwen : public Workload {
 public:
  static constexpr int kN = 16;
  static constexpr int kExpansion = 4;
  static constexpr int kTasks = 200;
  static constexpr int kMaxBatch = 16;
  // Queries are admitted in cohorts of this many: the waves of a cohort's queries share the
  // batch, while later cohorts wait.
  static constexpr int kCohort = 4;
  // Steps are priced at the mean context rounded up to one KV block, not the default
  // 64-token bucket, so simulated latencies follow the seed's context lengths smoothly.
  static constexpr int kContextBucketTokens = hkv::kDefaultBlockTokens;
  // The DRAM KV budget, in F16 KV blocks of the model (200 x 896 KiB = 175 MiB). Fixed, so
  // a change to the serving stack meets the same budget. Over seeds 0-199 the stream's
  // ungated peak is 211-265 blocks, so admissions defer on every seed; a budget of 180
  // blocks poisons two of those seeds (the batcher never evicts retained beam stems, so a
  // budget below the stems of the queries in flight cannot make progress).
  static constexpr int64_t kKvBudgetBlocks = 200;

  explicit BeamQwen(uint64_t seed)
      : engine_(EngineOpts()),
        tasks_(htts::GenerateTaskSet(htts::Dataset::kMath500, kTasks, seed)),
        rng_seed_(SubSeed(seed, 3)) {
    const auto t0 = HostClock::now();
    theta_ = PolicyTheta();
    hexllm::Rng rng(rng_seed_);
    tts_ = htts::RunBeamSearch(tasks_, theta_, htts::ProcessRewardModel(), kN, kExpansion,
                               /*trials=*/1, rng, &jobs_);
    // Queries are served in cohorts: an earlier cohort's next expansion wave outranks later
    // queries, so only a few queries hold retained beam stems at once.
    for (hserve::ServeJob& j : jobs_) {
      j.priority = -j.prompt_group / kCohort;
    }
    emit_host_s_ = SecondsSince(t0);
    hserve::AnalyticBackend::Options o;
    o.context_bucket_tokens = kContextBucketTokens;
    o.kv_budget_bytes =
        kKvBudgetBlocks * hllm::Qwen25_1_5B().KvCacheBytes(hkv::kDefaultBlockTokens);
    backend_ = std::make_unique<hserve::AnalyticBackend>(engine_, o);
    // The warm-up is one full pass: the analytic step-cost cache fills lazily per (batch,
    // context bucket), and one pass fills every entry later passes use.
    setup_error_ = hserve::ContinuousBatcher(*backend_, Options()).Run(jobs_).error;
  }

  PassResult RunPass(bool traced, const std::string& span_path) override {
    const std::unique_ptr<TracedBackend> tb = MaybeTrace(*backend_, traced, span_path);
    const int64_t cow0 = backend_->kv_stats().cow_splits;
    PassResult out;
    const auto t0 = HostClock::now();
    const hserve::ScheduleResult r = RunBatch(*backend_, tb.get(), Options(), jobs_);
    out.host_s = SecondsSince(t0);
    out.error = r.error;
    out.attempted = static_cast<int64_t>(jobs_.size());
    out.completed = static_cast<int64_t>(r.completions.size());
    out.decoded_tokens = r.decoded_tokens;
    if (r.error.empty() && r.admission_deferrals == 0) {
      out.error = "the KV budget deferred no admission";
    }
    if (out.error.empty()) {
      const std::vector<RequestTiming> t = BatchTimings(jobs_, r);
      // Queries served: every completed query meets the (absent) offline SLO.
      AddScheduleMetrics(r, QueryTimings(jobs_, t), t, out.completed, r.decoded_tokens,
                         out.attempted, cow0, &out);
      out.sim_layer["tts.jobs"] = static_cast<double>(jobs_.size());
      out.sim_layer["tts.accuracy"] = tts_.accuracy;
      out.sim_layer["tts.oracle_accuracy"] = tts_.oracle_accuracy;
      // No tokens are decoded: the output is the TTS accuracy plus the KV end state (the
      // blocks still live at Finish and the jobs completed).
      uint64_t h = FoldDouble(kFnvOffset, tts_.accuracy);
      h = FoldDouble(h, tts_.oracle_accuracy);
      h = FoldWord(h, static_cast<uint64_t>(r.kv.physical_blocks));
      out.fingerprint = FoldWord(h, static_cast<uint64_t>(out.completed));
    }
    if (tb != nullptr) {
      FinishTraced(*tb, r, span_path, &out);
    }
    return out;
  }

  int64_t CountReferenceMismatches(const PassResult& pass) override {
    // Emitting the job stream must not perturb the search: the same seed without emission
    // must reach the same accuracy.
    hexllm::Rng rng(rng_seed_);
    const htts::MethodResult ref = htts::RunBeamSearch(
        tasks_, theta_, htts::ProcessRewardModel(), kN, kExpansion, /*trials=*/1, rng);
    return ref.accuracy == tts_.accuracy && ref.oracle_accuracy == tts_.oracle_accuracy
               ? 0
               : pass.attempted;
  }

 private:
  static hrt::EngineOptions EngineOpts() {
    hrt::EngineOptions eo;
    eo.model = &hllm::Qwen25_1_5B();
    eo.device = &hexsim::OnePlus12();
    eo.max_batch = kMaxBatch;
    return eo;
  }

  static hserve::ServeOptions Options() {
    hserve::ServeOptions so;
    so.max_batch = kMaxBatch;
    return so;
  }

  hrt::Engine engine_;
  htts::TaskSet tasks_;
  uint64_t rng_seed_;
  double theta_ = 0.0;
  std::vector<hserve::ServeJob> jobs_;
  htts::MethodResult tts_;
  std::unique_ptr<hserve::AnalyticBackend> backend_;
};

}  // namespace

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kBonToy:
      return "bon_toy";
    case WorkloadId::kChatToy:
      return "chat_toy";
    case WorkloadId::kBeamQwen:
      return "beam_qwen1.5b";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, WorkloadId* out) {
  for (const WorkloadId id : kAllWorkloads) {
    if (name == WorkloadName(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

std::unique_ptr<Workload> Workload::Create(WorkloadId id, uint64_t seed) {
  switch (id) {
    case WorkloadId::kBonToy:
      return std::make_unique<BonToy>(seed);
    case WorkloadId::kChatToy:
      return std::make_unique<ChatToy>(seed);
    case WorkloadId::kBeamQwen:
      return std::make_unique<BeamQwen>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
