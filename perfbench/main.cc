// The serving benchmark program.
//
//   perfbench --workload <bon_toy|chat_toy|beam_qwen1.5b> --seed <n> --seconds <s>
//             --trace <0|1> [--expected <file>] [--out-dir <dir>]
//
// Pins the hexec lane count to kLanes (capped at the hardware threads) and clears the
// environment knobs that would change what is served. Sets the workload up kSetups times
// (reporting the median as setup_s), then serves its whole input repeatedly for --seconds
// of host time with tracing off. --trace 1 instead splits --seconds between untraced passes
// and passes through the TracedBackend decorator, checks that every simulated metric is
// bit-identical between the two, writes the first traced pass's spans to
// <out-dir>/<workload>_seed<n>.trace.json and reports the per-layer metrics and the
// tracing overhead. Every pass must reproduce the first pass's outputs; a sample of requests
// is re-served alone as a reference; the output fingerprint is compared with the recorded
// one when the --expected file lists this (workload, seed).
//
// The last line of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when the outputs are correct.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/exec/thread_pool.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"host_tok_s", "tok/s"},      {"peak_rss_mb", "MB"},
    {"sim_tok_s", "tok/s"},     {"sim_tpot_p50_ms", "ms"},    {"sim_tpot_p90_ms", "ms"},
    {"sim_ttft_p50_ms", "ms"},  {"sim_ttft_p90_ms", "ms"},    {"sim_mj_per_tok", "mJ/tok"},
    {"goodput_tok_s", "tok/s"}, {"slo_attain", "frac"},
};

constexpr MetricSpec kPerLayer[] = {
    {"frontend.admit_wait_p50_ms", "ms"},
    {"frontend.admit_wait_p90_ms", "ms"},
    {"frontend.session_forks", "count"},
    {"serving.self_host_s", "s"},
    {"serving.steps", "count"},
    {"serving.avg_active_batch", "rows"},
    {"serving.slot_utilization", "frac"},
    {"serving.admission_deferrals", "count"},
    {"serving.preemptions", "count"},
    {"serving.resumes", "count"},
    {"serving.prefill_sim_s", "s"},
    {"serving.decode_sim_s", "s"},
    {"serving.overlap_saved_sim_s", "s"},
    {"backend.step_calls", "count"},
    {"backend.step_host_s", "s"},
    {"backend.admit_calls", "count"},
    {"backend.admit_host_s", "s"},
    {"backend.step_host_us_per_row.b1", "us"},
    {"backend.step_host_us_per_row.b2-4", "us"},
    {"backend.step_host_us_per_row.b5-8", "us"},
    {"backend.step_host_us_per_row.b9-16", "us"},
    {"backend.admit_host_us_per_prefill_token", "us"},
    {"step.linear_sim_s", "s"},
    {"step.attention_sim_s", "s"},
    {"step.misc_sim_s", "s"},
    {"step.lm_head_sim_s", "s"},
    {"step.comm_sim_s", "s"},
    {"step.total_sim_s", "s"},
    {"step.reconcile_residual_s", "s"},
    {"hexsim.linear.dequant_s", "s"},
    {"hexsim.gemm.hmx_s", "s"},
    {"hexsim.gemm.pack_s", "s"},
    {"hexsim.attn.qk_s", "s"},
    {"hexsim.attn.softmax_s", "s"},
    {"hexsim.attn.pv_s", "s"},
    {"hexsim.attn.rescale_s", "s"},
    {"hexsim.attn.pack_s", "s"},
    {"hexsim.misc_s", "s"},
    {"hexsim.dma_s", "s"},
    {"hexsim.hvx_busy_s", "s"},
    {"hexsim.hmx_busy_s", "s"},
    {"hexsim.dma_busy_s", "s"},
    {"hexsim.cpu_busy_s", "s"},
    {"hexsim.hmx_tile_ops", "count"},
    {"hexsim.hvx_packets", "count"},
    {"hexsim.vlut16_ops", "count"},
    {"hexsim.ddr_bytes", "bytes"},
    {"kernels.flash_attention_calls", "count"},
    {"kernels.gemm_hmx_calls", "count"},
    {"kernels.dequant_calls", "count"},
    {"hexsim.host_ns_per_tile_op", "ns"},
    {"kv.peak_physical_mb", "MB"},
    {"kv.peak_logical_mb", "MB"},
    {"kv.sharing_ratio", "ratio"},
    {"kv.cow_splits", "count"},
    {"kv.end_physical_blocks", "count"},
    {"tts.jobs", "count"},
    {"tts.emit_host_s", "s"},
    {"tts.accuracy", "frac"},
    {"tts.oracle_accuracy", "frac"},
    {"exec.lanes", "count"},
    {"exec.workspace_mb", "MB"},
    {"trace.overhead_pct", "%"},
};

// hexec lanes the benchmark runs at, capped at the hardware threads.
constexpr int kLanes = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Environment knobs the library reads that change what is served or how it is priced.
// HEXLLM_NUM_THREADS is set to the pinned lane count; the others are cleared.
constexpr const char* kClearedKnobs[] = {
    "HEXLLM_NO_WEIGHT_CACHE",    "HEXLLM_KV_DTYPE",   "HEXLLM_ATTN_SINK_BLOCKS",
    "HEXLLM_ATTN_WINDOW_BLOCKS", "HEXLLM_SPEC_GAMMA", "HEXLLM_KV_OFFLOAD_GBPS",
};

struct Args {
  WorkloadId workload = WorkloadId::kBonToy;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string expected;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <bon_toy|chat_toy|beam_qwen1.5b> --seed <n> "
               "--seconds <s> --trace <0|1> [--expected <file>] [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

bool ParseInt(const std::string& s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string v = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      if (!ParseWorkload(v, &a.workload)) {
        Usage("unknown workload '" + v + "'");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0) {
        Usage("--seed takes a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(v, 1, 3600, &n)) {
        Usage("--seconds takes an integer in [1, 3600]");
      }
      a.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseInt(v, 0, 1, &n)) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = n == 1;
      have_trace = true;
    } else if (flag == "--expected") {
      a.expected = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host throughput of a phase: the 90th percentile (nearest rank) of its per-pass figures.
// On a shared host, contention from neighbours only ever slows a pass, and it comes in
// stretches of seconds that can cover half of a run of short passes; the fastest tenth
// tracks the program's own speed. A phase of one or two long passes reports its fastest.
double HostThroughput(std::vector<double> per_pass) {
  if (per_pass.empty()) {
    return 0.0;
  }
  std::sort(per_pass.begin(), per_pass.end());
  const size_t rank = static_cast<size_t>(std::ceil(0.9 * static_cast<double>(per_pass.size())));
  return per_pass[std::max<size_t>(rank, 1) - 1];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Looks up the recorded fingerprint of (workload, seed); lines read
// "<workload> <seed> <16 hex digits>". Returns false when none is recorded.
bool ExpectedFingerprint(const std::string& path, const std::string& workload, uint64_t seed,
                         uint64_t* out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string w;
    uint64_t s = 0;
    std::string hex;
    if (ls >> w >> s >> hex && w == workload && s == seed) {
      *out = std::strtoull(hex.c_str(), nullptr, 16);
      return true;
    }
  }
  return false;
}

// The untraced and traced runs must agree on every simulated number they both report.
int CountSimDifferences(const PassResult& a, const PassResult& b) {
  int diffs = 0;
  const auto compare = [&](const MetricMap& x, const MetricMap& y, const char* what) {
    for (const auto& [name, v] : x) {
      const auto it = y.find(name);
      if (it != y.end() && it->second != v) {
        std::fprintf(stderr, "%s %s differs: %.17g vs %.17g\n", what, name.c_str(), v,
                     it->second);
        ++diffs;
      }
    }
  };
  compare(a.sim, b.sim, "sim");
  compare(a.sim_layer, b.sim_layer, "sim layer");
  return diffs;
}

// Tallies one measured phase: whole passes while the next one is expected to end within
// `seconds` of host time (at least one).
struct Phase {
  std::vector<PassResult> passes;
  std::vector<double> host_tok_s;
};

Phase RunPhase(Workload& w, double seconds, bool traced, const std::string& span_path) {
  Phase p;
  double elapsed = 0.0;
  while (p.passes.empty() ||
         elapsed + elapsed / static_cast<double>(p.passes.size()) <= seconds) {
    PassResult r = w.RunPass(traced, p.passes.empty() ? span_path : std::string());
    elapsed += r.host_s;
    p.host_tok_s.push_back(static_cast<double>(r.decoded_tokens) / r.host_s);
    const bool failed = !r.error.empty();
    p.passes.push_back(std::move(r));
    if (failed) {
      break;  // a failed run leaves the backend's KV state behind: stop serving
    }
  }
  return p;
}

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Fail(const std::string& why) {
    if (correct) {
      std::fprintf(stderr, "check failed: %s\n", why.c_str());
    }
    correct = false;
  }
};

// Checks every pass of a phase against `ref` (the first untraced pass): completion, token
// checksums per request, and every simulated metric.
void CheckPhase(const Phase& p, const PassResult& ref, Tally* t) {
  for (const PassResult& r : p.passes) {
    t->attempted += r.attempted;
    t->failed += r.attempted - r.completed;
    if (!r.error.empty()) {
      t->Fail("serving error: " + r.error);
      continue;
    }
    int64_t mismatched = 0;
    for (size_t i = 0; i < r.request_checksums.size(); ++i) {
      mismatched += i >= ref.request_checksums.size() ||
                            r.request_checksums[i] != ref.request_checksums[i]
                        ? 1
                        : 0;
    }
    t->failed += mismatched;
    if (mismatched > 0 || r.fingerprint != ref.fingerprint) {
      t->Fail("a pass did not reproduce the first pass's outputs");
    }
    if (CountSimDifferences(ref, r) > 0) {
      t->Fail("a pass did not reproduce the first pass's simulated metrics");
    }
    if (r.sim_layer.at("kv.end_physical_blocks") != 0.0) {
      t->Fail("KV blocks leaked at Finish");
    }
  }
}

void PrintMetric(std::string* json, const char* name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name, std::isfinite(value) ? value : 0.0, unit);
  *json += buf;
  std::printf("  %-44s %.6g %s\n", name, value, unit);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // glibc raises its mmap threshold as large blocks are freed, so the 8 MiB device buffers
  // freed between set-ups stay on the heap or not depending on thread timing, and peak RSS
  // moved by 8 MiB steps from run to run. A fixed threshold returns every large block.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  const int lanes =
      std::max(1, std::min<int>(kLanes, static_cast<int>(std::thread::hardware_concurrency())));
  // The global pool is sized from the environment on first use: pin the lane count here.
  setenv("HEXLLM_NUM_THREADS", std::to_string(lanes).c_str(), 1);
  for (const char* knob : kClearedKnobs) {
    unsetenv(knob);
  }
  const std::string name = WorkloadName(args.workload);
  std::printf("perfbench %s seed %" PRIu64 " seconds %g trace %d lanes %d\n", name.c_str(),
              args.seed, args.seconds, args.trace ? 1 : 0, lanes);

  std::vector<double> setup_s;
  std::vector<double> emit_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const auto t0 = std::chrono::steady_clock::now();
    w = Workload::Create(args.workload, args.seed);
    setup_s.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    emit_s.push_back(w->emit_host_s());
  }

  Tally tally;
  if (!w->setup_error().empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", w->setup_error().c_str());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n");
    return 1;
  }
  // A traced run measures the untraced passes it compares against within the same budget.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const Phase plain = RunPhase(*w, phase_s, /*traced=*/false, "");
  // Read before the traced passes, whose spans stay in memory, and before the reference
  // re-serve, which builds its own device and backend.
  const double peak_rss_mb = PeakRssMb();
  const PassResult& ref = plain.passes.front();
  CheckPhase(plain, ref, &tally);
  Phase traced;
  std::string span_path;
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    span_path = args.out_dir + "/" + name + "_seed" + std::to_string(args.seed) + ".trace.json";
    traced = RunPhase(*w, phase_s, /*traced=*/true, span_path);
    CheckPhase(traced, ref, &tally);
  }

  const int64_t ref_bad = w->CountReferenceMismatches(ref);
  if (ref_bad != 0) {
    tally.failed += std::max<int64_t>(ref_bad, 0);
    tally.Fail(ref_bad < 0 ? "the reference run could not be served"
                           : std::to_string(ref_bad) + " requests differ from their reference");
  }
  char fp_hex[32];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016" PRIx64, ref.fingerprint);
  uint64_t expected = 0;
  if (!args.expected.empty() && ExpectedFingerprint(args.expected, name, args.seed, &expected)) {
    if (expected != ref.fingerprint) {
      tally.failed = tally.attempted;
      tally.Fail("output fingerprint " + std::string(fp_hex) + " differs from the recorded one");
    }
    std::printf("fingerprint %s (recorded)\n", fp_hex);
  } else {
    std::printf("fingerprint %s (no recorded value for this seed)\n", fp_hex);
  }

  const double host_tok_s = HostThroughput(plain.host_tok_s);
  std::string json;
  std::printf("passes %zu untraced%s, failed_frac %.6g\n", plain.passes.size(),
              args.trace ? (", " + std::to_string(traced.passes.size()) + " traced").c_str() : "",
              tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 0.0);
  if (!args.trace) {
    MetricMap m = ref.sim;
    m["setup_s"] = Median(setup_s);
    m["host_tok_s"] = host_tok_s;
    m["peak_rss_mb"] = peak_rss_mb;
    for (const MetricSpec& s : kEndToEnd) {
      PrintMetric(&json, s.name, m[s.name], s.unit);
    }
  } else {
    const PassResult& first = traced.passes.front();
    MetricMap m = first.sim_layer;
    for (const auto& [k, v] : first.host_layer) {
      std::vector<double> across;
      for (const PassResult& r : traced.passes) {
        across.push_back(r.host_layer.at(k));
      }
      m[k] = Median(across);
    }
    m["tts.emit_host_s"] = Median(emit_s);
    m["exec.lanes"] = hexec::MaxSlots();
    const double traced_tok_s = HostThroughput(traced.host_tok_s);
    m["trace.overhead_pct"] = (host_tok_s - traced_tok_s) / host_tok_s * 100.0;
    std::printf("tracing overhead: host_tok_s untraced %.6g traced %.6g (%.3g%%)\n",
                host_tok_s, traced_tok_s, m["trace.overhead_pct"]);
    std::printf("step cost reconcile residual: %.3g s (step.total_sim_s %.9g)\n",
                m["step.reconcile_residual_s"], m["step.total_sim_s"]);
    std::printf("spans: %s\n", span_path.c_str());
    for (const MetricSpec& s : kPerLayer) {
      PrintMetric(&json, s.name, m[s.name], s.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {%s}}\n",
              tally.correct ? "true" : "false", tally.attempted, tally.failed, json.c_str());
  return tally.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
