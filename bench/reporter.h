// bench::Reporter — the reproduction harness's report writer.
//
// Every bench constructs one Reporter, prints its human-readable rows exactly as before
// (the Reporter reproduces the old Title/Section/Note banners), and additionally records
// structured results: tagged rows, measured-vs-paper reference comparisons, free-form notes,
// and obs::MetricsSnapshot attachments. On destruction the Reporter writes
// `BENCH_<name>.json` — a schema-versioned machine-readable artifact (layout frozen in
// docs/metrics_schema.md) that CI validates and archives.
//
// Environment:
//   HEXLLM_BENCH_OUT_DIR  directory for the JSON artifact (default: current directory)
//   HEXLLM_BENCH_SMOKE=1  benches that honor SmokePreset() shrink their sweeps for CI
//
// Usage:
//   bench::Reporter rep("fig11_decode_throughput",
//                       "End-to-end decoding throughput vs batch size", "Figure 11");
//   rep.Section("OnePlus 13 (8 Elite)");
//   obs::Json& row = rep.AddRow("decode_throughput");   // valid until the next AddRow
//   row.Set("model", "qwen2.5-1.5b");
//   row.Set("batch", 16);
//   row.Set("tokens_per_second", tps);
//   rep.AddReference("qwen2.5-1.5b b=16 tokens/s", tps, 60.4, "tokens/s");
//   rep.AttachMetrics(result.metrics, "best_of_n");
//   rep.Note("throughput rises strongly with batch ...");
#ifndef BENCH_REPORTER_H_
#define BENCH_REPORTER_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"

// Injected by bench/CMakeLists.txt from `git rev-parse --short HEAD` at configure time.
#ifndef HEXLLM_GIT_SHA
#define HEXLLM_GIT_SHA "unknown"
#endif

namespace bench {

// Version of the BENCH_*.json layout. Additive fields do NOT bump this; renaming or
// retyping an existing field does (docs/metrics_schema.md).
inline constexpr int kBenchSchemaVersion = 1;

// True when HEXLLM_BENCH_SMOKE=1: benches shrink their sweeps to a CI-sized preset while
// keeping the report layout identical.
inline bool SmokePreset() {
  const char* v = std::getenv("HEXLLM_BENCH_SMOKE");
  return v != nullptr && v[0] == '1';
}

class Reporter {
 public:
  Reporter(std::string_view name, std::string_view title, std::string_view paper_ref)
      : name_(name), title_(title), paper_ref_(paper_ref) {
    std::printf("\n================================================================\n");
    std::printf("%s\n(reproduces %s)\n", title_.c_str(), paper_ref_.c_str());
    std::printf("================================================================\n");
  }

  ~Reporter() { Write(); }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  // Prints the section banner; subsequent rows carry the section name.
  void Section(std::string_view name) {
    section_ = std::string(name);
    std::printf("\n--- %s ---\n", section_.c_str());
  }

  void Note(std::string_view text) {
    notes_.emplace_back(text);
    std::printf("note: %s\n", notes_.back().c_str());
  }

  // Appends a structured result row tagged with `series` (and the current section, if any)
  // and returns it for field assignment. The reference is valid until the next AddRow.
  obs::Json& AddRow(std::string_view series) {
    rows_.push_back(obs::Json::Object());
    obs::Json& row = rows_.back();
    row.Set("series", std::string(series));
    if (!section_.empty()) {
      row.Set("section", section_);
    }
    return row;
  }

  // Records a measured value next to the value the paper reports for it — the comparisons
  // EXPERIMENTS.md tracks per figure/table.
  void AddReference(std::string_view metric, double measured, double paper_value,
                    std::string_view unit = {}) {
    obs::Json ref = obs::Json::Object();
    ref.Set("metric", std::string(metric));
    ref.Set("measured", measured);
    ref.Set("paper", paper_value);
    if (!unit.empty()) {
      ref.Set("unit", std::string(unit));
    }
    references_.push_back(std::move(ref));
  }

  // Attaches a full metrics snapshot (serving runs, simulated-device activity profiles).
  void AttachMetrics(const obs::MetricsSnapshot& snapshot, std::string_view label = {}) {
    obs::Json entry = obs::Json::Object();
    entry.Set("label", std::string(label));
    entry.Set("snapshot", snapshot.ToJson());
    metrics_.push_back(std::move(entry));
  }

  std::string OutputPath() const {
    const char* dir = std::getenv("HEXLLM_BENCH_OUT_DIR");
    const std::string d = (dir != nullptr && dir[0] != '\0') ? dir : ".";
    return d + "/BENCH_" + name_ + ".json";
  }

  // Writes the artifact (idempotent; the destructor calls it). A write failure warns on
  // stderr instead of failing the bench — the text output already happened.
  void Write() {
    if (written_) {
      return;
    }
    written_ = true;
    obs::Json root = obs::Json::Object();
    root.Set("schema_version", kBenchSchemaVersion);
    root.Set("bench", name_);
    root.Set("title", title_);
    root.Set("paper_ref", paper_ref_);
    root.Set("git_sha", HEXLLM_GIT_SHA);
    root.Set("smoke", SmokePreset());
    // Environment knobs that shape the run (additive field, no schema bump —
    // docs/metrics_schema.md). Unset knobs record as "" so any two reports diff
    // field-for-field regardless of which knobs the runs exported.
    obs::Json env = obs::Json::Object();
    for (const char* knob : {"HEXLLM_NUM_THREADS", "HEXLLM_BENCH_SMOKE"}) {
      const char* v = std::getenv(knob);
      env.Set(knob, std::string(v != nullptr ? v : ""));
    }
    root.Set("env", std::move(env));
    obs::Json notes = obs::Json::Array();
    for (const std::string& n : notes_) {
      notes.Append(n);
    }
    root.Set("notes", std::move(notes));
    obs::Json rows = obs::Json::Array();
    for (obs::Json& r : rows_) {
      rows.Append(std::move(r));
    }
    root.Set("rows", std::move(rows));
    obs::Json refs = obs::Json::Array();
    for (obs::Json& r : references_) {
      refs.Append(std::move(r));
    }
    root.Set("references", std::move(refs));
    obs::Json metrics = obs::Json::Array();
    for (obs::Json& m : metrics_) {
      metrics.Append(std::move(m));
    }
    root.Set("metrics", std::move(metrics));
    const std::string path = OutputPath();
    if (obs::WriteFile(path, root.Dump(2) + "\n")) {
      std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "[bench] warning: could not write %s\n", path.c_str());
    }
  }

 private:
  std::string name_;
  std::string title_;
  std::string paper_ref_;
  std::string section_;
  std::vector<std::string> notes_;
  std::vector<obs::Json> rows_;
  std::vector<obs::Json> references_;
  std::vector<obs::Json> metrics_;
  bool written_ = false;
};

}  // namespace bench

#endif  // BENCH_REPORTER_H_
