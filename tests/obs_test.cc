// Tests for the observability layer (src/obs) and its integration points: registry
// semantics, the JSON writer's exact output, snapshot serialization under the frozen schema
// (docs/metrics_schema.md), and the serving runtime's embedded metrics snapshot agreeing
// with ScheduleResult's scalar fields.
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/fp16.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/softmax.h"
#include "src/kvcache/kv_block_manager.h"
#include "src/llm/model_config.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/runtime/engine.h"
#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"

namespace obs {
namespace {

// --- registry semantics ---

TEST(RegistryTest, CounterAccumulatesAndDefaultsToZero) {
  Registry reg;
  Counter& c = reg.counter("unit.events");
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  // Same (name, label) returns the same metric.
  EXPECT_EQ(&reg.counter("unit.events"), &c);
  reg.Count("unit.events", 8);
  EXPECT_EQ(c.value(), 50);
}

TEST(RegistryTest, GaugeLastWriteWins) {
  Registry reg;
  Gauge& g = reg.gauge("unit.level");
  EXPECT_EQ(g.value(), 0.0);
  g.Set(2.5);
  g.Set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
  reg.Set("unit.level", 7.0);
  EXPECT_EQ(g.value(), 7.0);
}

TEST(RegistryTest, LabeledSeriesAreDistinctMetrics) {
  Registry reg;
  reg.Count("unit.tag_seconds", 3, "attn.softmax");
  reg.Count("unit.tag_seconds", 5, "attn.qk");
  reg.Count("unit.tag_seconds", 7);  // unlabeled is its own series
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.CounterValue("unit.tag_seconds", "attn.softmax"), 3);
  EXPECT_EQ(s.CounterValue("unit.tag_seconds", "attn.qk"), 5);
  EXPECT_EQ(s.CounterValue("unit.tag_seconds"), 7);
}

TEST(RegistryTest, HistogramBucketPlacement) {
  Registry reg;
  Histogram& h = reg.histogram("unit.latency", HistogramBuckets::Linear(1.0, 3));
  // Bounds 1, 2, 3 plus an overflow bucket.
  ASSERT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0, 3.0}));
  h.Observe(0.5);   // <= 1
  h.Observe(1.0);   // <= 1 (bounds are inclusive upper limits)
  h.Observe(1.5);   // <= 2
  h.Observe(100.0); // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2);
  EXPECT_EQ(h.counts()[1], 1);
  EXPECT_EQ(h.counts()[2], 0);
  EXPECT_EQ(h.counts()[3], 1);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(RegistryTest, ExponentialBucketsGrowByFactor) {
  const HistogramBuckets b = HistogramBuckets::Exponential(1e-5, 4.0, 3);
  ASSERT_EQ(b.bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(b.bounds[0], 1e-5);
  EXPECT_DOUBLE_EQ(b.bounds[1], 4e-5);
  EXPECT_DOUBLE_EQ(b.bounds[2], 16e-5);
}

TEST(RegistryTest, SnapshotIsSortedByNameThenLabel) {
  Registry reg;
  reg.Count("b.second", 1);
  reg.Count("a.first", 1, "z");
  reg.Count("a.first", 1, "a");
  const MetricsSnapshot s = reg.Snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].name, "a.first");
  EXPECT_EQ(s.counters[0].label, "a");
  EXPECT_EQ(s.counters[1].name, "a.first");
  EXPECT_EQ(s.counters[1].label, "z");
  EXPECT_EQ(s.counters[2].name, "b.second");
}

TEST(RegistryTest, LookupReportsAbsenceViaFoundFlag) {
  Registry reg;
  reg.Set("unit.present", 1.0);
  const MetricsSnapshot s = reg.Snapshot();
  bool found = false;
  EXPECT_EQ(s.GaugeValue("unit.present", {}, &found), 1.0);
  EXPECT_TRUE(found);
  EXPECT_EQ(s.CounterValue("unit.absent", {}, &found), 0);
  EXPECT_FALSE(found);
  EXPECT_EQ(s.FindHistogram("unit.absent"), nullptr);
}

TEST(RegistryTest, ClearDropsAllMetrics) {
  Registry reg;
  reg.Count("unit.events", 5);
  reg.Clear();
  EXPECT_TRUE(reg.Snapshot().counters.empty());
  // After Clear the name is free to be a different kind.
  reg.Set("unit.events", 1.0);
  EXPECT_EQ(reg.Snapshot().gauges.size(), 1u);
}

TEST(RegistryDeathTest, KindCollisionAborts) {
  Registry reg;
  reg.counter("unit.events");
  EXPECT_DEATH(reg.gauge("unit.events"), "different kind");
}

// --- JSON writer (the reports' only producer; Python tools are the readers) ---

TEST(JsonTest, DumpTextIsPinned) {
  Json j = Json::Object();
  j.Set("schema_version", 1);
  j.Set("name", "bench");
  j.Set("ratio", 3.25);
  j.Set("flag", true);
  j.Set("off", false);
  j.Set("nothing", Json());
  Json arr = Json::Array();
  arr.Append(1);
  arr.Append(-2.5);
  arr.Append("x");
  j.Set("arr", std::move(arr));
  Json nested = Json::Object();
  nested.Set("k", int64_t{1} << 40);
  nested.Set("empty_arr", Json::Array());
  nested.Set("empty_obj", Json::Object());
  j.Set("nested", std::move(nested));
  j.Set("ratio", 0.5);  // an existing key is replaced in place, keeping its position

  EXPECT_EQ(j.Dump(),
            "{\"schema_version\": 1, \"name\": \"bench\", \"ratio\": 0.5, \"flag\": true, "
            "\"off\": false, \"nothing\": null, \"arr\": [1, -2.5, \"x\"], "
            "\"nested\": {\"k\": 1099511627776, \"empty_arr\": [], \"empty_obj\": {}}}");
  EXPECT_EQ(j.Dump(2),
            "{\n"
            "  \"schema_version\": 1,\n"
            "  \"name\": \"bench\",\n"
            "  \"ratio\": 0.5,\n"
            "  \"flag\": true,\n"
            "  \"off\": false,\n"
            "  \"nothing\": null,\n"
            "  \"arr\": [\n"
            "    1,\n"
            "    -2.5,\n"
            "    \"x\"\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"k\": 1099511627776,\n"
            "    \"empty_arr\": [],\n"
            "    \"empty_obj\": {}\n"
            "  }\n"
            "}");
  EXPECT_EQ(Json(7).Dump(2), "7");
  EXPECT_EQ(Json::Array().Dump(2), "[]");
}

TEST(JsonTest, IntegersStayExact) {
  Json j = Json::Object();
  j.Set("big", int64_t{9007199254740993});  // not representable as a double
  j.Set("neg", int64_t{-9007199254740993});
  EXPECT_EQ(j.Dump(), "{\"big\": 9007199254740993, \"neg\": -9007199254740993}");
}

TEST(JsonTest, DoublesAlwaysReadAsFloatingPoint) {
  // Shortest round-trip digits; an integral double keeps a ".0" suffix so a reader still
  // sees a float (schema fields are typed: counters int, gauges double).
  EXPECT_EQ(Json(1.0).Dump(), "1.0");
  EXPECT_EQ(Json(-3.0).Dump(), "-3.0");
  EXPECT_EQ(Json(0.0).Dump(), "0.0");
  EXPECT_EQ(Json(0.1).Dump(), "0.1");
  EXPECT_EQ(Json(3.25).Dump(), "3.25");
  EXPECT_EQ(Json(3e-5).Dump(), "3e-05");
  EXPECT_EQ(Json(1e300).Dump(), "1e+300");
  EXPECT_EQ(Json(int64_t{1}).Dump(), "1");  // integers never get the suffix
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull) {
  Json arr = Json::Array();
  arr.Append(std::nan(""));
  arr.Append(std::numeric_limits<double>::infinity());
  arr.Append(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(arr.Dump(), "[null, null, null]");
}

TEST(JsonTest, StringsAreEscaped) {
  Json j = Json::Object();
  j.Set("say \"hi\"", std::string("back\\slash\nline\ttab\rret\x01" "ctl/ok"));
  EXPECT_EQ(j.Dump(),
            "{\"say \\\"hi\\\"\": \"back\\\\slash\\nline\\ttab\\rret\\u0001ctl/ok\"}");
}

// --- snapshot serialization under the frozen schema ---

TEST(MetricsSnapshotTest, ToJsonTextIsPinned) {
  Registry reg;
  reg.Count("hexsim.hvx.packets", 1234);
  reg.Count("hexsim.tag_seconds", 7, "attn.softmax");
  reg.Set("kv.sharing_ratio", 2.75);
  reg.Set("serve.rows", 3.0);
  Histogram& h = reg.histogram("serve.step_seconds",
                               HistogramBuckets::Exponential(1e-5, 4.0, 4), "decode");
  h.Observe(3e-5);
  h.Observe(2.0);

  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.ToJson().Dump(2),
            "{\n"
            "  \"schema_version\": 1,\n"
            "  \"counters\": [\n"
            "    {\n"
            "      \"name\": \"hexsim.hvx.packets\",\n"
            "      \"value\": 1234\n"
            "    },\n"
            "    {\n"
            "      \"name\": \"hexsim.tag_seconds\",\n"
            "      \"label\": \"attn.softmax\",\n"
            "      \"value\": 7\n"
            "    }\n"
            "  ],\n"
            "  \"gauges\": [\n"
            "    {\n"
            "      \"name\": \"kv.sharing_ratio\",\n"
            "      \"value\": 2.75\n"
            "    },\n"
            "    {\n"
            "      \"name\": \"serve.rows\",\n"
            "      \"value\": 3.0\n"
            "    }\n"
            "  ],\n"
            "  \"histograms\": [\n"
            "    {\n"
            "      \"name\": \"serve.step_seconds\",\n"
            "      \"label\": \"decode\",\n"
            "      \"bounds\": [\n"
            "        1e-05,\n"
            "        4e-05,\n"
            "        0.00016,\n"
            "        0.00064\n"
            "      ],\n"
            "      \"counts\": [\n"
            "        0,\n"
            "        1,\n"
            "        0,\n"
            "        0,\n"
            "        1\n"
            "      ],\n"
            "      \"count\": 2,\n"
            "      \"sum\": 2.00003,\n"
            "      \"min\": 3e-05,\n"
            "      \"max\": 2.0\n"
            "    }\n"
            "  ]\n"
            "}");
  EXPECT_EQ(MetricsSnapshot{}.ToJson().Dump(),
            "{\"schema_version\": 1, \"counters\": [], \"gauges\": [], \"histograms\": []}");
}

// --- serving integration: the embedded snapshot mirrors ScheduleResult ---

class ObsServingTest : public ::testing::Test {
 protected:
  ObsServingTest() {
    options_.model = &hllm::Qwen25_1_5B();
    options_.device = &hexsim::OnePlus12();
    engine_ = std::make_unique<hrt::Engine>(options_);
  }

  hrt::EngineOptions options_;
  std::unique_ptr<hrt::Engine> engine_;
};

TEST_F(ObsServingTest, SnapshotAgreesWithScheduleResult) {
  // Two parallel samples share a 40-token prompt (a partial 3rd block at the default
  // 16-token block size), then a third job forks the first sample's retained KV — the
  // ingredients for prefix sharing, CoW splits, and a fork admission all at once.
  std::vector<hserve::ServeJob> jobs;
  for (int i = 0; i < 2; ++i) {
    hserve::ServeJob j;
    j.id = i;
    j.prompt_group = 0;
    j.prompt_tokens = 40;
    j.decode_tokens = 24;
    jobs.push_back(j);
  }
  hserve::ServeJob child;
  child.id = 2;
  child.prompt_group = 0;
  child.barrier = 1;
  child.parent_job = 0;
  child.prompt_tokens = 40;
  child.context_tokens = 24;  // = parent's final KV length - prompt
  child.decode_tokens = 8;
  jobs.push_back(child);

  hserve::AnalyticBackend backend(*engine_);
  hserve::ServeOptions so;
  so.max_batch = 4;
  const hserve::ScheduleResult r = hserve::ContinuousBatcher(backend, so).Run(jobs);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_GT(r.steps, 0);
  EXPECT_EQ(r.forked_admissions, 1);
  EXPECT_GT(r.kv.cow_splits, 0);  // diverging writes privatized shared blocks

  const obs::MetricsSnapshot& m = r.metrics;
  // serve.* counters mirror the scalar fields.
  EXPECT_EQ(m.CounterValue("serve.steps"), r.steps);
  EXPECT_EQ(m.CounterValue("serve.decoded_tokens"), r.decoded_tokens);
  EXPECT_EQ(m.CounterValue("serve.prefilled_tokens"), r.prefilled_tokens);
  EXPECT_EQ(m.CounterValue("serve.forked_admissions"), r.forked_admissions);
  EXPECT_EQ(m.CounterValue("serve.admission_deferrals"), r.admission_deferrals);
  EXPECT_EQ(m.CounterValue("serve.admissions"),
            static_cast<int64_t>(r.admissions.size()));
  EXPECT_EQ(m.CounterValue("serve.completions"),
            static_cast<int64_t>(r.completions.size()));
  EXPECT_DOUBLE_EQ(m.GaugeValue("serve.makespan_seconds"), r.makespan_s);
  EXPECT_DOUBLE_EQ(m.GaugeValue("serve.energy_joules"), r.energy_j);
  EXPECT_DOUBLE_EQ(m.GaugeValue("serve.tokens_per_second"), r.tokens_per_second);
  // kv.* mirrors the KvStats embedded in the result.
  EXPECT_EQ(m.CounterValue("kv.cow_splits"), r.kv.cow_splits);
  EXPECT_DOUBLE_EQ(m.GaugeValue("kv.physical_blocks"),
                   static_cast<double>(r.kv.physical_blocks));
  EXPECT_DOUBLE_EQ(m.GaugeValue("kv.peak_physical_blocks"),
                   static_cast<double>(r.kv.peak_physical_blocks));
  EXPECT_DOUBLE_EQ(m.GaugeValue("kv.peak_logical_blocks"),
                   static_cast<double>(r.kv.peak_logical_blocks));
  EXPECT_DOUBLE_EQ(m.GaugeValue("kv.sharing_ratio"), r.kv.sharing_ratio());
  // Every decode step observed the latency histogram.
  const obs::HistogramSample* steps = m.FindHistogram("serve.step_seconds");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->count, r.steps);
  const obs::HistogramSample* active = m.FindHistogram("serve.step_active_rows");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->count, r.steps);
  EXPECT_LE(active->max, so.max_batch);
}

TEST_F(ObsServingTest, ErrorResultStillCarriesSnapshot) {
  hserve::ServeJob bad;
  bad.id = 0;
  bad.decode_tokens = 0;  // invalid: must decode at least one token
  hserve::AnalyticBackend backend(*engine_);
  const hserve::ScheduleResult r =
      hserve::ContinuousBatcher(backend, hserve::ServeOptions{}).Run({bad});
  ASSERT_FALSE(r.error.empty());
  bool found = false;
  EXPECT_EQ(r.metrics.CounterValue("serve.steps", {}, &found), 0);
  EXPECT_TRUE(found);
}

TEST(DeviceExportTest, KernelCountersFlowThroughTheLedger) {
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  hkern::ExpLut lut(dev);
  const int rows = 2, cols = 128;
  auto* s = reinterpret_cast<hexllm::F16*>(dev.tcm().Alloc(rows * cols * 2));
  for (int i = 0; i < rows * cols; ++i) {
    s[i] = hexllm::F16(0.25f);
  }
  hkern::SoftmaxRowsF16(dev, hkern::SoftmaxVariant::kLut, &lut, s, rows, cols);

  Registry reg;
  hexsim::ExportDeviceMetrics(dev, reg);
  const MetricsSnapshot m = reg.Snapshot();
  EXPECT_EQ(m.CounterValue("kernel.softmax_rows.calls"), 1);
  EXPECT_EQ(m.CounterValue("kernel.exp_lut.builds"), 1);
  EXPECT_GT(m.CounterValue("hexsim.hvx.packets"), 0);
  EXPECT_GT(m.CounterValue("hexsim.hvx.vgather_ops"), 0);
  EXPECT_GT(m.GaugeValue("hexsim.tcm.high_watermark_bytes"), 0.0);
  EXPECT_EQ(m.GaugeValue("hexsim.tcm.capacity_bytes"),
            static_cast<double>(dev.tcm().capacity()));
}

TEST(ExportKvStatsTest, PublishesEveryField) {
  hkv::KvStats stats;
  stats.block_tokens = 16;
  stats.bytes_per_block = 4096;
  stats.physical_blocks = 10;
  stats.peak_physical_blocks = 12;
  stats.logical_blocks = 25;
  stats.peak_logical_blocks = 30;
  stats.cow_splits = 3;
  Registry reg;
  hkv::ExportKvStats(stats, reg);
  const MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.CounterValue("kv.cow_splits"), 3);
  EXPECT_EQ(s.GaugeValue("kv.block_tokens"), 16.0);
  EXPECT_EQ(s.GaugeValue("kv.bytes_per_block"), 4096.0);
  EXPECT_EQ(s.GaugeValue("kv.physical_blocks"), 10.0);
  EXPECT_EQ(s.GaugeValue("kv.peak_physical_blocks"), 12.0);
  EXPECT_EQ(s.GaugeValue("kv.logical_blocks"), 25.0);
  EXPECT_EQ(s.GaugeValue("kv.peak_logical_blocks"), 30.0);
  EXPECT_DOUBLE_EQ(s.GaugeValue("kv.sharing_ratio"), 2.5);
}

}  // namespace
}  // namespace obs
