#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/trace.h"

namespace hrt {
namespace {

TEST(TraceBuilderTest, TracksEndTime) {
  TraceBuilder tb;
  tb.Add("HVX", "a", 0.0, 1.0);
  tb.Add("DMA", "b", 0.5, 2.0);
  EXPECT_DOUBLE_EQ(tb.end_s(), 2.5);
  EXPECT_EQ(tb.events().size(), 2u);
}

TEST(TraceBuilderTest, ChromeJsonIsWellFormed) {
  TraceBuilder tb;
  tb.Add("HVX", "dequant", 0.0, 1e-3);
  tb.Add("HMX", "matmul", 0.5e-3, 0.2e-3);
  const std::string json = tb.ToChromeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dequant\""), std::string::npos);
  EXPECT_NE(json.find("\"matmul\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // One thread-name metadata record per lane.
  size_t meta = 0;
  for (size_t pos = 0; (pos = json.find("thread_name", pos)) != std::string::npos; ++pos) {
    ++meta;
  }
  EXPECT_EQ(meta, 2u);
  // Braces balance.
  int depth = 0;
  for (const char c : json) {
    if (c == '{') {
      ++depth;
    }
    if (c == '}') {
      --depth;
    }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceBuilderTest, ChromeJsonKeepsExactMicrosecondsAndEscapesNames) {
  // Past 10 s of simulated time, 6 significant digits would merge events one mailbox hop
  // (54 us) apart; every timestamp must print its exact microsecond value.
  TraceBuilder tb;
  tb.Add("NPU \"0\"", "step \"7\"", 12345.678901, 54e-6);
  tb.Add("NPU \"0\"", "next", 12345.678955, 1e-6);
  const std::string json = tb.ToChromeJson();
  std::vector<double> ts;
  for (size_t pos = 0; (pos = json.find("\"ts\":", pos)) != std::string::npos; ++pos) {
    ts.push_back(std::strtod(json.c_str() + pos + 5, nullptr));
  }
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0], 12345.678901 * 1e6);
  EXPECT_EQ(ts[1], 12345.678955 * 1e6);
  EXPECT_NE(json.find(R"("NPU \"0\"")"), std::string::npos);
  EXPECT_NE(json.find(R"("step \"7\"")"), std::string::npos);
}

TEST(TraceBuilderTest, AsciiGanttHasOneRowPerLane) {
  TraceBuilder tb;
  tb.Add("HVX", "x", 0.0, 1.0);
  tb.Add("DMA", "y", 0.0, 0.5);
  tb.Add("HVX", "z", 1.0, 0.5);
  const std::string gantt = tb.ToAsciiGantt(40);
  EXPECT_NE(gantt.find("HVX"), std::string::npos);
  EXPECT_NE(gantt.find("DMA"), std::string::npos);
  EXPECT_NE(gantt.find("scale:"), std::string::npos);
  // HVX row covers the full width; DMA only the first half.
  const size_t hvx_line = gantt.find("HVX");
  const size_t dma_line = gantt.find("DMA");
  const std::string hvx_row = gantt.substr(hvx_line, gantt.find('\n', hvx_line) - hvx_line);
  const std::string dma_row = gantt.substr(dma_line, gantt.find('\n', dma_line) - dma_line);
  EXPECT_EQ(hvx_row.find('.'), std::string::npos);   // fully busy
  EXPECT_NE(dma_row.find('.'), std::string::npos);   // idle tail
}

TEST(TraceBuilderTest, EmptyTraceRenders) {
  TraceBuilder tb;
  EXPECT_EQ(tb.ToAsciiGantt(), "(empty trace)\n");
}

TEST(TraceDecodeStepTest, CoversAllLanesAndMatchesStepCost) {
  hrt::EngineOptions o;
  o.model = &hllm::Qwen25_1_5B();
  o.device = &hexsim::OnePlus12();
  const Engine engine(o);
  const TraceBuilder tb = TraceDecodeStep(engine, 8, 1024);
  bool has_hvx = false, has_dma = false, has_cpu = false, has_comm = false;
  for (const auto& e : tb.events()) {
    has_hvx |= e.lane == "HVX";
    has_dma |= e.lane == "DMA";
    has_cpu |= e.lane == "CPU";
    has_comm |= e.lane == "COMM";
  }
  EXPECT_TRUE(has_hvx);
  EXPECT_TRUE(has_dma);
  EXPECT_TRUE(has_cpu);
  EXPECT_TRUE(has_comm);
  // The trace span equals the step's total latency.
  EXPECT_NEAR(tb.end_s(), engine.DecodeStep(8, 1024).total_s, 1e-9);
  // One linear block per layer on the DMA lane.
  int dma_blocks = 0;
  for (const auto& e : tb.events()) {
    dma_blocks += (e.lane == "DMA") ? 1 : 0;
  }
  EXPECT_EQ(dma_blocks, hllm::Qwen25_1_5B().layers);
}

}  // namespace
}  // namespace hrt
