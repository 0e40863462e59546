#include "src/runtime/trace.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "src/base/check.h"
#include "src/obs/json.h"

namespace hrt {

void TraceBuilder::Add(std::string lane, std::string name, double start_s, double dur_s) {
  HEXLLM_CHECK(start_s >= 0.0 && dur_s >= 0.0);
  end_s_ = std::max(end_s_, start_s + dur_s);
  events_.push_back({std::move(lane), std::move(name), start_s, dur_s});
}

std::string TraceBuilder::ToChromeJson() const {
  // Chrome trace-event format: "X" (complete) events with microsecond timestamps; one tid
  // per lane, named by a "thread_name" metadata event.
  std::map<std::string, int> lane_tid;
  obs::Json events = obs::Json::Array();
  for (const auto& e : events_) {
    if (lane_tid.find(e.lane) == lane_tid.end()) {
      const int tid = static_cast<int>(lane_tid.size()) + 1;
      lane_tid[e.lane] = tid;
      obs::Json args = obs::Json::Object();
      args.Set("name", e.lane);
      obs::Json meta = obs::Json::Object();
      meta.Set("name", "thread_name");
      meta.Set("ph", "M");
      meta.Set("pid", 1);
      meta.Set("tid", tid);
      meta.Set("args", std::move(args));
      events.Append(std::move(meta));
    }
  }
  for (const auto& e : events_) {
    obs::Json x = obs::Json::Object();
    x.Set("name", e.name);
    x.Set("ph", "X");
    x.Set("pid", 1);
    x.Set("tid", lane_tid.at(e.lane));
    x.Set("ts", e.start_s * 1e6);
    x.Set("dur", e.dur_s * 1e6);
    events.Append(std::move(x));
  }
  obs::Json doc = obs::Json::Object();
  doc.Set("traceEvents", std::move(events));
  return doc.Dump();
}

std::string TraceBuilder::ToAsciiGantt(int width) const {
  HEXLLM_CHECK(width >= 10);
  if (events_.empty() || end_s_ <= 0.0) {
    return "(empty trace)\n";
  }
  // Collect lanes in first-seen order.
  std::vector<std::string> lanes;
  for (const auto& e : events_) {
    if (std::find(lanes.begin(), lanes.end(), e.lane) == lanes.end()) {
      lanes.push_back(e.lane);
    }
  }
  std::ostringstream os;
  for (const auto& lane : lanes) {
    std::string bar(static_cast<size_t>(width), '.');
    for (const auto& e : events_) {
      if (e.lane != lane) {
        continue;
      }
      const int from = static_cast<int>(e.start_s / end_s_ * width);
      int to = static_cast<int>(std::ceil((e.start_s + e.dur_s) / end_s_ * width));
      to = std::min(to, width);
      const char fill = e.name.empty() ? '#' : e.name[0];
      for (int i = from; i < to; ++i) {
        bar[static_cast<size_t>(i)] = fill;
      }
    }
    os << (lane + std::string(5 - std::min<size_t>(5, lane.size()), ' ')) << " |" << bar
       << "|\n";
  }
  os << "scale: |" << std::string(static_cast<size_t>(width), '-') << "| = "
     << end_s_ * 1e3 << " ms\n";
  return os.str();
}

TraceBuilder TraceDecodeStep(const Engine& engine, int batch, int context) {
  TraceBuilder tb;
  const StepCost cost = engine.DecodeStep(batch, context);
  const hllm::ModelConfig& m = *engine.options().model;
  const int layers = m.layers;

  // Per-layer linear block: DMA, dequant (HVX) and HMX overlap within the block; blocks
  // run back-to-back. Split the aggregate cost evenly for visualization.
  const double lin_block = cost.linear_s / layers;
  const double dma_block = cost.dma_busy_s / layers;
  const double hvx_block = cost.hvx_busy_s / layers;  // busy, not latency — shown as load
  const double hmx_block = cost.hmx_busy_s / layers;
  double t = 0.0;
  for (int l = 0; l < layers; ++l) {
    const std::string suffix = " L" + std::to_string(l);
    tb.Add("DMA", "dma" + suffix, t, std::min(dma_block, lin_block));
    tb.Add("HVX", "vector" + suffix, t, std::min(hvx_block, lin_block));
    if (hmx_block > 0.0) {
      tb.Add("HMX", "matmul" + suffix, t, std::min(hmx_block, lin_block));
    }
    t += lin_block;
  }
  tb.Add("HVX", "attention+softmax", t, cost.attention_s);
  t += cost.attention_s;
  tb.Add("HVX", "misc ops", t, cost.misc_s);
  t += cost.misc_s;
  tb.Add("COMM", "mailbox + cache maintenance", t, cost.comm_s);
  t += cost.comm_s;
  tb.Add("CPU", "lm_head (vocab projection)", t, cost.lm_head_s);
  return tb;
}

}  // namespace hrt
