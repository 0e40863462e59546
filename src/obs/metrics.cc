#include "src/obs/metrics.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace obs {

HistogramBuckets HistogramBuckets::Exponential(double start, double factor, int count) {
  HEXLLM_CHECK(start > 0.0 && factor > 1.0 && count >= 1);
  HistogramBuckets b;
  b.bounds.reserve(static_cast<size_t>(count));
  double v = start;
  for (int i = 0; i < count; ++i) {
    b.bounds.push_back(v);
    v *= factor;
  }
  return b;
}

HistogramBuckets HistogramBuckets::Linear(double width, int count) {
  HEXLLM_CHECK(width > 0.0 && count >= 1);
  HistogramBuckets b;
  b.bounds.reserve(static_cast<size_t>(count));
  for (int i = 1; i <= count; ++i) {
    b.bounds.push_back(width * i);
  }
  return b;
}

Histogram::Histogram(HistogramBuckets buckets) : buckets_(std::move(buckets)) {
  for (size_t i = 1; i < buckets_.bounds.size(); ++i) {
    HEXLLM_CHECK_MSG(buckets_.bounds[i] > buckets_.bounds[i - 1],
                     "histogram bounds must be strictly increasing");
  }
  counts_.assign(buckets_.bounds.size() + 1, 0);
}

void Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t i = 0;
  while (i < buckets_.bounds.size() && v > buckets_.bounds[i]) {
    ++i;
  }
  ++counts_[i];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Registry::CheckKind(const Key& key, Kind kind) {
  const auto [it, inserted] = kinds_.try_emplace(key, kind);
  HEXLLM_CHECK_MSG(it->second == kind,
                   "metric re-registered as a different kind (name/label collision)");
}

Counter& Registry::counter(std::string_view name, std::string_view label) {
  Key key{std::string(name), std::string(label)};
  std::lock_guard<std::mutex> lock(mu_);
  CheckKind(key, Kind::kCounter);
  auto& slot = counters_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& Registry::gauge(std::string_view name, std::string_view label) {
  Key key{std::string(name), std::string(label)};
  std::lock_guard<std::mutex> lock(mu_);
  CheckKind(key, Kind::kGauge);
  auto& slot = gauges_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& Registry::histogram(std::string_view name, const HistogramBuckets& buckets,
                               std::string_view label) {
  Key key{std::string(name), std::string(label)};
  std::lock_guard<std::mutex> lock(mu_);
  CheckKind(key, Kind::kHistogram);
  auto& slot = histograms_[key];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(buckets);
  } else {
    HEXLLM_CHECK_MSG(slot->bounds() == buckets.bounds,
                     "histogram re-registered with different buckets");
  }
  return *slot;
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [key, c] : counters_) {
    s.counters.push_back(CounterSample{key.first, key.second, c->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [key, g] : gauges_) {
    s.gauges.push_back(GaugeSample{key.first, key.second, g->value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [key, h] : histograms_) {
    s.histograms.push_back(HistogramSample{key.first, key.second, h->bounds(), h->counts(),
                                           h->count(), h->sum(), h->min(), h->max()});
  }
  // std::map iteration is already (name, label)-sorted; the vectors inherit the order.
  return s;
}

void Registry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  kinds_.clear();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

int64_t MetricsSnapshot::CounterValue(std::string_view name, std::string_view label,
                                      bool* found) const {
  for (const auto& c : counters) {
    if (c.name == name && c.label == label) {
      if (found != nullptr) {
        *found = true;
      }
      return c.value;
    }
  }
  if (found != nullptr) {
    *found = false;
  }
  return 0;
}

double MetricsSnapshot::GaugeValue(std::string_view name, std::string_view label,
                                   bool* found) const {
  for (const auto& g : gauges) {
    if (g.name == name && g.label == label) {
      if (found != nullptr) {
        *found = true;
      }
      return g.value;
    }
  }
  if (found != nullptr) {
    *found = false;
  }
  return 0.0;
}

const HistogramSample* MetricsSnapshot::FindHistogram(std::string_view name,
                                                      std::string_view label) const {
  for (const auto& h : histograms) {
    if (h.name == name && h.label == label) {
      return &h;
    }
  }
  return nullptr;
}

Json MetricsSnapshot::ToJson() const {
  Json root = Json::Object();
  root.Set("schema_version", kMetricsSchemaVersion);
  Json cs = Json::Array();
  for (const auto& c : counters) {
    Json e = Json::Object();
    e.Set("name", c.name);
    if (!c.label.empty()) {
      e.Set("label", c.label);
    }
    e.Set("value", c.value);
    cs.Append(std::move(e));
  }
  root.Set("counters", std::move(cs));
  Json gs = Json::Array();
  for (const auto& g : gauges) {
    Json e = Json::Object();
    e.Set("name", g.name);
    if (!g.label.empty()) {
      e.Set("label", g.label);
    }
    e.Set("value", g.value);
    gs.Append(std::move(e));
  }
  root.Set("gauges", std::move(gs));
  Json hs = Json::Array();
  for (const auto& h : histograms) {
    Json e = Json::Object();
    e.Set("name", h.name);
    if (!h.label.empty()) {
      e.Set("label", h.label);
    }
    Json bounds = Json::Array();
    for (const double b : h.bounds) {
      bounds.Append(Json(b));
    }
    e.Set("bounds", std::move(bounds));
    Json counts = Json::Array();
    for (const int64_t c : h.counts) {
      counts.Append(Json(c));
    }
    e.Set("counts", std::move(counts));
    e.Set("count", h.count);
    e.Set("sum", h.sum);
    e.Set("min", h.min);
    e.Set("max", h.max);
    hs.Append(std::move(e));
  }
  root.Set("histograms", std::move(hs));
  return root;
}

}  // namespace obs
