// The unified metrics registry: counters, gauges, fixed-bucket histograms, and labeled
// series, snapshot-able into the frozen JSON schema (docs/metrics_schema.md, schema v1).
//
// Every subsystem publishes through this one interface:
//   * hexsim units export per-unit cycle/byte counters (hexsim::ExportDeviceMetrics);
//   * the serving runtime embeds a snapshot in every ScheduleResult (serve.* / kv.*);
//   * kernels count invocations through the cycle ledger (kernel.*);
//   * benches attach snapshots to their BENCH_<name>.json reports (bench::Reporter).
//
// Naming convention: `unit.metric_name`, lowercase, dot-separated, unit first
// (e.g. "hexsim.hvx.packets", "serve.step_seconds", "kv.cow_splits"). A *labeled series*
// is one metric name fanned out over a small string label (e.g. "hexsim.tag_seconds"
// labeled "attn.softmax") — the label is a data dimension, not part of the name.
//
// Hot-path cost and thread safety (docs/threading_model.md): Counter::Add and Gauge::Set
// are single relaxed atomic RMW/stores — safe to call from parallel lanes, and exactly as
// cheap as plain stores when uncontended. Histogram::Observe and every Registry method
// (metric registration, Snapshot, Clear) take a mutex; hold the returned Counter/Gauge
// reference across the hot loop so the map walk happens once at wiring time. Relaxed
// ordering means concurrent Adds never lose increments but a Snapshot taken while writers
// are running is only guaranteed per-metric-consistent, not a cross-metric cut; every
// caller in this repo snapshots after its parallel region joins.
//
// Worked example — reading the KV sharing ratio out of a serving run:
//   hserve::ScheduleResult r = batcher.Run(jobs);
//   const obs::MetricsSnapshot& m = r.metrics;
//   double ratio = m.GaugeValue("kv.sharing_ratio");          // logical/physical blocks
//   int64_t cow  = m.CounterValue("kv.cow_splits");           // matches r.kv.cow_splits
//   std::string json = m.ToJson().Dump(2);                    // schema v1 document
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/check.h"
#include "src/obs/json.h"

namespace obs {

// Bumped only when an emitted document would no longer parse under the previous schema;
// additive fields do NOT bump it (see docs/metrics_schema.md for the policy).
inline constexpr int kMetricsSchemaVersion = 1;

// A monotonic 64-bit event counter. Decrements are a programming error. Thread-safe:
// Add is a relaxed atomic fetch_add, so concurrent increments from parallel lanes are
// never lost (see docs/metrics_schema.md "Atomicity and ordering").
class Counter {
 public:
  void Add(int64_t n = 1) {
    HEXLLM_DCHECK(n >= 0);
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A point-in-time double (last write wins). Thread-safe: Set/value are relaxed atomic
// store/load, so a concurrent reader sees some previously written value, never a torn one.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed upper-bound buckets for a histogram. Bounds must be strictly increasing; an
// implicit overflow bucket catches everything above the last bound.
struct HistogramBuckets {
  std::vector<double> bounds;

  // `count` buckets at start, start*factor, start*factor^2, ... (latency-style scales).
  static HistogramBuckets Exponential(double start, double factor, int count);
  // `count` buckets at width, 2*width, ... (occupancy-style scales).
  static HistogramBuckets Linear(double width, int count);
};

// Fixed-bucket histogram with sum/min/max so snapshots can report a mean and range without
// retaining samples. Thread-safe: Observe and the accessors share a mutex, keeping
// (count, sum, min, max, buckets) mutually consistent under concurrent observers.
class Histogram {
 public:
  explicit Histogram(HistogramBuckets buckets);

  void Observe(double v);

  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  double min() const {
    std::lock_guard<std::mutex> lock(mu_);
    return min_;
  }
  double max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_;
  }
  const std::vector<double>& bounds() const { return buckets_.bounds; }
  // counts()[i] = observations <= bounds()[i] (and > bounds()[i-1]); counts().back() is the
  // overflow bucket, so counts().size() == bounds().size() + 1. Returns a copy taken under
  // the lock so the vector is consistent with a single point in time.
  std::vector<int64_t> counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  HistogramBuckets buckets_;  // bounds are immutable after construction
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// --- snapshot (plain data, detached from the registry) ---

struct CounterSample {
  std::string name;
  std::string label;  // empty for unlabeled metrics
  int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string label;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string label;
  std::vector<double> bounds;
  std::vector<int64_t> counts;  // bounds.size() + 1 entries (overflow last)
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;      // sorted by (name, label)
  std::vector<GaugeSample> gauges;          // sorted by (name, label)
  std::vector<HistogramSample> histograms;  // sorted by (name, label)

  // Lookup helpers; `found` (when non-null) reports presence, the value defaults to 0.
  int64_t CounterValue(std::string_view name, std::string_view label = {},
                       bool* found = nullptr) const;
  double GaugeValue(std::string_view name, std::string_view label = {},
                    bool* found = nullptr) const;
  const HistogramSample* FindHistogram(std::string_view name,
                                       std::string_view label = {}) const;

  // Schema v1 "metrics" object (docs/metrics_schema.md).
  Json ToJson() const;
};

// The registry: owns metrics, hands out stable references, snapshots on demand. A (name,
// label) pair identifies exactly one metric of exactly one kind — re-registering the same
// name as a different kind aborts (catching naming-convention collisions early).
// Thread-safe: a single mutex guards the maps, so registration/Snapshot/Clear may race;
// the returned references stay valid until Clear() and their hot methods don't touch the
// registry lock.
class Registry {
 public:
  Counter& counter(std::string_view name, std::string_view label = {});
  Gauge& gauge(std::string_view name, std::string_view label = {});
  // Buckets are fixed at first registration; later calls for the same (name, label) must
  // pass identical bounds.
  Histogram& histogram(std::string_view name, const HistogramBuckets& buckets,
                       std::string_view label = {});

  // One-shot conveniences for cold paths (registry lookup per call).
  void Count(std::string_view name, int64_t n = 1, std::string_view label = {}) {
    counter(name, label).Add(n);
  }
  void Set(std::string_view name, double v, std::string_view label = {}) {
    gauge(name, label).Set(v);
  }

  MetricsSnapshot Snapshot() const;
  void Clear();

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  using Key = std::pair<std::string, std::string>;  // (name, label)

  void CheckKind(const Key& key, Kind kind);

  mutable std::mutex mu_;
  std::map<Key, Kind> kinds_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs

#endif  // SRC_OBS_METRICS_H_
