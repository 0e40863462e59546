/// \file
/// Fleet-scale serving simulation: many per-device serving engines on one simulated
/// timeline, a policy-pluggable router in front, and a fleet-level prefix registry
/// (docs/fleet.md; the paper's single-device stack, scaled out).
///
/// The pieces:
///   * FleetDeviceSpec / HeterogeneousFleet — a fleet is a list of device specs over the
///     evaluation profiles (V73/V75/V79), optionally derated "little" siblings
///     (hexsim::LittleVariant) and/or thermally throttled (ThrottledBackend over
///     hexsim::ThermalState);
///   * FleetRouter — admission routing over the live per-device load (queue depth, resident
///     KV blocks): round-robin, least-loaded, or session-affine (a dialog's every turn
///     lands on the device already holding its retained KV, so follow-ups fork instead of
///     re-prefilling the whole history);
///   * PrefixRegistry — per-device residency of registered shared system prompts. Each
///     device prefills a registered prefix AT MOST ONCE: the first request anchors it in
///     the device's paged KV (ContinuousBatcher::PinGroup) and later requests CoW-map it.
///     Anchors are refcounted by in-flight requests and evicted LRU under a per-device
///     capacity (never while referenced);
///   * FleetSimulator — the event loop. Every device advances its own ContinuousBatcher
///     clock; the simulator interleaves them deterministically (always step the
///     earliest-clock busy device; release an arrival only once no busy device is still
///     behind it), so the merged timeline — and every token checksum — is bit-identical
///     across reruns and HEXLLM_NUM_THREADS settings.
///
/// Everything here is simulation-clock deterministic: no wall time, no unseeded draws.
#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/throttled_backend.h"
#include "src/frontend/request_book.h"
#include "src/frontend/traffic.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/npu_device.h"
#include "src/hexsim/thermal.h"
#include "src/llm/weights.h"
#include "src/serving/continuous_batcher.h"

namespace hfleet {

// ---------------------------------------------------------------------------------------
// Router

enum class RouterPolicy : uint8_t {
  kRoundRobin,     // rotate through devices, blind to load and sessions
  kLeastLoaded,    // fewest in-flight requests, ties by resident KV blocks then index
  kSessionAffine,  // least-loaded for new work, but a session's turns pin to one device
};

const char* RouterPolicyName(RouterPolicy policy);

// Live load of one device, sampled by the simulator at each routing decision.
struct DeviceLoad {
  int inflight = 0;          // routed requests not yet completed (queue + batch)
  int64_t kv_blocks = 0;     // physical KV blocks resident on the device
};

// Pure routing policy over per-device loads. Deterministic: ties always break toward the
// lower device index, and round-robin state is a plain counter.
class FleetRouter {
 public:
  FleetRouter(RouterPolicy policy, int devices);

  // Picks the device for `req`. Precedence: an existing session pin (session-affine
  // policy), then Request::device_hint, then the policy. Under the session-affine policy
  // the chosen device is recorded as the pin for req.session.
  int Route(const hfront::Request& req, const std::vector<DeviceLoad>& loads);

  void Reset();

  RouterPolicy policy() const { return policy_; }

 private:
  int LeastLoaded(const std::vector<DeviceLoad>& loads) const;

  RouterPolicy policy_;
  int devices_;
  int rr_next_ = 0;
  std::map<int, int> session_device_;  // session id -> pinned device (affine policy)
};

// ---------------------------------------------------------------------------------------
// Prefix registry

// Fleet-level bookkeeping of which registered shared prefixes are resident (anchored) on
// which device. The simulator Acquires at routing time and Releases at request completion;
// the registry only *decides* — anchoring/eviction is executed against the device's
// batcher (PinGroup/EvictGroup) by the caller.
class PrefixRegistry {
 public:
  // capacity_per_device <= 0: unbounded residency (prefixes never evict).
  PrefixRegistry(int devices, int capacity_per_device);

  struct Acquired {
    bool hit = false;          // prefix already resident on the device (no prefill needed)
    int evicted_prefix = -1;   // prefix the device must EvictGroup to make room, -1 = none
  };

  // References `prefix_id` on `device`, admitting it into residency on a miss. Eviction
  // picks the least-recently-used resident prefix with a zero refcount; if every resident
  // prefix is referenced by an in-flight request, the device over-subscribes instead (an
  // eviction would break live CoW sharing).
  Acquired Acquire(int device, int prefix_id);

  // Drops one reference (request completed). The prefix STAYS resident at refcount 0 —
  // that persistence is the whole point — until capacity pressure evicts it.
  void Release(int device, int prefix_id);

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t evictions() const { return evictions_; }

  // Introspection for tests/metrics.
  int resident_count(int device) const;
  bool resident(int device, int prefix_id) const;
  int refcount(int device, int prefix_id) const;

 private:
  struct Entry {
    int refs = 0;
    int64_t last_use = 0;
  };

  int capacity_;
  int64_t use_seq_ = 0;
  std::vector<std::map<int, Entry>> per_device_;  // prefix id -> entry
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

// ---------------------------------------------------------------------------------------
// Fleet simulator

struct FleetDeviceSpec {
  hexsim::NpuArch arch = hexsim::NpuArch::kV75;
  bool little = false;   // derated efficiency-binned sibling (hexsim::LittleVariant)
  bool thermal = false;  // thermally throttled (ThrottledBackend accumulates heat)
  hexsim::ThermalParams thermal_params;
};

// A representative heterogeneous mix: cycles V75 / V79 / V73 flagships, a little V75, a
// throttled V79 and a throttled little V73, repeating to `devices` entries.
std::vector<FleetDeviceSpec> HeterogeneousFleet(int devices);

struct FleetOptions {
  std::vector<FleetDeviceSpec> devices;  // one entry per simulated phone
  RouterPolicy policy = RouterPolicy::kSessionAffine;
  hserve::ServeOptions serve;            // per-device batcher options
  int max_context = 768;                 // per-device functional backend context cap
  int prefix_capacity_per_device = 0;    // PrefixRegistry LRU capacity (<= 0: unbounded)
  // Session KV retention is derived from `policy`, not a knob: only the session-affine
  // router guarantees every turn lands on the retaining device, so only it forks follow-up
  // turns from retained KV. The other policies re-prefill the accumulated dialog each turn
  // — exactly the cost the affine router exists to avoid.
};

struct FleetDeviceSummary {
  std::string name;                  // e.g. "d2:V73-little"
  FleetDeviceSpec spec;
  int64_t requests = 0;              // requests routed to this device
  double final_temperature_c = 0.0;  // thermal devices: temperature at run end
  double min_clock_scale = 1.0;      // lowest clock scale reached (1.0 = never throttled)
  hserve::ScheduleResult schedule;   // the device batcher's aggregate result
};

struct FleetSummary {
  // Non-empty when any device rejected a submission or poisoned its run; per-request stats
  // then cover whatever completed.
  std::string error;
  std::vector<hfront::RequestStats> requests;  // aligned with the submitted trace order
  std::vector<int> request_device;             // routed device per request (-1 = never routed)
  std::vector<FleetDeviceSummary> devices;

  double makespan_s = 0.0;        // max per-device clock at drain
  double energy_j = 0.0;          // summed over devices
  double energy_per_request_j = 0.0;
  int64_t decoded_tokens = 0;
  int64_t slo_met = 0;
  int64_t slo_total = 0;
  double goodput_tps = 0.0;       // decoded tokens of SLO-meeting requests / makespan
  int64_t prefix_hits = 0;
  int64_t prefix_misses = 0;
  int64_t prefix_evictions = 0;
  int64_t kv_peak_physical_bytes = 0;  // summed per-device paged-pool peaks
  // Max over devices of decoded tokens, divided by the fleet mean (1.0 = perfectly even;
  // the round-robin-vs-least-loaded headline number).
  double load_imbalance = 0.0;
  // fleet.* counters/gauges/histograms plus per-device labeled series
  // (docs/metrics_schema.md).
  obs::MetricsSnapshot metrics;
};

// Instantiates one FunctionalBackend serving stack per device spec and drives them all on
// one deterministic simulated timeline. The weights (toy configs — every device actually
// decodes) are shared read-only across devices; `weights` must outlive the simulator.
class FleetSimulator {
 public:
  FleetSimulator(const FleetOptions& options, const hllm::ModelWeights& weights);

  // Runs the trace to completion. A malformed trace (hfront::RequestBook::Start) or a
  // device_hint >= device_count() serves nothing and sets FleetSummary::error. Each Run
  // builds the devices fresh, so reruns of one trace are independent and bit-identical.
  FleetSummary Run(const std::vector<hfront::Request>& trace);

  int device_count() const { return static_cast<int>(options_.devices.size()); }

 private:
  struct Device {
    std::string name;
    FleetDeviceSpec spec;
    hexsim::DeviceProfile profile;  // stable storage; npu holds a reference
    std::unique_ptr<hexsim::NpuDevice> npu;
    std::unique_ptr<hserve::FunctionalBackend> functional;
    std::unique_ptr<ThrottledBackend> backend;
    std::unique_ptr<hserve::ContinuousBatcher> batcher;
    int inflight = 0;
    int64_t requests = 0;
  };

  void BuildDevices();
  std::vector<DeviceLoad> SampleLoads() const;
  // Routes and submits trace request `index`, whose arrival time is `time_s` on the global
  // timeline. An idle target device fast-forwards (and cools) to the arrival first.
  void SubmitRouted(int index, double time_s, FleetSummary& summary);
  // Folds one device's step events into the book, its in-flight count and the registry.
  void ProcessEvents(int device, const hserve::StepEvents& ev);

  FleetOptions options_;
  const hllm::ModelWeights& weights_;
  FleetRouter router_;
  std::unique_ptr<PrefixRegistry> registry_;
  std::vector<std::unique_ptr<Device>> devices_;

  // --- per-run state ---
  hfront::RequestBook book_;
  obs::Registry reg_;
};

}  // namespace hfleet

#endif  // SRC_FLEET_FLEET_H_
