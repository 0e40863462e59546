#include "src/fleet/fleet.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/base/check.h"

namespace hfleet {

// ---------------------------------------------------------------------------------------
// Router

const char* RouterPolicyName(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin:
      return "round_robin";
    case RouterPolicy::kLeastLoaded:
      return "least_loaded";
    case RouterPolicy::kSessionAffine:
      return "session_affine";
  }
  return "unknown";
}

FleetRouter::FleetRouter(RouterPolicy policy, int devices)
    : policy_(policy), devices_(devices) {
  HEXLLM_CHECK(devices >= 1);
}

void FleetRouter::Reset() {
  rr_next_ = 0;
  session_device_.clear();
}

int FleetRouter::LeastLoaded(const std::vector<DeviceLoad>& loads) const {
  int best = 0;
  for (int d = 1; d < devices_; ++d) {
    const DeviceLoad& a = loads[static_cast<size_t>(d)];
    const DeviceLoad& b = loads[static_cast<size_t>(best)];
    // Lexicographic (inflight, kv_blocks, index): the index tiebreak keeps the choice
    // deterministic and rerun-stable.
    if (a.inflight < b.inflight ||
        (a.inflight == b.inflight && a.kv_blocks < b.kv_blocks)) {
      best = d;
    }
  }
  return best;
}

int FleetRouter::Route(const hfront::Request& req, const std::vector<DeviceLoad>& loads) {
  HEXLLM_CHECK(static_cast<int>(loads.size()) == devices_);
  if (policy_ == RouterPolicy::kSessionAffine && req.session >= 0) {
    const auto it = session_device_.find(req.session);
    if (it != session_device_.end()) {
      return it->second;  // the pin outranks even a device_hint on later turns
    }
  }
  int pick;
  if (req.device_hint >= 0) {
    HEXLLM_CHECK_MSG(req.device_hint < devices_, "device_hint out of range");
    pick = req.device_hint;
  } else {
    switch (policy_) {
      case RouterPolicy::kRoundRobin:
        pick = rr_next_;
        rr_next_ = (rr_next_ + 1) % devices_;
        break;
      case RouterPolicy::kLeastLoaded:
      case RouterPolicy::kSessionAffine:  // first turn: place where there is room
        pick = LeastLoaded(loads);
        break;
      default:
        pick = 0;
        break;
    }
  }
  if (policy_ == RouterPolicy::kSessionAffine && req.session >= 0) {
    session_device_[req.session] = pick;
  }
  return pick;
}

// ---------------------------------------------------------------------------------------
// Prefix registry

PrefixRegistry::PrefixRegistry(int devices, int capacity_per_device)
    : capacity_(capacity_per_device), per_device_(static_cast<size_t>(devices)) {
  HEXLLM_CHECK(devices >= 1);
}

PrefixRegistry::Acquired PrefixRegistry::Acquire(int device, int prefix_id) {
  HEXLLM_CHECK(device >= 0 && device < static_cast<int>(per_device_.size()));
  HEXLLM_CHECK(prefix_id >= 0);
  auto& resident = per_device_[static_cast<size_t>(device)];
  Acquired out;
  const auto it = resident.find(prefix_id);
  if (it != resident.end()) {
    out.hit = true;
    ++hits_;
    ++it->second.refs;
    it->second.last_use = ++use_seq_;
    return out;
  }
  ++misses_;
  if (capacity_ > 0 && static_cast<int>(resident.size()) >= capacity_) {
    int victim = -1;
    int64_t oldest = std::numeric_limits<int64_t>::max();
    for (const auto& [pid, entry] : resident) {
      if (entry.refs == 0 && entry.last_use < oldest) {
        oldest = entry.last_use;
        victim = pid;
      }
    }
    if (victim >= 0) {
      resident.erase(victim);
      ++evictions_;
      out.evicted_prefix = victim;
    }
    // No refcount-0 resident: over-subscribe rather than break an in-flight share.
  }
  resident.emplace(prefix_id, Entry{1, ++use_seq_});
  return out;
}

void PrefixRegistry::Release(int device, int prefix_id) {
  HEXLLM_CHECK(device >= 0 && device < static_cast<int>(per_device_.size()));
  auto& resident = per_device_[static_cast<size_t>(device)];
  const auto it = resident.find(prefix_id);
  HEXLLM_CHECK_MSG(it != resident.end() && it->second.refs > 0,
                   "release of a prefix the device does not hold");
  --it->second.refs;
}

int PrefixRegistry::resident_count(int device) const {
  return static_cast<int>(per_device_[static_cast<size_t>(device)].size());
}

bool PrefixRegistry::resident(int device, int prefix_id) const {
  return per_device_[static_cast<size_t>(device)].count(prefix_id) != 0;
}

int PrefixRegistry::refcount(int device, int prefix_id) const {
  const auto& resident = per_device_[static_cast<size_t>(device)];
  const auto it = resident.find(prefix_id);
  return it != resident.end() ? it->second.refs : 0;
}

// ---------------------------------------------------------------------------------------
// Fleet construction

std::vector<FleetDeviceSpec> HeterogeneousFleet(int devices) {
  HEXLLM_CHECK(devices >= 1);
  using hexsim::NpuArch;
  static constexpr struct {
    NpuArch arch;
    bool little;
    bool thermal;
  } kPattern[] = {
      {NpuArch::kV75, false, false}, {NpuArch::kV79, false, false},
      {NpuArch::kV73, false, false}, {NpuArch::kV75, true, false},
      {NpuArch::kV79, false, true},  {NpuArch::kV73, true, true},
  };
  constexpr int kPatternLen = static_cast<int>(sizeof(kPattern) / sizeof(kPattern[0]));
  std::vector<FleetDeviceSpec> out;
  out.reserve(static_cast<size_t>(devices));
  for (int d = 0; d < devices; ++d) {
    const auto& p = kPattern[d % kPatternLen];
    FleetDeviceSpec spec;
    spec.arch = p.arch;
    spec.little = p.little;
    spec.thermal = p.thermal;
    out.push_back(spec);
  }
  return out;
}

FleetSimulator::FleetSimulator(const FleetOptions& options, const hllm::ModelWeights& weights)
    : options_(options),
      weights_(weights),
      router_(options.policy, static_cast<int>(options.devices.size())) {
  HEXLLM_CHECK_MSG(!options_.devices.empty(), "a fleet needs at least one device");
}

void FleetSimulator::BuildDevices() {
  devices_.clear();
  for (size_t d = 0; d < options_.devices.size(); ++d) {
    const FleetDeviceSpec& spec = options_.devices[d];
    auto dev = std::make_unique<Device>();
    dev->spec = spec;
    dev->profile = spec.little ? hexsim::LittleVariant(hexsim::DeviceByArch(spec.arch))
                               : hexsim::DeviceByArch(spec.arch);
    std::string name("d");
    name += std::to_string(d);
    name += ":";
    name += hexsim::NpuArchName(spec.arch);
    name += spec.little ? "-little" : "";
    name += spec.thermal ? "-throttled" : "";
    dev->name = std::move(name);
    dev->npu = std::make_unique<hexsim::NpuDevice>(dev->profile);
    // Each device sizes its KV pool from max_batch and stores F16 KV.
    dev->functional = std::make_unique<hserve::FunctionalBackend>(
        *dev->npu, weights_, options_.serve.max_batch, options_.max_context);
    dev->backend = std::make_unique<ThrottledBackend>(*dev->functional, spec.thermal_params,
                                                      spec.thermal);
    dev->batcher =
        std::make_unique<hserve::ContinuousBatcher>(*dev->backend, options_.serve);
    devices_.push_back(std::move(dev));
  }
}

std::vector<DeviceLoad> FleetSimulator::SampleLoads() const {
  std::vector<DeviceLoad> loads(devices_.size());
  for (size_t d = 0; d < devices_.size(); ++d) {
    loads[d].inflight = devices_[d]->inflight;
    loads[d].kv_blocks = devices_[d]->backend->kv_stats().physical_blocks;
  }
  return loads;
}

void FleetSimulator::SubmitRouted(int index, double time_s, FleetSummary& summary) {
  const hfront::Request& req = book_.request(index);
  const int d = router_.Route(req, SampleLoads());
  summary.request_device[static_cast<size_t>(index)] = d;
  Device& dev = *devices_[static_cast<size_t>(d)];

  // An idle device's clock may lag the global arrival time: fast-forward (cooling the
  // thermal state over the gap) so the request is admitted at its arrival, not in the
  // device's past. A busy device's clock is already at or past the arrival (the event loop
  // never releases an arrival while a busy device is behind it), so no gap to bridge.
  if (!dev.batcher->HasWork() && dev.batcher->now_s() < time_s) {
    const double gap = time_s - dev.batcher->now_s();
    dev.backend->AddIdle(gap);
    dev.batcher->AdvanceTime(gap);
  }

  hserve::ServeJob job = book_.BuildJob(index);
  if (req.turn_index == 0 && req.prefix_id >= 0 && req.prefix_tokens > 0) {
    const PrefixRegistry::Acquired acq = registry_->Acquire(d, req.prefix_id);
    if (acq.evicted_prefix >= 0) {
      dev.batcher->EvictGroup(acq.evicted_prefix);
    }
    // Pin on every acquire (idempotent): the anchor must outlive the group's current
    // jobs so the NEXT request with this prefix CoW-maps it instead of re-prefilling.
    dev.batcher->PinGroup(req.prefix_id);
    job.prompt_group = req.prefix_id;
    job.group_prefix_tokens = std::min(req.prefix_tokens, req.prompt_tokens);
  }

  ++dev.inflight;
  ++dev.requests;
  std::string error;
  if (!dev.batcher->Submit(job, &error)) {
    summary.error = dev.name + ": " + error;
  }
}

void FleetSimulator::ProcessEvents(int device, const hserve::StepEvents& ev) {
  Device& dev = *devices_[static_cast<size_t>(device)];
  book_.Fold(ev, *dev.batcher);
  for (const int job_id : ev.completed) {
    --dev.inflight;
    const hfront::Request& req = book_.request_of_job(job_id);
    if (req.turn_index == 0 && req.prefix_id >= 0 && req.prefix_tokens > 0) {
      registry_->Release(device, req.prefix_id);
    }
  }
}

FleetSummary FleetSimulator::Run(const std::vector<hfront::Request>& trace) {
  router_.Reset();
  registry_ = std::make_unique<PrefixRegistry>(device_count(),
                                               options_.prefix_capacity_per_device);
  BuildDevices();
  reg_.Clear();

  FleetSummary summary;
  summary.request_device.assign(trace.size(), -1);
  // Only the session-affine router lands every turn on the device retaining the previous
  // one, so only it forks follow-up turns (FleetOptions).
  summary.error = book_.Start(
      trace, /*fork_followups=*/options_.policy == RouterPolicy::kSessionAffine,
      &reg_.histogram("fleet.ttft_seconds", obs::HistogramBuckets::Exponential(1e-3, 2.0, 16)),
      &reg_.histogram("fleet.tpot_seconds", obs::HistogramBuckets::Exponential(1e-4, 2.0, 14)));
  for (const hfront::Request& req : trace) {
    if (summary.error.empty() && req.device_hint >= device_count()) {
      summary.error = "request " + std::to_string(req.id) + ": device_hint out of range";
    }
  }

  // The deterministic merge: always advance the busy device with the earliest clock, and
  // release an arrival only once every busy device has simulated past it (routing reads
  // per-device load, so the loads must be the loads AT the arrival time).
  while (summary.error.empty()) {
    int earliest = -1;
    double busy_min = std::numeric_limits<double>::infinity();
    for (size_t d = 0; d < devices_.size(); ++d) {
      if (devices_[d]->batcher->HasWork() && devices_[d]->batcher->now_s() < busy_min) {
        busy_min = devices_[d]->batcher->now_s();
        earliest = static_cast<int>(d);
      }
    }
    if (book_.has_arrival() && (earliest < 0 || book_.next_arrival_s() <= busy_min)) {
      const double time_s = book_.next_arrival_s();
      SubmitRouted(book_.PopArrival(), time_s, summary);
      continue;
    }
    if (earliest < 0) {
      break;  // drained: nothing in flight, nothing left to arrive
    }
    hserve::ContinuousBatcher& batcher = *devices_[static_cast<size_t>(earliest)]->batcher;
    const hserve::StepEvents ev = batcher.Step();
    ProcessEvents(earliest, ev);
    if (!ev.stepped) {
      // The device has work it cannot ever admit (poisoned, e.g. KV budget too small);
      // its Finish() below carries the message.
      summary.error = devices_[static_cast<size_t>(earliest)]->name + ": stalled";
      break;
    }
  }

  // Per-device teardown and roll-up.
  double decoded_mean = 0.0;
  int64_t decoded_max = 0;
  for (size_t d = 0; d < devices_.size(); ++d) {
    Device& dev = *devices_[d];
    FleetDeviceSummary ds;
    ds.name = dev.name;
    ds.spec = dev.spec;
    ds.requests = dev.requests;
    ds.final_temperature_c = dev.backend->temperature_c();
    ds.min_clock_scale = dev.backend->min_scale_reached();
    ds.schedule = dev.batcher->Finish();
    if (summary.error.empty() && !ds.schedule.error.empty()) {
      summary.error = dev.name + ": " + ds.schedule.error;
    }
    summary.makespan_s = std::max(summary.makespan_s, ds.schedule.makespan_s);
    summary.energy_j += ds.schedule.energy_j;
    summary.decoded_tokens += ds.schedule.decoded_tokens;
    summary.kv_peak_physical_bytes += ds.schedule.kv.peak_physical_bytes();
    decoded_max = std::max(decoded_max, ds.schedule.decoded_tokens);
    book_.FoldAdmissions(ds.schedule.admissions);
    summary.devices.push_back(std::move(ds));
  }
  decoded_mean =
      static_cast<double>(summary.decoded_tokens) / static_cast<double>(devices_.size());
  if (decoded_mean > 0.0) {
    summary.load_imbalance = static_cast<double>(decoded_max) / decoded_mean;
  }
  book_.RollUpSlo(summary.makespan_s, &summary.slo_met, &summary.slo_total,
                  &summary.goodput_tps);
  summary.requests = std::move(book_.stats());
  summary.prefix_hits = registry_->hits();
  summary.prefix_misses = registry_->misses();
  summary.prefix_evictions = registry_->evictions();
  if (!trace.empty()) {
    summary.energy_per_request_j = summary.energy_j / static_cast<double>(trace.size());
  }

  // fleet.* metrics (docs/metrics_schema.md): fleet-wide scalars plus one labeled series
  // per device, then the snapshot rides in the summary like ScheduleResult::metrics does.
  reg_.Set("fleet.devices", static_cast<double>(devices_.size()));
  reg_.Count("fleet.requests", static_cast<int64_t>(trace.size()));
  reg_.Count("fleet.decoded_tokens", summary.decoded_tokens);
  reg_.Count("fleet.prefix.hits", summary.prefix_hits);
  reg_.Count("fleet.prefix.misses", summary.prefix_misses);
  reg_.Count("fleet.prefix.evictions", summary.prefix_evictions);
  reg_.Set("fleet.makespan_seconds", summary.makespan_s);
  reg_.Set("fleet.energy_joules", summary.energy_j);
  reg_.Set("fleet.energy_per_request_joules", summary.energy_per_request_j);
  reg_.Set("fleet.goodput_tokens_per_second", summary.goodput_tps);
  reg_.Set("fleet.kv_peak_physical_bytes",
           static_cast<double>(summary.kv_peak_physical_bytes));
  reg_.Set("fleet.load_imbalance", summary.load_imbalance);
  for (const FleetDeviceSummary& ds : summary.devices) {
    reg_.Count("fleet.device.requests", ds.requests, ds.name);
    reg_.Count("fleet.device.decoded_tokens", ds.schedule.decoded_tokens, ds.name);
    reg_.Count("fleet.device.preemptions", ds.schedule.preemptions, ds.name);
    reg_.Set("fleet.device.makespan_seconds", ds.schedule.makespan_s, ds.name);
    reg_.Set("fleet.device.energy_joules", ds.schedule.energy_j, ds.name);
    reg_.Set("fleet.device.kv_peak_bytes",
             static_cast<double>(ds.schedule.kv.peak_physical_bytes()), ds.name);
    reg_.Set("fleet.device.temperature_c", ds.final_temperature_c, ds.name);
    reg_.Set("fleet.device.min_clock_scale", ds.min_clock_scale, ds.name);
  }
  summary.metrics = reg_.Snapshot();
  return summary;
}

}  // namespace hfleet
