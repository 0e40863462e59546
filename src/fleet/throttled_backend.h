/// \file
/// A thermally-throttled decorator over any ExecutionBackend (docs/fleet.md).
///
/// The fleet layer simulates phones, and phones throttle: sustained NPU activity heats the
/// SoC and the DVFS governor sheds clocks. This decorator threads every admission, decode
/// step and speculative cycle through a hexsim::ThermalState — the call's cost comes out of
/// the wrapped backend at nominal clocks and is dilated by the instantaneous 1/clock_scale,
/// then the dilated busy time feeds back into the thermal state. Idle gaps (the fleet's
/// AdvanceTime) cool it. The wrapped backend's draft length is forwarded, so speculative
/// jobs keep drafting behind a throttle.
///
/// Two invariants keep the simulation honest and deterministic:
///   * the clock scale is sampled ONCE per call, so a step's every cost component stretches
///     by the same factor (the batcher's lm_head-overlap accounting stays consistent) and
///     the result is a pure function of the busy/idle history;
///   * power scales down by the same factor time scales up, so a step's ENERGY is
///     clock-invariant — throttling trades latency, not joules (first-order DVFS at
///     constant voltage floor, matching the paper's §7.2.3 sustained-envelope reading).
#ifndef SRC_FLEET_THROTTLED_BACKEND_H_
#define SRC_FLEET_THROTTLED_BACKEND_H_

#include <span>

#include "src/hexsim/thermal.h"
#include "src/serving/execution_backend.h"

namespace hfleet {

class ThrottledBackend : public hserve::ExecutionBackend {
 public:
  // `enabled = false` makes the wrapper a transparent pass-through (clock scale pinned at
  // 1.0, no thermal accumulation) so every fleet device can share one code path.
  ThrottledBackend(hserve::ExecutionBackend& inner, const hexsim::ThermalParams& params,
                   bool enabled)
      : inner_(inner), thermal_(params), enabled_(enabled) {}

  const char* name() const override { return "throttled"; }

  double AdmitSlot(int slot, const hserve::ServeJob& job, int context_tokens,
                   int charged_prefill_tokens) override;
  hserve::StepOutcome Step(std::span<const int> slots,
                           std::span<const int> contexts) override {
    return Throttle(inner_.Step(slots, contexts));
  }
  hserve::StepOutcome SpeculativeStep(std::span<const int> slots,
                                      std::span<const int> contexts,
                                      std::span<const int> gammas) override {
    return Throttle(inner_.SpeculativeStep(slots, contexts, gammas));
  }

  // Everything below is pure delegation — throttling changes time and power, not behavior.
  int spec_gamma() const override { return inner_.spec_gamma(); }
  void ReleaseSlot(int slot) override { inner_.ReleaseSlot(slot); }
  void RetainKv(int slot, int job_id) override { inner_.RetainKv(slot, job_id); }
  void DropRetained(int job_id) override { inner_.DropRetained(job_id); }
  void PauseSlot(int slot, int job_id) override { inner_.PauseSlot(slot, job_id); }
  void ResumeSlot(int slot, int job_id, int context_tokens) override {
    inner_.ResumeSlot(slot, job_id, context_tokens);
  }
  bool CanResume(int job_id) override { return inner_.CanResume(job_id); }
  void ReleaseGroup(int prompt_group) override { inner_.ReleaseGroup(prompt_group); }
  bool CanAdmit(const hserve::ServeJob& job, int context_tokens) override {
    return inner_.CanAdmit(job, context_tokens);
  }
  void ClearKv() override { inner_.ClearKv(); }
  int max_context() const override { return inner_.max_context(); }
  hkv::KvStats kv_stats() const override { return inner_.kv_stats(); }
  hquant::KvDtype kv_dtype() const override { return inner_.kv_dtype(); }
  void ExportMetrics(obs::Registry& registry) const override {
    inner_.ExportMetrics(registry);
  }

  // Idle wall time (the fleet simulator forwards every AdvanceTime gap here).
  void AddIdle(double seconds) {
    if (enabled_) {
      thermal_.AddIdle(seconds);
    }
  }

  double clock_scale() const { return enabled_ ? thermal_.clock_scale() : 1.0; }
  double temperature_c() const { return thermal_.temperature_c(); }
  double min_scale_reached() const { return enabled_ ? thermal_.min_scale_reached() : 1.0; }
  bool enabled() const { return enabled_; }

 private:
  // Dilates a nominal-clock step or cycle by the current clock scale, scales its power down
  // by the same factor, and feeds its busy time into the thermal state.
  hserve::StepOutcome Throttle(hserve::StepOutcome out);

  hserve::ExecutionBackend& inner_;
  hexsim::ThermalState thermal_;
  bool enabled_;
};

}  // namespace hfleet

#endif  // SRC_FLEET_THROTTLED_BACKEND_H_
