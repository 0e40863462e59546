#include "src/fleet/throttled_backend.h"

namespace hfleet {

namespace {

// Stretches every time component of `cost` by the same dilation factor. ddr_bytes is data
// moved, not time — it is clock-invariant.
void DilateCost(hrt::StepCost* cost, double k) {
  cost->linear_s *= k;
  cost->attention_s *= k;
  cost->misc_s *= k;
  cost->lm_head_s *= k;
  cost->comm_s *= k;
  cost->total_s *= k;
  cost->hvx_busy_s *= k;
  cost->hmx_busy_s *= k;
  cost->dma_busy_s *= k;
  cost->cpu_busy_s *= k;
  cost->gpu_busy_s *= k;
}

}  // namespace

double ThrottledBackend::AdmitSlot(int slot, const hserve::ServeJob& job, int context_tokens,
                                   int charged_prefill_tokens) {
  // Sample the clock once for the whole admission (chunked prefill included).
  const double k = 1.0 / clock_scale();
  const double seconds =
      inner_.AdmitSlot(slot, job, context_tokens, charged_prefill_tokens) * k;
  if (enabled_) {
    thermal_.AddBusy(seconds);
  }
  return seconds;
}

hserve::StepOutcome ThrottledBackend::Throttle(hserve::StepOutcome out) {
  const double k = 1.0 / clock_scale();
  if (k != 1.0) {
    DilateCost(&out.cost, k);
    // Lower clock draws proportionally less power: the step's energy (watts * seconds) is
    // exactly what the nominal-clock step would have spent.
    out.watts /= k;
  }
  if (enabled_) {
    thermal_.AddBusy(out.cost.total_s);
  }
  return out;
}

}  // namespace hfleet
