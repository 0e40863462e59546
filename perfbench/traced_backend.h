// A forwarding ExecutionBackend that times every call into the backend from outside.
//
// The benchmark's traced run wraps the workload's backend in a TracedBackend; the untraced
// run uses the backend directly. Every virtual of hserve::ExecutionBackend is forwarded (the
// hfleet::ThrottledBackend pattern), so the traced run must reproduce every simulated
// number of the untraced run bit for bit. Per call the decorator records host time, the
// simulated clock of the batcher that drives it, and the jobs the call touched (from a
// slot -> job map built in AdmitSlot/ResumeSlot). Spans stay in memory and are written as
// Chrome/Perfetto JSON on request.
#ifndef PERFBENCH_TRACED_BACKEND_H_
#define PERFBENCH_TRACED_BACKEND_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/serving/continuous_batcher.h"
#include "src/serving/execution_backend.h"

namespace perfbench {

// One backend call. Host times are seconds since the tracer was constructed; simulated
// times come from the batcher clock at the call (duration: the cost the call returned).
struct Span {
  const char* name = "";
  double host_start_s = 0.0;
  double host_end_s = 0.0;
  double sim_start_s = 0.0;
  double sim_dur_s = 0.0;
  int rows = 0;              // decode rows of a step; 0 for other calls
  std::vector<int> job_ids;  // jobs the call served
};

// Batch-size buckets for per-row step host time: b1, b2-4, b5-8, b9-16 (larger batches
// fold into the last bucket).
inline constexpr std::array<const char*, 4> kRowBuckets = {"b1", "b2-4", "b5-8", "b9-16"};
int RowBucket(int rows);

struct BackendCallStats {
  int64_t step_calls = 0;
  double step_host_s = 0.0;
  int64_t admit_calls = 0;
  double admit_host_s = 0.0;
  int64_t admit_prefill_tokens = 0;  // charged prefill tokens over all admissions
  double other_host_s = 0.0;         // every other forwarded call
  std::array<double, kRowBuckets.size()> bucket_host_s{};
  std::array<int64_t, kRowBuckets.size()> bucket_rows{};
  hrt::StepCost step_cost;  // field-wise sum of every StepOutcome::cost

  double total_host_s() const { return step_host_s + admit_host_s + other_host_s; }
};

class TracedBackend : public hserve::ExecutionBackend {
 public:
  // `record_spans = false` keeps only the aggregate counters.
  TracedBackend(hserve::ExecutionBackend& inner, bool record_spans);

  // The batcher whose clock stamps simulated span starts. Must outlive the calls.
  void set_clock(const hserve::ContinuousBatcher* batcher) { clock_ = batcher; }

  const BackendCallStats& stats() const { return stats_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Writes the spans as Chrome trace-event JSON: process 1 is the host clock, process 2 the
  // simulated clock. Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  const char* name() const override { return inner_.name(); }
  double AdmitSlot(int slot, const hserve::ServeJob& job, int context_tokens,
                   int charged_prefill_tokens) override;
  void ReleaseSlot(int slot) override;
  hserve::StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) override;
  hserve::StepOutcome SpeculativeStep(std::span<const int> slots, std::span<const int> contexts,
                                      std::span<const int> gammas) override;
  int spec_gamma() const override { return inner_.spec_gamma(); }
  void RetainKv(int slot, int job_id) override;
  void DropRetained(int job_id) override;
  void PauseSlot(int slot, int job_id) override;
  void ResumeSlot(int slot, int job_id, int context_tokens) override;
  bool CanResume(int job_id) override;
  void ReleaseGroup(int prompt_group) override;
  bool CanAdmit(const hserve::ServeJob& job, int context_tokens) override;
  int max_context() const override { return inner_.max_context(); }
  hkv::KvStats kv_stats() const override { return inner_.kv_stats(); }
  hquant::KvDtype kv_dtype() const override { return inner_.kv_dtype(); }
  void ExportMetrics(obs::Registry& registry) const override { inner_.ExportMetrics(registry); }

 private:
  using Clock = std::chrono::steady_clock;

  double HostNow() const;
  double SimNow() const { return clock_ != nullptr ? clock_->now_s() : 0.0; }
  int JobOf(int slot) const;
  void SetJob(int slot, int job_id);
  // Accounts one decode step (plain or speculative) that started at host time `h0`.
  void RecordStep(const char* name, double h0, double sim0, std::span<const int> slots,
                  const hserve::StepOutcome& out);
  // Accounts a call that is neither a step nor an admission.
  void RecordOther(const char* name, double h0, double sim0, int job_id);

  hserve::ExecutionBackend& inner_;
  bool record_spans_;
  const hserve::ContinuousBatcher* clock_ = nullptr;
  Clock::time_point epoch_;
  BackendCallStats stats_;
  std::vector<int> slot_job_;  // slot -> job id, -1 when free
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_BACKEND_H_
