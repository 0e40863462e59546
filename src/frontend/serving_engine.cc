#include "src/frontend/serving_engine.h"

#include <algorithm>
#include <string>
#include <utility>

namespace hfront {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

EngineSummary ServingEngine::Run(const std::vector<Request>& requests) {
  EngineSummary summary;
  batcher_.Reset();
  obs::Registry& reg = batcher_.registry();
  summary.schedule.error = book_.Start(
      requests, /*fork_followups=*/true,
      &reg.histogram("serve.ttft_seconds", obs::HistogramBuckets::Exponential(1e-3, 2.0, 16)),
      &reg.histogram("serve.tpot_seconds", obs::HistogramBuckets::Exponential(1e-4, 2.0, 14)));

  while (summary.schedule.error.empty()) {
    while (summary.schedule.error.empty() && book_.has_arrival() &&
           book_.next_arrival_s() <= batcher_.now_s()) {
      // A rejected submission becomes the run's error; the event loop winds down.
      batcher_.Submit(book_.BuildJob(book_.PopArrival()), &summary.schedule.error);
    }
    if (!summary.schedule.error.empty()) {
      break;
    }
    if (!batcher_.HasWork()) {
      if (!book_.has_arrival()) {
        break;  // drained: every submitted request completed, nothing left to arrive
      }
      batcher_.AdvanceTime(book_.next_arrival_s() - batcher_.now_s());
      continue;
    }
    const hserve::StepEvents ev = batcher_.Step();
    book_.Fold(ev, batcher_);
    if (on_token_) {
      for (const hserve::StepEvents::Token& t : ev.tokens) {
        on_token_(book_.request_of_job(t.job_id), t.token, t.time_s);
      }
    }
    if (!ev.stepped) {
      break;  // poisoned (KV budget cannot admit); Finish carries the error
    }
  }

  const std::string run_error = summary.schedule.error;
  summary.schedule = batcher_.Finish();
  if (summary.schedule.error.empty()) {
    summary.schedule.error = run_error;
  }
  book_.FoldAdmissions(summary.schedule.admissions);
  book_.RollUpSlo(summary.schedule.makespan_s, &summary.slo_met, &summary.slo_total,
                  &summary.goodput_tps);
  summary.requests = std::move(book_.stats());
  return summary;
}

}  // namespace hfront
