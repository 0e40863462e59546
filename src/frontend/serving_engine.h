/// \file
/// The request-serving frontend: an event-driven loop that feeds timestamped requests into
/// the ContinuousBatcher's live Submit/Step API and streams tokens back out.
///
/// The engine is only the loop: a request enters the admission queue once the simulated
/// clock reaches its arrival time, and an idle batcher fast-forwards to the next arrival
/// (the gap is ScheduleResult::idle_s, never decode time). Everything per request is the
/// RequestBook (src/frontend/request_book.h), which the fleet simulator shares: session
/// turns that fork the previous turn's retained KV (re-prefilling ONLY the new turn's
/// tokens), TTFT/TPOT/checksum accounting with serve.ttft_seconds / serve.tpot_seconds
/// histograms in the run's metrics snapshot, and the SLO/goodput roll-up. A callback
/// streams every token with the batcher clock (docs/serving_frontend.md).
///
/// The engine is deterministic end to end: the clock is the batcher's simulated time and
/// every stochastic choice (arrivals, lengths, sampling) is seeded, so one trace produces
/// bit-identical token streams and latency numbers at any HEXLLM_NUM_THREADS.
#ifndef SRC_FRONTEND_SERVING_ENGINE_H_
#define SRC_FRONTEND_SERVING_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/frontend/request.h"
#include "src/frontend/request_book.h"
#include "src/serving/continuous_batcher.h"

namespace hfront {

// Roll-up of one serving run.
struct EngineSummary {
  hserve::ScheduleResult schedule;     // the batcher's aggregate result (error, KV, metrics)
  std::vector<RequestStats> requests;  // aligned with the submitted trace order
  int64_t slo_met = 0;                 // completed requests meeting their SloSpec
  int64_t slo_total = 0;               // requests with at least one SLO bound set
  double goodput_tps = 0.0;            // decoded tokens of SLO-meeting requests / makespan
};

// q in [0, 1]; nearest-rank on a copy (empty input returns 0). Exposed for benches.
double Percentile(std::vector<double> values, double q);

class ServingEngine {
 public:
  // Streams every decoded token: the request it belongs to, the token id, and the batcher
  // clock at which it became available.
  using TokenCallback = std::function<void(const Request&, int token, double time_s)>;

  explicit ServingEngine(hserve::ContinuousBatcher& batcher) : batcher_(batcher) {}

  void set_token_callback(TokenCallback cb) { on_token_ = std::move(cb); }

  // Runs the trace to completion (resets the batcher first). A malformed trace (see
  // RequestBook::Start) serves nothing and sets EngineSummary::schedule.error. On a
  // poisoned run (e.g. a KV budget that cannot admit), schedule.error is set and the
  // per-request stats cover whatever completed.
  EngineSummary Run(const std::vector<Request>& requests);

 private:
  hserve::ContinuousBatcher& batcher_;
  TokenCallback on_token_;
  RequestBook book_;
};

}  // namespace hfront

#endif  // SRC_FRONTEND_SERVING_ENGINE_H_
