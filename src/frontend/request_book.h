/// \file
/// The one request protocol of both serving drivers — hfront::ServingEngine (one batcher,
/// one clock) and hfleet::FleetSimulator (many batchers merged by earliest clock), which
/// keep only their loops around it (docs/serving_frontend.md §4).
#ifndef SRC_FRONTEND_REQUEST_BOOK_H_
#define SRC_FRONTEND_REQUEST_BOOK_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/frontend/request.h"
#include "src/serving/continuous_batcher.h"

namespace hfront {

class RequestBook {
 public:
  // Indexes and validates `trace` and queues turn 0 of every session (and every single-turn
  // request) at its arrival_s. Returns "" or the first problem — duplicate id, duplicate
  // or non-contiguous session turn, negative turn_index, a follow-up without a session, an
  // arrival_s not finite and >= 0 — in which case nothing is queued. `fork_followups`
  // picks BuildJob's session rule; completions are observed into the two histograms.
  std::string Start(const std::vector<Request>& trace, bool fork_followups,
                    obs::Histogram* ttft_hist, obs::Histogram* tpot_hist);

  bool has_arrival() const { return !arrivals_.empty(); }
  double next_arrival_s() const { return arrivals_.begin()->first; }
  // Removes the earliest queued arrival (ties by trace order); returns its trace index.
  int PopArrival();

  const Request& request(int index) const { return trace_[static_cast<size_t>(index)]; }
  const Request& request_of_job(int job_id) const { return request(by_id_.at(job_id)); }

  // The ServeJob for trace request `index`. A follow-up turn forks from the previous
  // turn's retained KV (context = the dialog so far) or, without forking, re-prefills the
  // dialog so far plus its own prompt.
  hserve::ServeJob BuildJob(int index) const;

  // Folds one Step's events: tokens (first-token time, count, FNV checksum), pauses, fork
  // admissions (releasing the superseded turn's retained KV on `batcher`) and completions
  // (done time, histograms, session state, the next turn's arrival at completion + think).
  void Fold(const hserve::StepEvents& ev, hserve::ContinuousBatcher& batcher);

  // Folds one batcher's admission log into admit_s and resumes.
  void FoldAdmissions(const std::vector<hserve::Admission>& log);

  // Completed requests meeting their SloSpec, requests with at least one SLO bound set, and
  // goodput: decoded tokens of SLO-meeting requests / makespan.
  void RollUpSlo(double makespan_s, int64_t* slo_met, int64_t* slo_total,
                 double* goodput_tps) const;

  // Per-request stats, aligned with the trace order.
  std::vector<RequestStats>& stats() { return stats_; }

 private:
  struct SessionState {
    int last_job_id = -1;  // latest completed turn (its KV is retained when forking)
    int kv_len = 0;        // accumulated dialog length (prompt + decode over turns)
  };

  bool fork_ = true;
  obs::Histogram* ttft_hist_ = nullptr;
  obs::Histogram* tpot_hist_ = nullptr;
  std::vector<Request> trace_;
  std::vector<RequestStats> stats_;
  std::map<int, int> by_id_;                   // request id -> trace index
  std::map<int, int> next_turn_;               // request id -> trace index of its successor
  std::map<int, SessionState> sessions_;       // session id -> retained-turn state
  std::set<std::pair<double, int>> arrivals_;  // (absolute arrival, trace index)
};

}  // namespace hfront

#endif  // SRC_FRONTEND_REQUEST_BOOK_H_
