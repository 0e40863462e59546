#include "src/frontend/request_book.h"

#include <cmath>

namespace hfront {

std::string RequestBook::Start(const std::vector<Request>& trace, bool fork_followups,
                               obs::Histogram* ttft_hist, obs::Histogram* tpot_hist) {
  fork_ = fork_followups;
  ttft_hist_ = ttft_hist;
  tpot_hist_ = tpot_hist;
  trace_ = trace;
  stats_.assign(trace_.size(), RequestStats{});
  for (size_t i = 0; i < trace_.size(); ++i) {
    const Request& req = trace_[i];
    RequestStats& st = stats_[i];
    st.id = req.id;
    st.session = req.session;
    st.turn_index = req.turn_index;
    st.slo = req.slo;
  }
  by_id_.clear();
  next_turn_.clear();
  sessions_.clear();
  arrivals_.clear();
  // A rejected trace queues nothing.
  const auto fail = [this](const std::string& what) {
    arrivals_.clear();
    return what;
  };
  std::map<std::pair<int, int>, int> by_turn;  // (session, turn) -> trace index
  for (size_t i = 0; i < trace_.size(); ++i) {
    const Request& req = trace_[i];
    const std::string who = "request " + std::to_string(req.id) + ": ";
    if (!by_id_.try_emplace(req.id, static_cast<int>(i)).second) {
      return fail(who + "duplicate request id");
    }
    if (!(std::isfinite(req.arrival_s) && req.arrival_s >= 0.0)) {
      return fail(who + "arrival_s must be finite and >= 0");
    }
    if (req.turn_index < 0) {
      return fail(who + "negative turn_index");
    }
    if (req.session < 0 && req.turn_index > 0) {
      return fail(who + "follow-up turn without a session");
    }
    if (req.session >= 0 &&
        !by_turn.try_emplace({req.session, req.turn_index}, static_cast<int>(i)).second) {
      return fail(who + "duplicate session turn");
    }
    if (req.turn_index == 0) {
      arrivals_.insert({req.arrival_s, static_cast<int>(i)});
      stats_[i].arrival_s = req.arrival_s;
    }
  }
  for (const auto& [key, index] : by_turn) {
    if (key.second > 0) {
      const auto prev = by_turn.find({key.first, key.second - 1});
      if (prev == by_turn.end()) {
        return fail("session " + std::to_string(key.first) +
                    ": turns must be contiguous from 0");
      }
      next_turn_[request(prev->second).id] = index;
    }
  }
  return "";
}

int RequestBook::PopArrival() {
  const int index = arrivals_.begin()->second;
  arrivals_.erase(arrivals_.begin());
  return index;
}

hserve::ServeJob RequestBook::BuildJob(int index) const {
  const Request& req = request(index);
  hserve::ServeJob job;
  job.id = req.id;
  job.prompt_tokens = req.prompt_tokens;
  job.decode_tokens = req.decode_tokens;
  job.priority = req.priority;
  job.sampler = req.sampler;
  job.seed = req.seed;
  // Retain the final KV only when a follow-up turn will fork from it; the handle is
  // released at that child's admission (Fold), so a session holds at most one superseded
  // snapshot at a time.
  job.retain_kv = fork_ && next_turn_.count(req.id) != 0;
  if (req.turn_index > 0) {
    // A follow-up arrives only after its previous turn completed, so the session exists.
    const SessionState& sess = sessions_.at(req.session);
    if (fork_) {
      // The dialog so far is the parent's retained KV (mapped, uncharged); only this
      // turn's prompt_tokens are fresh and prefill.
      job.parent_job = sess.last_job_id;
      job.context_tokens = sess.kv_len;
    } else {
      job.prompt_tokens += sess.kv_len;
    }
  }
  return job;
}

void RequestBook::Fold(const hserve::StepEvents& ev, hserve::ContinuousBatcher& batcher) {
  for (const hserve::StepEvents::Token& t : ev.tokens) {
    RequestStats& st = stats_[static_cast<size_t>(by_id_.at(t.job_id))];
    if (st.tokens == 0) {
      st.first_token_s = t.time_s;
    }
    ++st.tokens;
    st.checksum = (st.checksum ^ static_cast<uint64_t>(static_cast<uint32_t>(t.token))) *
                  1099511628211ull;
  }
  for (const int job_id : ev.paused) {
    ++stats_[static_cast<size_t>(by_id_.at(job_id))].preemptions;
  }
  for (const int job_id : ev.admitted) {
    const Request& req = request_of_job(job_id);
    if (fork_ && req.turn_index > 0) {
      // The fork admission has mapped the parent turn's KV into the new slot; the
      // superseded snapshot handle can drop (shared blocks stay alive through the child's
      // own references).
      batcher.ReleaseRetained(sessions_.at(req.session).last_job_id);
    }
  }
  for (const int job_id : ev.completed) {
    const int index = by_id_.at(job_id);
    const Request& req = request(index);
    RequestStats& st = stats_[static_cast<size_t>(index)];
    st.done_s = ev.time_s;
    st.done = true;
    ttft_hist_->Observe(st.ttft_s());
    tpot_hist_->Observe(st.tpot_s());
    if (req.session < 0) {
      continue;
    }
    SessionState& sess = sessions_[req.session];
    sess.last_job_id = req.id;
    sess.kv_len += req.prompt_tokens + req.decode_tokens;
    const auto nit = next_turn_.find(req.id);
    if (nit != next_turn_.end()) {
      // The user reads the reply, then sends the next turn: its arrival is this completion
      // plus the think time the trace encoded in arrival_s.
      const int next_index = nit->second;
      const double arrive = ev.time_s + request(next_index).arrival_s;
      stats_[static_cast<size_t>(next_index)].arrival_s = arrive;
      arrivals_.insert({arrive, next_index});
    }
  }
}

void RequestBook::FoldAdmissions(const std::vector<hserve::Admission>& log) {
  // The admission log records the exact post-prefill clock (StepEvents only reports
  // end-of-step times).
  for (const hserve::Admission& a : log) {
    const auto it = by_id_.find(a.job_id);
    if (it == by_id_.end()) {
      continue;
    }
    RequestStats& st = stats_[static_cast<size_t>(it->second)];
    if (a.resumed) {
      ++st.resumes;
    } else if (st.admit_s < 0.0) {
      st.admit_s = a.time_s;
    }
  }
}

void RequestBook::RollUpSlo(double makespan_s, int64_t* slo_met, int64_t* slo_total,
                            double* goodput_tps) const {
  int64_t good_tokens = 0;
  *slo_met = 0;
  *slo_total = 0;
  for (const RequestStats& st : stats_) {
    if (st.slo.ttft_s > 0.0 || st.slo.tpot_s > 0.0) {
      ++*slo_total;
    }
    if (st.slo_ok()) {
      ++*slo_met;
      good_tokens += st.tokens;
    }
  }
  *goodput_tps = makespan_s > 0.0 ? static_cast<double>(good_tokens) / makespan_s : 0.0;
}

}  // namespace hfront
