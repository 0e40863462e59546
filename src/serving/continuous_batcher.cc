#include "src/serving/continuous_batcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/check.h"
#include "src/exec/thread_pool.h"

namespace hserve {

namespace {

// Lays one priced decode step onto the trace lanes: the engine busy overlays share the
// NPU-side span; the CPU lm_head either serializes after it (charged_s == c.total_s) or —
// when the step was charged with the NPU/CPU overlap rule — runs concurrently, right-aligned
// against the mailbox hop that ends the charged span.
void TraceStep(hrt::TraceBuilder& tb, double t0, const hrt::StepCost& c, double charged_s,
               int batch, int mean_context) {
  const double npu_s = c.linear_s + c.attention_s + c.misc_s;
  const bool overlapped = charged_s < c.total_s;
  const std::string suffix =
      " b=" + std::to_string(batch) + " ctx=" + std::to_string(mean_context);
  if (c.dma_busy_s > 0.0) {
    tb.Add("DMA", "weights" + suffix, t0, std::min(c.dma_busy_s, npu_s));
  }
  if (c.hvx_busy_s > 0.0) {
    tb.Add("HVX", "dequant+attn" + suffix, t0, std::min(c.hvx_busy_s, npu_s));
  }
  if (c.hmx_busy_s > 0.0) {
    tb.Add("HMX", "gemm" + suffix, t0, std::min(c.hmx_busy_s, npu_s));
  }
  if (c.lm_head_s > 0.0) {
    if (overlapped) {
      tb.Add("CPU", "lm_head (overlapped)" + suffix,
             t0 + std::max(0.0, charged_s - c.comm_s - c.lm_head_s), c.lm_head_s);
    } else {
      tb.Add("CPU", "lm_head" + suffix, t0 + npu_s, c.lm_head_s);
    }
  }
  if (c.comm_s > 0.0) {
    tb.Add("COMM", "mailbox", t0 + charged_s - c.comm_s, c.comm_s);
  }
}

// Final KV length of a completed (or fully-specified) job: inherited context + fresh prompt
// + decoded tokens.
int JobEndLength(const ServeJob& j) {
  return j.prompt_tokens + j.context_tokens + j.decode_tokens;
}

}  // namespace

ContinuousBatcher::ContinuousBatcher(ExecutionBackend& backend, const ServeOptions& options)
    : backend_(backend), options_(options) {
  HEXLLM_CHECK(options_.max_batch >= 1);
  if (options_.enable_preemption) {
    HEXLLM_CHECK_MSG(options_.policy == SchedulePolicy::kContinuous,
                     "preemption requires the continuous schedule policy");
  }
  Reset();
}

void ContinuousBatcher::Reset() {
  if (poisoned_) {
    backend_.ClearKv();
  }
  r_ = ScheduleResult{};
  jobs_.clear();
  groups_.clear();
  group_index_.clear();
  id_index_.clear();
  ids_unique_ = true;
  ready_.clear();
  ready_seq_ = 0;
  slots_.assign(static_cast<size_t>(options_.max_batch), Slot{});
  free_slots_.clear();
  free_slots_.reserve(static_cast<size_t>(options_.max_batch));
  for (int s = options_.max_batch - 1; s >= 0; --s) {
    free_slots_.push_back(s);  // LIFO: a slot freed on step k is the first reused on k+1
  }
  group_charged_.clear();
  pinned_groups_.clear();
  pending_children_.clear();
  occupied_ = 0;
  completed_ = 0;
  paused_unqueued_ = 0;
  step_idx_ = 0;
  useful_rows_ = 0;
  occupied_rows_ = 0;
  context_row_sum_ = 0;
  traced_steps_ = 0;
  traced_admissions_ = 0;
  overlap_saved_s_ = 0.0;
  overlap_lm_s_ = 0.0;
  poisoned_ = false;
  finished_ = false;
  reg_.Clear();
  step_seconds_hist_ = &reg_.histogram("serve.step_seconds",
                                       obs::HistogramBuckets::Exponential(1e-5, 4.0, 12));
  step_active_hist_ = &reg_.histogram(
      "serve.step_active_rows", obs::HistogramBuckets::Linear(1.0, options_.max_batch));
}

int ContinuousBatcher::Register(const ServeJob& job) {
  const int index = static_cast<int>(jobs_.size());
  JobRec rec;
  rec.job = job;
  const auto [it, inserted] = id_index_.try_emplace(job.id, index);
  if (!inserted) {
    ids_unique_ = false;  // tolerated in fork-free batch streams (legacy producers)
  }
  if (job.parent_job >= 0) {
    const auto pit = id_index_.find(job.parent_job);
    HEXLLM_CHECK(pit != id_index_.end());
    rec.parent_index = pit->second;
  }
  // Group membership: named groups share one entry; ungrouped jobs get singletons.
  int g;
  if (job.prompt_group >= 0) {
    const auto [git, ginserted] =
        group_index_.try_emplace(job.prompt_group, static_cast<int>(groups_.size()));
    if (ginserted) {
      groups_.emplace_back();
      groups_.back().orig_id = job.prompt_group;
      group_charged_.push_back(false);
    }
    g = git->second;
  } else {
    g = static_cast<int>(groups_.size());
    groups_.emplace_back();
    group_charged_.push_back(false);
  }
  rec.group = g;
  ++groups_[static_cast<size_t>(g)].total;
  jobs_.push_back(std::move(rec));
  pending_children_.push_back(0);
  return index;
}

void ContinuousBatcher::Enqueue(int job_index, bool resume) {
  ReadyEntry e;
  e.neg_priority = -jobs_[static_cast<size_t>(job_index)].job.priority;
  e.seq = ready_seq_++;
  e.job = job_index;
  e.resume = resume;
  ready_.insert(e);
}

bool ContinuousBatcher::Submit(const ServeJob& job, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "job " + std::to_string(job.id) + ": " + why;
    }
    return false;
  };
  if (finished_) {
    Reset();
  }
  if (poisoned_) {
    return fail("run already failed: " + r_.error);
  }
  if (job.decode_tokens < 1) {
    return fail("decode_tokens must be >= 1");
  }
  if (job.prompt_tokens < 0 || job.context_tokens < 0) {
    return fail("prompt_tokens and context_tokens must be non-negative");
  }
  if (job.barrier != 0) {
    return fail("live submissions must use barrier 0 (waves exist only in Run streams)");
  }
  if (static_cast<int64_t>(JobEndLength(job)) > backend_.max_context()) {
    return fail("prompt + context + decode exceeds the backend context limit");
  }
  if (id_index_.count(job.id) != 0) {
    return fail("duplicate job id in live submission");
  }
  if (job.parent_job >= 0) {
    const auto pit = id_index_.find(job.parent_job);
    if (pit == id_index_.end()) {
      return fail("parent_job " + std::to_string(job.parent_job) + " was never submitted");
    }
    const JobRec& parent = jobs_[static_cast<size_t>(pit->second)];
    if (parent.state != JobState::kDone || !parent.retained) {
      return fail("fork parent must have completed with retained KV (retain_kv)");
    }
    if (job.prompt_tokens + job.context_tokens < JobEndLength(parent.job)) {
      return fail("fork context must cover the parent's final KV length");
    }
  }
  const int index = Register(job);
  // Live groups run as one barrier-0 level that grows as members arrive.
  Group& g = groups_[static_cast<size_t>(jobs_[static_cast<size_t>(index)].group)];
  if (g.levels.empty()) {
    g.levels.push_back({0, {}});
  }
  g.levels.front().second.push_back(index);
  ++g.pending;
  Enqueue(index, /*resume=*/false);
  return true;
}

void ContinuousBatcher::Poison(const std::string& error) {
  poisoned_ = true;
  r_.error = error;
  r_.steps = step_idx_;
  r_.kv = backend_.kv_stats();
}

bool ContinuousBatcher::PauseJob(int job_id, bool requeue) {
  HEXLLM_CHECK_MSG(ids_unique_, "job-id APIs need unique job ids");
  const auto it = id_index_.find(job_id);
  if (it == id_index_.end()) {
    return false;
  }
  const JobRec& rec = jobs_[static_cast<size_t>(it->second)];
  if (rec.state != JobState::kDecoding) {
    return false;
  }
  PauseSlotInternal(rec.slot, requeue, nullptr);
  return true;
}

bool ContinuousBatcher::ResumeJob(int job_id) {
  HEXLLM_CHECK_MSG(ids_unique_, "job-id APIs need unique job ids");
  const auto it = id_index_.find(job_id);
  if (it == id_index_.end()) {
    return false;
  }
  const int index = it->second;
  if (jobs_[static_cast<size_t>(index)].state != JobState::kPaused) {
    return false;
  }
  // Only manually-parked jobs (PauseJob(requeue=false)) need this; auto-requeued ones are
  // already in the admission queue.
  for (const ReadyEntry& e : ready_) {
    if (e.job == index) {
      return false;
    }
  }
  --paused_unqueued_;
  Enqueue(index, /*resume=*/true);
  return true;
}

void ContinuousBatcher::PinGroup(int prompt_group) {
  HEXLLM_CHECK(prompt_group >= 0);
  pinned_groups_.insert(prompt_group);
}

void ContinuousBatcher::EvictGroup(int prompt_group) {
  backend_.ReleaseGroup(prompt_group);
  pinned_groups_.erase(prompt_group);
  // The next admission of the group must re-prefill (and re-charge) the prefix from
  // scratch — the anchor is gone.
  const auto it = group_index_.find(prompt_group);
  if (it != group_index_.end()) {
    group_charged_[static_cast<size_t>(it->second)] = false;
  }
}

void ContinuousBatcher::AdvanceTime(double seconds) {
  HEXLLM_CHECK(seconds >= 0.0);
  r_.makespan_s += seconds;
  r_.idle_s += seconds;
}

void ContinuousBatcher::ReleaseRetained(int job_id) {
  HEXLLM_CHECK_MSG(ids_unique_, "job-id APIs need unique job ids");
  const auto it = id_index_.find(job_id);
  if (it == id_index_.end()) {
    return;
  }
  JobRec& rec = jobs_[static_cast<size_t>(it->second)];
  if (!rec.retained) {
    return;
  }
  backend_.DropRetained(job_id);
  rec.retained = false;
}

JobState ContinuousBatcher::job_state(int job_id) const {
  HEXLLM_CHECK_MSG(ids_unique_, "job-id APIs need unique job ids");
  const auto it = id_index_.find(job_id);
  HEXLLM_CHECK_MSG(it != id_index_.end(), "unknown job id");
  return jobs_[static_cast<size_t>(it->second)].state;
}

void ContinuousBatcher::PauseSlotInternal(int slot, bool requeue, StepEvents* ev) {
  Slot& sl = slots_[static_cast<size_t>(slot)];
  HEXLLM_CHECK(sl.job >= 0);
  JobRec& rec = jobs_[static_cast<size_t>(sl.job)];
  HEXLLM_CHECK(rec.state == JobState::kDecoding);
  // The backend snapshots the slot's KV (pages stay resident behind a retained handle) plus
  // whatever decode state it needs for a bit-identical resume (last token, sampler Rng).
  backend_.PauseSlot(slot, rec.job.id);
  rec.state = JobState::kPaused;
  rec.context = sl.context;
  rec.remaining = sl.remaining;
  rec.slot = -1;
  sl.job = -1;
  free_slots_.push_back(slot);
  --occupied_;
  ++r_.preemptions;
  if (requeue) {
    Enqueue(static_cast<int>(&rec - jobs_.data()), /*resume=*/true);
  } else {
    ++paused_unqueued_;
  }
  if (ev != nullptr) {
    ev->paused.push_back(rec.job.id);
  }
}

void ContinuousBatcher::Admit(const ReadyEntry& entry, StepEvents& ev) {
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  JobRec& rec = jobs_[static_cast<size_t>(entry.job)];

  if (entry.resume) {
    // Re-admission from retained KV: the backend maps the paused snapshot back into the
    // slot (no re-prefill, no new blocks for the covered positions) and restores decode
    // state, so the resumed stream is bit-identical to an un-preempted run.
    backend_.ResumeSlot(slot, rec.job.id, rec.context);
    slots_[static_cast<size_t>(slot)] = Slot{entry.job, rec.context, rec.remaining};
    rec.state = JobState::kDecoding;
    rec.slot = slot;
    ++occupied_;
    ++r_.resumes;
    r_.admissions.push_back(
        Admission{rec.job.id, slot, step_idx_, r_.makespan_s, /*resumed=*/true});
    ev.admitted.push_back(rec.job.id);
    return;
  }

  const ServeJob& job = rec.job;
  const int g = rec.group;
  int charged = 0;
  if (rec.parent_index >= 0) {
    // Fork: the shared stem maps from the parent's retained KV for free; only tokens PAST
    // the parent's final length (a session's new turn) prefill and charge.
    charged = job.prompt_tokens + job.context_tokens -
              JobEndLength(jobs_[static_cast<size_t>(rec.parent_index)].job);
  } else if (job.prompt_tokens > 0) {
    if (!group_charged_[static_cast<size_t>(g)]) {
      // The group's first admission prefills (and charges) the whole prompt.
      charged = job.prompt_tokens;
      group_charged_[static_cast<size_t>(g)] = true;
    } else {
      // The group's shared prefix is already resident: only this job's remainder past the
      // prefix prefills. With the default whole-prompt prefix this is 0 — the original
      // shared-prompt accounting for parallel TTS samples.
      charged = std::max(0, job.prompt_tokens - GroupPrefixLen(job));
    }
  }
  const int context = job.prompt_tokens + job.context_tokens;
  const double t0 = r_.makespan_s;
  rec.state = JobState::kPrefilling;
  const double prefill_s = backend_.AdmitSlot(slot, job, context, charged);
  r_.makespan_s += prefill_s;
  r_.prefill_s += prefill_s;
  r_.prefilled_tokens += charged;
  slots_[static_cast<size_t>(slot)] = Slot{entry.job, context, job.decode_tokens};
  rec.state = JobState::kDecoding;
  rec.slot = slot;
  rec.context = context;
  rec.remaining = job.decode_tokens;
  ++occupied_;
  if (rec.parent_index >= 0) {
    ++r_.forked_admissions;
    // Last waiting child admitted: the parent's retained KV snapshot can drop (the
    // children's own block references keep the shared blocks alive). Batch mode only —
    // live parents are released by their owner (ReleaseRetained).
    int& pending = pending_children_[static_cast<size_t>(rec.parent_index)];
    if (pending > 0 && --pending == 0) {
      backend_.DropRetained(job.parent_job);
      jobs_[static_cast<size_t>(rec.parent_index)].retained = false;
    }
  }
  r_.admissions.push_back(Admission{job.id, slot, step_idx_, r_.makespan_s});
  if (options_.record_trace && prefill_s > 0.0 &&
      traced_admissions_ < options_.max_trace_steps) {
    r_.trace.Add("ADMIT", "prefill job " + std::to_string(job.id), t0, prefill_s);
    ++traced_admissions_;
  }
  ev.admitted.push_back(job.id);
}

void ContinuousBatcher::AdmitReady(StepEvents& ev) {
  // Continuous mode refills any free slot; static mode opens a new wave only once the
  // previous one fully drained.
  if (options_.policy != SchedulePolicy::kContinuous && occupied_ != 0) {
    return;
  }
  while (!ready_.empty()) {
    const ReadyEntry entry = *ready_.begin();
    const JobRec& rec = jobs_[static_cast<size_t>(entry.job)];
    // KV admission gate: preempting cannot help a KV-starved candidate (a paused job's
    // pages stay resident), so the fit check gates both the free-slot and victim paths.
    const auto fits = [&] {
      return entry.resume
                 ? backend_.CanResume(rec.job.id)
                 : backend_.CanAdmit(rec.job, rec.job.prompt_tokens + rec.job.context_tokens);
    };
    if (free_slots_.empty()) {
      if (!options_.enable_preemption) {
        break;
      }
      if (!fits()) {
        ++r_.admission_deferrals;
        break;
      }
      // Victim: the decoding job with the strictly lowest priority; ties fall to the most
      // tokens remaining (least sunk progress per token still owed), then the highest slot.
      int victim = -1;
      for (int s = 0; s < options_.max_batch; ++s) {
        const Slot& sl = slots_[static_cast<size_t>(s)];
        if (sl.job < 0 || sl.remaining <= 0) {
          continue;
        }
        const JobRec& cand = jobs_[static_cast<size_t>(sl.job)];
        if (cand.job.priority >= rec.job.priority) {
          continue;
        }
        if (victim < 0) {
          victim = s;
          continue;
        }
        const Slot& vs = slots_[static_cast<size_t>(victim)];
        const JobRec& vrec = jobs_[static_cast<size_t>(vs.job)];
        if (cand.job.priority < vrec.job.priority ||
            (cand.job.priority == vrec.job.priority && sl.remaining >= vs.remaining)) {
          victim = s;
        }
      }
      if (victim < 0) {
        break;  // nothing outranked: the candidate waits for a natural completion
      }
      PauseSlotInternal(victim, /*requeue=*/true, &ev);
    } else if (!fits()) {
      ++r_.admission_deferrals;
      break;  // KV pool/budget full: wait for running jobs to complete and free blocks
    }
    ready_.erase(ready_.begin());
    Admit(entry, ev);
  }
}

void ContinuousBatcher::Complete(int slot, StepEvents& ev) {
  Slot& sl = slots_[static_cast<size_t>(slot)];
  JobRec& rec = jobs_[static_cast<size_t>(sl.job)];
  ++completed_;
  r_.completions.push_back(Completion{rec.job.id, slot, step_idx_, r_.makespan_s});
  if (pending_children_[static_cast<size_t>(sl.job)] > 0 || rec.job.retain_kv) {
    // Fork children (batch mode) or a later session turn (retain_kv) will map this job's
    // final KV; snapshot it before the slot (and its block references) can be released or
    // stepped further.
    backend_.RetainKv(slot, rec.job.id);
    rec.retained = true;
  }
  Group& g = groups_[static_cast<size_t>(rec.group)];
  if (++g.done == g.total && g.orig_id >= 0 && pinned_groups_.count(g.orig_id) == 0) {
    backend_.ReleaseGroup(g.orig_id);  // last group job done: drop the prompt anchor
    // The anchor is gone, so a live-mode member submitted to this group LATER must
    // re-prefill (and be re-charged) from scratch. Pinned groups keep both anchor and flag.
    group_charged_[static_cast<size_t>(rec.group)] = false;
  }
  if (--g.pending == 0 && g.cur + 1 < g.levels.size()) {
    ++g.cur;
    g.pending = static_cast<int>(g.levels[g.cur].second.size());
    for (const int j2 : g.levels[g.cur].second) {
      Enqueue(j2, /*resume=*/false);
    }
  }
  rec.state = JobState::kDone;
  rec.slot = -1;
  ev.completed.push_back(rec.job.id);
  if (options_.policy == SchedulePolicy::kContinuous) {
    backend_.ReleaseSlot(slot);
    sl.job = -1;
    free_slots_.push_back(slot);
    --occupied_;
  }
}

StepEvents ContinuousBatcher::Step() {
  StepEvents ev;
  if (poisoned_ || finished_) {
    ev.time_s = r_.makespan_s;
    return ev;
  }
  AdmitReady(ev);
  if (occupied_ == 0) {
    if (!ready_.empty() && free_slots_.size() == static_cast<size_t>(options_.max_batch)) {
      // An admissible job exists whenever slots are free, so an empty batch with a waiting
      // queue means the KV budget cannot fit the front job even alone — deferring would
      // deadlock.
      const ReadyEntry& front = *ready_.begin();
      Poison("job " + std::to_string(jobs_[static_cast<size_t>(front.job)].job.id) +
             ": KV budget too small to admit into an empty batch");
    }
    ev.time_s = r_.makespan_s;
    return ev;  // idle: the live caller advances the clock to the next arrival
  }

  row_slots_.clear();
  row_contexts_.clear();
  row_gammas_.clear();
  int useful = 0;
  // Effective draft length: the backend's configured gamma, optionally capped/disabled by
  // the run's policy. Per row it further caps at remaining - 1 so a cycle can never commit
  // past the job's decode budget (a job's LAST token always comes from a plain position).
  const int run_gamma = options_.spec_gamma < 0
                            ? backend_.spec_gamma()
                            : std::min(options_.spec_gamma, backend_.spec_gamma());
  bool any_spec = false;
  for (int s = 0; s < options_.max_batch; ++s) {
    const Slot& sl = slots_[static_cast<size_t>(s)];
    if (sl.job >= 0) {
      row_slots_.push_back(s);
      row_contexts_.push_back(sl.context);
      context_row_sum_ += sl.context;
      int gamma = 0;
      if (sl.remaining > 0) {
        ++useful;
        if (run_gamma > 0 && jobs_[static_cast<size_t>(sl.job)].job.speculative &&
            sl.remaining > 1) {
          gamma = std::min(run_gamma, sl.remaining - 1);
          any_spec = true;
        }
      }
      row_gammas_.push_back(gamma);
    }
  }

  const double t0 = r_.makespan_s;
  // A cycle with at least one drafting row runs as gamma draft steps + ONE batched
  // multi-row verify, charged as one step; otherwise the exact legacy single-token step.
  const StepOutcome out = any_spec
                              ? backend_.SpeculativeStep(row_slots_, row_contexts_, row_gammas_)
                              : backend_.Step(row_slots_, row_contexts_);
  if (any_spec) {
    ++r_.spec_cycles;
  }
  // NPU/CPU overlap (docs/threading_model.md): with >= 2 rows in flight, the CPU lm_head
  // of this step hides under the next step's NPU time (double-buffered logits keep its
  // inputs alive), so the step charges max(npu, lm_head) + comm instead of their sum. The
  // charged value is used uniformly — makespan, decode time, energy and the step-latency
  // histogram all see the same number, keeping makespan == prefill + decode + idle exact.
  const double serial_s = out.cost.total_s;
  const double npu_s = serial_s - out.cost.lm_head_s - out.cost.comm_s;
  double charged_s = serial_s;
  if (options_.overlap_lm_head && row_slots_.size() >= 2 && out.cost.lm_head_s > 0.0 &&
      npu_s > 0.0) {
    charged_s = std::max(npu_s, out.cost.lm_head_s) + out.cost.comm_s;
    overlap_saved_s_ += serial_s - charged_s;
    overlap_lm_s_ += out.cost.lm_head_s;
  }
  r_.makespan_s += charged_s;
  r_.decode_s += charged_s;
  r_.flash_s += out.cost.flash_s;
  r_.flash_bytes += out.cost.flash_bytes;
  r_.energy_j += out.watts * charged_s;
  step_seconds_hist_->Observe(charged_s);
  step_active_hist_->Observe(static_cast<double>(useful));
  useful_rows_ += useful;
  occupied_rows_ += static_cast<int64_t>(row_slots_.size());
  if (options_.record_steps) {
    r_.step_active.push_back(useful);
    r_.step_occupied.push_back(static_cast<int>(row_slots_.size()));
  }
  if (options_.record_trace && traced_steps_ < options_.max_trace_steps) {
    int64_t ctx_sum = 0;
    for (const int c : row_contexts_) {
      ctx_sum += c;
    }
    TraceStep(r_.trace, t0, out.cost, charged_s, static_cast<int>(row_slots_.size()),
              static_cast<int>(ctx_sum / static_cast<int64_t>(row_contexts_.size())));
    ++traced_steps_;
  }
  if (!out.tokens.empty()) {
    size_t expect = row_slots_.size();
    if (!out.row_token_counts.empty()) {
      expect = 0;
      for (const int c : out.row_token_counts) {
        expect += static_cast<size_t>(c);
      }
    }
    HEXLLM_CHECK(out.tokens.size() == expect);
    if (r_.job_tokens.size() < jobs_.size()) {
      r_.job_tokens.resize(jobs_.size());
    }
  }

  // Token distribution. Plain steps commit one token per row; a speculative cycle commits
  // row_token_counts[i] tokens for row i (tokens flattened row-major) and the per-row
  // gamma cap above guarantees committed <= remaining — never past the decode budget.
  size_t tok_off = 0;
  for (size_t i = 0; i < row_slots_.size(); ++i) {
    const int s = row_slots_[i];
    Slot& sl = slots_[static_cast<size_t>(s)];
    const int committed = out.row_token_counts.empty() ? 1 : out.row_token_counts[i];
    sl.context += committed;
    if (sl.remaining <= 0) {
      tok_off += static_cast<size_t>(committed);
      continue;  // padding row riding out a static wave
    }
    HEXLLM_CHECK(committed <= sl.remaining);
    if (!out.tokens.empty()) {
      const int job_id = jobs_[static_cast<size_t>(sl.job)].job.id;
      for (int k = 0; k < committed; ++k) {
        const int tok = out.tokens[tok_off + static_cast<size_t>(k)];
        r_.job_tokens[static_cast<size_t>(sl.job)].push_back(tok);
        ev.tokens.push_back(StepEvents::Token{job_id, tok, r_.makespan_s});
      }
    }
    tok_off += static_cast<size_t>(committed);
    if (row_gammas_[i] > 0) {
      r_.spec_proposed_tokens += row_gammas_[i];
      r_.spec_accepted_tokens += committed - 1;  // minus the target's own bonus token
    }
    sl.remaining -= committed;
    r_.decoded_tokens += committed;
    if (sl.remaining == 0) {
      Complete(s, ev);
    }
  }
  if (options_.policy == SchedulePolicy::kStaticWaves) {
    bool wave_done = true;
    for (const int s : row_slots_) {
      if (slots_[static_cast<size_t>(s)].remaining > 0) {
        wave_done = false;
        break;
      }
    }
    if (wave_done) {
      for (const int s : row_slots_) {
        backend_.ReleaseSlot(s);
        slots_[static_cast<size_t>(s)].job = -1;
        free_slots_.push_back(s);
        --occupied_;
      }
    }
  }
  ++step_idx_;
  ev.stepped = true;
  ev.time_s = r_.makespan_s;
  return ev;
}

void ContinuousBatcher::FinalizeMetrics() {
  reg_.Count("serve.steps", r_.steps);
  reg_.Count("serve.decoded_tokens", r_.decoded_tokens);
  reg_.Count("serve.prefilled_tokens", r_.prefilled_tokens);
  reg_.Count("serve.forked_admissions", r_.forked_admissions);
  reg_.Count("serve.admission_deferrals", r_.admission_deferrals);
  reg_.Count("serve.preemptions", r_.preemptions);
  reg_.Count("serve.resumes", r_.resumes);
  reg_.Count("serve.admissions", static_cast<int64_t>(r_.admissions.size()));
  reg_.Count("serve.completions", static_cast<int64_t>(r_.completions.size()));
  reg_.Set("serve.makespan_seconds", r_.makespan_s);
  reg_.Set("serve.prefill_seconds", r_.prefill_s);
  reg_.Set("serve.decode_seconds", r_.decode_s);
  reg_.Set("serve.idle_seconds", r_.idle_s);
  reg_.Set("serve.energy_joules", r_.energy_j);
  reg_.Set("serve.tokens_per_second", r_.tokens_per_second);
  reg_.Set("serve.avg_active_batch", r_.avg_active_batch);
  reg_.Set("serve.avg_context", r_.avg_context);
  reg_.Set("serve.slot_utilization", r_.slot_utilization);
  if (r_.spec_cycles > 0) {
    // Gated on use so non-speculative runs keep byte-identical metric snapshots.
    reg_.Count("spec.cycles", r_.spec_cycles);
    reg_.Count("spec.proposed_tokens", r_.spec_proposed_tokens);
    reg_.Count("spec.accepted_tokens", r_.spec_accepted_tokens);
    reg_.Count("spec.rejected_tokens", r_.spec_proposed_tokens - r_.spec_accepted_tokens);
    reg_.Set("spec.acceptance_rate",
             r_.spec_proposed_tokens > 0
                 ? static_cast<double>(r_.spec_accepted_tokens) /
                       static_cast<double>(r_.spec_proposed_tokens)
                 : 0.0);
  }
  if (r_.flash_bytes > 0 || r_.flash_s > 0.0) {
    // Gated on use so runs without tiered offload keep byte-identical metric snapshots.
    reg_.Count("serve.flash_bytes", r_.flash_bytes);
    reg_.Set("serve.flash_seconds", r_.flash_s);
  }
  reg_.Set("exec.overlap.saved_seconds", overlap_saved_s_);
  reg_.Set("exec.overlap.lm_head_seconds", overlap_lm_s_);
  reg_.Set("exec.overlap.ratio",
           overlap_lm_s_ > 0.0 ? overlap_saved_s_ / overlap_lm_s_ : 0.0);
  hexec::ExportPoolMetrics(reg_);
  hkv::ExportKvStats(r_.kv, reg_);
  backend_.ExportMetrics(reg_);
  r_.metrics = reg_.Snapshot();
}

ScheduleResult ContinuousBatcher::Finish() {
  finished_ = true;
  if (!poisoned_) {
    r_.steps = step_idx_;
    r_.kv = backend_.kv_stats();
    if (r_.makespan_s > 0.0) {
      r_.tokens_per_second = static_cast<double>(r_.decoded_tokens) / r_.makespan_s;
    }
    if (step_idx_ > 0) {
      r_.avg_active_batch =
          static_cast<double>(useful_rows_) / static_cast<double>(step_idx_);
    }
    if (occupied_rows_ > 0) {
      r_.slot_utilization =
          static_cast<double>(useful_rows_) / static_cast<double>(occupied_rows_);
      r_.avg_context =
          static_cast<double>(context_row_sum_) / static_cast<double>(occupied_rows_);
    }
  }
  FinalizeMetrics();
  return std::move(r_);
}

ScheduleResult ContinuousBatcher::Run(const std::vector<ServeJob>& jobs) {
  Reset();

  if (jobs.empty()) {
    return Finish();  // zeroed result — the old schedulers divided by steps/makespan (NaN)
  }
  const int n = static_cast<int>(jobs.size());

  // Validate the stream up front and report malformed jobs as an error result instead of
  // CHECK-aborting: job streams come from workload producers (benches, sweeps, user input),
  // not trusted internals. Fork edges get the full treatment — a bad parent reference would
  // otherwise surface as silent KV corruption deep in a backend.
  const auto reject = [&](const ServeJob& j, const std::string& why) {
    poisoned_ = true;
    r_.error = "job " + std::to_string(j.id) + ": " + why;
    return Finish();
  };
  bool any_fork = false;
  for (const ServeJob& j : jobs) {
    any_fork = any_fork || j.parent_job >= 0;
  }
  std::map<int, int> id_index;  // job id -> input index, only needed for fork edges
  if (any_fork) {
    for (int j = 0; j < n; ++j) {
      const auto [it, inserted] = id_index.try_emplace(jobs[static_cast<size_t>(j)].id, j);
      if (!inserted) {
        return reject(jobs[static_cast<size_t>(j)],
                      "duplicate job id in a stream with fork edges");
      }
    }
  }
  for (int j = 0; j < n; ++j) {
    const ServeJob& job = jobs[static_cast<size_t>(j)];
    if (job.decode_tokens < 1) {
      return reject(job, "decode_tokens must be >= 1");
    }
    if (job.prompt_tokens < 0 || job.context_tokens < 0 || job.barrier < 0) {
      return reject(job, "prompt_tokens, context_tokens and barrier must be non-negative");
    }
    const int64_t total = static_cast<int64_t>(job.prompt_tokens) + job.context_tokens +
                          job.decode_tokens;
    if (total > backend_.max_context()) {
      return reject(job, "prompt + context + decode (" + std::to_string(total) +
                             ") exceeds the backend context limit (" +
                             std::to_string(backend_.max_context()) + ")");
    }
    if (job.parent_job < 0) {
      continue;
    }
    const auto pit = id_index.find(job.parent_job);
    if (pit == id_index.end()) {
      return reject(job, "parent_job " + std::to_string(job.parent_job) +
                             " is not in the stream");
    }
    if (pit->second == j) {
      return reject(job, "job forks itself");
    }
    const ServeJob& parent = jobs[static_cast<size_t>(pit->second)];
    if (job.prompt_group < 0 || parent.prompt_group != job.prompt_group) {
      return reject(job, "fork parent must share a non-negative prompt_group");
    }
    if (parent.barrier >= job.barrier) {
      return reject(job, "fork parent must complete at an earlier barrier");
    }
    const int parent_end = JobEndLength(parent);
    if (job.prompt_tokens + job.context_tokens < parent_end) {
      return reject(job, "fork context (" +
                             std::to_string(job.prompt_tokens + job.context_tokens) +
                             ") must cover the parent's final KV length (" +
                             std::to_string(parent_end) + ")");
    }
  }

  // Register the whole stream, then seed the admission queue with every group's first
  // barrier level (in input order — all priorities equal keeps the legacy FIFO).
  for (const ServeJob& job : jobs) {
    Register(job);
  }
  if (any_fork) {
    for (int j = 0; j < n; ++j) {
      const int p = jobs_[static_cast<size_t>(j)].parent_index;
      if (p >= 0) {
        ++pending_children_[static_cast<size_t>(p)];
      }
    }
  }
  {
    std::vector<std::map<int, std::vector<int>>> by_barrier(groups_.size());
    for (int j = 0; j < n; ++j) {
      by_barrier[static_cast<size_t>(jobs_[static_cast<size_t>(j)].group)]
                [jobs[static_cast<size_t>(j)].barrier]
                    .push_back(j);
    }
    for (size_t g = 0; g < groups_.size(); ++g) {
      groups_[g].levels.assign(by_barrier[g].begin(), by_barrier[g].end());
      groups_[g].pending = static_cast<int>(groups_[g].levels.front().second.size());
    }
  }
  for (int j = 0; j < n; ++j) {
    const Group& g = groups_[static_cast<size_t>(jobs_[static_cast<size_t>(j)].group)];
    if (jobs[static_cast<size_t>(j)].barrier == g.levels.front().first) {
      Enqueue(j, /*resume=*/false);
    }
  }

  while (!poisoned_ && completed_ < n) {
    const StepEvents ev = Step();
    // Barrier bookkeeping guarantees an admissible (or KV-poisoning) job exists whenever
    // work remains, so an idle step here would loop forever — that's a scheduler bug.
    HEXLLM_CHECK(ev.stepped || poisoned_);
  }
  return Finish();
}

}  // namespace hserve
