#include "perfbench/traced_backend.h"

#include <cstdio>
#include <memory>

namespace perfbench {

int RowBucket(int rows) {
  if (rows <= 1) {
    return 0;
  }
  if (rows <= 4) {
    return 1;
  }
  return rows <= 8 ? 2 : 3;
}

TracedBackend::TracedBackend(hserve::ExecutionBackend& inner, bool record_spans)
    : inner_(inner), record_spans_(record_spans), epoch_(Clock::now()) {}

double TracedBackend::HostNow() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int TracedBackend::JobOf(int slot) const {
  return slot >= 0 && slot < static_cast<int>(slot_job_.size())
             ? slot_job_[static_cast<size_t>(slot)]
             : -1;
}

void TracedBackend::SetJob(int slot, int job_id) {
  if (slot >= static_cast<int>(slot_job_.size())) {
    slot_job_.resize(static_cast<size_t>(slot) + 1, -1);
  }
  slot_job_[static_cast<size_t>(slot)] = job_id;
}

double TracedBackend::AdmitSlot(int slot, const hserve::ServeJob& job, int context_tokens,
                                int charged_prefill_tokens) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  const double cost = inner_.AdmitSlot(slot, job, context_tokens, charged_prefill_tokens);
  const double h1 = HostNow();
  SetJob(slot, job.id);
  ++stats_.admit_calls;
  stats_.admit_host_s += h1 - h0;
  stats_.admit_prefill_tokens += charged_prefill_tokens;
  if (record_spans_) {
    spans_.push_back(Span{"admit", h0, h1, sim0, cost, 0, {job.id}});
  }
  return cost;
}

void TracedBackend::RecordStep(const char* name, double h0, double sim0,
                               std::span<const int> slots, const hserve::StepOutcome& out) {
  const double h1 = HostNow();
  const int rows = static_cast<int>(slots.size());
  ++stats_.step_calls;
  stats_.step_host_s += h1 - h0;
  const int b = RowBucket(rows);
  stats_.bucket_host_s[static_cast<size_t>(b)] += h1 - h0;
  stats_.bucket_rows[static_cast<size_t>(b)] += rows;
  hrt::StepCost& c = stats_.step_cost;
  c.linear_s += out.cost.linear_s;
  c.attention_s += out.cost.attention_s;
  c.misc_s += out.cost.misc_s;
  c.lm_head_s += out.cost.lm_head_s;
  c.comm_s += out.cost.comm_s;
  c.flash_s += out.cost.flash_s;
  c.total_s += out.cost.total_s;
  if (record_spans_) {
    Span span{name, h0, h1, sim0, out.cost.total_s, rows, {}};
    span.job_ids.reserve(slots.size());
    for (const int s : slots) {
      span.job_ids.push_back(JobOf(s));
    }
    spans_.push_back(std::move(span));
  }
}

hserve::StepOutcome TracedBackend::Step(std::span<const int> slots,
                                        std::span<const int> contexts) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  hserve::StepOutcome out = inner_.Step(slots, contexts);
  RecordStep("step", h0, sim0, slots, out);
  return out;
}

hserve::StepOutcome TracedBackend::SpeculativeStep(std::span<const int> slots,
                                                   std::span<const int> contexts,
                                                   std::span<const int> gammas) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  hserve::StepOutcome out = inner_.SpeculativeStep(slots, contexts, gammas);
  RecordStep("speculative_step", h0, sim0, slots, out);
  return out;
}

void TracedBackend::RecordOther(const char* name, double h0, double sim0, int job_id) {
  const double h1 = HostNow();
  stats_.other_host_s += h1 - h0;
  if (record_spans_) {
    spans_.push_back(Span{name, h0, h1, sim0, 0.0, 0, {job_id}});
  }
}

void TracedBackend::ReleaseSlot(int slot) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  inner_.ReleaseSlot(slot);
  const int job = JobOf(slot);
  SetJob(slot, -1);
  RecordOther("release", h0, sim0, job);
}

void TracedBackend::RetainKv(int slot, int job_id) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  inner_.RetainKv(slot, job_id);
  RecordOther("retain_kv", h0, sim0, job_id);
}

void TracedBackend::DropRetained(int job_id) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  inner_.DropRetained(job_id);
  RecordOther("drop_retained", h0, sim0, job_id);
}

void TracedBackend::PauseSlot(int slot, int job_id) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  inner_.PauseSlot(slot, job_id);
  SetJob(slot, -1);
  RecordOther("pause", h0, sim0, job_id);
}

void TracedBackend::ResumeSlot(int slot, int job_id, int context_tokens) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  inner_.ResumeSlot(slot, job_id, context_tokens);
  SetJob(slot, job_id);
  RecordOther("resume", h0, sim0, job_id);
}

bool TracedBackend::CanResume(int job_id) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  const bool ok = inner_.CanResume(job_id);
  RecordOther("can_resume", h0, sim0, job_id);
  return ok;
}

void TracedBackend::ReleaseGroup(int prompt_group) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  inner_.ReleaseGroup(prompt_group);
  RecordOther("release_group", h0, sim0, -1);
}

bool TracedBackend::CanAdmit(const hserve::ServeJob& job, int context_tokens) {
  const double sim0 = SimNow();
  const double h0 = HostNow();
  const bool ok = inner_.CanAdmit(job, context_tokens);
  RecordOther("can_admit", h0, sim0, job.id);
  return ok;
}

bool TracedBackend::WriteChromeTrace(const std::string& path) const {
  const std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f.get(),
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"host clock\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"simulated clock\"}}");
  for (const Span& s : spans_) {
    std::string jobs;
    for (const int j : s.job_ids) {
      jobs += (jobs.empty() ? "" : ",") + std::to_string(j);
    }
    // Host and simulated views of the same call, linked by their shared args.
    std::fprintf(f.get(),
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"rows\":%d,\"jobs\":[%s]}}",
                 s.name, s.host_start_s * 1e6, (s.host_end_s - s.host_start_s) * 1e6, s.rows,
                 jobs.c_str());
    std::fprintf(f.get(),
                 ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":1,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"rows\":%d,\"jobs\":[%s]}}",
                 s.name, s.sim_start_s * 1e6, s.sim_dur_s * 1e6, s.rows, jobs.c_str());
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
