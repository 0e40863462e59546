/// \file
/// The request-level serving runtime: one batched decode loop that every workload flows
/// through.
///
/// The ContinuousBatcher owns all scheduling policy on top of an ExecutionBackend:
///   * a KV-slot pool of `max_batch` slots with free-list reclamation — a finished job's
///     slot is reusable on the very next step (continuous batching), or held until the wave
///     drains (static batching, for the paper's Figure 14 comparison);
///   * a priority-ordered admission queue with per-prompt-group barriers: a job admits only
///     after every same-group job with a smaller barrier completed (beam-search expansion
///     rounds), and higher-priority jobs admit first;
///   * SLO-aware preemption (ServeOptions::enable_preemption): a higher-priority arrival
///     may PAUSE a running lower-priority decode — the victim's KV pages stay resident
///     behind a retained handle while its slot is reassigned, and the paused job later
///     resumes bit-identically from its paged KV (sampler state included);
///   * chunked-prefill admission cost, charged once per prompt_group (parallel TTS samples
///     share one prompt's prefill); fork admissions charge only tokens past the parent's
///     retained KV (a session's follow-up turn re-prefills only the new turn);
///   * step pricing from each slot's ACTUAL growing context (the backend sees per-slot
///     context lengths every step), replacing the old fixed-context simplification;
///   * NPU/CPU overlap accounting (always on): the CPU lm_head of step N pipelines under
///     the NPU time of step N+1, the paper's Figure 16 optimization — a step with >= 2
///     occupied rows charges max(npu_s, lm_head_s) + comm_s instead of the serial sum
///     (docs/threading_model.md §4);
///   * speculative-decoding cycles (ServeJob::speculative + a backend draft model,
///     docs/speculative_decoding.md): rows with per-row gamma > 0 commit up to gamma+1
///     tokens per charged step through ExecutionBackend::SpeculativeStep, losslessly;
///   * optional per-step Chrome-trace recording via hrt::TraceBuilder.
///
/// Two driving modes share one step loop:
///   * batch — Run(jobs) validates a complete job stream, then drives Submit/Step/Finish
///     internally. The result is identical to the original batch-scoped scheduler.
///   * live — Submit(job) enqueues timestamped work as it arrives and Step() advances the
///     world by one decode step, reporting admissions/tokens/completions/preemptions as
///     StepEvents. The request frontend (src/frontend, docs/serving_frontend.md) drives
///     this mode with an event loop, streaming per-token callbacks to its requests.
///
/// Job lifecycle (docs/serving_frontend.md has the full state machine):
///
///     queued -> prefilling -> decoding -> done
///                                \-> paused -> decoding (resume, bit-identical)
///
/// The batcher itself is single-threaded; parallelism lives below it (the backends fan
/// decode rows and kernel tiles across hexec lanes — docs/threading_model.md).
#ifndef SRC_SERVING_CONTINUOUS_BATCHER_H_
#define SRC_SERVING_CONTINUOUS_BATCHER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/runtime/trace.h"
#include "src/serving/execution_backend.h"

namespace hserve {

enum class SchedulePolicy : uint8_t {
  kContinuous,   // freed slots refill from the admission queue on the next step
  kStaticWaves,  // jobs run in waves; a finished row idles (padding) until the wave drains
};

// Explicit job lifecycle, exposed for the frontend's per-request bookkeeping.
enum class JobState : uint8_t {
  kQueued,      // submitted, waiting in the admission queue
  kPrefilling,  // admission in progress (prompt running through the chunked prefill)
  kDecoding,    // occupying a slot, producing tokens
  kPaused,      // preempted: slot released, KV resident behind a retained handle
  kDone,        // all tokens decoded
};

struct ServeOptions {
  int max_batch = 16;
  SchedulePolicy policy = SchedulePolicy::kContinuous;
  bool record_trace = false;  // export per-step lanes into ScheduleResult::trace
  bool record_steps = false;  // per-step occupancy log (step_active / step_occupied)
  // Allow admission to pause a running strictly-lower-priority decode when the slot pool is
  // full (continuous policy only). The victim is the decoding job with the lowest priority
  // (ties: most tokens remaining, then highest slot) and it re-enters the admission queue
  // at its own priority, resuming from its retained KV when a slot frees.
  bool enable_preemption = false;
};

// One admission record (job -> slot binding), in admission order. Resumed jobs admit again
// (resumed = true), so a preempted job appears once per resume.
struct Admission {
  int job_id = 0;
  int slot = 0;
  int64_t step = 0;    // index of the first decode step the job participates in
  double time_s = 0.0; // makespan after the admission's prefill charge
  bool resumed = false;
};

struct Completion {
  int job_id = 0;
  int slot = 0;
  int64_t step = 0;    // index of the decode step that produced the job's last token
  double time_s = 0.0;
};

struct ScheduleResult {
  // Non-empty when the job stream was rejected (invalid fields, fork graph violations, or a
  // KV budget too small to make progress). All other fields are meaningless then — the old
  // behavior was a CHECK-abort; malformed input now reports instead of crashing.
  std::string error;
  double makespan_s = 0.0;
  double prefill_s = 0.0;          // time spent in charged chunked-prefill admissions
  double decode_s = 0.0;           // time spent in decode steps
  double idle_s = 0.0;             // clock advanced with no work (live mode arrival gaps)
  double tokens_per_second = 0.0;  // useful decoded tokens / makespan
  double avg_active_batch = 0.0;   // mean useful (non-padding) rows per step
  double avg_context = 0.0;        // mean per-row KV length over all stepped rows
  double slot_utilization = 0.0;   // useful rows / occupied rows (padding discounts this)
  double energy_j = 0.0;           // sum over steps of watts x step seconds
  int64_t steps = 0;
  int64_t decoded_tokens = 0;      // useful tokens only (padding rows don't count)
  int64_t prefilled_tokens = 0;    // charged prefill tokens (shared prompts charge once)
  int64_t forked_admissions = 0;   // jobs admitted by mapping a parent's retained KV
  int64_t admission_deferrals = 0; // admissions pushed back because the KV pool was full
  int64_t preemptions = 0;         // decodes paused to admit higher-priority work
  int64_t resumes = 0;             // paused decodes re-admitted from retained KV
  // Speculative decoding (docs/speculative_decoding.md; all zero when no cycle drafted).
  // A cycle = gamma draft steps + one batched multi-row verify, charged as one step.
  int64_t spec_cycles = 0;           // decode steps that ran as speculative cycles
  int64_t spec_proposed_tokens = 0;  // draft proposals verified (sum of per-row gammas)
  int64_t spec_accepted_tokens = 0;  // proposals the target accepted (committed - bonus)
  // Tiered KV offload (docs/long_context.md; both zero when no step touched the flash
  // tier): flash traffic the run's decode steps generated, and the seconds it cost the
  // tier. Only the non-overlapped stall portion is inside decode_s/makespan_s.
  double flash_s = 0.0;
  int64_t flash_bytes = 0;
  // Physical-vs-logical KV accounting at the end of the run (peaks cover the whole run):
  // physical bytes are what the paged pool actually held, logical bytes what a dense
  // per-sequence layout would have held; kv.sharing_ratio() is the headline saving.
  hkv::KvStats kv;
  std::vector<Admission> admissions;
  std::vector<Completion> completions;
  std::vector<int> step_active;    // record_steps: useful rows per step
  std::vector<int> step_occupied;  // record_steps: occupied rows per step
  // Functional backends: tokens each job generated, indexed by the job's position in the
  // submission order (empty for pricing-only backends).
  std::vector<std::vector<int>> job_tokens;
  hrt::TraceBuilder trace;         // record_trace: per-step lanes + admissions
  // The run's full metrics snapshot (docs/metrics_schema.md): serve.* counters/gauges that
  // mirror the scalar fields above, serve.step_seconds / serve.step_active_rows histograms,
  // kv.* from the KV accountant, and — for the functional backend — the simulated device's
  // hexsim.* activity profile. Populated on every return path, including error results.
  obs::MetricsSnapshot metrics;
};

// What one Step() call did, for event-driven callers (the frontend streams tokens and
// tracks per-request latency from these).
struct StepEvents {
  struct Token {
    int job_id = 0;
    int token = 0;
    double time_s = 0.0;  // clock when the token became available (end of its step)
  };
  bool stepped = false;             // a decode step ran (at least one slot occupied)
  double time_s = 0.0;              // clock after the call
  std::vector<int> admitted;        // job ids admitted this call (includes resumes)
  std::vector<int> paused;          // job ids preempted this call
  std::vector<int> completed;       // job ids that produced their last token this call
  // Token-producing backends: one entry per useful-row token — usually one per row, but a
  // speculative cycle commits up to gamma+1 tokens per row in stream order.
  std::vector<Token> tokens;
};

class ContinuousBatcher {
 public:
  ContinuousBatcher(ExecutionBackend& backend, const ServeOptions& options);

  // --- batch mode -------------------------------------------------------------------
  // Runs every job to completion and returns the aggregate schedule. An empty job list
  // yields a zeroed result (no NaNs). Jobs must each decode at least one token and carry
  // distinct ids; a malformed stream returns ScheduleResult::error. Resets any
  // in-progress live state; equivalent to Reset + Submit each + Step until drained +
  // Finish, plus whole-stream validation (fork graph, barrier waves).
  ScheduleResult Run(const std::vector<ServeJob>& jobs);

  // --- live mode --------------------------------------------------------------------
  // Validates and enqueues one job (state kQueued). Returns false (setting *error) on a
  // malformed job; a fork parent must already be kDone with retained KV. Live submissions
  // must use barrier 0 — expansion waves only exist in batched streams — and ids must be
  // unique across the run.
  bool Submit(const ServeJob& job, std::string* error = nullptr);

  // Admits every admissible queued job (possibly preempting), then advances the world by
  // one decode step. With nothing occupied and nothing admissible, returns with
  // stepped = false (the caller advances the clock to the next arrival). A KV budget that
  // cannot fit the front job even into an empty batch poisons the run (see
  // ScheduleResult::error on Finish); subsequent Steps are no-ops.
  StepEvents Step();

  // Preempts a decoding job: its KV stays resident behind a retained handle, its slot
  // frees this instant, and it re-enters the admission queue at its own priority. Returns
  // false if the job is not currently decoding.
  bool PauseJob(int job_id);

  // Advances the clock with no work performed (live mode: the gap to the next arrival).
  void AdvanceTime(double seconds);

  // Drops the retained-KV handle of a completed retain_kv job (e.g. a superseded session
  // turn). No-op if nothing is retained under the id.
  void ReleaseRetained(int job_id);

  // Pins a prompt_group's prompt anchor past its jobs' completion: Complete() skips the
  // automatic ReleaseGroup when the group's last job finishes, so the anchored prefix stays
  // resident for FUTURE submissions of the same group (the fleet PrefixRegistry's per-device
  // residency — docs/fleet.md). May be called before any job of the group is submitted;
  // cleared by Reset.
  void PinGroup(int prompt_group);

  // Evicts a (typically pinned) group's prompt anchor: drops the backend's anchor handle,
  // unpins the group, and resets its charged flag so the NEXT admission re-prefills (and
  // re-charges) the prefix from scratch. Jobs currently decoding against the anchor are
  // unaffected (their own block references keep the shared pages alive). No-op for an
  // unknown group.
  void EvictGroup(int prompt_group);

  // Finalizes the run: aggregate rates, KV stats, metrics snapshot. The batcher resets on
  // the next Submit/Run.
  ScheduleResult Finish();

  // --- introspection ----------------------------------------------------------------
  bool HasWork() const { return !ready_.empty() || occupied_ > 0; }
  double now_s() const { return r_.makespan_s; }
  int free_slots() const { return static_cast<int>(free_slots_.size()); }
  JobState job_state(int job_id) const;
  // Per-run metrics registry; the frontend registers its serve.ttft/serve.tpot histograms
  // here so the Finish() snapshot carries them. References are invalidated by Reset/Run.
  obs::Registry& registry() { return reg_; }

  // Clears all run state (implicit on Run, and on the first Submit after Finish). After a
  // poisoned run it also clears the backend's KV book (ExecutionBackend::ClearKv): the
  // failed run's slots, retained stems, anchors and paused snapshots would otherwise leak
  // into the next run.
  void Reset();

 private:
  struct JobRec {
    ServeJob job;
    JobState state = JobState::kQueued;
    int group = -1;      // groups_ index
    int slot = -1;       // valid while kDecoding
    int context = 0;     // current KV length while kDecoding / kPaused
    int remaining = 0;   // useful tokens still to decode
    int parent_index = -1;  // jobs_ index of the fork parent, -1 = none
    bool retained = false;  // a retained handle lives under job.id
  };

  struct Group {
    std::vector<std::pair<int, std::vector<int>>> levels;  // (barrier, job indices) ascending
    size_t cur = 0;
    int pending = 0;   // incomplete jobs at the current level
    int orig_id = -1;  // prompt_group id (keys the backend's prompt anchor), -1 = singleton
    int total = 0;
    int done = 0;      // completed jobs; == total releases the group's prompt anchor
  };

  struct Slot {
    int job = -1;       // jobs_ index, -1 when free
    int context = 0;    // current KV length
    int remaining = 0;  // useful tokens still to decode (0 => padding row in a static wave)
  };

  // Admission-queue entry: (-priority, sequence) orders by priority descending, then
  // submission/requeue order — deterministic at any thread count.
  struct ReadyEntry {
    int neg_priority = 0;
    int64_t seq = 0;
    int job = 0;         // jobs_ index
    bool resume = false; // re-admission of a paused job (maps retained KV, zero prefill)
    bool operator<(const ReadyEntry& o) const {
      return neg_priority != o.neg_priority ? neg_priority < o.neg_priority : seq < o.seq;
    }
  };

  // Registers a job into jobs_/groups_/id_index_ (shared by Run and Submit). Returns the
  // jobs_ index.
  int Register(const ServeJob& job);
  // Pushes a job (or a paused job's resume) into the admission queue.
  void Enqueue(int job_index, bool resume);
  // Admission pass: admits queued jobs into free slots (preempting when allowed), honoring
  // the schedule policy. Appends admitted/paused job ids to `ev`.
  void AdmitReady(StepEvents& ev);
  // Binds the ready entry to a free slot (fresh, fork, or resume admission).
  void Admit(const ReadyEntry& entry, StepEvents& ev);
  // Shared pause path: frees the slot and re-enqueues the job for automatic resume.
  void PauseSlotInternal(int slot, StepEvents* ev);
  // Completion bookkeeping for the job in `slot` (retention, group barriers, reclamation).
  void Complete(int slot, StepEvents& ev);
  // Marks the run failed (live mode surfaces the error on Finish).
  void Poison(const std::string& error);
  void FinalizeMetrics();

  ExecutionBackend& backend_;
  ServeOptions options_;

  // --- per-run state (cleared by Reset) ---
  ScheduleResult r_;
  std::vector<JobRec> jobs_;
  std::vector<Group> groups_;
  std::map<int, int> group_index_;  // prompt_group id -> groups_ index
  std::map<int, int> id_index_;     // job id -> jobs_ index
  std::set<ReadyEntry> ready_;
  int64_t ready_seq_ = 0;
  std::vector<Slot> slots_;
  std::vector<int> free_slots_;
  std::vector<bool> group_charged_;           // indexed like groups_
  std::set<int> pinned_groups_;               // prompt_group ids exempt from auto-release
  std::vector<int> pending_children_;         // batch mode: children awaiting each job's KV
  int occupied_ = 0;
  int completed_ = 0;
  int64_t step_idx_ = 0;
  int64_t useful_rows_ = 0;
  int64_t occupied_rows_ = 0;
  int64_t context_row_sum_ = 0;
  int traced_steps_ = 0;
  int traced_admissions_ = 0;
  double overlap_saved_s_ = 0.0;
  double overlap_lm_s_ = 0.0;
  bool poisoned_ = false;
  bool finished_ = true;  // a fresh batcher needs a Reset before accepting work
  obs::Registry reg_;
  obs::Histogram* step_seconds_hist_ = nullptr;
  obs::Histogram* step_active_hist_ = nullptr;
  // Step scratch (reused across steps).
  std::vector<int> row_slots_;
  std::vector<int> row_contexts_;
  std::vector<int> row_gammas_;  // per-row speculative draft lengths (0 = plain row)
};

}  // namespace hserve

#endif  // SRC_SERVING_CONTINUOUS_BATCHER_H_
