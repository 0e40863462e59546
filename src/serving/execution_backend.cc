#include "src/serving/execution_backend.h"

#include <algorithm>
#include <cstdint>

#include "src/base/check.h"
#include "src/base/math_util.h"
#include "src/kernels/attention.h"
#include "src/kernels/lm_head.h"
#include "src/llm/sampling.h"

namespace hserve {

namespace {

// Per-row contexts are priced at their mean, rounded UP to the bucket boundary so pricing
// never undershoots the true mean and stays monotone as contexts grow.
int ContextBucket(std::span<const int> contexts, int bucket_tokens) {
  int64_t sum = 0;
  for (int c : contexts) {
    HEXLLM_DCHECK(c >= 0);
    sum += c;
  }
  const int64_t mean = hexllm::CeilDiv(sum, static_cast<int64_t>(contexts.size()));
  return static_cast<int>(hexllm::RoundUp(std::max<int64_t>(mean, 1), bucket_tokens));
}

// Deterministic synthetic token at absolute position `pos` of job `job_id`'s context, so a
// job's context reproduces token-for-token however it is (re)materialized.
int SyntheticToken(int job_id, int pos, int vocab) {
  return static_cast<int>(
      (static_cast<uint32_t>(job_id) * 2654435761u + 13u * static_cast<uint32_t>(pos) + 7u) %
      static_cast<uint32_t>(vocab));
}

// A functional chunked prefill's wall time: the NPU critical path, any flash stall, and one
// mailbox round trip per hkern::kPrefillChunk chunk, i.e. per Transformer::Prefill forward
// (the same comm rule as Engine::Prefill). No lm_head — prefill logits are discarded.
double PrefillSeconds(double npu_s, double stall_s, int tokens) {
  const int chunks = static_cast<int>(hexllm::CeilDiv(tokens, hkern::kPrefillChunk));
  return npu_s + stall_s + chunks * hexsim::kDispatchSeconds;
}

}  // namespace

// ---------------------------------------------------------------------------
// AnalyticBackend
// ---------------------------------------------------------------------------

AnalyticBackend::AnalyticBackend(const hrt::Engine& engine, const Options& options)
    : engine_(engine),
      bucket_tokens_(std::max(1, options.context_bucket_tokens)),
      draft_engine_(options.draft_engine),
      spec_gamma_(options.draft_engine != nullptr ? std::max(0, options.spec_gamma) : 0),
      spec_acceptance_(std::clamp(options.spec_acceptance, 0.0, 1.0)),
      // Unbounded accountant: the DRAM budget gates admission (CanAdmit), it never aborts
      // mid-decode. bytes_per_block is the model's true K+V footprint for one block under
      // the configured KV dtype, so a budget admits proportionally more sequences when KV
      // is quantized — the same arithmetic the functional cache applies to its storage.
      kv_(hkv::kDefaultBlockTokens, /*max_blocks=*/0,
          engine.options().model->KvCacheBytes(hkv::kDefaultBlockTokens, options.kv_dtype)),
      kv_dtype_(options.kv_dtype),
      offload_blocks_(std::max<int64_t>(0, options.kv_offload_resident_blocks)),
      bytes_per_block_(
          engine.options().model->KvCacheBytes(hkv::kDefaultBlockTokens, options.kv_dtype)),
      flash_(options.flash),
      window_(options.attn_window) {
  window_.block_tokens = hkv::kDefaultBlockTokens;
  if (options.kv_budget_bytes > 0) {
    budget_blocks_ = options.kv_budget_bytes / bytes_per_block_;
  }
}

int AnalyticBackend::EffectiveContext(int context) const {
  // A windowed row attends at most sinks + window + its own block; everything between is
  // masked, never staged, never priced (mirrors the kernel's chunk skip).
  return window_.enabled() ? std::min(context, window_.ResidentTokens()) : context;
}

void AnalyticBackend::ChargeOffload(std::span<const int> contexts, hrt::StepCost* cost) {
  if (offload_blocks_ <= 0) {
    return;
  }
  // Every attended block beyond the DRAM-resident budget streams from the flash tier this
  // step. The read overlaps the step's NPU compute (the prefetch queue runs ahead of the
  // kv chunk loop); only the excess over the compute window stalls the step.
  int64_t attended = 0;
  for (const int c : contexts) {
    attended += hexllm::CeilDiv(EffectiveContext(c) + 1, kv_.block_tokens());
  }
  const int64_t excess = attended - offload_blocks_;
  if (excess <= 0) {
    return;
  }
  const int64_t bytes = excess * bytes_per_block_;
  const double read_s = flash_.ChargeRead(bytes);
  cost->flash_s += read_s;
  cost->flash_bytes += bytes;
  const double npu_s = cost->total_s - cost->lm_head_s - cost->comm_s;
  const double stall = std::max(0.0, read_s - std::max(npu_s, 0.0));
  offload_stall_s_ += stall;
  cost->total_s += stall;
}

void AnalyticBackend::ExportMetrics(obs::Registry& registry) const {
  // Quantized modes publish the active dtype (value = bits per element, label = name) so
  // analytic reports carry the same `kv.dtype` series as functional runs. F16 exports
  // nothing extra, keeping legacy metric snapshots byte-identical. The analytic path never
  // materializes K/V values, so there is no round-trip error proxy here — accuracy figures
  // come from the capability model (hcap::CapabilityModel::AttentionErr).
  if (kv_dtype_ != hquant::KvDtype::kF16) {
    registry.Set("kv.dtype", static_cast<double>(hquant::KvDtypeBits(kv_dtype_)),
                 hquant::KvDtypeName(kv_dtype_));
  }
  // Speculative runs publish the rollback counter (docs/metrics_schema.md); plain runs
  // export nothing extra, keeping legacy metric snapshots byte-identical.
  if (spec_cycles_ > 0) {
    registry.Count("spec.rollback_blocks", spec_rollback_blocks_);
  }
  // Offload/window series mirror the functional backend's kv.offload.* / attn.window.*
  // exports with the subset the analytic model tracks (it prices flash reads in bulk, it
  // never demotes individual blocks). Gated so legacy snapshots stay byte-identical.
  if (offload_blocks_ > 0) {
    const hexsim::FlashStats& fs = flash_.stats();
    registry.Count("kv.offload.flash_read_bytes", fs.read_bytes);
    registry.Set("kv.offload.flash_read_seconds", fs.read_seconds);
    registry.Set("kv.offload.stall_seconds", offload_stall_s_);
    registry.Set("kv.offload.resident_block_budget", static_cast<double>(offload_blocks_));
  }
  if (window_.enabled()) {
    registry.Set("attn.window.sink_blocks", static_cast<double>(window_.sink_blocks));
    registry.Set("attn.window.window_blocks", static_cast<double>(window_.window_blocks));
    registry.Set("attn.window.resident_tokens",
                 static_cast<double>(window_.ResidentTokens()));
  }
}

int AnalyticBackend::max_context() const { return engine_.options().context_budget; }

int64_t AnalyticBackend::ResidentCap() const {
  // With a sliding window only sinks + window + the active block must ever be resident;
  // the masked interior could live anywhere (or nowhere), so admission and resume price
  // the capped working set instead of the full context.
  return window_.enabled() ? hexllm::CeilDiv(window_.ResidentTokens(), window_.block_tokens) + 1
                           : INT64_MAX;
}

bool AnalyticBackend::CanAdmit(const ServeJob& job, int context_tokens) {
  // Tiered offload: DRAM holds only the resident working set and the flash store backs
  // everything else, so the DRAM budget no longer gates admission — the cost shows up as
  // flash traffic and stall in ChargeOffload instead of a rejection here.
  if (budget_blocks_ < 0 || offload_blocks_ > 0) {
    return true;
  }
  return book_.CanAdmit(job, context_tokens, FreeBudgetBlocks(), ResidentCap());
}

bool AnalyticBackend::CanResume(int job_id) {
  if (budget_blocks_ < 0 || offload_blocks_ > 0) {
    return true;  // see CanAdmit: the flash tier backs any overflow
  }
  return book_.CanResume(job_id, FreeBudgetBlocks(), ResidentCap());
}

double AnalyticBackend::AdmitSlot(int slot, const ServeJob& job, int context_tokens,
                                  int charged_prefill_tokens) {
  // Map the shared prefix (fork stem or group anchor); account the rest as freshly appended
  // blocks — the chunked prefill the charged pricing below models.
  book_.Admit(slot, job, context_tokens);
  for (int pos = kv_.length(slot); pos < context_tokens; ++pos) {
    kv_.EnsureWritable(slot, pos);
    kv_.Advance(slot);
  }
  book_.AnchorGroup(slot, job, context_tokens);
  if (charged_prefill_tokens <= 0) {
    return 0.0;
  }
  auto [it, inserted] = prefill_cache_.try_emplace(charged_prefill_tokens, 0.0);
  if (inserted) {
    it->second = engine_.Prefill(charged_prefill_tokens).total_s;
  }
  return it->second;
}

void AnalyticBackend::ReleaseSlot(int slot) { book_.Release(slot); }

const hrt::StepCost& AnalyticBackend::BucketedCost(int batch, int context, bool draft) {
  const int bucket =
      static_cast<int>(hexllm::RoundUp(std::max(context, 1), bucket_tokens_));
  auto [it, inserted] = step_cache_.try_emplace(std::make_tuple(draft, batch, bucket));
  if (inserted) {
    it->second = (draft ? *draft_engine_ : engine_).DecodeStep(batch, bucket);
  }
  return it->second;
}

StepOutcome AnalyticBackend::Step(std::span<const int> slots, std::span<const int> contexts) {
  return AnalyticBackend::SpeculativeStep(slots, contexts, {});
}

StepOutcome AnalyticBackend::SpeculativeStep(std::span<const int> slots,
                                             std::span<const int> contexts,
                                             std::span<const int> gammas) {
  HEXLLM_CHECK(!slots.empty() && slots.size() == contexts.size() &&
               (gammas.empty() || slots.size() == gammas.size()));
  int max_gamma = 0;
  for (const int g : gammas) {
    HEXLLM_CHECK(g >= 0);
    max_gamma = std::max(max_gamma, g);
  }
  if (draft_engine_ == nullptr) {
    max_gamma = 0;  // nothing can draft: every row decodes plainly
  }
  const auto gamma = [&](size_t i) { return max_gamma > 0 ? gammas[i] : 0; };
  const int batch = static_cast<int>(slots.size());
  // Attention cost scales with the ATTENDED context: a sliding window caps every row at its
  // resident token count (the kernel skips masked chunks), so pricing buckets the effective
  // contexts, not the raw ones.
  eff_contexts_.clear();
  for (const int c : contexts) {
    eff_contexts_.push_back(EffectiveContext(c));
  }
  const int bucket = ContextBucket(eff_contexts_, bucket_tokens_);

  // Cycle cost = gamma autoregressive draft steps (only rows still drafting batch into step
  // j) + ONE target step verifying all gamma+1 positions per row — the verify fills HMX
  // tile rows exactly like Best-of-N lanes, so it is priced as a verify_rows-row batched
  // step, charged once (src/tts/speculative.h's closed form, made operational). With no
  // drafting row this is one plain batch-row step.
  int verify_rows = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    verify_rows += gamma(i) + 1;
  }
  StepOutcome out;
  out.cost = BucketedCost(verify_rows, bucket);
  for (int j = 1; j <= max_gamma; ++j) {
    int batch_j = 0;
    for (const int g : gammas) {
      batch_j += g >= j ? 1 : 0;
    }
    out.cost += BucketedCost(batch_j, bucket, /*draft=*/true);
  }
  // One offload charge per cycle: the verify step stages the full attended set once; the
  // draft model keeps its own (small) KV and never touches the flash tier. Power is drawn
  // over the final cost, stall included.
  ChargeOffload(contexts, &out.cost);
  const bool gpu = engine_.options().backend == hrt::Backend::kGpuOpenCl;
  out.watts = hrt::StepPower(*engine_.options().device, out.cost, batch, gpu).watts;

  // Per-row acceptance from the geometric process, then the SAME block choreography the
  // functional backend performs: append all gamma+1 verify positions, roll the rejected
  // suffix back through the accountant's Truncate. Refcount/CoW invariants are exercised
  // identically (a shared tail CoW-splits on the first verify append, rollback drops only
  // whole last-owner tail blocks). A plain step appends one position per row, so the two
  // backends report bit-identical block statistics for one job stream.
  if (max_gamma > 0) {
    ++spec_cycles_;
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    const int slot = slots[i];
    const int g = gamma(i);
    HEXLLM_DCHECK(kv_.length(slot) == contexts[i]);
    for (int p = 0; p <= g; ++p) {
      kv_.EnsureWritable(slot, contexts[i] + p);
      kv_.Advance(slot);
    }
    int accepted = 0;
    while (accepted < g && spec_rng_.NextBool(spec_acceptance_)) {
      ++accepted;
    }
    const int committed = accepted + 1;  // accepted prefix + the target's own token
    if (committed < g + 1) {
      spec_rollback_blocks_ += kv_.Truncate(slot, contexts[i] + committed, nullptr);
    }
    if (max_gamma > 0) {
      out.row_token_counts.push_back(committed);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// FunctionalBackend
// ---------------------------------------------------------------------------

FunctionalBackend::FunctionalBackend(hexsim::NpuDevice& dev, const hllm::ModelWeights& weights,
                                     int max_batch, int max_context)
    : FunctionalBackend(dev, weights, max_batch, max_context, Options{}) {}

FunctionalBackend::FunctionalBackend(hexsim::NpuDevice& dev, const hllm::ModelWeights& weights,
                                     int max_batch, int max_context, const Options& options)
    : dev_(dev),
      // A speculative verify pushes max_batch spans of gamma+1 rows through one forward, so
      // the transformer's scratch arena is sized for that row count up front.
      tf_(dev, weights, max_batch, max_context, options.kv_pool_blocks, options.kv_dtype,
          options.draft != nullptr ? max_batch * (std::max(0, options.gamma) + 1) : 0),
      max_context_(max_context),
      last_token_(static_cast<size_t>(max_batch), 1),
      sampler_opts_(static_cast<size_t>(max_batch)),
      sampler_rng_(static_cast<size_t>(max_batch), hexllm::Rng(0)),
      spec_gamma_(options.draft != nullptr ? std::max(0, options.gamma) : 0) {
  const size_t verify_rows =
      static_cast<size_t>(max_batch) * (spec_gamma_ > 0 ? spec_gamma_ + 1 : 1);
  logits_.resize(verify_rows * weights.config.vocab);
  if (options.draft != nullptr && spec_gamma_ > 0) {
    HEXLLM_CHECK_MSG(options.draft->config.vocab == weights.config.vocab,
                     "draft and target must share a vocabulary (acceptance compares ids)");
    draft_ = std::make_unique<hllm::Transformer>(dev, *options.draft, max_batch, max_context,
                                                 /*kv_pool_blocks=*/0, options.kv_dtype);
    spec_slot_.assign(static_cast<size_t>(max_batch), false);
    draft_carry_.assign(static_cast<size_t>(max_batch), -1);
    draft_prev_.assign(static_cast<size_t>(max_batch), 0);
    draft_logits_.resize(static_cast<size_t>(max_batch) * weights.config.vocab);
    spec_proposals_.resize(static_cast<size_t>(max_batch));
  }
  tf_.SetAttentionWindow(options.window);
  if (options.offload.resident_block_budget > 0) {
    tf_.kv().ConfigureOffload(options.offload);  // needs the still-empty paged cache
  }
}

hkv::KvOffloadStats FunctionalBackend::BeginOffloadStep() {
  hllm::KvCache& kv = tf_.kv();
  if (!kv.offload_enabled()) {
    return {};
  }
  hkv::KvOffloadEngine* off = kv.offload();
  // The previous forward's compute is the window the prefetches queued at its end
  // overlapped with: reads that fit inside it are free hits for this step's faults.
  off->AdvanceClock(last_npu_s_);
  off->BeginStep();
  return off->stats();
}

void FunctionalBackend::FoldOffload(const hkv::KvOffloadStats& mark, std::span<const int> slots,
                                    std::span<const int> contexts, double npu_s,
                                    hrt::StepCost* cost) {
  last_npu_s_ = npu_s;
  hllm::KvCache& kv = tf_.kv();
  if (!kv.offload_enabled()) {
    return;
  }
  hkv::KvOffloadEngine* off = kv.offload();
  // Write-behind demotion: shrink back to the resident budget now that the step's appends
  // landed. The flash writes charge the tier (and wear), not this step's critical path.
  off->EnforceBudget();
  // Queue async reads for each slot's predicted next-step attended set (decode advances
  // one position per step), so the reads overlap the next forward instead of stalling it.
  const hkern::AttnWindowSpec& win = tf_.attention_window();
  const hkern::AttnWindowSpec* winp = win.enabled() ? &win : nullptr;
  for (size_t i = 0; i < slots.size(); ++i) {
    prefetch_scratch_.clear();
    hkern::AppendAttendedBlocks(winp, /*first_pos=*/contexts[i] + 1, /*last_pos=*/contexts[i] + 1,
                                /*kv_len=*/contexts[i] + 2, kv.block_tokens(),
                                &prefetch_scratch_);
    kv.PrefetchTableBlocks(slots[i], prefetch_scratch_);
  }
  const hkv::KvOffloadStats& now = off->stats();
  const double stall = now.stall_seconds - mark.stall_seconds;
  cost->flash_s += (now.flash_read_seconds - mark.flash_read_seconds) +
                   (now.flash_write_seconds - mark.flash_write_seconds);
  cost->flash_bytes += (now.flash_read_bytes - mark.flash_read_bytes) +
                       (now.flash_write_bytes - mark.flash_write_bytes);
  cost->total_s += stall;  // only the non-overlapped remainder of the reads stalls the step
}

double FunctionalBackend::AdmitSlot(int slot, const ServeJob& job, int context_tokens,
                                    int charged_prefill_tokens) {
  return AdmitTarget(slot, job, context_tokens, charged_prefill_tokens) +
         AdmitDraft(slot, job.id, job.speculative, context_tokens);
}

double FunctionalBackend::AdmitDraft(int slot, int job_id, bool speculative,
                                     int context_tokens) {
  if (draft_ == nullptr) {
    return 0.0;
  }
  ResetDraftSlot(slot);  // stale draft state from the slot's previous tenant
  if (!speculative) {
    return 0.0;
  }
  spec_slot_[static_cast<size_t>(slot)] = true;
  if (context_tokens == 0) {
    return 0.0;
  }
  // The draft conditions on the deterministic synthetic view of the job's context. For a
  // plainly-admitted prompt this IS the target's token stream; for shared/forked/resumed
  // contexts it may diverge — which only moves the acceptance rate, never the committed
  // tokens (those are always sampled from the target's own logits).
  const int vocab = draft_->config().vocab;
  std::vector<int> prompt(static_cast<size_t>(context_tokens));
  for (int i = 0; i < context_tokens; ++i) {
    prompt[static_cast<size_t>(i)] = SyntheticToken(job_id, i, vocab);
  }
  const hexsim::CycleLedger mark = dev_.ledger();
  draft_->Prefill(slot, prompt);
  hrt::StepCost cost;
  return PrefillSeconds(ComposeStep(mark, &cost), /*stall_s=*/0.0, context_tokens);
}

double FunctionalBackend::AdmitTarget(int slot, const ServeJob& job, int context_tokens,
                                      int /*charged_prefill_tokens*/) {
  HEXLLM_CHECK(slot >= 0 && slot < static_cast<int>(last_token_.size()));
  HEXLLM_CHECK(context_tokens + job.decode_tokens <= max_context_);
  // Map the shared prefix: a fork's retained stem, or the group's prompt once a previous
  // admission materialized it. Only the rest runs through the chunked prefill below.
  const auto* from = book_.Admit(slot, job, context_tokens);
  const hkv::KvOffloadStats omark = BeginOffloadStep();
  // Per-request sampling policy, seeded at admission. Sampling is consumed on the
  // bookkeeping thread in Step, so the token stream is deterministic at any thread count.
  sampler_opts_[static_cast<size_t>(slot)] = job.sampler;
  sampler_rng_[static_cast<size_t>(slot)] = hexllm::Rng(job.seed);
  const int vocab = tf_.config().vocab;
  const int shared = tf_.kv().length(slot);
  const int fresh = context_tokens - shared;
  double admit_s = 0.0;
  if (fresh > 0) {
    // Synthetic but deterministic per (job, absolute position), so reruns reproduce
    // token-for-token. Shared positions keep the tokens of the job that first wrote them;
    // positions past `shared` use this job's.
    std::vector<int> prompt(static_cast<size_t>(fresh));
    for (int i = 0; i < fresh; ++i) {
      prompt[static_cast<size_t>(i)] = SyntheticToken(job.id, shared + i, vocab);
    }
    const hexsim::CycleLedger mark = dev_.ledger();
    tf_.Prefill(slot, prompt);
    last_token_[static_cast<size_t>(slot)] = prompt.back();
    hrt::StepCost cost;
    const double npu_s = ComposeStep(mark, &cost);
    // Demote the freshly-admitted context down to the resident budget and absorb any
    // prefill fault stall (cost.total_s carries only the FoldOffload stall here).
    FoldOffload(omark, std::span<const int>(&slot, 1),
                std::span<const int>(&context_tokens, 1), npu_s, &cost);
    admit_s = PrefillSeconds(npu_s, cost.total_s, fresh);
  } else {
    // Nothing to prefill: continue from the mapped snapshot's last token, or start from a
    // fixed BOS-like token on an empty context.
    last_token_[static_cast<size_t>(slot)] = from != nullptr ? from->last_token : 1 % vocab;
  }
  if (auto* anchor = book_.AnchorGroup(slot, job, context_tokens)) {
    anchor->last_token = SyntheticToken(job.id, anchor->len - 1, vocab);
  }
  return admit_s;
}

void FunctionalBackend::ResetDraftSlot(int slot) {
  if (draft_ == nullptr) {
    return;
  }
  if (spec_slot_[static_cast<size_t>(slot)]) {
    draft_->kv().ResetSeq(slot);
    spec_slot_[static_cast<size_t>(slot)] = false;
  }
  draft_carry_[static_cast<size_t>(slot)] = -1;
}

void FunctionalBackend::ReleaseSlot(int slot) {
  book_.Release(slot);
  ResetDraftSlot(slot);
}

void FunctionalBackend::ClearKv() {
  book_.Clear();
  for (int slot = 0; slot < static_cast<int>(last_token_.size()); ++slot) {
    ResetDraftSlot(slot);
  }
}

void FunctionalBackend::PauseSlot(int slot, int job_id) {
  auto& snap = book_.Pause(slot, job_id);
  snap.last_token = last_token_[static_cast<size_t>(slot)];
  snap.sampler = sampler_opts_[static_cast<size_t>(slot)];
  snap.rng = sampler_rng_[static_cast<size_t>(slot)];  // exact sampler state at the pause
  // Draft KV is NOT snapshotted: it is rebuilt from the synthetic context view at resume.
  // A different draft conditioning can only change acceptance (cycle timing), never the
  // committed token stream — losslessness keeps pause/resume bit-identical regardless.
  snap.speculative = draft_ != nullptr && spec_slot_[static_cast<size_t>(slot)];
  ResetDraftSlot(slot);
}

void FunctionalBackend::ResumeSlot(int slot, int job_id, int context_tokens) {
  const auto snap = book_.Resume(slot, job_id, context_tokens);
  last_token_[static_cast<size_t>(slot)] = snap.last_token;
  sampler_opts_[static_cast<size_t>(slot)] = snap.sampler;
  sampler_rng_[static_cast<size_t>(slot)] = snap.rng;
  if (snap.speculative) {
    // Re-prime the draft from the synthetic context view (the pause dropped its KV).
    // Resume is charged as free (mirroring the mapped-KV target resume), so the returned
    // prefill cost is discarded; the next cycle's ledger mark is taken after this runs.
    AdmitDraft(slot, job_id, /*speculative=*/true, context_tokens);
  }
}

StepOutcome FunctionalBackend::Step(std::span<const int> slots, std::span<const int> contexts) {
  return FunctionalBackend::SpeculativeStep(slots, contexts, {});
}

StepOutcome FunctionalBackend::SpeculativeStep(std::span<const int> slots,
                                               std::span<const int> contexts,
                                               std::span<const int> gammas) {
  HEXLLM_CHECK(!slots.empty() && slots.size() == contexts.size() &&
               (gammas.empty() || slots.size() == gammas.size()));
  int max_gamma = 0;
  for (const int g : gammas) {
    HEXLLM_CHECK(g >= 0);
    max_gamma = std::max(max_gamma, g);
  }
  if (draft_ == nullptr) {
    max_gamma = 0;  // nothing can draft: every row decodes plainly
  }
  const auto gamma = [&](size_t i) { return max_gamma > 0 ? gammas[i] : 0; };
  if (max_gamma > 0) {
    ++spec_cycles_;
  }
  const size_t batch = slots.size();
  const int vocab = tf_.config().vocab;
  const hexsim::DeviceProfile& d = dev_.profile();
  // One ledger window prices the whole cycle: the draft shares dev_, so its gamma decode
  // forwards and any catch-up prefill land in the same engine-busy deltas as the verify.
  const hexsim::CycleLedger mark = dev_.ledger();
  const hkv::KvOffloadStats omark = BeginOffloadStep();

  // Draft catch-up + per-cycle state seed. A fully-accepted previous cycle left the draft
  // one token short (the target committed gamma+1 tokens but the draft only consumed
  // gamma); the carried proposal closes the gap with a 1-token prefill.
  int n_catchup = 0;
  for (size_t i = 0; i < batch; ++i) {
    const size_t slot = static_cast<size_t>(slots[i]);
    if (gamma(i) <= 0) {
      continue;
    }
    HEXLLM_DCHECK(spec_slot_[slot]);
    if (draft_carry_[slot] >= 0) {
      const int carry = draft_carry_[slot];
      draft_->Prefill(static_cast<int>(slot), std::span<const int>(&carry, 1));
      draft_carry_[slot] = -1;
      ++n_catchup;
    }
    HEXLLM_DCHECK(draft_->kv().length(static_cast<int>(slot)) == contexts[i]);
    draft_prev_[slot] = last_token_[slot];
    spec_proposals_[slot].clear();
  }

  // gamma draft decode steps. Step j batches every row whose gamma reaches j (per-row
  // gammas shrink near a job's end). The draft proposes greedily regardless of the job's
  // sampler — draft policy only moves acceptance, never the committed stream.
  double lm_head_s = 0.0;
  double lm_cpu_busy_s = 0.0;
  for (int j = 1; j <= max_gamma; ++j) {
    step_tokens_.clear();
    draft_seqs_.clear();
    span_rows_.clear();
    for (size_t i = 0; i < batch; ++i) {
      if (gamma(i) < j) {
        continue;
      }
      const size_t slot = static_cast<size_t>(slots[i]);
      step_tokens_.push_back(draft_prev_[slot]);
      draft_seqs_.push_back(static_cast<int>(slot));
      span_rows_.push_back(1);
    }
    const int draft_batch = static_cast<int>(step_tokens_.size());
    std::span<float> dlogits(draft_logits_.data(), static_cast<size_t>(draft_batch) * vocab);
    draft_->Forward({step_tokens_, draft_seqs_, span_rows_, dlogits});
    const hkern::LmHeadCost lm =
        hkern::LmHeadCostModel(d, draft_batch, draft_->config().hidden, vocab,
                               hquant::WeightScheme::kF16);
    lm_head_s += lm.seconds;
    lm_cpu_busy_s += lm.cpu_busy_s;
    for (int r = 0; r < draft_batch; ++r) {
      const size_t slot = static_cast<size_t>(draft_seqs_[static_cast<size_t>(r)]);
      const int tok = hllm::ArgmaxToken(std::span<const float>(
          draft_logits_.data() + static_cast<size_t>(r) * vocab, static_cast<size_t>(vocab)));
      spec_proposals_[slot].push_back(tok);
      draft_prev_[slot] = tok;
    }
  }

  // One batched multi-row verify: row span [last committed token, proposals...] per
  // sequence, all spans' rows filling HMX tile rows of one forward (one Transformer::Forward).
  // With no drafting row every span is one row: the plain decode step's forward plan.
  step_tokens_.clear();
  span_rows_.clear();
  int total_rows = 0;
  for (size_t i = 0; i < batch; ++i) {
    const size_t slot = static_cast<size_t>(slots[i]);
    const int g = gamma(i);
    HEXLLM_DCHECK(tf_.kv().length(static_cast<int>(slot)) == contexts[i]);
    step_tokens_.push_back(last_token_[slot]);
    for (int j = 0; j < g; ++j) {
      step_tokens_.push_back(spec_proposals_[slot][static_cast<size_t>(j)]);
    }
    span_rows_.push_back(g + 1);
    total_rows += g + 1;
  }
  std::span<float> logits(logits_.data(), static_cast<size_t>(total_rows) * vocab);
  tf_.Forward({step_tokens_, slots, span_rows_, logits});

  // Acceptance walk. Every committed token is sampled from the TARGET's logits at exact
  // plain-decode conditioning (row j of a span saw positions < ctx+j only), consuming the
  // slot's Rng one draw per committed token in stream order — so the committed stream is
  // bit-identical to plain decode for any sampler, and rejection can only shorten a cycle.
  // The per-slot sampling policy was seeded at admission; the default is greedy
  // (temperature 0), where SampleToken reduces to argmax without consuming Rng state.
  StepOutcome out;
  out.tokens.reserve(static_cast<size_t>(total_rows));
  int row0 = 0;
  for (size_t i = 0; i < batch; ++i) {
    const size_t slot = static_cast<size_t>(slots[i]);
    const int g = gamma(i);
    const int ctx = contexts[i];
    int committed = 0;
    for (int j = 0; j <= g; ++j) {
      const int tok = hllm::SampleToken(
          logits.subspan(static_cast<size_t>(row0 + j) * vocab, static_cast<size_t>(vocab)),
          sampler_opts_[slot], sampler_rng_[slot]);
      out.tokens.push_back(tok);
      last_token_[slot] = tok;
      ++committed;
      // Row j+1's logits conditioned on proposal d_{j+1}; a mismatch invalidates them (and
      // everything after). Row g is the bonus row — nothing proposed beyond it.
      if (j == g || tok != spec_proposals_[slot][static_cast<size_t>(j)]) {
        break;
      }
    }
    // The verify appended g+1 target KV rows (positions ctx..ctx+g); roll the rejected
    // suffix back through the paged-cache tail. committed == g+1 means nothing to drop.
    if (committed < g + 1) {
      spec_rollback_blocks_ += tf_.kv().TruncateSeq(static_cast<int>(slot), ctx + committed);
    }
    if (g > 0) {
      if (committed == g + 1) {
        // Full acceptance: the draft consumed only t0,d_1..d_{g-1} (length ctx+g) but the
        // target committed to ctx+g+1. Carry d_g for a 1-token catch-up next cycle.
        draft_carry_[slot] = spec_proposals_[slot][static_cast<size_t>(g - 1)];
      } else {
        // Resync the draft to the committed prefix; its next input is last_token_.
        draft_->kv().TruncateSeq(static_cast<int>(slot), ctx + committed);
        draft_carry_[slot] = -1;
      }
    }
    if (max_gamma > 0) {
      out.row_token_counts.push_back(committed);
    }
    row0 += g + 1;
  }

  // Step cost, composed once for plain steps and cycles alike: overlapped engine busy time
  // across the whole window (drafts + verify), plus the CPU lm_head per forward (gamma
  // draft heads + ONE verify head over all rows — the multi-row verify is charged as one
  // step, like Best-of-N lanes), plus one mailbox round trip per forward dispatched
  // (catch-up prefills + gamma drafts + the verify), plus any flash stall. Power is drawn
  // over the final cost.
  const double npu_s = ComposeStep(mark, &out.cost);
  const hkern::LmHeadCost verify_lm =
      hkern::LmHeadCostModel(d, total_rows, tf_.config().hidden, vocab,
                             hquant::WeightScheme::kF16);
  out.cost.lm_head_s = lm_head_s + verify_lm.seconds;
  out.cost.cpu_busy_s = lm_cpu_busy_s + verify_lm.cpu_busy_s;
  out.cost.comm_s = (n_catchup + max_gamma + 1) * hexsim::kDispatchSeconds;
  out.cost.total_s = npu_s + out.cost.lm_head_s + out.cost.comm_s;
  FoldOffload(omark, slots, contexts, npu_s, &out.cost);
  out.watts = hrt::StepPower(d, out.cost, static_cast<int>(batch)).watts;
  return out;
}

double FunctionalBackend::ComposeStep(const hexsim::CycleLedger& mark,
                                      hrt::StepCost* cost) const {
  const hexsim::CycleLedger& led = dev_.ledger();
  const auto delta = [&](hexsim::Engine e) {
    return led.EngineSeconds(e) - mark.EngineSeconds(e);
  };
  cost->hvx_busy_s = delta(hexsim::Engine::kHvx);
  cost->hmx_busy_s = delta(hexsim::Engine::kHmx);
  cost->dma_busy_s = delta(hexsim::Engine::kDma);
  cost->ddr_bytes = led.dma_bytes() - mark.dma_bytes();
  // Critical path mirrors the analytic engine's pipeline composition: DMA, HMX and the
  // HVX thread pool overlap; the slowest engine sets the NPU-side step time.
  cost->linear_s = std::max(
      {cost->dma_busy_s, cost->hmx_busy_s, cost->hvx_busy_s / dev_.profile().hvx_threads});
  return cost->linear_s;
}

}  // namespace hserve
