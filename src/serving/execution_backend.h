/// \file
/// The serving runtime's execution abstraction.
///
/// The paper's end-to-end system (§6) wins because every parallel test-time-scaling sample
/// flows through ONE continuously-batched NPU decode loop. This layer gives the repo that
/// single execution abstraction: an ExecutionBackend prices (or actually performs) decode
/// steps and chunked-prefill admissions for the ContinuousBatcher, which owns all request-
/// level policy (slot pool, admission queue, barriers).
///
/// Both implementations manage KV memory through the paged block-pool manager
/// (src/kvcache) and run its slot-level lifecycle through one hserve::SlotKvBook: parallel
/// samples of one prompt_group share the prompt's blocks physically, and beam-search fork
/// jobs (ServeJob::parent_job) map a completed stem's retained blocks copy-on-write instead
/// of re-prefilling it.
///
/// Two implementations:
///   * AnalyticBackend — wraps hrt::Engine. Prices a step for the given active batch and
///     the slots' ACTUAL per-slot contexts (mean, bucketed), fixing the old scheduler's
///     fixed-context simplification. KV is tracked by a storage-free hkv::KvBlockManager
///     (materializing full-size-model KV would cost gigabytes) and admissions can be gated
///     on a DRAM byte budget. Used for the full-size paper models.
///   * FunctionalBackend — wraps hllm::Transformer on the hexsim NPU simulator. Actually
///     decodes tokens (toy configs) through a real hkv::PagedKvCache and meters time from
///     the simulator's cycle ledger, so the same batcher code path is exercised with real
///     numerics in tests. Decode rows fan out across hexec lanes inside StepSeqs and the
///     step's logits are double-buffered for the lm_head overlap; decoded tokens are
///     bit-identical at any lane count (docs/threading_model.md). Driving both backends
///     with one job stream must produce bit-identical block statistics — the serving tests
///     assert exactly that.
#ifndef SRC_SERVING_EXECUTION_BACKEND_H_
#define SRC_SERVING_EXECUTION_BACKEND_H_

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/hexsim/flash.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kvcache/kv_block_manager.h"
#include "src/kvcache/kv_offload.h"
#include "src/llm/sampling.h"
#include "src/llm/transformer.h"
#include "src/llm/weights.h"
#include "src/obs/metrics.h"
#include "src/runtime/engine.h"
#include "src/serving/job.h"
#include "src/serving/slot_kv_book.h"

namespace hserve {

// What the batcher learns from one priced/executed decode step.
struct StepOutcome {
  hrt::StepCost cost;       // decomposition; cost.total_s is the step's wall time
  double watts = 0.0;       // power drawn during the step (energy = watts * total_s)
  std::vector<int> tokens;  // FunctionalBackend: sampled token per active row; else empty
  // Speculative cycles only: tokens the step committed per row (accepted draft prefix plus
  // the target's own token, 1..gamma+1). Empty means every row advanced exactly one token
  // (plain decode). When set, `tokens` is flattened row-major: row i owns the next
  // row_token_counts[i] entries.
  std::vector<int> row_token_counts;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual const char* name() const = 0;

  // Prepares `slot` for a job whose KV starts at `context_tokens` (prompt + any uncharged
  // prefix), of which `charged_prefill_tokens` are newly prefilled through the chunked
  // pipeline. Fork jobs (job.parent_job >= 0) map the parent's retained KV instead of
  // prefilling and must cost 0. Returns the admission's wall-time cost in seconds.
  virtual double AdmitSlot(int slot, const ServeJob& job, int context_tokens,
                           int charged_prefill_tokens) = 0;

  // Releases a finished job's slot (KV rows reclaimable).
  virtual void ReleaseSlot(int slot) {}

  // One decode step advancing every listed slot by one token. `contexts[i]` is slot
  // `slots[i]`'s current KV length; pricing must reflect these actual contexts.
  virtual StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) = 0;

  // One speculative decode cycle (docs/speculative_decoding.md): row i drafts gammas[i]
  // tokens with the backend's draft model and the target verifies all gammas[i]+1 positions
  // in ONE batched multi-row step (gamma-0 rows ride the same verify as plain single-row
  // lanes). Each row commits the accepted draft prefix plus the target's own token
  // (1..gammas[i]+1 tokens, reported via StepOutcome::row_token_counts) and rolls its paged
  // KV back to the committed length. The returned cost covers the whole cycle: gamma draft
  // steps plus one verify step. The caller must keep gammas[i] < the row's remaining decode
  // budget so a fully-accepted cycle never overshoots the admission's KV reservation.
  // Backends without a draft model fall back to a plain step.
  virtual StepOutcome SpeculativeStep(std::span<const int> slots,
                                      std::span<const int> contexts,
                                      std::span<const int> gammas) {
    return Step(slots, contexts);
  }

  // Draft tokens per cycle this backend can run (0 = no draft model configured; the batcher
  // then decodes ServeJob::speculative jobs plainly).
  virtual int spec_gamma() const { return 0; }

  // Fork support: snapshots `slot`'s KV under the completed job's id so fork children can
  // map it after the slot is released; drops the snapshot once the last child admitted.
  virtual void RetainKv(int slot, int job_id) {}
  virtual void DropRetained(int job_id) {}

  // Preemption support (ServeOptions::enable_preemption). PauseSlot snapshots a DECODING
  // job's full state — KV behind a retained handle (pages stay resident, nothing is copied
  // or evicted) plus whatever decode state a bit-identical resume needs (the functional
  // backend: next input token, sampler options, sampler Rng state) — then frees the slot.
  // ResumeSlot maps the snapshot back into a (different or same) free slot and restores the
  // decode state; the covered positions allocate no new blocks and the resumed token stream
  // is bit-identical to an un-preempted run. CanResume asks whether resuming `job_id` now
  // fits the KV budget (its pages are already resident, so only future growth matters).
  virtual void PauseSlot(int slot, int job_id) {}
  virtual void ResumeSlot(int slot, int job_id, int context_tokens) {}
  virtual bool CanResume(int job_id) { return true; }

  // Drops the prompt-prefix anchor retained for a prompt_group once all its jobs completed.
  virtual void ReleaseGroup(int prompt_group) {}

  // Whether admitting `job` now (KV starting at `context_tokens`) fits the KV pool/budget,
  // reserving worst-case growth for the slots already running. Backends without KV
  // accounting always admit.
  virtual bool CanAdmit(const ServeJob& job, int context_tokens) { return true; }

  // Largest context (prompt + context + decode) a job may reach on this backend.
  virtual int max_context() const { return std::numeric_limits<int>::max(); }

  // Drops every slot's KV plus every retained stem, group anchor and paused snapshot —
  // the state a poisoned run leaves behind — so the backend can serve the next run.
  // ContinuousBatcher::Reset calls it after a poisoned run.
  virtual void ClearKv() {}

  // Physical-vs-logical KV accounting snapshot (zeroed for backends without it).
  virtual hkv::KvStats kv_stats() const { return {}; }

  // KV storage dtype this backend accounts/stores blocks in (docs/kv_quantization.md).
  // F16 for backends without a quantized mode.
  virtual hquant::KvDtype kv_dtype() const { return hquant::KvDtype::kF16; }

  // Publishes backend-specific counters into the serving run's metrics registry (called by
  // the batcher when it snapshots a finished run). The functional backend exports the full
  // simulated-device activity profile (hexsim.* metrics); the default exports nothing.
  virtual void ExportMetrics(obs::Registry& registry) const {}
};

// Prices steps with the analytic engine. DecodeStep is deterministic per (batch, context),
// so results are cached keyed on (batch, context bucket) — the per-slot-context successor of
// the old scheduler's fixed-context StepCostCache.
class AnalyticBackend : public ExecutionBackend {
 public:
  struct Options {
    int context_bucket_tokens = 64;
    // Positions per KV block in the accountant. Must match the functional backend's block
    // size (hkv::kDefaultBlockTokens) for stat-parity tests.
    int kv_block_tokens = hkv::kDefaultBlockTokens;
    // DRAM budget for KV blocks; admissions are deferred (or rejected when the batch is
    // empty) once the worst-case block demand exceeds it. <= 0 tracks without gating.
    int64_t kv_budget_bytes = 0;
    // KV storage dtype the accountant prices blocks in. Quantized modes shrink
    // bytes_per_block 1.9-3.6x, so the same kv_budget_bytes admits proportionally more
    // blocks (more Best-of-N lanes / longer contexts — the KV-quantization payoff).
    hquant::KvDtype kv_dtype = hquant::KvDtype::kF16;
    int kv_quant_group = hquant::kGroupSize;  // elements per scale group
    // Speculative decoding (docs/speculative_decoding.md): a draft engine prices the gamma
    // autoregressive draft steps of each cycle and the target engine prices the batched
    // verify; per-row accepted-prefix lengths are drawn from the classic geometric
    // acceptance process at `spec_acceptance` (htts::SpeculativeAcceptanceRate supplies a
    // calibrated value) with a backend-owned deterministic Rng. Jobs opt in via
    // ServeJob::speculative; nullptr leaves speculation off. The draft engine must outlive
    // the backend.
    const hrt::Engine* draft_engine = nullptr;
    int spec_gamma = 4;
    double spec_acceptance = 0.8;
    uint64_t spec_seed = 0x5eedbeef;
    // Tiered KV offload (docs/long_context.md): DRAM-resident KV budget in blocks; <= 0
    // disables the tier. When enabled, contexts whose attended set exceeds the budget
    // stream the excess blocks from a flash tier every step (charged per StepCost::flash_s;
    // only the non-overlapped part stalls total_s) and admission stops hard-gating on
    // kv_budget_bytes — the flash tier is the backing store, so a 64k context decodes
    // under a 16k-resident DRAM budget instead of failing admission.
    int64_t kv_offload_resident_blocks = 0;
    hexsim::FlashSpec flash;  // offload tier bandwidth/latency envelope
    // Sliding-window + attention-sink masking (docs/long_context.md): pricing attends at
    // most ResidentTokens() per row, and admission reserves only the resident set. The
    // default (window_blocks = 0) is disabled — legacy pricing bit-for-bit.
    hkern::AttnWindowSpec attn_window;
  };

  AnalyticBackend(const hrt::Engine& engine, const Options& options);
  explicit AnalyticBackend(const hrt::Engine& engine, int context_bucket_tokens = 64)
      : AnalyticBackend(engine, MakeOptions(context_bucket_tokens)) {}

  const char* name() const override { return "analytic"; }
  double AdmitSlot(int slot, const ServeJob& job, int context_tokens,
                   int charged_prefill_tokens) override;
  void ReleaseSlot(int slot) override;
  StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) override;
  StepOutcome SpeculativeStep(std::span<const int> slots, std::span<const int> contexts,
                              std::span<const int> gammas) override;
  int spec_gamma() const override { return spec_gamma_; }
  void RetainKv(int slot, int job_id) override { book_.Retain(slot, job_id); }
  void DropRetained(int job_id) override { book_.DropRetained(job_id); }
  void ReleaseGroup(int prompt_group) override { book_.ReleaseGroup(prompt_group); }
  void PauseSlot(int slot, int job_id) override { book_.Pause(slot, job_id); }
  void ResumeSlot(int slot, int job_id, int context_tokens) override {
    book_.Resume(slot, job_id, context_tokens);
  }
  bool CanResume(int job_id) override;
  bool CanAdmit(const ServeJob& job, int context_tokens) override;
  void ClearKv() override { book_.Clear(); }
  int max_context() const override;
  hkv::KvStats kv_stats() const override { return kv_.stats(); }
  hquant::KvDtype kv_dtype() const override { return kv_dtype_; }
  // Exports kv.dtype when a quantized mode is active (the analytic backend has no stored
  // rows, so there are no kv.quant.* error gauges to publish). F16 runs export nothing —
  // keeping legacy metric snapshots byte-identical.
  void ExportMetrics(obs::Registry& registry) const override;

  // Bucketed step pricing (exposed for tests): cost of one step at `batch` rows whose mean
  // context rounds up to the bucket containing `context`.
  const hrt::StepCost& BucketedCost(int batch, int context);

 private:
  static Options MakeOptions(int context_bucket_tokens) {
    Options o;
    o.context_bucket_tokens = context_bucket_tokens;
    return o;
  }
  // The book's reservation inputs: DRAM-budget headroom, and the blocks a sliding window
  // keeps resident per row (INT64_MAX without a window).
  int64_t FreeBudgetBlocks() const { return budget_blocks_ - kv_.stats().physical_blocks; }
  int64_t ResidentCap() const;
  // Per-row context as priced: windowed rows attend at most ResidentTokens().
  int EffectiveContext(int context) const;
  // Flash streaming for one step over the (effective) contexts: charges the tier for the
  // attended blocks beyond the resident budget and folds the non-overlapped stall into
  // `cost` (cost->total_s must already hold the step's compute time).
  void ChargeOffload(std::span<const int> contexts, hrt::StepCost* cost);
  // Bucketed draft-engine step pricing (the draft twin of BucketedCost).
  const hrt::StepCost& DraftCost(int batch, int context_bucket);

  const hrt::Engine& engine_;
  int bucket_tokens_;
  std::map<std::pair<int, int>, std::pair<hrt::StepCost, double>> step_cache_;
  std::map<int, double> prefill_cache_;

  // Speculative decoding: draft-engine pricing cache plus the deterministic geometric
  // acceptance process. spec_gamma_ is 0 when no draft engine is configured.
  const hrt::Engine* draft_engine_ = nullptr;
  int spec_gamma_ = 0;
  double spec_acceptance_ = 0.0;
  hexllm::Rng spec_rng_{0};
  std::map<std::pair<int, int>, hrt::StepCost> draft_step_cache_;
  int64_t spec_rollback_blocks_ = 0;
  int64_t spec_cycles_ = 0;

  // Storage-free KV accountant: same block math as the functional backend's PagedKvCache,
  // no bytes, driven through the same SlotKvBook. budget_blocks_ < 0 means unlimited.
  hkv::KvBlockManager kv_;
  SlotKvBook<hkv::KvBlockManager> book_{kv_};
  hquant::KvDtype kv_dtype_ = hquant::KvDtype::kF16;
  int64_t budget_blocks_ = -1;
  // Tiered offload + window pricing state (docs/long_context.md). offload_blocks_ <= 0
  // disables the tier; window_ disabled leaves every context priced at full length.
  int64_t offload_blocks_ = 0;
  int64_t bytes_per_block_ = 0;
  hexsim::FlashTier flash_;
  double offload_stall_s_ = 0.0;
  hkern::AttnWindowSpec window_;
  std::vector<int> eff_contexts_;  // per-step scratch for windowed pricing
};

// Actually decodes tokens through the functional Transformer on the NPU simulator. Intended
// for toy configs; timing comes from the hexsim cycle ledger (busy seconds composed the same
// way the analytic engine composes its pipeline: max(DMA, HMX, HVX/threads) + CPU lm_head +
// mailbox), so a serving run both computes real logits and advances a realistic clock.
class FunctionalBackend : public ExecutionBackend {
 public:
  // Draft-model configuration for speculative decoding (ServeJob::speculative,
  // docs/speculative_decoding.md). The draft weights must share the target's vocabulary
  // (exact-match acceptance compares token ids) and must outlive the backend; running the
  // draft on the SAME simulated device folds its charges into the same cycle ledger the
  // cycle cost is composed from.
  struct SpecOptions {
    const hllm::ModelWeights* draft = nullptr;  // nullptr leaves speculation off
    int gamma = 4;                              // draft tokens per cycle
  };

  // kv_pool_blocks <= 0 sizes the KV block pool for `max_batch` dense sequences (plus CoW
  // and retention slack); tests pass a small pool to exercise admission gating. `kv_dtype`
  // selects the transformer's KV storage mode (docs/kv_quantization.md); F16 is
  // bit-identical to the legacy path.
  FunctionalBackend(hexsim::NpuDevice& dev, const hllm::ModelWeights& weights, int max_batch,
                    int max_context, int64_t kv_pool_blocks,
                    hquant::KvDtype kv_dtype, int kv_quant_group, const SpecOptions& spec);
  // Convenience overload without a draft model (SpecOptions can't be a default argument:
  // its member initializers are incomplete inside the enclosing class).
  FunctionalBackend(hexsim::NpuDevice& dev, const hllm::ModelWeights& weights, int max_batch,
                    int max_context, int64_t kv_pool_blocks = 0,
                    hquant::KvDtype kv_dtype = hquant::KvDtype::kF16,
                    int kv_quant_group = hquant::kGroupSize);

  // Wires tiered KV offload and/or sliding-window attention into the transformer
  // (docs/long_context.md). Must be called before the first admission: the offload engine
  // requires an empty paged cache. A disabled window plus a <= 0 resident budget is a
  // no-op, keeping the legacy path bit-identical. The window applies to the target model
  // only — windowing the draft would merely shift acceptance, never committed tokens.
  void ConfigureLongContext(const hkv::KvOffloadOptions& offload,
                            const hkern::AttnWindowSpec& window);

  const char* name() const override { return "functional"; }
  double AdmitSlot(int slot, const ServeJob& job, int context_tokens,
                   int charged_prefill_tokens) override;
  void ReleaseSlot(int slot) override;
  StepOutcome Step(std::span<const int> slots, std::span<const int> contexts) override;
  StepOutcome SpeculativeStep(std::span<const int> slots, std::span<const int> contexts,
                              std::span<const int> gammas) override;
  int spec_gamma() const override { return spec_gamma_; }
  void RetainKv(int slot, int job_id) override {
    book_.Retain(slot, job_id).last_token = last_token_[static_cast<size_t>(slot)];
  }
  void DropRetained(int job_id) override { book_.DropRetained(job_id); }
  void ReleaseGroup(int prompt_group) override { book_.ReleaseGroup(prompt_group); }
  void PauseSlot(int slot, int job_id) override;
  void ResumeSlot(int slot, int job_id, int context_tokens) override;
  bool CanResume(int job_id) override {
    return book_.CanResume(job_id, tf_.kv().free_blocks(), INT64_MAX);
  }
  bool CanAdmit(const ServeJob& job, int context_tokens) override {
    return book_.CanAdmit(job, context_tokens, tf_.kv().free_blocks(), INT64_MAX);
  }
  void ClearKv() override;
  int max_context() const override { return max_context_; }
  hkv::KvStats kv_stats() const override { return tf_.kv().stats(); }
  hquant::KvDtype kv_dtype() const override { return tf_.kv().dtype(); }
  void ExportMetrics(obs::Registry& registry) const override {
    hexsim::ExportDeviceMetrics(dev_, registry);
    // Peak bytes of the transformer's persistent step-scratch arena
    // (docs/metrics_schema.md, docs/performance.md).
    registry.Set("exec.workspace.bytes",
                 static_cast<double>(tf_.workspace().high_watermark()));
    // Quantized KV modes publish the dtype and the write-time round-trip error proxy; F16
    // runs export nothing extra, keeping legacy snapshots byte-identical.
    if (tf_.kv().dtype() != hquant::KvDtype::kF16) {
      hkv::ExportKvQuantStats(tf_.kv().dtype(), tf_.kv().quant_stats(), registry);
    }
    // Speculative runs publish the rollback counter (docs/metrics_schema.md); plain runs
    // export nothing extra, keeping legacy snapshots byte-identical.
    if (spec_cycles_ > 0) {
      registry.Count("spec.rollback_blocks", spec_rollback_blocks_);
    }
    // Tiered offload / windowed runs publish their series (docs/long_context.md); plain
    // runs export nothing extra, keeping legacy snapshots byte-identical.
    if (tf_.kv().offload_enabled()) {
      hkv::ExportKvOffloadStats(tf_.kv().offload()->stats(), registry);
    }
    if (tf_.attention_window().enabled()) {
      const hkern::AttnWindowSpec& w = tf_.attention_window();
      registry.Set("attn.window.sink_blocks", static_cast<double>(w.sink_blocks));
      registry.Set("attn.window.window_blocks", static_cast<double>(w.window_blocks));
      registry.Set("attn.window.resident_tokens", static_cast<double>(w.ResidentTokens()));
    }
  }

  hllm::Transformer& transformer() { return tf_; }
  hllm::Transformer* draft_transformer() { return draft_.get(); }

 private:
  // Seconds elapsed on the critical path for the ledger activity since `mark`, plus the
  // CPU lm_head and mailbox costs for `batch` rows; fills `cost`'s busy fields.
  double ComposeStep(const hexsim::CycleLedger& mark, int batch, hrt::StepCost* cost) const;
  // Tiered-offload step choreography (no-op when offload is off). BeginOffloadStep runs
  // before the forward: advances the engine clock by the PREVIOUS forward's compute time —
  // that is the window queued prefetches overlapped with — and snapshots the stats.
  // FoldOffload runs after: demotes over-budget blocks (write-behind), queues prefetches
  // for each slot's predicted next-step attended set, and folds the stall/traffic deltas
  // into `cost` (stall extends total_s; flash_s/flash_bytes report the tier traffic).
  hkv::KvOffloadStats BeginOffloadStep();
  void FoldOffload(const hkv::KvOffloadStats& mark, std::span<const int> slots,
                   std::span<const int> contexts, double npu_s, hrt::StepCost* cost);
  // Target-side admission (the pre-speculation AdmitSlot body).
  double AdmitTarget(int slot, const ServeJob& job, int context_tokens,
                     int charged_prefill_tokens);
  // (Re)builds the slot's draft KV for a speculative job by prefilling the deterministic
  // synthetic view of its context; clears any stale draft state otherwise. Returns the
  // draft prefill's wall-time cost.
  double AdmitDraft(int slot, int job_id, bool speculative, int context_tokens);
  // Drops the slot's draft KV and carry (no-op without a draft model).
  void ResetDraftSlot(int slot);

  hexsim::NpuDevice& dev_;
  hllm::Transformer tf_;
  SlotKvBook<hkv::PagedKvCache> book_{tf_.kv()};
  int max_context_;
  std::vector<int> last_token_;    // per slot: token the next step consumes
  // Per-slot sampling policy + Rng, seeded from the job at admission. Sampling runs on the
  // batcher's bookkeeping thread (after StepSeqs returns), so decoded tokens are
  // deterministic at any HEXLLM_NUM_THREADS. A pause snapshots the Rng by copy (an exact
  // state snapshot), which keeps the resumed stream bit-identical for stochastic sampling
  // policies, not just greedy.
  std::vector<hllm::SamplerOptions> sampler_opts_;
  std::vector<hexllm::Rng> sampler_rng_;
  // Double-buffered logits, [max_batch * vocab] each: step N writes buffer N % 2 and the
  // previous step's buffer stays intact until step N+1 flips again. This is the mechanism
  // behind ServeOptions::overlap_lm_head — the CPU lm_head (argmax consumer) of step N can
  // run while the NPU fills the other buffer for step N+1, so the batcher may charge
  // max(npu, lm_head) instead of their sum (docs/threading_model.md).
  std::array<std::vector<float>, 2> logits_buf_;
  int logits_cur_ = 0;             // buffer index the LAST step wrote

  // Speculative decoding (docs/speculative_decoding.md). The draft transformer shares the
  // simulated device, so its charges land in the same cycle ledger the cycle cost is
  // composed from. Draft KV is (re)built from the synthetic context view at admission and
  // resume — losslessness never depends on draft conditioning, because every committed
  // token is sampled from the target's own logits under exact plain-decode conditioning.
  std::unique_ptr<hllm::Transformer> draft_;
  int spec_gamma_ = 0;               // env-resolved draft tokens per cycle (0 = off)
  std::vector<bool> spec_slot_;      // per slot: draft KV live (speculative job)
  std::vector<int> draft_carry_;     // per slot: fully-accepted last proposal the draft has
                                     // not consumed yet (-1 = in sync); fed back via a
                                     // one-token catch-up prefill at the next cycle
  std::vector<int> draft_prev_;      // per slot: input of the next draft step (intra-cycle)
  std::vector<float> draft_logits_;  // [max_batch x vocab] draft-step scratch
  // Cycle scratch (reused across cycles; see docs/performance.md).
  std::vector<int> spec_tokens_, spec_seqs_, spec_counts_;
  std::vector<std::vector<int>> spec_proposals_;  // per slot: this cycle's draft tokens
  int64_t spec_rollback_blocks_ = 0;
  int64_t spec_cycles_ = 0;

  // Tiered offload (docs/long_context.md): compute seconds of the last forward — the
  // overlap window the next step's queued prefetches hide under — plus prefetch scratch.
  double last_npu_s_ = 0.0;
  std::vector<int> prefetch_scratch_;
};

}  // namespace hserve

#endif  // SRC_SERVING_EXECUTION_BACKEND_H_
