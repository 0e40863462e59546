/// \file
/// The slot-level KV lifecycle both serving backends share.
///
/// The batcher speaks in slots and job ids; the KV store speaks in sequences and retained
/// handles. SlotKvBook is the one translation between them: per-slot committed end lengths,
/// retained stems of completed jobs (fork parents, session turns), prompt-group anchors,
/// paused snapshots, the shared-prefix mapping of a fresh admission, and the single
/// reservation rule that gates both admissions and resumes. It is written once over the KV
/// store's block-table interface and instantiated for the analytic backend's storage-free
/// hkv::KvBlockManager and the functional backend's hkv::PagedKvCache, so one job stream
/// drives the same block choreography through both backends by construction — which is why
/// their KvStats agree bit for bit.
///
/// Decode state a token-producing backend must carry across a fork or a pause (last token,
/// sampler snapshot, speculative flag) rides in the book's entries; the analytic backend
/// leaves those fields at their defaults.
///
/// Thread-compatible: used only from the batcher's bookkeeping thread.
#ifndef SRC_SERVING_SLOT_KV_BOOK_H_
#define SRC_SERVING_SLOT_KV_BOOK_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/rng.h"
#include "src/kvcache/kv_block_manager.h"
#include "src/kvcache/paged_kv_cache.h"
#include "src/llm/sampling.h"
#include "src/serving/job.h"

namespace hserve {

template <class Kv>
class SlotKvBook {
 public:
  // A retained KV snapshot: a handle over the first `len` positions plus what a
  // continuation from it needs.
  struct Entry {
    int64_t handle = 0;
    int len = 0;
    int end_len = 0;           // paused: the end length the batcher committed to at admission
    int last_token = 0;        // token the continuation's first decode step consumes
    bool speculative = false;  // paused: the job drafts (its draft KV is rebuilt on resume)
    hllm::SamplerOptions sampler;
    hexllm::Rng rng{0};        // paused: the exact sampler state at the pause point
  };

  explicit SlotKvBook(Kv& kv) : kv_(kv) {}

  // The reservation rule. Admitting (or resuming) must fit in `free_blocks` after every
  // running slot reserves its worst-case growth to its committed end length plus one block
  // for a pending copy-on-write tail split. `resident_cap` caps both the candidate's demand
  // and each slot's growth at the blocks a sliding window keeps resident (INT64_MAX: none).
  bool CanAdmit(const ServeJob& job, int context_tokens, int64_t free_blocks,
                int64_t resident_cap) const;
  // A paused job's pages are already resident; only its growth to the committed end length
  // (plus one block of tail slack) needs headroom.
  bool CanResume(int job_id, int64_t free_blocks, int64_t resident_cap) const;

  // Starts a fresh admission: clears `slot`, commits its end length and maps the shared
  // prefix, so the store's length(slot) is the mapped length on return. Returns the entry
  // the prefix came from (nullptr when nothing is shared).
  const Entry* Admit(int slot, const ServeJob& job, int context_tokens);
  // Completes a prompt group's first admission once the slot's context is written: retains
  // the group's prompt prefix so later members map it. Returns the new anchor, or nullptr
  // when the job is a fork, ungrouped, or its group is already anchored.
  Entry* AnchorGroup(int slot, const ServeJob& job, int context_tokens);
  void Release(int slot);

  // Snapshots a completed job's full KV under its id for fork children / session turns.
  Entry& Retain(int slot, int job_id);
  void DropRetained(int job_id);
  void ReleaseGroup(int prompt_group);

  // Pause snapshots the slot's KV behind a handle (pages stay resident), keeps its
  // committed end length, and frees the slot; the caller attaches its decode state to the
  // returned entry. Resume maps the snapshot back and drops the handle, so the tail's
  // refcount returns to 1 and the next append extends it in place — block statistics match
  // an un-preempted run. Returns the snapshot.
  Entry& Pause(int slot, int job_id);
  Entry Resume(int slot, int job_id, int context_tokens);

  // Forgets everything: every slot's KV, retained stem, anchor and paused snapshot (what a
  // poisoned run leaves behind), returning their blocks to the store.
  void Clear();

 private:
  // Positions of `job`'s starting context a fresh admission maps instead of writing: the
  // fork parent's retained stem, or the resident anchor of its prompt group.
  int SharedPrefixLen(const ServeJob& job, int context_tokens) const;
  bool Fits(int64_t needed, int64_t free_blocks, int64_t resident_cap) const;
  void SetEndLen(int slot, int end_len);

  Kv& kv_;
  std::vector<int> end_len_;        // per slot: context + decode at admission (0 = free)
  std::map<int, Entry> retained_;   // completed job id -> retained stem
  std::map<int, Entry> anchors_;    // prompt_group -> retained prompt prefix
  std::map<int, Entry> paused_;     // preempted job id -> paused snapshot
};

extern template class SlotKvBook<hkv::KvBlockManager>;
extern template class SlotKvBook<hkv::PagedKvCache>;

}  // namespace hserve

#endif  // SRC_SERVING_SLOT_KV_BOOK_H_
