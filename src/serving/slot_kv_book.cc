#include "src/serving/slot_kv_book.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/base/math_util.h"

namespace hserve {

template <class Kv>
int SlotKvBook<Kv>::SharedPrefixLen(const ServeJob& job, int context_tokens) const {
  if (job.parent_job >= 0) {
    const auto it = retained_.find(job.parent_job);
    return it != retained_.end() ? std::min(it->second.len, context_tokens) : 0;
  }
  if (GroupPrefixLen(job) > 0) {
    const auto it = anchors_.find(job.prompt_group);
    if (it != anchors_.end()) {
      return std::min({it->second.len, GroupPrefixLen(job), context_tokens});
    }
  }
  return 0;
}

template <class Kv>
bool SlotKvBook<Kv>::Fits(int64_t needed, int64_t free_blocks, int64_t resident_cap) const {
  int64_t reserved = 0;
  for (size_t s = 0; s < end_len_.size(); ++s) {
    if (end_len_[s] <= 0) {
      continue;
    }
    const int slot = static_cast<int>(s);
    const int64_t want = hexllm::CeilDiv(end_len_[s], kv_.block_tokens());
    const int64_t growth = std::max<int64_t>(0, want - kv_.table_blocks(slot));
    reserved += std::min(resident_cap, growth) + (kv_.TailShared(slot) ? 1 : 0);
  }
  return free_blocks - reserved >= std::min(resident_cap, needed);
}

template <class Kv>
bool SlotKvBook<Kv>::CanAdmit(const ServeJob& job, int context_tokens, int64_t free_blocks,
                              int64_t resident_cap) const {
  const int64_t needed = kv_.BlocksToAdmit(context_tokens + job.decode_tokens,
                                           SharedPrefixLen(job, context_tokens));
  return Fits(needed, free_blocks, resident_cap);
}

template <class Kv>
bool SlotKvBook<Kv>::CanResume(int job_id, int64_t free_blocks, int64_t resident_cap) const {
  const auto it = paused_.find(job_id);
  HEXLLM_CHECK_MSG(it != paused_.end(), "resume of a job that was never paused");
  const int bt = kv_.block_tokens();
  const int64_t needed =
      hexllm::CeilDiv(it->second.end_len, bt) - hexllm::CeilDiv(it->second.len, bt) + 1;
  return Fits(needed, free_blocks, resident_cap);
}

template <class Kv>
void SlotKvBook<Kv>::SetEndLen(int slot, int end_len) {
  HEXLLM_CHECK(slot >= 0);
  if (slot >= static_cast<int>(end_len_.size())) {
    end_len_.resize(static_cast<size_t>(slot) + 1, 0);
  }
  end_len_[static_cast<size_t>(slot)] = end_len;
}

template <class Kv>
const typename SlotKvBook<Kv>::Entry* SlotKvBook<Kv>::Admit(int slot, const ServeJob& job,
                                                            int context_tokens) {
  kv_.ResetSeq(slot);
  SetEndLen(slot, context_tokens + job.decode_tokens);
  if (job.parent_job >= 0) {
    // Fork: the parent's retained stem maps block for block — none of it is re-prefilled,
    // and the first divergent append copy-on-write splits the tail. Tokens PAST the
    // parent's length (a dialog session's new turn) are the caller's to write.
    const auto it = retained_.find(job.parent_job);
    HEXLLM_CHECK_MSG(it != retained_.end(), "fork admitted before its parent was retained");
    HEXLLM_CHECK_MSG(it->second.len <= context_tokens,
                     "fork context must cover the parent's final KV length");
    kv_.ShareFromHandle(it->second.handle, slot, it->second.len);
    return &it->second;
  }
  // Later members of a prompt group attend to the SAME physical prompt KV the first member
  // wrote (stored once); only the remainder past the shared prefix is written fresh.
  if (GroupPrefixLen(job) > 0) {
    const auto it = anchors_.find(job.prompt_group);
    if (it != anchors_.end()) {
      kv_.ShareFromHandle(it->second.handle, slot,
                          std::min({it->second.len, GroupPrefixLen(job), context_tokens}));
      return &it->second;
    }
  }
  return nullptr;
}

template <class Kv>
typename SlotKvBook<Kv>::Entry* SlotKvBook<Kv>::AnchorGroup(int slot, const ServeJob& job,
                                                            int context_tokens) {
  if (job.parent_job >= 0 || GroupPrefixLen(job) <= 0 ||
      anchors_.count(job.prompt_group) != 0) {
    return nullptr;
  }
  Entry& anchor = anchors_[job.prompt_group];
  anchor.len = std::min(GroupPrefixLen(job), context_tokens);
  anchor.handle = kv_.Retain(slot, anchor.len);
  return &anchor;
}

template <class Kv>
void SlotKvBook<Kv>::Release(int slot) {
  kv_.ResetSeq(slot);
  SetEndLen(slot, 0);
}

template <class Kv>
typename SlotKvBook<Kv>::Entry& SlotKvBook<Kv>::Retain(int slot, int job_id) {
  const auto [it, inserted] = retained_.try_emplace(job_id);
  HEXLLM_CHECK_MSG(inserted, "job retained twice");
  it->second.handle = kv_.Retain(slot, -1);
  it->second.len = kv_.length(slot);
  return it->second;
}

template <class Kv>
void SlotKvBook<Kv>::DropRetained(int job_id) {
  const auto it = retained_.find(job_id);
  HEXLLM_CHECK(it != retained_.end());
  kv_.DropHandle(it->second.handle);
  retained_.erase(it);
}

template <class Kv>
void SlotKvBook<Kv>::ReleaseGroup(int prompt_group) {
  const auto it = anchors_.find(prompt_group);
  if (it == anchors_.end()) {
    return;
  }
  kv_.DropHandle(it->second.handle);
  anchors_.erase(it);
}

template <class Kv>
typename SlotKvBook<Kv>::Entry& SlotKvBook<Kv>::Pause(int slot, int job_id) {
  const auto [it, inserted] = paused_.try_emplace(job_id);
  HEXLLM_CHECK_MSG(inserted, "job paused twice");
  Entry& snap = it->second;
  snap.handle = kv_.Retain(slot, -1);
  snap.len = kv_.length(slot);
  snap.end_len = end_len_.at(static_cast<size_t>(slot));
  Release(slot);  // the handle's references keep every page resident
  return snap;
}

template <class Kv>
typename SlotKvBook<Kv>::Entry SlotKvBook<Kv>::Resume(int slot, int job_id,
                                                      int context_tokens) {
  const auto it = paused_.find(job_id);
  HEXLLM_CHECK_MSG(it != paused_.end(), "resume of a job that was never paused");
  HEXLLM_CHECK(it->second.len == context_tokens);
  // Map the snapshot back, then drop the handle: the slot's own references keep the pages
  // alive, and the tail block's refcount returns to 1 so the next append extends it in
  // place with no copy-on-write split.
  kv_.ShareFromHandle(it->second.handle, slot, context_tokens);
  kv_.DropHandle(it->second.handle);
  SetEndLen(slot, it->second.end_len);
  Entry snap = std::move(it->second);
  paused_.erase(it);
  return snap;
}

template <class Kv>
void SlotKvBook<Kv>::Clear() {
  for (size_t s = 0; s < end_len_.size(); ++s) {
    Release(static_cast<int>(s));
  }
  for (auto* entries : {&retained_, &anchors_, &paused_}) {
    for (const auto& [key, entry] : *entries) {
      kv_.DropHandle(entry.handle);
    }
    entries->clear();
  }
}

template class SlotKvBook<hkv::KvBlockManager>;
template class SlotKvBook<hkv::PagedKvCache>;

}  // namespace hserve
