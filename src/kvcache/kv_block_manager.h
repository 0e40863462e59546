/// \file
/// Per-sequence block tables with prefix sharing and copy-on-write forking — the logical
/// half of the paged KV cache, storage-free.
///
/// A sequence's KV positions map to pool blocks through its block table:
///   position p  ->  table[p / block_tokens], row offset p % block_tokens.
/// Sharing is block-granular: admitting N candidates of one prompt maps their prompt blocks
/// to ONE physical copy (AddRef); forking a beam stem maps the whole parent table. A shared
/// block stays read-only; the first append that lands in a shared block triggers a
/// copy-on-write split (the writer gets a private copy, the other owners keep the original).
///
/// The manager is deliberately storage-free so it serves two masters:
///   * hkv::PagedKvCache embeds it and applies the returned WriteAccess/freed-block events
///     to real F16 storage (copying on CoW splits, poisoning freed blocks in debug builds);
///   * hserve::AnalyticBackend drives one as a DRAM accountant for full-size models where
///     materializing KV would cost gigabytes — same block math, no bytes.
/// Both serving backends drive their store through one hserve::SlotKvBook, so the same job
/// stream yields bit-identical block statistics, which the serving tests assert.
///
/// Thread-compatible, not thread-safe: the serving layer mutates block tables only from the
/// admission/step bookkeeping thread. Parallel decode lanes touch the underlying BlockPool
/// (which is mutexed), never the tables (docs/threading_model.md).
#ifndef SRC_KVCACHE_KV_BLOCK_MANAGER_H_
#define SRC_KVCACHE_KV_BLOCK_MANAGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/kvcache/block_pool.h"
#include "src/obs/metrics.h"

namespace hkv {

// Physical-vs-logical KV accounting, reported through the serving metrics.
struct KvStats {
  int block_tokens = 0;            // positions per block
  int64_t bytes_per_block = 0;     // K+V rows for all layers of one block, FP16
  int64_t physical_blocks = 0;     // distinct live blocks
  int64_t peak_physical_blocks = 0;
  int64_t logical_blocks = 0;      // sum of per-sequence table sizes (shared blocks count
                                   // once per referencing sequence — what a dense layout
                                   // would store)
  int64_t peak_logical_blocks = 0;
  int64_t cow_splits = 0;          // shared blocks privatized by a write

  int64_t physical_bytes() const { return physical_blocks * bytes_per_block; }
  int64_t peak_physical_bytes() const { return peak_physical_blocks * bytes_per_block; }
  int64_t logical_bytes() const { return logical_blocks * bytes_per_block; }
  int64_t peak_logical_bytes() const { return peak_logical_blocks * bytes_per_block; }
  // How many dense bytes each physical byte stands in for (1.0 = no sharing).
  double sharing_ratio() const {
    return physical_blocks > 0
               ? static_cast<double>(logical_blocks) / static_cast<double>(physical_blocks)
               : 1.0;
  }
};

// Publishes a KvStats snapshot into `registry` under the `kv.` unit prefix
// (docs/metrics_schema.md):
//   counters kv.cow_splits
//   gauges   kv.block_tokens, kv.bytes_per_block, kv.physical_blocks,
//            kv.peak_physical_blocks, kv.logical_blocks, kv.peak_logical_blocks,
//            kv.sharing_ratio
void ExportKvStats(const KvStats& stats, obs::Registry& registry);

class KvBlockManager {
 public:
  // max_blocks <= 0 means unbounded (accounting mode). Sequence ids grow on demand.
  // bytes_per_block only scales the reported stats.
  KvBlockManager(int block_tokens, int64_t max_blocks, int64_t bytes_per_block);

  int block_tokens() const { return block_tokens_; }
  int length(int seq) const;
  int64_t table_blocks(int seq) const;
  // Block id holding table entry `idx` of `seq` (idx < table_blocks(seq)).
  int block_at(int seq, int idx) const;

  // Result of preparing position `pos` of `seq` for writing.
  struct WriteAccess {
    int block = -1;        // block now holding `pos`, exclusively owned by `seq`
    int copied_from = -1;  // >= 0: CoW split — storage must copy that block's rows into
                           // `block` before writing
  };

  // Ensures the block holding `pos` exists and is exclusively owned (allocating a fresh
  // block at a block boundary, CoW-splitting a shared one). `pos` must lie in the append
  // region [length, table capacity]. CHECK-fails on pool exhaustion — callers gate
  // admission via BlocksToAdmit/free_blocks instead of probing.
  WriteAccess EnsureWritable(int seq, int pos);

  // Advances the sequence by one position (after all layers wrote their rows).
  void Advance(int seq);

  // Pre-sizes the per-sequence tables: materializes sequences [0, num_seqs) and reserves
  // `blocks_per_seq` table entries in each, so steady-state appends (including the
  // block-boundary push_back every block_tokens positions) never reallocate — the
  // zero-alloc decode contract (docs/performance.md). Purely a capacity hint; no blocks
  // are allocated and stats are unchanged.
  void Reserve(int num_seqs, int blocks_per_seq);

  // Releases every block reference the sequence holds. Blocks whose last reference dropped
  // are appended to `freed` (nullable). ResetSeq/DropHandle share their names with
  // hkv::PagedKvCache's, so code written over either store (hserve::SlotKvBook) reads the
  // same.
  void ResetSeq(int seq, std::vector<int>* freed = nullptr);

  // Shrinks `seq` to `new_len` positions (the speculative-decode rollback primitive): whole
  // tail blocks past ceil(new_len / block_tokens) are Unref'd (last-owner blocks appended to
  // `freed`, nullable) and the length rewinds so the next append targets position `new_len`.
  // A kept partial tail block is untouched — if it is shared (forked child, retained
  // prefix), the re-append after rollback CoW-splits it through EnsureWritable exactly like
  // any other divergent write, so fork/handle invariants survive rollback. Returns the
  // number of table blocks dropped.
  int64_t Truncate(int seq, int new_len, std::vector<int>* freed);

  // Snapshots the first `len` positions (-1 = full length) of `seq` as a retained handle:
  // the covered blocks stay alive independent of the sequence's own lifetime, so a prompt
  // prefix or a completed beam stem can outlive its slot. Returns the handle id.
  int64_t Retain(int seq, int len = -1);
  int handle_length(int64_t handle) const;

  // Maps the first `len` positions of the handle into `dst` (which must be empty): the
  // shared blocks are AddRef'd, dst's length becomes `len`. A partial tail block is shared
  // too — the first append into it CoW-splits.
  void ShareFromHandle(int64_t handle, int dst, int len);

  void DropHandle(int64_t handle, std::vector<int>* freed = nullptr);

  // Blocks a fresh admission will newly allocate to grow from `shared_tokens` of mapped
  // prefix to `total_tokens`, including the CoW split of a partial shared tail.
  int64_t BlocksToAdmit(int total_tokens, int shared_tokens) const;

  // True if the tail block of `seq` is currently shared (the next append pays a CoW split).
  bool TailShared(int seq) const;

  int64_t free_blocks() const { return pool_.free_blocks(); }
  KvStats stats() const;

  // Physical-pool access for the tiered-offload engine (residency bits, LRU stamps).
  BlockPool& pool() { return pool_; }
  const BlockPool& pool() const { return pool_; }

 private:
  struct Table {
    std::vector<int> blocks;
    int length = 0;
  };

  Table& Seq(int seq);
  const Table* SeqOrNull(int seq) const;
  void BumpLogical(int64_t delta);

  int block_tokens_;
  int64_t bytes_per_block_;
  BlockPool pool_;
  std::vector<Table> seqs_;
  std::map<int64_t, Table> handles_;
  int64_t next_handle_ = 1;
  int64_t logical_blocks_ = 0;
  int64_t peak_logical_blocks_ = 0;
  int64_t cow_splits_ = 0;
};

}  // namespace hkv

#endif  // SRC_KVCACHE_KV_BLOCK_MANAGER_H_
