// The parallel execution layer's contract tests (docs/threading_model.md):
//   * ParallelFor — static partition exactness, nested-region serialization, lowest-slot
//     exception selection, concurrent callers sharing one pool;
//   * lane-count determinism — GEMM / dequant / attention-bearing decode produce
//     bit-identical outputs AND exact integer counters at 1 vs 4 lanes;
//   * concurrent BlockPool stress and metrics-registry consistency under parallel writers.
#include <array>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/exec/thread_pool.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/gemm.h"
#include "src/kernels/mixed_gemm.h"
#include "src/kvcache/block_pool.h"
#include "src/llm/model_config.h"
#include "src/llm/transformer.h"
#include "src/llm/weights.h"
#include "src/obs/metrics.h"
#include "src/quant/group_quant.h"
#include "src/quant/tile_quant.h"

namespace hexec {
namespace {

using hexllm::F16;
using hexllm::Rng;
using hexsim::NpuDevice;
using hexsim::OnePlus12;

// --- ParallelFor contract ---

TEST(ParallelForTest, PartitionIsStaticAndExact) {
  ParallelismOverride lanes(4);
  const int64_t n = 10;
  std::array<int64_t, 4> begins{};
  std::array<int64_t, 4> ends{};
  const int slots = ParallelFor(n, [&](int64_t begin, int64_t end, int slot) {
    begins[static_cast<size_t>(slot)] = begin;
    ends[static_cast<size_t>(slot)] = end;
  });
  ASSERT_EQ(slots, 4);
  for (int s = 0; s < 4; ++s) {
    // The documented static rule: slot s owns [n*s/slots, n*(s+1)/slots).
    EXPECT_EQ(begins[static_cast<size_t>(s)], n * s / 4) << s;
    EXPECT_EQ(ends[static_cast<size_t>(s)], n * (s + 1) / 4) << s;
  }
}

TEST(ParallelForTest, SmallRangesCollapseToFewerSlots) {
  ParallelismOverride lanes(4);
  EXPECT_EQ(PlannedSlots(1), 1);
  EXPECT_EQ(PlannedSlots(3), 3);
  EXPECT_EQ(ParallelFor(2, [](int64_t, int64_t, int) {}), 2);
  EXPECT_EQ(ParallelFor(0, [](int64_t, int64_t, int) {}), 0);
}

TEST(ParallelForTest, SlotsForWorkGivesEachLaneItsMinimum) {
  ParallelismOverride lanes(4);
  EXPECT_EQ(SlotsForWork(512, 512 * 128, 1 << 17), 1);       // one lm_head row: stay inline
  EXPECT_EQ(SlotsForWork(1024, 1024 * 128, 1 << 17), 1);     // two rows: one lane's minimum
  EXPECT_EQ(SlotsForWork(2048, 2048 * 128, 1 << 17), 2);
  EXPECT_EQ(SlotsForWork(8192, 8192 * 128, 1 << 17), 4);     // capped by the lanes
  EXPECT_EQ(SlotsForWork(3, int64_t{1} << 40, 1 << 17), 3);  // and by the items
  ParallelFor(4, [](int64_t, int64_t, int) {
    EXPECT_EQ(SlotsForWork(8192, 8192 * 128, 1 << 17), 1);   // nested: serial
  });
}

TEST(ParallelForTest, NestedRegionsRunSerial) {
  ParallelismOverride lanes(4);
  std::array<int, 4> inner_slots{};
  ParallelFor(4, [&](int64_t begin, int64_t, int slot) {
    EXPECT_EQ(PlannedSlots(100), 1);  // inside a region: no recursive fan-out
    inner_slots[static_cast<size_t>(slot)] =
        ParallelFor(100, [](int64_t, int64_t, int) {});
    (void)begin;
  });
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(inner_slots[static_cast<size_t>(s)], 1) << s;
  }
}

TEST(ParallelForTest, LowestSlotExceptionWins) {
  ParallelismOverride lanes(4);
  std::atomic<int> finished{0};
  try {
    ParallelFor(4, [&](int64_t, int64_t, int slot) {
      finished.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("slot " + std::to_string(slot));
    });
    FAIL() << "ParallelFor must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slot 0");
  }
  // Every slot ran to its throw before the rethrow (no abandoned lanes).
  EXPECT_EQ(finished.load(), 4);
  // The failed region released the lanes: the next one runs all four slots again.
  std::array<int, 4> ran{};
  EXPECT_EQ(ParallelFor(4, [&](int64_t, int64_t, int slot) {
    ran[static_cast<size_t>(slot)] = 1;
  }), 4);
  EXPECT_EQ(ran, (std::array<int, 4>{1, 1, 1, 1}));
}

TEST(ParallelForTest, ConcurrentCallersEachGetTheirExactPartition) {
  // Two threads issue regions at once: whichever finds the lanes held runs its region
  // inline, and both must see every index exactly once, owned by the slot the static rule
  // names.
  constexpr int64_t kN = 37;
  std::atomic<int> bad_regions{0};
  auto caller = [&bad_regions] {
    ParallelismOverride lanes(4);
    for (int r = 0; r < 200; ++r) {
      std::array<int, kN> hits{};
      std::array<int, kN> owner{};
      const int slots = ParallelFor(kN, [&](int64_t begin, int64_t end, int slot) {
        for (int64_t i = begin; i < end; ++i) {
          ++hits[static_cast<size_t>(i)];
          owner[static_cast<size_t>(i)] = slot;
        }
      });
      bool ok = slots == 4;
      for (int64_t i = 0; i < kN; ++i) {
        const int s = owner[static_cast<size_t>(i)];
        ok = ok && hits[static_cast<size_t>(i)] == 1 && kN * s / 4 <= i &&
             i < kN * (s + 1) / 4;
      }
      if (!ok) {
        bad_regions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(bad_regions.load(), 0);
}

// --- lane-count determinism: bit-identical outputs, exact integer counters ---

TEST(LaneDeterminismTest, HvxGemmBitIdenticalAndPacketExact) {
  const int m = 8, k = 32, n = 64;
  Rng rng(11);
  std::vector<F16> a(static_cast<size_t>(m) * k), b(static_cast<size_t>(k) * n);
  for (auto& x : a) x = F16(static_cast<float>(rng.NextGaussian() * 0.3));
  for (auto& x : b) x = F16(static_cast<float>(rng.NextGaussian() * 0.3));

  std::vector<F16> c1(static_cast<size_t>(m) * n), c4(c1.size());
  NpuDevice dev1(OnePlus12()), dev4(OnePlus12());
  double s1, s4;
  {
    ParallelismOverride lanes(1);
    s1 = hkern::GemmF16Hvx(dev1, a.data(), b.data(), c1.data(), m, k, n);
  }
  {
    ParallelismOverride lanes(4);
    s4 = hkern::GemmF16Hvx(dev4, a.data(), b.data(), c4.data(), m, k, n);
  }
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(F16)), 0);
  const int64_t want = hkern::GemmF16HvxPackets(dev1.profile(), m, k, n);
  EXPECT_EQ(dev1.hvx().packets(), want);
  EXPECT_EQ(dev4.hvx().packets(), want);  // exact at any lane count, not approximate
  EXPECT_DOUBLE_EQ(s1, s4);  // seconds committed once, from the same integer total
}

TEST(LaneDeterminismTest, HmxGemmBitIdenticalAndTileOpExact) {
  const int m = 128, k = 32, n = 64;  // 4 strips of 32 rows -> 4 parallel slots
  Rng rng(12);
  std::vector<F16> a(static_cast<size_t>(m) * k);
  std::vector<float> w(static_cast<size_t>(k) * n);
  for (auto& x : a) x = F16(static_cast<float>(rng.NextGaussian() * 0.3));
  for (auto& x : w) x = static_cast<float>(rng.NextGaussian() * 0.3);
  const auto stream = hquant::PermuteToHmxOrder(w, k, n);
  std::vector<F16> b_tiles(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) b_tiles[i] = F16(stream[i]);

  std::vector<F16> c1(static_cast<size_t>(m) * n), c4(c1.size());
  NpuDevice dev1(OnePlus12()), dev4(OnePlus12());
  {
    ParallelismOverride lanes(1);
    hkern::GemmF16Hmx(dev1, a.data(), b_tiles.data(), c1.data(), m, k, n,
                      /*operands_in_tcm=*/false);
  }
  {
    ParallelismOverride lanes(4);
    hkern::GemmF16Hmx(dev4, a.data(), b_tiles.data(), c4.data(), m, k, n,
                      /*operands_in_tcm=*/false);
  }
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(F16)), 0);
  const int64_t want = hkern::GemmF16HmxTileOps(m, k, n);
  EXPECT_EQ(dev1.hmx().tile_ops(), want);
  EXPECT_EQ(dev4.hmx().tile_ops(), want);
  EXPECT_EQ(dev1.ledger().dma_bytes(), dev4.ledger().dma_bytes());
}

TEST(LaneDeterminismTest, DequantPacketCountLaneInvariant) {
  Rng rng(13);
  std::vector<float> values(256 * 8);  // 8 super-blocks -> real fan-out at 4 lanes
  for (auto& v : values) v = static_cast<float>(rng.NextGaussian() * 0.05);
  const auto blocks = hquant::QuantizeQ4_0(values);
  const auto sbs = hquant::CoalesceSuperblocks(blocks);

  NpuDevice dev1(OnePlus12()), dev4(OnePlus12());
  auto* out1 = reinterpret_cast<F16*>(dev1.tcm().Alloc(values.size() * 2));
  auto* out4 = reinterpret_cast<F16*>(dev4.tcm().Alloc(values.size() * 2));
  int64_t p1, p4;
  {
    ParallelismOverride lanes(1);
    p1 = hkern::DequantCoalescedLut(dev1, sbs, out1);
  }
  {
    ParallelismOverride lanes(4);
    p4 = hkern::DequantCoalescedLut(dev4, sbs, out4);
  }
  // Hoisted setup packets charge once (slot 0 only): the 17n+4 identity must hold at any
  // lane count, which is what keeps the Figure 15 ablation numbers lane-invariant.
  EXPECT_EQ(p1, static_cast<int64_t>(sbs.size()) * 17 + 4);
  EXPECT_EQ(p4, p1);
  EXPECT_EQ(std::memcmp(out1, out4, values.size() * 2), 0);
}

TEST(LaneDeterminismTest, DecodeStepBitIdenticalAcrossLanes) {
  // Full functional decode (mixed GEMM + RoPE + paged KV + per-head FlashAttention +
  // lm_head) for a 3-row batch: logits must be bit-identical at 1 vs 4 lanes.
  const hllm::ModelConfig config = hllm::ToyConfig();
  const hllm::ModelWeights weights1 = hllm::ModelWeights::Random(config, 1234);
  const hllm::ModelWeights weights4 = hllm::ModelWeights::Random(config, 1234);
  NpuDevice dev1(OnePlus12()), dev4(OnePlus12());
  hllm::Transformer tf1(dev1, weights1, /*max_batch=*/4, /*max_context=*/64);
  hllm::Transformer tf4(dev4, weights4, /*max_batch=*/4, /*max_context=*/64);

  const int batch = 3;
  std::vector<float> logits1(static_cast<size_t>(batch) * config.vocab);
  std::vector<float> logits4(logits1.size());
  std::vector<int> tokens(static_cast<size_t>(batch));
  const std::vector<int> seqs{0, 1, 2};
  const std::vector<int> one_row_each(static_cast<size_t>(batch), 1);
  for (int step = 0; step < 5; ++step) {
    for (int b = 0; b < batch; ++b) {
      tokens[static_cast<size_t>(b)] = (7 * step + 3 * b + 1) % config.vocab;
    }
    {
      ParallelismOverride lanes(1);
      tf1.Forward({tokens, seqs, one_row_each, logits1});
    }
    {
      ParallelismOverride lanes(4);
      tf4.Forward({tokens, seqs, one_row_each, logits4});
    }
    EXPECT_EQ(std::memcmp(logits1.data(), logits4.data(),
                          logits1.size() * sizeof(float)),
              0)
        << "step " << step;
  }
  // Integer activity is exact too: same HVX packets, HMX tile ops, DMA bytes.
  EXPECT_EQ(dev1.hvx().packets(), dev4.hvx().packets());
  EXPECT_EQ(dev1.hmx().tile_ops(), dev4.hmx().tile_ops());
  EXPECT_EQ(dev1.ledger().dma_bytes(), dev4.ledger().dma_bytes());
}

// --- concurrent BlockPool stress ---

TEST(BlockPoolConcurrencyTest, ParallelAllocRefUnrefStaysConsistent) {
  hkv::BlockPool pool(256);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      Rng rng(static_cast<uint64_t>(100 + t));
      std::vector<int> held;
      for (int i = 0; i < kIters; ++i) {
        const uint64_t op = rng.NextU64() % 3;
        if (op == 0 && held.size() < 16) {
          const int id = pool.Alloc();
          if (id >= 0) {
            held.push_back(id);
          }
        } else if (op == 1 && !held.empty()) {
          // Share + drop one reference: refcount returns to 1, block stays held.
          const int id = held[rng.NextU64() % held.size()];
          pool.AddRef(id);
          pool.Unref(id);
        } else if (!held.empty()) {
          const int id = held.back();
          held.pop_back();
          pool.Unref(id);
        }
      }
      for (const int id : held) {
        pool.Unref(id);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Every reference was returned: the pool must be empty and fully reusable.
  EXPECT_EQ(pool.used_blocks(), 0);
  EXPECT_LE(pool.peak_used_blocks(), 256);
  std::vector<int> all;
  for (int i = 0; i < 256; ++i) {
    const int id = pool.Alloc();
    ASSERT_GE(id, 0) << "leaked block discovered at " << i;
    all.push_back(id);
  }
  EXPECT_EQ(pool.Alloc(), -1);  // bounded pool exactly full
  for (const int id : all) {
    pool.Unref(id);
  }
}

// --- metrics under concurrency ---

TEST(MetricsConcurrencyTest, CountersAndHistogramsAreExactAfterJoin) {
  obs::Registry reg;
  obs::Counter& counter = reg.counter("test.adds");
  obs::Gauge& gauge = reg.gauge("test.level");
  obs::Histogram& hist =
      reg.histogram("test.values", obs::HistogramBuckets::Linear(1.0, 8));
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.Add(1);
        gauge.Set(static_cast<double>(t));
        hist.Observe(static_cast<double>(i % 8));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // After the join every write is visible and exact — no lost updates.
  EXPECT_EQ(counter.value(), static_cast<int64_t>(kThreads) * kIters);
  EXPECT_EQ(hist.count(), static_cast<int64_t>(kThreads) * kIters);
  const double g = reg.Snapshot().GaugeValue("test.level");
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, kThreads);  // some thread's final store, atomically
  int64_t bucket_sum = 0;
  for (const int64_t c : hist.counts()) {
    bucket_sum += c;
  }
  EXPECT_EQ(bucket_sum, hist.count());
}

TEST(MetricsConcurrencyTest, RegistryLookupsAreThreadSafe) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 200; ++i) {
        reg.counter("shared.counter").Add(1);
        reg.counter("shared.labeled", "lane").Add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("shared.counter"), kThreads * 200);
  EXPECT_EQ(snap.CounterValue("shared.labeled", "lane"), kThreads * 200);
}

TEST(PoolMetricsTest, ExportPublishesPoolCounters) {
  ParallelFor(64, [](int64_t, int64_t, int) {});
  obs::Registry reg;
  ExportPoolMetrics(reg);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  bool found = false;
  EXPECT_GE(snap.GaugeValue("exec.pool.workers", {}, &found), 0.0);
  EXPECT_TRUE(found);
  EXPECT_GE(snap.CounterValue("exec.parallel_for.calls"), 1);
}

}  // namespace
}  // namespace hexec
