#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/arena.h"
#include "src/base/rng.h"
#include "src/hexsim/device_profile.h"
#include "src/hexsim/dma.h"
#include "src/hexsim/hmx.h"
#include "src/hexsim/hvx.h"
#include "src/hexsim/npu_device.h"

namespace hexsim {
namespace {

using hexllm::Arena;
using hexllm::F16;

// --- device profiles ---

TEST(DeviceProfileTest, TableThreeDevices) {
  const auto devices = AllDevices();
  ASSERT_EQ(devices.size(), 3u);
  EXPECT_EQ(devices[0]->soc_name, "Snapdragon 8 Gen 2");
  EXPECT_EQ(devices[0]->arch, NpuArch::kV73);
  EXPECT_EQ(devices[1]->soc_name, "Snapdragon 8 Gen 3");
  EXPECT_EQ(devices[1]->arch, NpuArch::kV75);
  EXPECT_EQ(devices[2]->soc_name, "Snapdragon 8 Elite");
  EXPECT_EQ(devices[2]->arch, NpuArch::kV79);
}

TEST(DeviceProfileTest, V75HmxPeakMatchesTable2) {
  // Table 2: 12032.54 GFLOPS FP16 on the V75 HMX.
  EXPECT_NEAR(OnePlus12().HmxPeakGflops(), 12032.0, 150.0);
}

TEST(DeviceProfileTest, OnlyV79HasNativeIeeeFp16) {
  EXPECT_FALSE(OnePlusAce3().native_ieee_fp16);
  EXPECT_FALSE(OnePlus12().native_ieee_fp16);
  EXPECT_TRUE(OnePlusAce5Pro().native_ieee_fp16);
}

TEST(DeviceProfileTest, V73AddressSpaceBelow2GiB) {
  EXPECT_LE(OnePlusAce3().npu_vaddr_limit_bytes, 2ll << 30);
  EXPECT_GT(OnePlus12().npu_vaddr_limit_bytes, 2ll << 30);
}

// --- TCM ---

TEST(TcmTest, AllocAlignAndWatermark) {
  Arena tcm(1 << 20, 128, "TCM");
  uint8_t* a = tcm.Alloc(100, 128);
  uint8_t* b = tcm.Alloc(100, 128);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 128, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 128, 0u);
  EXPECT_EQ(tcm.OffsetOf(b), 128);
  EXPECT_EQ(tcm.used(), 228);
  EXPECT_EQ(tcm.high_watermark(), 228);
  tcm.Reset();
  EXPECT_EQ(tcm.used(), 0);
  EXPECT_EQ(tcm.high_watermark(), 228);  // watermark survives reset
}

TEST(TcmTest, FramesNestAndRelease) {
  Arena tcm(1 << 20, 128, "TCM");
  tcm.Alloc(256);
  {
    Arena::Frame f1(tcm);
    tcm.Alloc(1024);
    {
      Arena::Frame f2(tcm);
      tcm.Alloc(2048);
      EXPECT_GE(tcm.used(), 256 + 1024 + 2048);
    }
    EXPECT_LT(tcm.used(), 256 + 1024 + 2048);
  }
  EXPECT_EQ(tcm.used(), 256);
}

TEST(TcmDeathTest, ExhaustionAborts) {
  Arena tcm(4096, 128, "TCM");
  EXPECT_DEATH(tcm.Alloc(8192), "TCM exhausted");
}

TEST(TcmTest, ContainsAndOffset) {
  Arena tcm(4096, 128, "TCM");
  uint8_t* p = tcm.Alloc(64);
  EXPECT_TRUE(tcm.Contains(p));
  EXPECT_TRUE(tcm.Contains(p + 63));
  int unrelated = 0;
  EXPECT_FALSE(tcm.Contains(&unrelated));
  EXPECT_EQ(tcm.OffsetOf(p), 0);
}

TEST(ArenaTest, StepScratchSpansAre64ByteAlignedAndFramesReleaseToTheirMark) {
  // The transformer's step arena: every typed span is 64-byte aligned in absolute address,
  // not only as an offset from the slab (a std::vector slab this size sat at 16 mod 64).
  Arena ws(int64_t{1} << 20, 64, "Step workspace");
  const auto aligned = [](const void* p) { return reinterpret_cast<uintptr_t>(p) % 64 == 0; };
  for (int64_t n = 1; n <= 40; ++n) {
    EXPECT_TRUE(aligned(ws.Alloc<F16>(n))) << n;
    EXPECT_TRUE(aligned(ws.Alloc<float>(n))) << n;
    EXPECT_TRUE(aligned(ws.Alloc<int8_t>(n))) << n;
  }
  const int64_t outer_mark = ws.used();
  {
    Arena::Frame outer(ws);
    EXPECT_TRUE(aligned(ws.Alloc<F16>(1000)));
    const int64_t inner_mark = ws.used();
    {
      Arena::Frame inner(ws);
      EXPECT_TRUE(aligned(ws.Alloc<float>(3)));
      EXPECT_GT(ws.used(), inner_mark);
    }
    EXPECT_EQ(ws.used(), inner_mark);
  }
  EXPECT_EQ(ws.used(), outer_mark);
}

// --- DMA ---

TEST(DmaTest, Transfer1DMovesDataAndChargesBandwidth) {
  const DeviceProfile& p = OnePlus12();
  CycleLedger ledger;
  DmaEngine dma(p, ledger);
  std::vector<uint8_t> src(1 << 20);
  std::vector<uint8_t> dst(1 << 20);
  std::iota(src.begin(), src.end(), 0);
  const double t = dma.Transfer1D(dst.data(), src.data(), 1 << 20, DmaDirection::kDdrToTcm);
  EXPECT_EQ(src, dst);
  // 1 MiB at 60 GB/s ~ 17.5 us (plus descriptor overhead).
  EXPECT_NEAR(t, (1 << 20) / 60e9 + 250e-9, 1e-7);
  EXPECT_DOUBLE_EQ(ledger.EngineSeconds(Engine::kDma), t);
  EXPECT_EQ(ledger.dma_bytes(), 1 << 20);
}

TEST(DmaTest, SmallRows2DAreLessEfficient) {
  const DeviceProfile& p = OnePlus12();
  CycleLedger ledger;
  DmaEngine dma(p, ledger);
  const double big_rows = dma.Cost2D(4096, 256, DmaDirection::kDdrToTcm);
  const double small_rows = dma.Cost2D(32, 256 * 128, DmaDirection::kDdrToTcm);
  // Same total bytes; short rows must be slower.
  EXPECT_GT(small_rows, 2.0 * big_rows);
}

TEST(DmaTest, Transfer2DStrided) {
  const DeviceProfile& p = OnePlus12();
  CycleLedger ledger;
  DmaEngine dma(p, ledger);
  std::vector<uint8_t> src(64 * 16, 7);
  std::vector<uint8_t> dst(32 * 16, 0);
  dma.Transfer2D(dst.data(), 32, src.data(), 64, 32, 16, DmaDirection::kDdrToTcm);
  for (uint8_t v : dst) {
    EXPECT_EQ(v, 7);
  }
}

// --- HVX ---

class HvxTest : public ::testing::Test {
 protected:
  HvxTest() : ctx_(OnePlus12()) {}
  HvxContext ctx_;
};

TEST_F(HvxTest, SplatAndArithmeticF16) {
  const HvxVec a = ctx_.VSplatHf(1.5f);
  const HvxVec b = ctx_.VSplatHf(2.25f);
  const HvxVec sum = ctx_.VAddHf(a, b);
  const HvxVec prod = ctx_.VMpyHf(a, b);
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    EXPECT_FLOAT_EQ(sum.GetHf(i), 3.75f);
    EXPECT_FLOAT_EQ(prod.GetHf(i), 3.375f);
  }
}

TEST_F(HvxTest, F16ArithmeticRoundsEachOp) {
  // 1 + 2^-12 is not representable in FP16; the add must round to 1.0.
  const HvxVec one = ctx_.VSplatHf(1.0f);
  const HvxVec tiny = ctx_.VSplatHf(std::ldexp(1.0f, -12));
  const HvxVec sum = ctx_.VAddHf(one, tiny);
  EXPECT_FLOAT_EQ(sum.GetHf(0), 1.0f);
}

TEST_F(HvxTest, PacketAccounting) {
  const int64_t start = ctx_.issued();
  const HvxVec a = ctx_.VSplatHf(1.0f);  // 1
  const HvxVec b = ctx_.VAddHf(a, a);    // 1
  (void)b;
  EXPECT_EQ(ctx_.issued() - start, 2);
  ctx_.ChargeStalls(5);
  EXPECT_EQ(ctx_.issued() - start, 7);
  // Issued packets count as packets() only once committed.
  EXPECT_EQ(ctx_.packets(), 0);
  ctx_.NoteCommitted(7);
  EXPECT_EQ(ctx_.packets(), 7);
}

TEST_F(HvxTest, QfloatConversionCostsOnV75NotV79) {
  HvxContext v79(OnePlusAce5Pro());
  const HvxVec a = ctx_.VSplatHf(1.0f);
  const int64_t start = ctx_.issued();
  (void)ctx_.ConvertQf(a);
  EXPECT_EQ(ctx_.issued() - start, 1);
  (void)v79.ConvertQf(a);
  EXPECT_EQ(v79.issued(), 0);
}

TEST_F(HvxTest, VLut16LooksUp16Halfwords) {
  HvxVec table{};
  for (int i = 0; i < 16; ++i) {
    table.SetU16(i, static_cast<uint16_t>(0x100 + i));
  }
  HvxVec idx{};
  for (int i = 0; i < HvxVec::kBytes; ++i) {
    idx.b[static_cast<size_t>(i)] = static_cast<uint8_t>(i % 16);
  }
  const HvxVecPair out = ctx_.VLut16(idx, table);
  for (int i = 0; i < HvxVec::kBytes; ++i) {
    const uint16_t expected = static_cast<uint16_t>(0x100 + i % 16);
    const uint16_t got = (i < 64) ? out.lo.GetU16(i) : out.hi.GetU16(i - 64);
    EXPECT_EQ(got, expected) << i;
  }
}

TEST_F(HvxTest, VLut16UsesOnlyLowNibbleOfIndex) {
  HvxVec table{};
  table.SetU16(3, 0xABCD);
  HvxVec idx{};
  idx.b[0] = 0xF3;  // high nibble must be ignored
  const HvxVecPair out = ctx_.VLut16(idx, table);
  EXPECT_EQ(out.lo.GetU16(0), 0xABCD);
}

TEST_F(HvxTest, GatherReadsTcmAndChargesLatency) {
  Arena tcm(1 << 16, 128, "TCM");
  auto* data = reinterpret_cast<uint16_t*>(tcm.Alloc(4096));
  for (int i = 0; i < 2048; ++i) {
    data[i] = static_cast<uint16_t>(i * 3);
  }
  HvxVec offsets{};
  for (int i = 0; i < 64; ++i) {
    offsets.SetU16(i, static_cast<uint16_t>((i * 7 % 2048) * 2));
  }
  const int64_t start = ctx_.issued();
  const HvxVec out = ctx_.VGather(tcm, tcm.OffsetOf(data), offsets);
  EXPECT_EQ(ctx_.issued() - start, OnePlus12().vgather_packets);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(out.GetU16(i), static_cast<uint16_t>((i * 7 % 2048) * 3));
  }
}

TEST_F(HvxTest, ScatterWritesTcmAndCostsMoreThanGather) {
  Arena tcm(1 << 16, 128, "TCM");
  auto* data = reinterpret_cast<uint16_t*>(tcm.Alloc(4096));
  HvxVec offsets{};
  HvxVec values{};
  for (int i = 0; i < 64; ++i) {
    offsets.SetU16(i, static_cast<uint16_t>(i * 4));
    values.SetU16(i, static_cast<uint16_t>(1000 + i));
  }
  const int64_t start = ctx_.issued();
  ctx_.VScatterH(tcm, tcm.OffsetOf(data), offsets, values);
  EXPECT_GT(ctx_.issued() - start, OnePlus12().vgather_packets);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(data[i * 2], 1000 + i);
  }
}

TEST_F(HvxTest, WidenNarrowRoundTrip) {
  hexllm::Rng rng(7);
  HvxVec a{};
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    a.SetHf(i, static_cast<float>(rng.NextGaussian()));
  }
  const HvxVecPair wide = ctx_.WidenHfToSf(a);
  const HvxVec back = ctx_.NarrowSfToHf(wide);
  EXPECT_EQ(a, back);
}

TEST_F(HvxTest, ShuffleInterleavesHalfwords) {
  HvxVec a{};
  HvxVec b{};
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    a.SetU16(i, static_cast<uint16_t>(i));
    b.SetU16(i, static_cast<uint16_t>(100 + i));
  }
  const HvxVecPair p = ctx_.VShuffH(a, b);
  EXPECT_EQ(p.lo.GetU16(0), 0);
  EXPECT_EQ(p.lo.GetU16(1), 100);
  EXPECT_EQ(p.lo.GetU16(2), 1);
  EXPECT_EQ(p.hi.GetU16(0), 32);
  EXPECT_EQ(p.hi.GetU16(1), 132);
}

TEST_F(HvxTest, Reductions) {
  HvxVec a{};
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    a.SetHf(i, static_cast<float>(i));
  }
  EXPECT_FLOAT_EQ(ctx_.ReduceMaxHf(a), 63.0f);
  HvxVec s{};
  for (int i = 0; i < HvxVec::kWords; ++i) {
    s.SetF32(i, 1.5f);
  }
  EXPECT_FLOAT_EQ(ctx_.ReduceSumSf(s), 48.0f);
}

// --- HMX ---

TEST(HmxTest, TileLayoutMatchesFigure4a) {
  // "Every two rows are permuted, having the same layout as the transposed 2x32 sub-matrix":
  // within row pair p, memory order is (2p,0),(2p+1,0),(2p,1),(2p+1,1),...
  EXPECT_EQ(HmxEngine::TileHalfwordOffset(0, 0), 0);
  EXPECT_EQ(HmxEngine::TileHalfwordOffset(1, 0), 1);
  EXPECT_EQ(HmxEngine::TileHalfwordOffset(0, 1), 2);
  EXPECT_EQ(HmxEngine::TileHalfwordOffset(1, 1), 3);
  EXPECT_EQ(HmxEngine::TileHalfwordOffset(2, 0), 64);
  EXPECT_EQ(HmxEngine::TileHalfwordOffset(31, 31), 1023);
  // Bijectivity.
  std::vector<bool> seen(1024, false);
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) {
      const int off = HmxEngine::TileHalfwordOffset(r, c);
      ASSERT_GE(off, 0);
      ASSERT_LT(off, 1024);
      EXPECT_FALSE(seen[static_cast<size_t>(off)]);
      seen[static_cast<size_t>(off)] = true;
    }
  }
}

TEST(HmxTest, PackUnpackRoundTrip) {
  hexllm::Rng rng(3);
  std::vector<F16> src(32 * 32);
  for (auto& v : src) {
    v = F16(static_cast<float>(rng.NextGaussian()));
  }
  std::vector<F16> tile(1024);
  std::vector<F16> back(32 * 32);
  HmxEngine::PackTile(src.data(), 32, tile.data());
  HmxEngine::UnpackTile(tile.data(), back.data(), 32);
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(src[i].bits(), back[i].bits());
  }
}

TEST(HmxTest, TileMaccMatchesReference) {
  hexllm::Rng rng(11);
  NpuDevice dev(OnePlus12());
  std::vector<F16> a(1024);
  std::vector<F16> b(1024);
  for (auto& v : a) {
    v = F16(static_cast<float>(rng.NextGaussian() * 0.3));
  }
  for (auto& v : b) {
    v = F16(static_cast<float>(rng.NextGaussian() * 0.3));
  }
  auto* at = reinterpret_cast<F16*>(dev.tcm().Alloc(2048));
  auto* bt = reinterpret_cast<F16*>(dev.tcm().Alloc(2048));
  HmxEngine::PackTile(a.data(), 32, at);
  HmxEngine::PackTile(b.data(), 32, bt);
  std::vector<float> acc(1024, 0.0f);
  dev.hmx().TileMacc(dev.tcm(), at, bt, acc.data());
  EXPECT_EQ(dev.hmx().tile_ops(), 1);
  // FP32 reference on the FP16-rounded inputs.
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) {
      float expected = 0.0f;
      for (int k = 0; k < 32; ++k) {
        expected += a[static_cast<size_t>(r * 32 + k)].ToFloat() *
                    b[static_cast<size_t>(k * 32 + c)].ToFloat();
      }
      EXPECT_FLOAT_EQ(acc[static_cast<size_t>(r * 32 + c)], expected);
    }
  }
}

TEST(HmxTest, DecodedTileMaccMatchesTcmDecode) {
  // A caller-provided FP32 decode of the weight tile (the dequant-once cache's shadow) must
  // be invisible: bit-equal accumulators with and without it, over zero rows, subnormals
  // and infinities, for every row range, with the rows outside the range left untouched.
  hexllm::Rng rng(19);
  NpuDevice dev(OnePlus12());
  const auto special = [&](int i) {
    switch (i % 13) {
      case 0:
        return F16::FromBits(static_cast<uint16_t>(1 + i % 0x3FF));  // subnormal
      case 1:
        return F16::FromBits(static_cast<uint16_t>(0x8000 | (1 + i % 0x3FF)));
      case 2:
        return i % 2 == 0 ? F16::Inf() : F16::NegInf();
      case 3:
        return F16::FromBits(0x8000);  // negative zero
      default:
        return F16(static_cast<float>(rng.NextGaussian() * 4.0));
    }
  };
  std::vector<F16> a(1024);
  std::vector<F16> b(1024);
  for (int i = 0; i < 1024; ++i) {
    a[static_cast<size_t>(i)] = special(i * 7);
    b[static_cast<size_t>(i)] = special(i * 5 + 3);
  }
  for (const int zero_row : {0, 5, 6, 31}) {
    std::fill(a.begin() + zero_row * 32, a.begin() + zero_row * 32 + 32, F16::Zero());
  }
  auto* at = reinterpret_cast<F16*>(dev.tcm().Alloc(2048));
  auto* bt = reinterpret_cast<F16*>(dev.tcm().Alloc(2048));
  HmxEngine::PackTile(a.data(), 32, at);
  HmxEngine::PackTile(b.data(), 32, bt);
  std::vector<float> b_decoded(1024);
  HmxEngine::DecodeTile(bt, b_decoded.data());
  for (int k = 0; k < 32; ++k) {
    for (int c = 0; c < 32; ++c) {
      ASSERT_EQ(std::bit_cast<uint32_t>(b_decoded[static_cast<size_t>(k * 32 + c)]),
                std::bit_cast<uint32_t>(b[static_cast<size_t>(k * 32 + c)].ToFloat()));
    }
  }
  std::vector<float> init(1024);
  for (auto& v : init) {
    v = static_cast<float>(rng.NextGaussian());
  }
  const std::pair<int, int> ranges[] = {{0, 32}, {0, 1}, {0, 3}, {5, 7}, {17, 32}, {31, 32},
                                        {9, 9}};
  for (const auto& [lo, hi] : ranges) {
    std::vector<float> plain = init;
    std::vector<float> shadowed = init;
    const int64_t ops0 = dev.hmx().tile_ops();
    for (int rep = 0; rep < 2; ++rep) {  // accumulate twice: acc carries across calls
      dev.hmx().TileMacc(dev.tcm(), at, bt, plain.data(), lo, hi);
      dev.hmx().TileMacc(dev.tcm(), at, bt, shadowed.data(), lo, hi, b_decoded.data());
    }
    EXPECT_EQ(dev.hmx().tile_ops() - ops0, 4);
    EXPECT_EQ(std::memcmp(plain.data(), shadowed.data(), plain.size() * sizeof(float)), 0)
        << "rows [" << lo << ", " << hi << ")";
    for (int r = 0; r < 32; ++r) {
      if (r < lo || r >= hi) {
        EXPECT_EQ(std::memcmp(shadowed.data() + r * 32, init.data() + r * 32,
                              32 * sizeof(float)),
                  0)
            << "row " << r << " outside [" << lo << ", " << hi << ")";
      }
    }
  }
}

#ifndef NDEBUG
TEST(HmxDeathTest, StaleDecodedTileIsCaughtInDebug) {
  NpuDevice dev(OnePlus12());
  std::vector<float> acc(1024);
  auto* at = reinterpret_cast<F16*>(dev.tcm().Alloc(2048));
  auto* bt = reinterpret_cast<F16*>(dev.tcm().Alloc(2048));
  std::fill(at, at + 1024, F16(1.0f));
  std::fill(bt, bt + 1024, F16(2.0f));
  std::vector<float> stale(1024, 2.0f);
  stale[77] = 3.0f;
  EXPECT_DEATH(dev.hmx().TileMacc(dev.tcm(), at, bt, acc.data(), 0, 32, stale.data()),
               "DecodeMatches");
}
#endif

TEST(HmxDeathTest, OperandsMustBeInTcm) {
  NpuDevice dev(OnePlus12());
  std::vector<F16> host_tile(1024);
  std::vector<float> acc(1024);
  auto* tcm_tile = reinterpret_cast<F16*>(dev.tcm().Alloc(2048));
  EXPECT_DEATH(dev.hmx().TileMacc(dev.tcm(), host_tile.data(), tcm_tile, acc.data()),
               "must reside in TCM");
}

TEST(HmxTest, StoreAccAppliesColumnScaleAndBias) {
  NpuDevice dev(OnePlus12());
  std::vector<float> acc(1024);
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) {
      acc[static_cast<size_t>(r * 32 + c)] = static_cast<float>(r + c);
    }
  }
  std::vector<float> scale(32, 2.0f);
  std::vector<float> bias(32, 1.0f);
  std::vector<F16> tile(1024);
  dev.hmx().StoreAcc(acc.data(), tile.data(), scale.data(), bias.data());
  EXPECT_FLOAT_EQ(tile[static_cast<size_t>(HmxEngine::TileHalfwordOffset(3, 5))].ToFloat(),
                  (3 + 5) * 2.0f + 1.0f);
}

// --- session budget (§7.2.1) ---

TEST(SessionBudgetTest, WindowBoundaryAndSessionCap) {
  struct Case {
    const DeviceProfile* device;
    int64_t mapped_bytes;
    int sessions;
  };
  const DeviceProfile& v73 = OnePlusAce3();
  const DeviceProfile& v75 = OnePlus12();
  const Case cases[] = {
      {&v73, 1, 1},
      {&v73, v73.npu_vaddr_limit_bytes, 1},
      {&v73, v73.npu_vaddr_limit_bytes + 1, 2},
      {&v75, v75.npu_vaddr_limit_bytes, 1},
      {&v75, v75.npu_vaddr_limit_bytes + 1, 2},
      {&v75, 2 * v75.npu_vaddr_limit_bytes, 2},
      {&v75, 2 * v75.npu_vaddr_limit_bytes + 1, 3},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(SessionsForMappedBytes(*c.device, c.mapped_bytes), c.sessions)
        << c.device->device_name << " mapping " << c.mapped_bytes << " bytes";
  }
  EXPECT_EQ(MaxSessions(OnePlusAce3()), 1);
  EXPECT_EQ(MaxSessions(OnePlus12()), 2);
  EXPECT_EQ(MaxSessions(OnePlusAce5Pro()), 2);
}

// --- ledger ---

TEST(CycleLedgerTest, TagsAndMerge) {
  using Tags = std::map<std::string, double, std::less<>>;
  using Counts = std::map<std::string, int64_t, std::less<>>;
  CycleLedger a;
  a.AddSeconds(Engine::kHvx, 1.0, Tag::kAttnSoftmax);
  a.AddSeconds(Engine::kHmx, 2.0, Tag::kGemmHmx);
  a.AddSeconds(Engine::kHvx, 0.0, Tag::kAttnMask);
  a.AddCount(Counter::kGemmHmxCalls);
  CycleLedger b;
  b.AddSeconds(Engine::kHvx, 0.5, Tag::kAttnSoftmax);
  b.AddSeconds(Engine::kDma, 0.25, Tag::kDma);
  b.AddCount(Counter::kDmaDescriptors, 3);
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.EngineSeconds(Engine::kHvx), 1.5);
  EXPECT_DOUBLE_EQ(a.TagSeconds("attn.softmax"), 1.5);
  EXPECT_DOUBLE_EQ(a.TagSeconds("gemm.hmx"), 2.0);
  EXPECT_EQ(a.Count("dma.descriptors"), 3);
  // Listed: every entry charged on either side of the merge, the zero-second charge
  // included, in name order; a never-charged tag is not listed.
  EXPECT_EQ(a.tags(),
            (Tags{{"attn.mask", 0.0}, {"attn.softmax", 1.5}, {"dma", 0.25}, {"gemm.hmx", 2.0}}));
  EXPECT_EQ(a.counts(), (Counts{{"dma.descriptors", 3}, {"kernel.gemm_hmx.calls", 1}}));
  EXPECT_DOUBLE_EQ(a.TagSeconds("absent"), 0.0);
  EXPECT_EQ(a.Count("absent"), 0);

  a.Clear();
  EXPECT_TRUE(a.tags().empty());
  EXPECT_TRUE(a.counts().empty());
  EXPECT_DOUBLE_EQ(a.EngineSeconds(Engine::kHvx), 0.0);
  EXPECT_DOUBLE_EQ(a.TagSeconds("attn.softmax"), 0.0);
}

}  // namespace
}  // namespace hexsim
