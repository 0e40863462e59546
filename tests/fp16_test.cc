#include "src/base/fp16.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

namespace hexllm {
namespace {

TEST(F16Test, BasicValues) {
  EXPECT_EQ(F16(0.0f).bits(), 0x0000);
  EXPECT_EQ(F16(1.0f).bits(), 0x3C00);
  EXPECT_EQ(F16(-1.0f).bits(), 0xBC00);
  EXPECT_EQ(F16(2.0f).bits(), 0x4000);
  EXPECT_EQ(F16(0.5f).bits(), 0x3800);
  EXPECT_EQ(F16(65504.0f).bits(), 0x7BFF);
  EXPECT_EQ(F16(-65504.0f).bits(), 0xFBFF);
}

TEST(F16Test, RoundTripExactValues) {
  // All integers in [-2048, 2048] are exactly representable.
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(F16(f).ToFloat(), f) << i;
  }
}

TEST(F16Test, Infinities) {
  EXPECT_EQ(F16(std::numeric_limits<float>::infinity()).bits(), 0x7C00);
  EXPECT_EQ(F16(-std::numeric_limits<float>::infinity()).bits(), 0xFC00);
  // Overflow rounds to infinity.
  EXPECT_EQ(F16(1e6f).bits(), 0x7C00);
  EXPECT_EQ(F16(65520.0f).bits(), 0x7C00);  // ties-to-even at the top of the range
  EXPECT_EQ(F16(65519.0f).bits(), 0x7BFF);
}

TEST(F16Test, NaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const uint16_t bits = F16(nan).bits();
  EXPECT_EQ(bits & 0x7C00, 0x7C00);
  EXPECT_NE(bits & 0x03FF, 0);
  EXPECT_TRUE(std::isnan(F16BitsToF32(bits)));
}

TEST(F16Test, Subnormals) {
  // Smallest positive subnormal: 2^-24.
  EXPECT_EQ(F16BitsToF32(0x0001), std::ldexp(1.0f, -24));
  // Largest subnormal: (1023/1024) * 2^-14.
  EXPECT_EQ(F16BitsToF32(0x03FF), 1023.0f * std::ldexp(1.0f, -24));
  // Smallest normal.
  EXPECT_EQ(F16BitsToF32(0x0400), std::ldexp(1.0f, -14));
  // Conversion into the subnormal range.
  EXPECT_EQ(F16(std::ldexp(1.0f, -24)).bits(), 0x0001);
  EXPECT_EQ(F16(std::ldexp(1.0f, -25)).bits(), 0x0000);  // ties to even -> 0
}

TEST(F16Test, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1 + 2^-10): ties to even.
  EXPECT_EQ(F16(1.0f + std::ldexp(1.0f, -11)).bits(), 0x3C00);
  // Just above the halfway point rounds up.
  EXPECT_EQ(F16(1.0f + std::ldexp(1.0f, -11) * 1.01f).bits(), 0x3C01);
  // 1 + 3*2^-11 is halfway between 0x3C01 and 0x3C02: ties to even -> 0x3C02.
  EXPECT_EQ(F16(1.0f + 3 * std::ldexp(1.0f, -11)).bits(), 0x3C02);
}

#if defined(__x86_64__)
// Exhaustive equivalence against the compiler's native _Float16 for every FP16 bit pattern
// (decode) and a dense float sweep (encode).
TEST(F16Test, ExhaustiveDecodeMatchesNative) {
  for (uint32_t b = 0; b < 0x10000; ++b) {
    const uint16_t bits = static_cast<uint16_t>(b);
    _Float16 native;
    std::memcpy(&native, &bits, 2);
    const float expected = static_cast<float>(native);
    const float got = F16BitsToF32(bits);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(got)) << b;
    } else {
      EXPECT_EQ(got, expected) << b;
    }
  }
}

TEST(F16Test, EncodeMatchesNativeOnSweep) {
  // Sweep a dense grid of floats (including denormal-range and overflow-range values).
  for (int e = -30; e <= 18; ++e) {
    for (int m = 0; m < 512; ++m) {
      const float f = std::ldexp(1.0f + m / 512.0f, e);
      for (const float v : {f, -f}) {
        _Float16 native = static_cast<_Float16>(v);
        uint16_t expected;
        std::memcpy(&expected, &native, 2);
        EXPECT_EQ(F32ToF16Bits(v), expected) << v;
      }
    }
  }
}
#endif  // __x86_64__

TEST(F16Test, FastEncodeMatchesReference) {
  // The branch-light encoder against the case-by-case reference, bit for bit. Mismatches
  // are counted (not asserted per value) so the sweeps stay fast; the first is reported.
  int64_t checked = 0;
  int64_t mismatches = 0;
  uint32_t first_bad = 0;
  const auto check = [&](uint32_t x) {
    const float f = std::bit_cast<float>(x);
    ++checked;
    if (F32ToF16Bits(f) != fp16_detail::F32ToF16BitsCompute(f) && mismatches++ == 0) {
      first_bad = x;
    }
  };
  // A strided sweep of all 2^32 bit patterns; the odd stride reaches every value of the
  // 13 bits a normal half drops.
  for (uint64_t x = 0; x <= 0xFFFFFFFFull; x += 251) {
    check(static_cast<uint32_t>(x));
  }
  // Every exponent and sign with the dropped bits exact, just below, at, just above and
  // far above the rounding tie of a normal half, under even and odd kept mantissas
  // (0x7FE000 rounding up carries into the next exponent).
  for (uint32_t sign : {0u, 0x80000000u}) {
    for (uint32_t e = 0; e < 256; ++e) {
      for (uint32_t hi : {0x000000u, 0x002000u, 0x55A000u, 0x7FC000u, 0x7FE000u}) {
        for (uint32_t lo : {0x0000u, 0x0FFFu, 0x1000u, 0x1001u, 0x1FFFu}) {
          check(sign | (e << 23) | hi | lo);
        }
      }
    }
  }
  // The range that encodes to a subnormal half or zero (|f| < 2^-14): the magic-add path,
  // whose exactness depends on the FP environment rounding to nearest-even without
  // flushing denormals. Dense where the result is a nonzero subnormal ([2^-25, 2^-14)),
  // sparse below, where everything rounds to zero (binary32 denormals included).
  for (uint32_t x = 0x33000000u; x < 0x38800000u; x += 7) {
    check(x);
    check(x | 0x80000000u);
  }
  for (uint32_t x = 0; x < 0x33000000u; x += 4099) {
    check(x);
    check(x | 0x80000000u);
  }
  // Around the half overflow threshold 65520 (ties to even = infinity) and up to 2^16,
  // then infinities and every NaN mantissa class.
  for (uint32_t x = 0x477FE000u; x <= 0x47800100u; ++x) {
    check(x);
    check(x | 0x80000000u);
  }
  for (uint32_t x = 0x7F800000u; x <= 0x7FFFFFFFu; x += 4093) {
    check(x);
    check(x | 0x80000000u);
  }
  for (uint32_t x : {0x7F800000u, 0x7F800001u, 0x7FC00000u, 0x7FFFFFFFu}) {
    check(x);
    check(x | 0x80000000u);
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch at bits 0x" << std::hex << first_bad
                           << " of " << std::dec << checked << " checked";
}

TEST(F16Test, RoundToF16IsIdempotent) {
  for (int i = 0; i < 1000; ++i) {
    const float v = RoundToF16(0.001f * i - 0.5f);
    EXPECT_EQ(RoundToF16(v), v);
  }
}

}  // namespace
}  // namespace hexllm
