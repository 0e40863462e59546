// Software IEEE-754 binary16 ("half") with round-to-nearest-even conversion.
//
// The Hexagon HVX unit computes in FP16 (and, before V79, in the internal "qfloat" format —
// see hexsim/hvx.h for how that is modeled). The host has no portable native half type, so F16
// stores raw bits and converts through float for arithmetic. Conversions implement full IEEE
// semantics: subnormals, infinities, NaN, round-to-nearest-even.
//
// Both conversion directions are on the host-emulation hot path (every simulated FP16 op
// converts through float), so they are inline: F32ToF16Bits is branch-light constexpr bit
// math, and F16BitsToF32 reads a 64 Ki-entry table built at compile time from reference bit
// math — the table is exhaustive over the 16-bit input space, so the lookup is bit-identical
// to computing the conversion. fp16_test checks every table entry and cross-checks the
// encoder against its case-by-case reference (fp16_detail).
#ifndef SRC_BASE_FP16_H_
#define SRC_BASE_FP16_H_

#include <array>
#include <bit>
#include <cstdint>

namespace hexllm {

namespace fp16_detail {

// The reference encoding: case-by-case bit math (used by fp16_test to cross-check the
// branch-light F32ToF16Bits below).
constexpr uint16_t F32ToF16BitsCompute(float f) {
  const uint32_t x = std::bit_cast<uint32_t>(f);
  const uint32_t sign = (x >> 16) & 0x8000u;
  const uint32_t abs = x & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {
    // Inf or NaN. Preserve NaN-ness by forcing a quiet-bit payload.
    if (abs > 0x7F800000u) {
      return static_cast<uint16_t>(sign | 0x7E00u);
    }
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (abs >= 0x47800000u) {
    // Magnitude >= 2^16: overflows half range even before rounding.
    return static_cast<uint16_t>(sign | 0x7C00u);
  }

  const int32_t exp = static_cast<int32_t>(abs >> 23) - 127;  // unbiased
  if (exp < -24) {
    // Underflows to zero even after rounding (|f| < 2^-25 rounds to 0; 2^-25 itself ties to
    // even = 0).
    if (exp == -25 && (abs & 0x7FFFFFu) != 0) {
      return static_cast<uint16_t>(sign | 1u);  // just above 2^-25 rounds up to min subnormal
    }
    return static_cast<uint16_t>(sign);
  }
  if (exp < -14) {
    // Subnormal half. Shift the (implicit-1) mantissa right; round to nearest even.
    uint32_t mant = (abs & 0x7FFFFFu) | 0x800000u;
    const int shift = -exp - 14 + 13;  // bits to drop from the 24-bit mantissa
    const uint32_t kept = mant >> shift;
    const uint32_t dropped = mant & ((1u << shift) - 1);
    const uint32_t half = 1u << (shift - 1);
    uint32_t result = kept;
    if (dropped > half || (dropped == half && (kept & 1u))) {
      result += 1;  // may carry into the normal range — the encoding handles that naturally
    }
    return static_cast<uint16_t>(sign | result);
  }

  // Normal half. Round the 23-bit mantissa down to 10 bits, nearest-even.
  uint32_t half_exp = static_cast<uint32_t>(exp + 15) << 10;
  uint32_t mant = abs & 0x7FFFFFu;
  uint32_t kept = mant >> 13;
  uint32_t dropped = mant & 0x1FFFu;
  uint32_t out = sign | half_exp | kept;
  if (dropped > 0x1000u || (dropped == 0x1000u && (kept & 1u))) {
    out += 1;  // mantissa overflow carries into the exponent; 65504 -> inf handled above
  }
  return static_cast<uint16_t>(out);
}

// The reference expansion: pure bit math, used to build the lookup table (and by fp16_test
// to cross-check every table entry).
constexpr float F16BitsToF32Compute(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1Fu;
  const uint32_t mant = h & 0x3FFu;

  if (exp == 0) {
    if (mant == 0) {
      return std::bit_cast<float>(sign);  // signed zero
    }
    // Subnormal: value = mant * 2^-24. Normalize into a binary32.
    int e = -1;
    uint32_t m = mant;
    while ((m & 0x400u) == 0) {
      m <<= 1;
      ++e;
    }
    m &= 0x3FFu;
    const uint32_t f32exp = static_cast<uint32_t>(127 - 15 - e) << 23;
    return std::bit_cast<float>(sign | f32exp | (m << 13));
  }
  if (exp == 31) {
    if (mant == 0) {
      return std::bit_cast<float>(sign | 0x7F800000u);
    }
    return std::bit_cast<float>(sign | 0x7F800000u | (mant << 13) | 0x400000u);  // quiet NaN
  }
  const uint32_t f32exp = (exp + 127 - 15) << 23;
  return std::bit_cast<float>(sign | f32exp | (mant << 13));
}

}  // namespace fp16_detail

// Converts an IEEE binary32 value to binary16 bits (round-to-nearest-even), bit-identical to
// fp16_detail::F32ToF16BitsCompute for every input. Both candidate encodings are computed
// and one is selected, so the hot path has no data-dependent branches:
//   * normal halves: rebias the exponent by (15 - 127) << 23 and round the 13 dropped bits
//     by adding 0xFFF plus the kept lsb (ties go to even); a mantissa carry ripples into the
//     exponent, which rounds [65520, 65536) up to infinity exactly like the reference;
//   * subnormal halves and zero (|f| < 2^-14): adding 0.5f puts the float's ulp at 2^-24,
//     the half subnormal ulp, so the FPU's own rounding produces the half mantissa in the
//     low bits. This assumes the default FP environment: round-to-nearest-even with no
//     FTZ/DAZ, so no -ffast-math. Under a directed rounding mode fp16_test's subnormal
//     cases fail;
//   * |f| >= 2^16 is infinity and NaN becomes the sign plus the canonical quiet NaN 0x7E00.
constexpr uint16_t F32ToF16Bits(float f) {
  const uint32_t x = std::bit_cast<uint32_t>(f);
  const uint32_t sign = (x >> 16) & 0x8000u;
  const uint32_t abs = x & 0x7FFFFFFFu;
  const uint32_t normal = (abs + 0xC8000FFFu + ((abs >> 13) & 1u)) >> 13;
  const uint32_t subnormal =
      std::bit_cast<uint32_t>(std::bit_cast<float>(abs) + 0.5f) - 0x3F000000u;
  const uint32_t special = abs > 0x7F800000u ? 0x7E00u : 0x7C00u;
  const uint32_t finite = abs < 0x38800000u ? subnormal : normal;
  return static_cast<uint16_t>(sign | (abs >= 0x47800000u ? special : finite));
}

// Exhaustive binary16 -> binary32 table (256 KiB, built at compile time in fp16.cc).
extern const std::array<float, 65536> kF16ToF32Table;

// Converts binary16 bits to the exactly-representable binary32 value.
inline float F16BitsToF32(uint16_t h) { return kF16ToF32Table[h]; }

// Value type wrapping binary16 bits. Trivially copyable; 2 bytes; usable in packed buffers.
class F16 {
 public:
  constexpr F16() : bits_(0) {}
  explicit constexpr F16(float f) : bits_(F32ToF16Bits(f)) {}

  static constexpr F16 FromBits(uint16_t bits) {
    F16 h;
    h.bits_ = bits;
    return h;
  }

  constexpr uint16_t bits() const { return bits_; }
  float ToFloat() const { return F16BitsToF32(bits_); }
  explicit operator float() const { return ToFloat(); }

  // Bitwise identity; NaNs with different payloads compare unequal (intentional — this is a
  // storage type, numeric comparisons should go through float).
  constexpr bool operator==(const F16& o) const { return bits_ == o.bits_; }
  constexpr bool operator!=(const F16& o) const { return bits_ != o.bits_; }

  static constexpr F16 Zero() { return FromBits(0); }
  static constexpr F16 NegInf() { return FromBits(0xFC00); }
  static constexpr F16 Inf() { return FromBits(0x7C00); }
  static constexpr F16 Lowest() { return FromBits(0xFBFF); }  // -65504
  static constexpr F16 Max() { return FromBits(0x7BFF); }     // +65504

 private:
  uint16_t bits_;
};

static_assert(sizeof(F16) == 2, "F16 must be exactly 2 bytes");

// Rounds a float through FP16 precision (the fundamental precision-loss primitive used by all
// FP16 kernel emulation).
inline float RoundToF16(float f) { return F16BitsToF32(F32ToF16Bits(f)); }

}  // namespace hexllm

#endif  // SRC_BASE_FP16_H_
