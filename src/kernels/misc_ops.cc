#include "src/kernels/misc_ops.h"

#include <array>
#include <cmath>

#include "src/base/check.h"

namespace hkern {

using hexllm::F16;
using hexllm::RoundToF16;
using hexsim::HvxContext;
using hexsim::HvxVec;
using hexsim::HvxVecPair;

namespace {

// RoundToF16(silu(a)) as F16 bits for every F16 input `a` (128 KiB), each entry computed
// by the per-element FP32 expression it replaces, so a lookup returns the same bits.
struct SiluF16Table {
  SiluF16Table() {
    for (uint32_t h = 0; h < bits.size(); ++h) {
      const float av = hexllm::F16BitsToF32(static_cast<uint16_t>(h));
      bits[h] = hexllm::F32ToF16Bits(av / (1.0f + std::exp(-av)));
    }
  }
  std::array<uint16_t, 65536> bits;
};

}  // namespace

void RmsNormF16(hexsim::NpuDevice& dev, const F16* x, const F16* gamma, F16* y, int rows,
                int width, float eps) {
  HEXLLM_CHECK(width % HvxVec::kHalfwords == 0);
  dev.ledger().AddCount(hexsim::Counter::kRmsNormCalls);
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();
  const int regs = width / HvxVec::kHalfwords;

  for (int r = 0; r < rows; ++r) {
    const F16* row = x + static_cast<int64_t>(r) * width;
    // Sum of squares in FP32.
    double ss = 0.0;
    for (int g = 0; g < regs; ++g) {
      const HvxVec v = ctx.LoadAligned(row + g * HvxVec::kHalfwords);
      const HvxVecPair wide = ctx.WidenHfToSf(v);
      ctx.Charge(2);  // two FMA-style square-accumulates
      for (int i = 0; i < HvxVec::kWords; ++i) {
        ss += static_cast<double>(wide.lo.GetF32(i)) * wide.lo.GetF32(i);
        ss += static_cast<double>(wide.hi.GetF32(i)) * wide.hi.GetF32(i);
      }
    }
    ctx.Charge(6);       // horizontal reduction
    ctx.ChargeScalar(25);  // rsqrt on the scalar core
    const float inv_rms = 1.0f / std::sqrt(static_cast<float>(ss) / width + eps);
    const HvxVec vscale = ctx.VSplatHf(inv_rms);
    F16* out = y + static_cast<int64_t>(r) * width;
    for (int g = 0; g < regs; ++g) {
      HvxVec v = ctx.LoadAligned(row + g * HvxVec::kHalfwords);
      const HvxVec gm = ctx.LoadAligned(gamma + g * HvxVec::kHalfwords);
      v = ctx.VMpyHf(v, vscale);
      v = ctx.VMpyHf(v, gm);
      v = ctx.ConvertQf(v);
      ctx.Store(out + g * HvxVec::kHalfwords, v);
    }
  }
  dev.CommitHvxPackets(ctx.issued() - start, hexsim::Tag::kMiscRmsNorm);
}

void RopeF16(hexsim::NpuDevice& dev, F16* x, int rows, int head_dim, int pos0,
             float theta_base) {
  HEXLLM_CHECK(head_dim % 2 == 0);
  dev.ledger().AddCount(hexsim::Counter::kRopeCalls);
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();

  for (int r = 0; r < rows; ++r) {
    const int pos = pos0 + r;
    F16* row = x + static_cast<int64_t>(r) * head_dim;
    // Vector cost: load sin/cos tables + rotate: ~6 packets per 64 lanes.
    ctx.Charge((head_dim + HvxVec::kHalfwords - 1) / HvxVec::kHalfwords * 6);
    for (int i = 0; i < head_dim / 2; ++i) {
      const double theta =
          pos * std::pow(static_cast<double>(theta_base),
                         -2.0 * i / static_cast<double>(head_dim));
      const float c = static_cast<float>(std::cos(theta));
      const float s = static_cast<float>(std::sin(theta));
      const float a = row[2 * i].ToFloat();
      const float b = row[2 * i + 1].ToFloat();
      row[2 * i] = F16(RoundToF16(a * c - b * s));
      row[2 * i + 1] = F16(RoundToF16(a * s + b * c));
    }
  }
  dev.CommitHvxPackets(ctx.issued() - start, hexsim::Tag::kMiscRope);
}

namespace {

// Shared body of the RopeHeadsF16 overloads: `freq(i)` yields base^(-2i/d) for pair i.
template <typename FreqFn>
void RopeHeadsImpl(hexsim::NpuDevice& dev, F16* x, int heads, int head_dim, int pos,
                   const FreqFn& freq) {
  HEXLLM_CHECK(head_dim % 2 == 0 && heads >= 1);
  dev.ledger().AddCount(hexsim::Counter::kRopeCalls, heads);
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();
  ctx.Charge(static_cast<int64_t>(heads) *
             ((head_dim + HvxVec::kHalfwords - 1) / HvxVec::kHalfwords * 6));
  for (int i = 0; i < head_dim / 2; ++i) {
    // Same angle expression as RopeF16, evaluated once and reused across heads.
    const double theta = pos * freq(i);
    const float c = static_cast<float>(std::cos(theta));
    const float s = static_cast<float>(std::sin(theta));
    for (int h = 0; h < heads; ++h) {
      F16* row = x + static_cast<int64_t>(h) * head_dim;
      const float a = row[2 * i].ToFloat();
      const float b = row[2 * i + 1].ToFloat();
      row[2 * i] = F16(RoundToF16(a * c - b * s));
      row[2 * i + 1] = F16(RoundToF16(a * s + b * c));
    }
  }
  dev.CommitHvxPackets(ctx.issued() - start, hexsim::Tag::kMiscRope);
}

}  // namespace

void RopeHeadsF16(hexsim::NpuDevice& dev, F16* x, int heads, int head_dim, int pos,
                  float theta_base) {
  RopeHeadsImpl(dev, x, heads, head_dim, pos, [&](int i) {
    return std::pow(static_cast<double>(theta_base),
                    -2.0 * i / static_cast<double>(head_dim));
  });
}

std::vector<double> RopeInvFreq(int head_dim, float theta_base) {
  HEXLLM_CHECK(head_dim % 2 == 0);
  std::vector<double> inv_freq(static_cast<size_t>(head_dim / 2));
  for (int i = 0; i < head_dim / 2; ++i) {
    inv_freq[static_cast<size_t>(i)] =
        std::pow(static_cast<double>(theta_base), -2.0 * i / static_cast<double>(head_dim));
  }
  return inv_freq;
}

void RopeHeadsF16(hexsim::NpuDevice& dev, F16* x, int heads, int head_dim, int pos,
                  const double* inv_freq) {
  RopeHeadsImpl(dev, x, heads, head_dim, pos, [&](int i) { return inv_freq[i]; });
}

void SiluMulF16(hexsim::NpuDevice& dev, const F16* a, const F16* b, F16* y, int64_t count) {
  HEXLLM_CHECK(count % HvxVec::kHalfwords == 0);
  dev.ledger().AddCount(hexsim::Counter::kSiluMulCalls);
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();
  const int64_t regs = count / HvxVec::kHalfwords;
  // Per register: 2 loads + sigmoid approximation (~8) + 2 multiplies + store.
  ctx.Charge(regs * 13);
  static const SiluF16Table silu;  // built once per process
  for (int64_t i = 0; i < count; ++i) {
    const float silu_a = hexllm::F16BitsToF32(silu.bits[a[i].bits()]);
    y[i] = F16(RoundToF16(silu_a * b[i].ToFloat()));
  }
  dev.CommitHvxPackets(ctx.issued() - start, hexsim::Tag::kMiscSilu);
}

void AddF16(hexsim::NpuDevice& dev, const F16* a, const F16* b, F16* y, int64_t count) {
  HEXLLM_CHECK(count % HvxVec::kHalfwords == 0);
  dev.ledger().AddCount(hexsim::Counter::kAddCalls);
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();
  for (int64_t off = 0; off < count; off += HvxVec::kHalfwords) {
    const HvxVec va = ctx.LoadAligned(a + off);
    const HvxVec vb = ctx.LoadAligned(b + off);
    HvxVec s = ctx.VAddHf(va, vb);
    s = ctx.ConvertQf(s);
    ctx.Store(y + off, s);
  }
  dev.CommitHvxPackets(ctx.issued() - start, hexsim::Tag::kMiscAdd);
}

}  // namespace hkern
