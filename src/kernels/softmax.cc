#include "src/kernels/softmax.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"
#include "src/base/math_util.h"

namespace hkern {

using hexllm::F16;
using hexllm::F16BitsToF32;
using hexllm::F32ToF16Bits;
using hexllm::RoundToF16;
using hexsim::HvxContext;
using hexsim::HvxVec;
using hexsim::HvxVecPair;

namespace {

// Per-register packet budgets for the three exp variants (V73/V75 with qfloat overheads vs
// V79 native-IEEE). The polynomial budgets include the serial-dependency stall cycles the
// VLIW pipeline cannot hide (§5.2.1); the emulated instruction stream issues its real ops
// and tops up to the budget with ChargeStalls so analytic model and emulation agree exactly.
struct ExpBudget {
  int64_t qf;      // V73/V75
  int64_t native;  // V79
};
constexpr ExpBudget kF32PolyBudget{90, 78};
constexpr ExpBudget kF16PolyBudget{64, 54};

// Gather contention growth per additional in-flight row (fraction of vgather latency).
constexpr double kGatherContention = 0.05;
constexpr int kMaxContendingRows = 16;

int64_t PolyBudget(const hexsim::DeviceProfile& p, SoftmaxVariant v) {
  const ExpBudget& b = (v == SoftmaxVariant::kF32Poly) ? kF32PolyBudget : kF16PolyBudget;
  return p.native_ieee_fp16 ? b.native : b.qf;
}

// exp2 polynomial on [0, 1): degree 4 for the FP16 path, degree 5 for FP32.
constexpr double kExp2C[6] = {1.0,
                              0.6931471805599453,
                              0.2401596780645461,
                              0.05550410866482158,
                              0.009618129107628477,
                              0.0013333558146428443};

constexpr float kLog2E = 1.4426950408889634f;

// Functional FP16 polynomial exp (every intermediate rounded to FP16 — this is the numeric
// behaviour Table 5 compares the LUT against).
float ExpPolyF16Lane(float x) {
  if (x <= -17.0f) {
    return 0.0f;  // below FP16 subnormal range after scaling
  }
  const float t = RoundToF16(x * kLog2E);
  const float kf = std::floor(t);
  const int k = static_cast<int>(kf);
  const float f = RoundToF16(t - kf);
  // Horner, degree 4, rounding each step to FP16.
  float p = static_cast<float>(kExp2C[4]);
  for (int i = 3; i >= 0; --i) {
    p = RoundToF16(p * f + static_cast<float>(kExp2C[i]));
  }
  // 2^k assembled through the exponent field; k in [-25, 0] here. Biased exponents <= 0
  // flush to zero (the hardware shortcut for the negligible tail).
  const int biased = k + 15;
  if (biased <= 0) {
    return 0.0f;
  }
  const float p2k = F16BitsToF32(static_cast<uint16_t>(biased << 10));
  return RoundToF16(p * p2k);
}

// Functional FP32 polynomial exp (intermediates at FP32; result rounded to FP16 by caller's
// register semantics).
float ExpPolyF32Lane(float x) {
  if (x <= -30.0f) {
    return 0.0f;
  }
  const float t = x * kLog2E;
  const float kf = std::floor(t);
  const float f = t - kf;
  float p = static_cast<float>(kExp2C[5]);
  for (int i = 4; i >= 0; --i) {
    p = p * f + static_cast<float>(kExp2C[i]);
  }
  return std::ldexp(p, static_cast<int>(kf));
}

}  // namespace

int64_t ExpRegPacketCost(const hexsim::DeviceProfile& profile, SoftmaxVariant v,
                         int parallel_rows) {
  switch (v) {
    case SoftmaxVariant::kF32Poly:
    case SoftmaxVariant::kF16Poly:
      return PolyBudget(profile, v);
    case SoftmaxVariant::kLut: {
      const int rows = hexllm::Clamp(parallel_rows, 1, kMaxContendingRows);
      const int64_t contention = static_cast<int64_t>(
          kGatherContention * profile.vgather_packets * (rows - 1) + 0.5);
      // splat + vand + vshl + vgather + staging load
      return 3 + profile.vgather_packets + 1 + 1 + contention;
    }
  }
  return 0;
}

HvxVec ExpNonPosF16(hexsim::NpuDevice& dev, SoftmaxVariant v, const ExpLut* lut,
                    const HvxVec& x, int parallel_rows) {
  HvxContext& ctx = dev.hvx();
  const int64_t start = ctx.issued();
  HvxVec out;

  switch (v) {
    case SoftmaxVariant::kLut: {
      HEXLLM_CHECK_MSG(lut != nullptr, "LUT softmax requires an ExpLut");
      const HvxVec mask = ctx.VSplatH(0x7FFF);
      HvxVec idx = ctx.VAnd(x, mask);
      idx = ctx.VShlH(idx, 1);
      out = ctx.VGather(dev.tcm(), lut->tcm_offset(), idx);
      ctx.Charge(1);  // load of the vgather staging region
      // TCM bank contention between concurrently gathering rows.
      const int rows = hexllm::Clamp(parallel_rows, 1, kMaxContendingRows);
      ctx.Charge(static_cast<int64_t>(kGatherContention * dev.profile().vgather_packets *
                                          (rows - 1) +
                                      0.5));
      break;
    }
    case SoftmaxVariant::kF16Poly: {
      // Issue a representative instruction stream for the cost accounting...
      const HvxVec log2e = ctx.VSplatHf(kLog2E);
      HvxVec t = ctx.VMpyHf(x, log2e);
      ctx.Charge(2);  // floor via bias-add trick
      HvxVec tmp = ctx.VCvtHfToH(t);
      tmp = ctx.VCvtHToHf(tmp);
      ctx.Charge(1 + 8 + 2 + 1);  // frac subtract, Horner deg-4, 2^k assembly, final mul
      (void)ctx.ConvertQf(t);
      // ...and compute the faithful FP16 numerics directly.
      for (int i = 0; i < HvxVec::kHalfwords; ++i) {
        out.SetHf(i, ExpPolyF16Lane(x.GetHf(i)));
      }
      break;
    }
    case SoftmaxVariant::kF32Poly: {
      HvxVecPair wide = ctx.WidenHfToSf(x);
      ctx.Charge(2 * (10 + 2 + 1 + 1 + 1 + 3 + 1));  // deg-5 Horner + floor/frac + 2^k, per half
      HvxVecPair res;
      for (int i = 0; i < HvxVec::kWords; ++i) {
        res.lo.SetF32(i, ExpPolyF32Lane(wide.lo.GetF32(i)));
        res.hi.SetF32(i, ExpPolyF32Lane(wide.hi.GetF32(i)));
      }
      out = ctx.NarrowSfToHf(res);
      break;
    }
  }

  // Top up to the calibrated budget with pipeline-stall cycles so that the emulated count
  // equals ExpRegPacketCost exactly.
  const int64_t budget = ExpRegPacketCost(dev.profile(), v, parallel_rows);
  const int64_t issued = ctx.issued() - start;
  HEXLLM_CHECK_MSG(issued <= budget, "exp instruction stream exceeds its calibrated budget");
  ctx.ChargeStalls(budget - issued);
  return out;
}

void SoftmaxRowsF16(hexsim::NpuDevice& dev, SoftmaxVariant v, const ExpLut* lut, F16* s,
                    int rows, int cols) {
  HEXLLM_CHECK(cols % HvxVec::kHalfwords == 0);
  dev.ledger().AddCount(hexsim::Counter::kSoftmaxRowsCalls);
  HvxContext& ctx = dev.hvx();
  const int regs = cols / HvxVec::kHalfwords;
  const int64_t start = ctx.issued();

  for (int r = 0; r < rows; ++r) {
    F16* row = s + static_cast<int64_t>(r) * cols;

    // Pass 1: row max.
    HvxVec vmax = ctx.LoadAligned(row);
    for (int g = 1; g < regs; ++g) {
      const HvxVec vg = ctx.LoadAligned(row + g * HvxVec::kHalfwords);
      vmax = ctx.VMaxHf(vmax, vg);
    }
    const float m = ctx.ReduceMaxHf(vmax);
    const HvxVec vm = ctx.VSplatHf(m);

    // Pass 2: exp(x - m), accumulate the row sum in FP32 (Algorithm 1's AccumType=FP32).
    HvxVec acc_lo = ctx.VSplatSf(0.0f);
    HvxVec acc_hi = acc_lo;  // no extra packet: register copy
    for (int g = 0; g < regs; ++g) {
      F16* chunk = row + g * HvxVec::kHalfwords;
      HvxVec x = ctx.LoadAligned(chunk);
      x = ctx.VSubHf(x, vm);
      const HvxVec e = ExpNonPosF16(dev, v, lut, x, rows);
      const HvxVecPair wide = ctx.WidenHfToSf(e);
      acc_lo = ctx.VAddSf(acc_lo, wide.lo);
      acc_hi = ctx.VAddSf(acc_hi, wide.hi);
      ctx.Store(chunk, e);
    }
    const HvxVec acc = ctx.VAddSf(acc_lo, acc_hi);
    const float l = ctx.ReduceSumSf(acc);

    // Pass 3: normalize. Reciprocal on the scalar core, then a vector multiply sweep.
    ctx.ChargeScalar(20);
    const float inv = (l > 0.0f) ? 1.0f / l : 0.0f;
    const HvxVec vinv = ctx.VSplatHf(inv);
    for (int g = 0; g < regs; ++g) {
      F16* chunk = row + g * HvxVec::kHalfwords;
      HvxVec x = ctx.LoadAligned(chunk);
      x = ctx.VMpyHf(x, vinv);
      x = ctx.ConvertQf(x);
      ctx.Store(chunk, x);
    }
  }

  const int64_t used = ctx.issued() - start;
  dev.CommitHvxPackets(used, hexsim::Tag::kSoftmax);
}

int64_t SoftmaxPacketCost(const hexsim::DeviceProfile& profile, SoftmaxVariant v, int rows,
                          int cols) {
  HEXLLM_CHECK(cols % HvxVec::kHalfwords == 0);
  const int64_t regs = cols / HvxVec::kHalfwords;
  const int64_t exp_cost = ExpRegPacketCost(profile, v, rows);
  const int64_t qf = profile.native_ieee_fp16 ? 0 : 1;
  // Pass 1: load+vmax per reg (first reg has no vmax) + reduce(7) + splat(1).
  const int64_t pass1 = regs * 2 - 1 + 7 + 1;
  // Pass 2: splat acc(1) + per reg (load, sub, exp, widen 2, 2 adds, store) + final add(1)
  // + reduce(6).
  const int64_t pass2 = 1 + regs * (7 + exp_cost) + 1 + 6;
  // Pass 3: scalar recip(20) + splat(1) + per reg (load, mul, optional qf convert, store).
  const int64_t pass3 = 20 + 1 + regs * (3 + qf);
  return static_cast<int64_t>(rows) * (pass1 + pass2 + pass3);
}

}  // namespace hkern
