#include "src/hexsim/hvx.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/base/math_util.h"

namespace hexsim {

using hexllm::F16BitsToF32;
using hexllm::F32ToF16Bits;

namespace {

template <typename F>
HvxVec LanewiseHf(const HvxVec& a, const HvxVec& b, F op) {
  HvxVec out;
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    const float r = op(F16BitsToF32(a.GetU16(i)), F16BitsToF32(b.GetU16(i)));
    out.SetU16(i, F32ToF16Bits(r));
  }
  return out;
}

template <typename F>
HvxVec LanewiseSf(const HvxVec& a, const HvxVec& b, F op) {
  HvxVec out;
  for (int i = 0; i < HvxVec::kWords; ++i) {
    out.SetF32(i, op(a.GetF32(i), b.GetF32(i)));
  }
  return out;
}

}  // namespace

HvxVec HvxContext::VSplatB(uint8_t x) {
  Charge(1);
  HvxVec v;
  v.b.fill(x);
  return v;
}

HvxVec HvxContext::VSplatH(uint16_t x) {
  Charge(1);
  HvxVec v;
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    v.SetU16(i, x);
  }
  return v;
}

HvxVec HvxContext::VSplatSf(float x) {
  Charge(1);
  HvxVec v;
  for (int i = 0; i < HvxVec::kWords; ++i) {
    v.SetF32(i, x);
  }
  return v;
}

HvxVec HvxContext::VAddHf(const HvxVec& a, const HvxVec& b) {
  Charge(1);
  return LanewiseHf(a, b, [](float x, float y) { return x + y; });
}
HvxVec HvxContext::VSubHf(const HvxVec& a, const HvxVec& b) {
  Charge(1);
  return LanewiseHf(a, b, [](float x, float y) { return x - y; });
}
HvxVec HvxContext::VMpyHf(const HvxVec& a, const HvxVec& b) {
  Charge(1);
  return LanewiseHf(a, b, [](float x, float y) { return x * y; });
}
HvxVec HvxContext::VMaxHf(const HvxVec& a, const HvxVec& b) {
  Charge(1);
  return LanewiseHf(a, b, [](float x, float y) { return std::max(x, y); });
}
HvxVec HvxContext::VAddSf(const HvxVec& a, const HvxVec& b) {
  Charge(1);
  return LanewiseSf(a, b, [](float x, float y) { return x + y; });
}
HvxVecPair HvxContext::WidenHfToSf(const HvxVec& a) {
  Charge(2);
  HvxVecPair p;
  for (int i = 0; i < HvxVec::kWords; ++i) {
    p.lo.SetF32(i, F16BitsToF32(a.GetU16(i)));
    p.hi.SetF32(i, F16BitsToF32(a.GetU16(i + HvxVec::kWords)));
  }
  return p;
}

HvxVec HvxContext::NarrowSfToHf(const HvxVecPair& p) {
  Charge(2);
  HvxVec out;
  for (int i = 0; i < HvxVec::kWords; ++i) {
    out.SetU16(i, F32ToF16Bits(p.lo.GetF32(i)));
    out.SetU16(i + HvxVec::kWords, F32ToF16Bits(p.hi.GetF32(i)));
  }
  return out;
}

HvxVec HvxContext::VCvtHToHf(const HvxVec& a) {
  Charge(1);
  HvxVec out;
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    out.SetU16(i, F32ToF16Bits(static_cast<float>(static_cast<int16_t>(a.GetU16(i)))));
  }
  return out;
}

HvxVec HvxContext::VCvtHfToH(const HvxVec& a) {
  Charge(1);
  HvxVec out;
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    const float f = F16BitsToF32(a.GetU16(i));
    const int32_t v =
        static_cast<int32_t>(std::lrintf(hexllm::Clamp(f, -32768.0f, 32767.0f)));
    out.SetU16(i, static_cast<uint16_t>(static_cast<int16_t>(v)));
  }
  return out;
}

HvxVec HvxContext::VAnd(const HvxVec& a, const HvxVec& b) {
  Charge(1);
  HvxVec out;
  for (int i = 0; i < HvxVec::kBytes; ++i) {
    out.b[i] = a.b[i] & b.b[i];
  }
  return out;
}

HvxVec HvxContext::VShlH(const HvxVec& a, int sh) {
  Charge(1);
  HvxVec out;
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    out.SetU16(i, static_cast<uint16_t>(a.GetU16(i) << sh));
  }
  return out;
}
HvxVec HvxContext::VShrH(const HvxVec& a, int sh) {
  Charge(1);
  HvxVec out;
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    out.SetU16(i, static_cast<uint16_t>(a.GetU16(i) >> sh));
  }
  return out;
}

HvxVecPair HvxContext::VShuffH(const HvxVec& a, const HvxVec& b) {
  Charge(2);
  HvxVecPair p;
  for (int i = 0; i < HvxVec::kWords; ++i) {
    p.lo.SetU16(2 * i, a.GetU16(i));
    p.lo.SetU16(2 * i + 1, b.GetU16(i));
    p.hi.SetU16(2 * i, a.GetU16(i + HvxVec::kWords));
    p.hi.SetU16(2 * i + 1, b.GetU16(i + HvxVec::kWords));
  }
  return p;
}

HvxVecPair HvxContext::VLut16(const HvxVec& idx, const HvxVec& table) {
  Charge(1);
  ++vlut16_ops_;
  HvxVecPair p;
  for (int i = 0; i < HvxVec::kBytes; ++i) {
    const uint16_t v = table.GetU16(idx.b[static_cast<size_t>(i)] & 0x0F);
    if (i < HvxVec::kHalfwords) {
      p.lo.SetU16(i, v);
    } else {
      p.hi.SetU16(i - HvxVec::kHalfwords, v);
    }
  }
  return p;
}

HvxVec HvxContext::VGather(hexllm::Arena& tcm, int64_t base_offset, const HvxVec& offsets) {
  Charge(profile_.vgather_packets);
  ++vgather_ops_;
  HEXLLM_CHECK(base_offset >= 0 && base_offset < tcm.capacity());
  HvxVec out;
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    const uint16_t off = offsets.GetU16(i);  // 16-bit byte offset: 64 KiB window by design
    const int64_t addr = base_offset + off;
    HEXLLM_CHECK_MSG(addr + 2 <= tcm.capacity(), "vgather out of TCM bounds");
    uint16_t v;
    std::memcpy(&v, tcm.base() + addr, 2);
    out.SetU16(i, v);
  }
  return out;
}

void HvxContext::VScatterH(hexllm::Arena& tcm, int64_t base_offset, const HvxVec& offsets,
                           const HvxVec& values) {
  Charge(profile_.vgather_packets + 8);
  ++vscatter_ops_;
  HEXLLM_CHECK(base_offset >= 0 && base_offset < tcm.capacity());
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    const uint16_t off = offsets.GetU16(i);
    const int64_t addr = base_offset + off;
    HEXLLM_CHECK_MSG(addr + 2 <= tcm.capacity(), "vscatter out of TCM bounds");
    const uint16_t v = values.GetU16(i);
    std::memcpy(tcm.base() + addr, &v, 2);
  }
}

float HvxContext::ReduceMaxHf(const HvxVec& a) {
  // log2(64) = 6 rotate+max steps, plus one extract.
  Charge(7);
  float m = -std::numeric_limits<float>::infinity();
  for (int i = 0; i < HvxVec::kHalfwords; ++i) {
    m = std::max(m, F16BitsToF32(a.GetU16(i)));
  }
  return m;
}

float HvxContext::ReduceSumSf(const HvxVec& a) {
  // log2(32) = 5 rotate+add steps, plus one extract.
  Charge(6);
  float s = 0.0f;
  for (int i = 0; i < HvxVec::kWords; ++i) {
    s += a.GetF32(i);
  }
  return s;
}

}  // namespace hexsim
