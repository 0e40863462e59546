#include "src/kernels/exp_lut.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace hkern {

using hexllm::F16;

namespace {

F16* AllocTable(hexsim::NpuDevice& device, int64_t* tcm_offset) {
  F16* table = device.tcm().Alloc<F16>(ExpLut::kEntries);
  *tcm_offset = device.tcm().OffsetOf(table);
  return table;
}

}  // namespace

ExpLut::ExpLut(hexsim::NpuDevice& device) {
  device.ledger().AddCount(hexsim::Counter::kExpLutBuilds);
  table_ = AllocTable(device, &tcm_offset_);
  for (int i = 0; i < kEntries; ++i) {
    // Entry i corresponds to input bits (0x8000 | i), i.e. the value -|decode(i)|.
    // Entry 0 is x == -0 -> exp(0) = 1.
    const double x = static_cast<double>(hexllm::F16BitsToF32(static_cast<uint16_t>(i)));
    const double e = std::exp(-x);  // computed at >= 32-bit precision (double) per §7.4
    table_[i] = F16(static_cast<float>(e));
  }
}

ExpLut::ExpLut(hexsim::NpuDevice& device, const ExpLut& model) {
  table_ = AllocTable(device, &tcm_offset_);
  std::copy(model.table_, model.table_ + kEntries, table_);
}

float ExpLut::Lookup(F16 x) const {
  const float xf = x.ToFloat();
  HEXLLM_DCHECK(!(xf > 0.0f));
  (void)xf;
  const uint16_t off = OffsetForInputBits(x.bits());
  return table_[off / 2].ToFloat();
}

}  // namespace hkern
