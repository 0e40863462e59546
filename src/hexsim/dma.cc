#include "src/hexsim/dma.h"

#include <algorithm>
#include <cstring>

#include "src/base/check.h"

namespace hexsim {
namespace {

// DDR burst efficiency for a 2D descriptor with the given row length. Rows of >= 512 bytes
// saturate; a 32-byte row achieves only ~25% of peak. Smooth interpolation keeps the ablation
// sweeps well-behaved.
double RowEfficiency(int64_t row_bytes) {
  if (row_bytes >= 512) {
    return 1.0;
  }
  if (row_bytes <= 0) {
    return 0.05;
  }
  const double x = static_cast<double>(row_bytes) / 512.0;
  return 0.20 + 0.80 * x;
}

}  // namespace

double DmaEngine::Cost1D(int64_t bytes, DmaDirection dir) const {
  HEXLLM_DCHECK(bytes >= 0);
  return static_cast<double>(bytes) / Bandwidth(dir) + profile_.dma_descriptor_ns * 1e-9;
}

double DmaEngine::Cost2D(int64_t row_bytes, int64_t rows, DmaDirection dir) const {
  HEXLLM_DCHECK(row_bytes >= 0 && rows >= 0);
  const double bytes = static_cast<double>(row_bytes) * static_cast<double>(rows);
  const double eff = RowEfficiency(row_bytes);
  return bytes / (Bandwidth(dir) * eff) + profile_.dma_descriptor_ns * 1e-9;
}

double DmaEngine::Transfer1D(void* dst, const void* src, int64_t bytes, DmaDirection dir) {
  if (dst != nullptr && src != nullptr && bytes > 0) {
    std::memcpy(dst, src, static_cast<size_t>(bytes));
  }
  const double t = Cost1D(bytes, dir);
  ledger_.AddSeconds(Engine::kDma, t, Tag::kDma);
  ledger_.AddDmaBytes(bytes);
  ledger_.AddCount(Counter::kDmaDescriptors);
  return t;
}

double DmaEngine::Transfer2D(void* dst, int64_t dst_stride, const void* src, int64_t src_stride,
                             int64_t row_bytes, int64_t rows, DmaDirection dir) {
  if (dst != nullptr && src != nullptr && row_bytes > 0) {
    const uint8_t* s = static_cast<const uint8_t*>(src);
    uint8_t* d = static_cast<uint8_t*>(dst);
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(d + r * dst_stride, s + r * src_stride, static_cast<size_t>(row_bytes));
    }
  }
  const double t = Cost2D(row_bytes, rows, dir);
  ledger_.AddSeconds(Engine::kDma, t, Tag::kDma);
  ledger_.AddDmaBytes(row_bytes * rows);
  ledger_.AddCount(Counter::kDmaDescriptors);
  return t;
}

}  // namespace hexsim
