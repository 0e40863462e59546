#include "src/hexsim/hmx.h"

#include <cstring>

#include "src/base/check.h"

namespace hexsim {

using hexllm::F16;

void HmxEngine::PackTile(const F16* rowmajor, int64_t row_stride, F16* tile, int valid_rows) {
  if (valid_rows < kTileDim) {
    std::memset(static_cast<void*>(tile), 0, kTileBytes);  // F16 zero is all-zero bits
  }
  for (int r = 0; r < valid_rows; ++r) {
    for (int c = 0; c < kTileDim; ++c) {
      tile[TileHalfwordOffset(r, c)] = rowmajor[r * row_stride + c];
    }
  }
}

void HmxEngine::UnpackTile(const F16* tile, F16* rowmajor, int64_t row_stride,
                           int valid_rows) {
  for (int r = 0; r < valid_rows; ++r) {
    for (int c = 0; c < kTileDim; ++c) {
      rowmajor[r * row_stride + c] = tile[TileHalfwordOffset(r, c)];
    }
  }
}

void HmxEngine::TileMacc(const Tcm& tcm, const F16* a_tile, const F16* b_tile, float* acc,
                         int row_begin, int row_end) {
  HEXLLM_CHECK_MSG(tcm.Contains(a_tile), "HMX activation tile must reside in TCM");
  HEXLLM_CHECK_MSG(tcm.Contains(b_tile), "HMX weight tile must reside in TCM");
  HEXLLM_DCHECK(row_begin >= 0 && row_begin <= row_end && row_end <= kTileDim);
  ++tile_ops_;

  // Decode the weight tile into scratch row-major form once (the hardware streams the
  // permuted layout natively; the decode is a simulation artifact, not a timed operation).
  float b[kTileElems];
  for (int p = 0; p < kTileDim / 2; ++p) {
    const F16* pair = b_tile + p * 2 * kTileDim;
    float* even = b + (2 * p) * kTileDim;
    float* odd = even + kTileDim;
    for (int c = 0; c < kTileDim; ++c) {
      even[c] = pair[2 * c].ToFloat();
      odd[c] = pair[2 * c + 1].ToFloat();
    }
  }
  // FP16 products accumulated in FP32 (the unit's internal higher-precision accumulator).
  // Activation elements decode lazily: a zero magnitude (bits 0x0000/0x8000, i.e. exactly
  // the av == 0.0f values) contributes nothing, so padded rows skip both the table lookup
  // and the MAC sweep — bit-identical result, and the simulation cost scales with the
  // tile's occupied rows instead of the full 32.
  for (int r = row_begin; r < row_end; ++r) {
    const F16* a_row = a_tile + (r / 2) * 2 * kTileDim + (r % 2);
    float* acc_row = acc + r * kTileDim;
    for (int k = 0; k < kTileDim; ++k) {
      const uint16_t bits = a_row[2 * k].bits();
      if ((bits & 0x7FFFu) == 0) {
        continue;
      }
      const float av = hexllm::F16BitsToF32(bits);
      const float* b_row = b + k * kTileDim;
      for (int c = 0; c < kTileDim; ++c) {
        acc_row[c] += av * b_row[c];
      }
    }
  }
}

void HmxEngine::StoreAcc(const float* acc, F16* out_tile, const float* col_scale,
                         const float* col_bias, int valid_rows) {
  for (int r = 0; r < valid_rows; ++r) {
    for (int c = 0; c < kTileDim; ++c) {
      float v = acc[r * kTileDim + c];
      if (col_scale != nullptr) {
        v *= col_scale[c];
      }
      if (col_bias != nullptr) {
        v += col_bias[c];
      }
      out_tile[TileHalfwordOffset(r, c)] = F16(v);
    }
  }
}

}  // namespace hexsim
