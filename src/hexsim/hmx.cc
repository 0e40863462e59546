#include "src/hexsim/hmx.h"

#include <cstring>

#include "src/base/check.h"

namespace hexsim {

using hexllm::F16;

namespace {

// True when `decoded` is bit-for-bit the FP32 decode of `tile` (TileMacc's debug check).
[[maybe_unused]] bool DecodeMatches(const F16* tile, const float* decoded) {
  float expected[HmxEngine::kTileElems];
  HmxEngine::DecodeTile(tile, expected);
  return std::memcmp(expected, decoded, sizeof(expected)) == 0;
}

}  // namespace

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

void HmxEngine::DecodeTile(const F16* tile, float* rowmajor) {
  for (int p = 0; p < kTileDim / 2; ++p) {
    const F16* pair = tile + p * 2 * kTileDim;
    float* even = rowmajor + (2 * p) * kTileDim;
    float* odd = even + kTileDim;
    for (int c = 0; c < kTileDim; ++c) {
      even[c] = pair[2 * c].ToFloat();
      odd[c] = pair[2 * c + 1].ToFloat();
    }
  }
}

void HmxEngine::TileMacc(const hexllm::Arena& tcm, const F16* a_tile, const F16* b_tile, float* acc,
                         int row_begin, int row_end, const float* b_decoded) {
  HEXLLM_CHECK_MSG(tcm.Contains(a_tile), "HMX activation tile must reside in TCM");
  HEXLLM_CHECK_MSG(tcm.Contains(b_tile), "HMX weight tile must reside in TCM");
  HEXLLM_DCHECK(row_begin >= 0 && row_begin <= row_end && row_end <= kTileDim);
  ++tile_ops_;

  // The hardware streams the permuted layout natively; decoding B to row-major float is a
  // simulation artifact, not a timed operation. Without a caller-provided decode it is
  // done here, once per call.
  HEXLLM_DCHECK(b_decoded == nullptr || DecodeMatches(b_tile, b_decoded));
  float b_scratch[kTileElems];
  const float* b = b_decoded;
  if (b == nullptr) {
    DecodeTile(b_tile, b_scratch);
    b = b_scratch;
  }
  // FP16 products accumulated in FP32 (the unit's internal higher-precision accumulator).
  // Activation elements decode lazily: a zero magnitude (bits 0x0000/0x8000, i.e. exactly
  // the av == 0.0f values) contributes nothing, so padded rows skip both the table lookup
  // and the MAC sweep — bit-identical result, and the simulation cost scales with the
  // tile's occupied rows instead of the full 32. Each row's 32 accumulators live in a local
  // array across the k loop (registers, not memory); every element keeps its k order.
  for (int r = row_begin; r < row_end; ++r) {
    const F16* a_row = a_tile + (r / 2) * 2 * kTileDim + (r % 2);
    float* acc_row = acc + r * kTileDim;
    float row[kTileDim];
    std::memcpy(row, acc_row, sizeof(row));
    for (int k = 0; k < kTileDim; ++k) {
      const uint16_t bits = a_row[2 * k].bits();
      if ((bits & 0x7FFFu) == 0) {
        continue;
      }
      const float av = hexllm::F16BitsToF32(bits);
      const float* b_row = b + k * kTileDim;
      for (int c = 0; c < kTileDim; ++c) {
        row[c] += av * b_row[c];
      }
    }
    std::memcpy(acc_row, row, sizeof(row));
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
