// HMX (Hexagon Matrix eXtension) emulation: the FP16 32x32 tile matmul unit (§3.1.2).
//
// Facts from the paper this model implements:
//   * the basic unit is a 32x32 FP16 tile occupying 2 KiB of TCM;
//   * tiles use a permuted layout (Figure 4a): every two rows are stored interleaved, i.e.
//     with the same layout as the transposed 2x32 sub-matrix;
//   * weight tiles for GEMM are arranged column-major at the tile level because the unit
//     performs a tile-level inner product (Figure 4b);
//   * the unit accumulates in an internal higher-precision accumulator (we use FP32) and can
//     scale / bias each output column when writing the accumulator out;
//   * all HMX operands must reside in TCM.
//
// Timing: one tile MAC op (32x32x32, 65536 flops) costs DeviceProfile::hmx_tile_cycles HMX
// cycles; with the V75 calibration (8 cycles @ 1.47 GHz) peak FP16 throughput is
// 12.04 TFLOPS, matching Table 2's 12032.54 GFLOPS.
#ifndef SRC_HEXSIM_HMX_H_
#define SRC_HEXSIM_HMX_H_

#include <cstdint>

#include "src/base/arena.h"
#include "src/base/fp16.h"
#include "src/hexsim/cycle_ledger.h"
#include "src/hexsim/device_profile.h"

namespace hexsim {

class HmxEngine {
 public:
  static constexpr int kTileDim = 32;
  static constexpr int kTileElems = kTileDim * kTileDim;
  static constexpr int kTileBytes = kTileElems * 2;  // FP16

  explicit HmxEngine(const DeviceProfile& profile) : profile_(profile) {}

  // Halfword offset of logical element (r, c) inside a tile stored in the HMX layout of
  // Figure 4a: row pair p = r/2 holds the transposed 2x32 block, so consecutive memory
  // halfwords are (2p, c), (2p+1, c), (2p, c+1), ...
  static int TileHalfwordOffset(int r, int c) {
    return (r / 2) * (2 * kTileDim) + c * 2 + (r % 2);
  }

  // Packs a row-major 32x32 FP16 block (row stride in elements) into HMX tile layout.
  // Rows >= valid_rows are zero-filled without reading the source (partially occupied
  // activation strips pack only their live rows).
  static void PackTile(const hexllm::F16* rowmajor, int64_t row_stride, hexllm::F16* tile,
                       int valid_rows = kTileDim);
  // Inverse of PackTile; rows >= valid_rows of the destination are left untouched.
  static void UnpackTile(const hexllm::F16* tile, hexllm::F16* rowmajor, int64_t row_stride,
                         int valid_rows = kTileDim);

  // acc[32*32] (FP32, row-major) += A * B where A and B are HMX-layout tiles in TCM.
  // A is the activation tile (rows x k), B the weight tile (k x cols). One tile op
  // whatever the range: only accumulator rows [row_begin, row_end) are computed, the rest
  // are left untouched (callers that consume a subset of rows skip the others — pure
  // host-time saving, the computed rows are bit-identical).
  // `b_decoded` (optional) is B already decoded to FP32, row-major k x cols: constant
  // weight tiles are decoded once per model (hllm::QuantizedLinear's cache) instead of on
  // every call. It must equal the decode of `b_tile` (checked in debug builds), so results
  // are bit-identical either way; B must still reside in TCM.
  void TileMacc(const hexllm::Arena& tcm, const hexllm::F16* a_tile, const hexllm::F16* b_tile,
                float* acc, int row_begin = 0, int row_end = kTileDim,
                const float* b_decoded = nullptr);

  // Decodes an HMX-layout FP16 tile to FP32, row-major (the `b_decoded` form of TileMacc).
  static void DecodeTile(const hexllm::F16* tile, float* rowmajor);

  // Writes the FP32 accumulator to an HMX-layout FP16 output tile, applying the per-column
  // (output-channel) scale and bias the hardware supports. scale/bias may be null. Rows >=
  // valid_rows are left untouched (callers that only consume the occupied rows skip the
  // padding conversion — pure host-time saving, the consumed rows are bit-identical).
  void StoreAcc(const float* acc, hexllm::F16* out_tile, const float* col_scale,
                const float* col_bias, int valid_rows = kTileDim);

  int64_t tile_ops() const { return tile_ops_; }
  // Adds `other`'s tile-op counter into this engine and zeroes it in `other`; used by
  // NpuDevice::MergeShards to fold per-lane shard accounting back into the parent.
  void AbsorbTileOps(HmxEngine& other) {
    tile_ops_ += other.tile_ops_;
    other.tile_ops_ = 0;
  }

  // Cycles consumed by `n` tile MAC ops.
  int64_t TileOpCycles(int64_t n) const { return n * profile_.hmx_tile_cycles; }
  double TileOpsToSeconds(int64_t n) const {
    return static_cast<double>(TileOpCycles(n)) / (profile_.hmx_freq_ghz * 1e9) /
           profile_.hmx_units;
  }

 private:
  const DeviceProfile& profile_;
  int64_t tile_ops_ = 0;
};

}  // namespace hexsim

#endif  // SRC_HEXSIM_HMX_H_
