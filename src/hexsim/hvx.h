// HVX (Hexagon Vector eXtension) emulation: functional + timing.
//
// The simulator executes the subset of the HVX ISA the paper's kernels rely on, on 1024-bit
// (128-byte) registers, while counting *instruction packets*. One packet is charged per
// vector instruction (the VLIW scalar slots — address arithmetic, loop control — ride along
// for free, matching how hand-scheduled HVX kernels behave), with three deliberate
// exceptions modeled after the paper's measurements:
//
//   * vgather costs DeviceProfile::vgather_packets (24-48 on real parts, §5.2.1);
//   * vscatter costs vgather_packets + 8 (the paper calls baseline-GEMV scatters
//     "extremely costly", §7.4);
//   * serial dependency chains (e.g. Horner polynomial evaluation) stall the VLIW pipeline;
//     kernels model this with ChargeStalls() (§5.2.1: "polynomial evaluation involves
//     sequential dependencies, limiting instruction-level parallelism").
//
// qfloat: before V79, HVX float instructions produce results in Qualcomm's internal qfloat
// format, which costs an extra conversion instruction to turn back into IEEE FP16 (§5.2.2).
// Numerically qfloat carries *more* mantissa than FP16, so the emulation computes each op in
// binary32 and rounds to FP16 at the result — a faithful lower bound on qfloat precision.
// ConvertQf() charges the conversion packet on V73/V75 and is free on V79.
#ifndef SRC_HEXSIM_HVX_H_
#define SRC_HEXSIM_HVX_H_

#include <array>
#include <cstdint>
#include <cstring>

#include "src/base/arena.h"
#include "src/base/check.h"
#include "src/base/fp16.h"
#include "src/hexsim/cycle_ledger.h"
#include "src/hexsim/device_profile.h"

namespace hexsim {

// One 1024-bit HVX vector register.
struct HvxVec {
  static constexpr int kBytes = 128;
  static constexpr int kHalfwords = 64;
  static constexpr int kWords = 32;

  alignas(128) std::array<uint8_t, kBytes> b{};

  uint16_t GetU16(int i) const {
    HEXLLM_DCHECK(i >= 0 && i < kHalfwords);
    uint16_t v;
    std::memcpy(&v, b.data() + i * 2, 2);
    return v;
  }
  void SetU16(int i, uint16_t v) {
    HEXLLM_DCHECK(i >= 0 && i < kHalfwords);
    std::memcpy(b.data() + i * 2, &v, 2);
  }
  float GetF32(int i) const {
    HEXLLM_DCHECK(i >= 0 && i < kWords);
    float v;
    std::memcpy(&v, b.data() + i * 4, 4);
    return v;
  }
  void SetF32(int i, float v) {
    HEXLLM_DCHECK(i >= 0 && i < kWords);
    std::memcpy(b.data() + i * 4, &v, 4);
  }
  float GetHf(int i) const { return hexllm::F16BitsToF32(GetU16(i)); }
  void SetHf(int i, float v) { SetU16(i, hexllm::F32ToF16Bits(v)); }

  bool operator==(const HvxVec& o) const { return b == o.b; }
};

// A register pair (the result type of widening instructions and vlut16).
struct HvxVecPair {
  HvxVec lo;  // even/low results
  HvxVec hi;  // odd/high results
};

class HvxContext {
 public:
  explicit HvxContext(const DeviceProfile& profile) : profile_(profile) {}

  const DeviceProfile& profile() const { return profile_; }

  // --- packet accounting ---
  // issued(): every packet the instruction stream has issued on this context, monotonic.
  // A kernel measures its own cost as an issued() delta and commits it through
  // NpuDevice::CommitHvxPackets. packets(): the packets committed that way, monotonic — the
  // count behind the committed HVX busy seconds (`hexsim.hvx.packets`). Issued packets that
  // are never committed cost no simulated time and do not count.
  int64_t issued() const { return issued_; }
  int64_t packets() const { return committed_; }
  void NoteCommitted(int64_t n) {
    HEXLLM_DCHECK(n >= 0);
    committed_ += n;
  }
  // Adds `other`'s instruction counters into this context and zeroes them in `other`; used
  // by NpuDevice::MergeShards to fold per-lane shard accounting back into the parent.
  void AbsorbCounters(HvxContext& other) {
    issued_ += other.issued_;
    committed_ += other.committed_;
    vgather_ops_ += other.vgather_ops_;
    vscatter_ops_ += other.vscatter_ops_;
    vlut16_ops_ += other.vlut16_ops_;
    other.issued_ = 0;
    other.committed_ = 0;
    other.vgather_ops_ = 0;
    other.vscatter_ops_ = 0;
    other.vlut16_ops_ = 0;
  }
  // Per-instruction-class counters for the observability layer (the LUT instructions are
  // the paper's headline mechanisms, so their usage is tracked explicitly).
  int64_t vgather_ops() const { return vgather_ops_; }
  int64_t vscatter_ops() const { return vscatter_ops_; }
  int64_t vlut16_ops() const { return vlut16_ops_; }
  // Counts `n` vlut16 ops without executing their lookups. The dequant-once weight cache
  // replays a memoized DequantCoalescedLut's count this way, so the counter stays
  // bit-identical to a re-simulated run (docs/performance.md), and the attention KV dequant
  // counts its INT4 lookups; packet time is charged separately through
  // NpuDevice::CommitHvxPackets.
  void CountVlut16(int64_t n) {
    HEXLLM_DCHECK(n >= 0);
    vlut16_ops_ += n;
  }
  void Charge(int64_t n) {
    HEXLLM_DCHECK(n >= 0);
    issued_ += n;
  }
  // Models VLIW pipeline bubbles from serial dependency chains.
  void ChargeStalls(int64_t n) { Charge(n); }
  // Scalar-core work executed inline with the vector stream.
  void ChargeScalar(int64_t cycles) { Charge(cycles); }

  double PacketsToSeconds(int64_t n) const {
    return static_cast<double>(n) / (profile_.hvx_freq_ghz * 1e9);
  }

  // --- memory ---
  // Aligned vector load from TCM/L2-resident memory (1 packet).
  HvxVec LoadAligned(const void* src) {
    Charge(1);
    HvxVec v;
    std::memcpy(v.b.data(), src, HvxVec::kBytes);
    return v;
  }
  void Store(void* dst, const HvxVec& v) {
    Charge(1);
    std::memcpy(dst, v.b.data(), HvxVec::kBytes);
  }

  // --- splats ---
  HvxVec VSplatB(uint8_t x);
  HvxVec VSplatH(uint16_t x);
  HvxVec VSplatHf(float x) { return VSplatH(hexllm::F32ToF16Bits(x)); }
  HvxVec VSplatSf(float x);

  // --- FP16 lanewise (64 lanes) ---
  HvxVec VAddHf(const HvxVec& a, const HvxVec& b);
  HvxVec VSubHf(const HvxVec& a, const HvxVec& b);
  HvxVec VMpyHf(const HvxVec& a, const HvxVec& b);
  HvxVec VMaxHf(const HvxVec& a, const HvxVec& b);

  // --- FP32 lanewise (32 lanes) ---
  HvxVec VAddSf(const HvxVec& a, const HvxVec& b);

  // --- conversions ---
  // FP16 -> FP32 widen: lo gets lanes 0..31, hi gets lanes 32..63. 2 packets.
  HvxVecPair WidenHfToSf(const HvxVec& a);
  // FP32 pair -> FP16. 2 packets.
  HvxVec NarrowSfToHf(const HvxVecPair& p);
  // int16 lanes -> FP16 lanes (1 packet) and back (round-to-nearest, 1 packet).
  HvxVec VCvtHToHf(const HvxVec& a);
  HvxVec VCvtHfToH(const HvxVec& a);
  // qfloat -> IEEE conversion: numerically identity in this model; charges a packet on parts
  // without native IEEE HVX results (V73/V75), free on V79 (§5.2.2).
  HvxVec ConvertQf(const HvxVec& a) {
    if (!profile_.native_ieee_fp16) {
      Charge(1);
    }
    return a;
  }

  // --- integer lanewise ---
  HvxVec VAnd(const HvxVec& a, const HvxVec& b);
  HvxVec VShlH(const HvxVec& a, int sh);   // logical shift left, u16 lanes
  HvxVec VShrH(const HvxVec& a, int sh);   // logical shift right, u16 lanes

  // --- permutation ---
  // Halfword interleave of two registers (models vshuff on a register pair). 2 packets.
  //   lo: a0 b0 a1 b1 ... a31 b31 ; hi: a32 b32 ... a63 b63
  HvxVecPair VShuffH(const HvxVec& a, const HvxVec& b);

  // --- table lookup ---
  // vlut16: each of the 128 byte indices in `idx` (low 4 bits used) selects one of the first
  // 16 halfwords of `table`. Produces 128 halfword results as a pair. 1 packet (§5.2.2).
  HvxVecPair VLut16(const HvxVec& idx, const HvxVec& table);

  // --- gather / scatter (TCM only, §3.1.2) ---
  // Gathers 64 halfwords: result[i] = tcm[base_offset + offsets.u16[i]]. Offsets are byte
  // offsets and must stay within a 64 KiB window (the vgather addressing limit that forces
  // the 32768-entry exp LUT, §5.2.1). Charges profile.vgather_packets.
  HvxVec VGather(hexllm::Arena& tcm, int64_t base_offset, const HvxVec& offsets);
  // Scatters 64 halfwords into TCM. Charges vgather_packets + 8.
  void VScatterH(hexllm::Arena& tcm, int64_t base_offset, const HvxVec& offsets,
                 const HvxVec& values);

  // --- composite helpers (charge their constituent instructions) ---
  // Horizontal max of the FP16 lanes: log2(64) shuffle/max steps + extract.
  float ReduceMaxHf(const HvxVec& a);
  // Horizontal sum of the FP32 lanes: log2(32) steps + extract.
  float ReduceSumSf(const HvxVec& a);

 private:
  const DeviceProfile& profile_;
  int64_t issued_ = 0;
  int64_t committed_ = 0;
  int64_t vgather_ops_ = 0;
  int64_t vscatter_ops_ = 0;
  int64_t vlut16_ops_ = 0;
};

}  // namespace hexsim

#endif  // SRC_HEXSIM_HVX_H_
