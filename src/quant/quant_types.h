// Quantization block formats.
//
// The storage layouts follow llama.cpp conventions (the system is built as a llama.cpp NPU
// backend, §6): Q4_0 stores a group of 32 weights as one FP16 scale plus 16 nibble-packed
// bytes; Q8_0 stores one FP16 scale plus 32 int8 values. Blocks interleave payload and scale
// (AoS) because NPU prefetch prefers one contiguous stream over two (§5.1.2).
#ifndef SRC_QUANT_QUANT_TYPES_H_
#define SRC_QUANT_QUANT_TYPES_H_

#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/base/fp16.h"
#include "src/base/math_util.h"

namespace hquant {

inline constexpr int kGroupSize = 32;  // elements per quantization group

enum class WeightScheme : uint8_t {
  kF16,             // unquantized half weights
  kQ4_0,            // 4-bit symmetric groups of 32 (4.5 bits/weight)
  kQ8_0,            // 8-bit symmetric groups of 32 (8.5 bits/weight)
  kPerChannelInt4,  // QNN-style: one scale per output channel (coarse-grained)
};

const char* WeightSchemeName(WeightScheme s);

// Bits per weight including scale overhead.
double WeightSchemeBpw(WeightScheme s);

// One Q4_0 group: 32 weights. value(i) = (nibble(i) - 8) * d.
// Nibble packing: byte j holds element j in the low nibble and element j+16 in the high
// nibble (llama.cpp block_q4_0 layout).
struct BlockQ4_0 {
  hexllm::F16 d;
  uint8_t qs[kGroupSize / 2];
};
static_assert(sizeof(BlockQ4_0) == 18, "Q4_0 block is 18 bytes");

// One Q8_0 group: 32 weights. value(i) = qs[i] * d.
struct BlockQ8_0 {
  hexllm::F16 d;
  int8_t qs[kGroupSize];
};
static_assert(sizeof(BlockQ8_0) == 34, "Q8_0 block is 34 bytes");

// Super-block produced by coalescing 8 Q4_0 groups (256 elements) so that the INT4 payload
// fills exactly one 128-byte HVX register (§5.1.2, Figure 7).
//
// Payload nibble layout: byte i holds element i in the low nibble and element 128+i in the
// high nibble. A single vand/vshr pair therefore yields two full index registers covering
// elements 0..127 and 128..255 in order — no cross-register merging.
// Scales: 8 FP16 scales, one per original group of 32 consecutive elements.
struct SuperBlockQ4 {
  static constexpr int kElems = 256;
  static constexpr int kGroups = 8;
  uint8_t qs[128];
  hexllm::F16 scales[kGroups];
};
static_assert(sizeof(SuperBlockQ4) == 144, "super-block is 144 bytes");

// ---------------------------------------------------------------------------------------
// Paged KV cache element types (docs/kv_quantization.md).
//
// The KV cache reuses the weight-side group-quantization rules (Q4_0 / Q8_0 scale
// derivation above) but with a row-oriented layout: one K or V row of `kv_dim` elements is
// stored as a contiguous payload followed by one F16 scale per `group` consecutive
// elements. INT4 payloads pack pairwise — byte j holds element 2j in the low nibble and
// element 2j+1 in the high nibble — unlike BlockQ4_0's j/j+16 split, so a row slices
// cleanly at any group boundary (per-kv-head attention views need group-aligned slices).
// F16 rows are the same format with a 2-byte payload element and no scales.
//
// KvRowCodec is header-only on purpose: src/kvcache links neither hexllm_quant nor
// hexllm_kernels, and the writer (PagedKvCache) and reader (FlashAttentionPaged) must
// share bit-exact numerics.
// ---------------------------------------------------------------------------------------

enum class KvDtype : uint8_t {
  kF16,   // unquantized half rows — the default; byte-identical to the pre-quant layout
  kInt8,  // Q8_0-style: int8 payload + one F16 scale per group (~1.9x smaller than F16)
  kInt4,  // Q4_0-style: nibble payload + one F16 scale per group (~3.6x smaller than F16)
};

inline const char* KvDtypeName(KvDtype d) {
  switch (d) {
    case KvDtype::kF16:
      return "f16";
    case KvDtype::kInt8:
      return "int8";
    case KvDtype::kInt4:
      return "int4";
  }
  return "?";
}

inline int KvDtypeBits(KvDtype d) {
  switch (d) {
    case KvDtype::kF16:
      return 16;
    case KvDtype::kInt8:
      return 8;
    case KvDtype::kInt4:
      return 4;
  }
  return 16;
}

// Payload bytes for `elems` quantized elements (elems must be group-aligned for kInt4).
inline int64_t KvPayloadBytes(KvDtype d, int64_t elems) {
  switch (d) {
    case KvDtype::kF16:
      return elems * 2;
    case KvDtype::kInt8:
      return elems;
    case KvDtype::kInt4:
      return elems / 2;
  }
  return elems * 2;
}

// Bytes of one K (or V) row of `row_elems` elements: payload, then one F16 scale per
// quantization group. F16 rows carry no scales and keep the legacy 2-bytes/element layout.
inline int64_t KvRowBytes(KvDtype d, int64_t row_elems, int group) {
  if (d == KvDtype::kF16) {
    return row_elems * 2;
  }
  return KvPayloadBytes(d, row_elems) + (row_elems / group) * 2;
}

// The one KV row codec: encodes a row of `elems` F16 values into KvRowBytes bytes and
// decodes any group-aligned slice of it (one kv head's columns) back to F16. For kF16 both
// directions are a memcpy. Quantized scale rules mirror QuantizeQ4_0 (d = signed-max / -8)
// and QuantizeQ8_0 (d = amax / 127) in group_quant.cc; a decoded value is
// F16(q * d) — the multiply happens in float and rounds through FP16 once, matching what
// the HVX vlut16 scale-multiply produces.
struct KvRowCodec {
  KvDtype dtype = KvDtype::kF16;
  int64_t elems = 0;       // elements per row (the cache's kv_dim)
  int group = kGroupSize;  // elements per F16 scale (quantized dtypes)

  bool quantized() const { return dtype != KvDtype::kF16; }
  int64_t row_bytes() const { return KvRowBytes(dtype, elems, group); }
  // Bytes from a row's start to the payload of element `elem0` (group-aligned).
  int64_t PayloadOffset(int64_t elem0) const { return KvPayloadBytes(dtype, elem0); }
  // Bytes from a row's start to the F16 scale of the group starting at element `elem0`.
  int64_t ScaleOffset(int64_t elem0) const {
    return KvPayloadBytes(dtype, elems) + (elem0 / group) * 2;
  }
  // True when `n`-element slices at multiples of n stay group-aligned, as per-head views
  // require. Always true for kF16.
  bool SlicesAt(int64_t n) const { return !quantized() || n % group == 0; }

  // Encodes one row of `elems` F16 values into `row` (row_bytes() bytes).
  void Encode(const hexllm::F16* src, uint8_t* row) const {
    if (!quantized()) {
      std::memcpy(row, src, static_cast<size_t>(elems) * 2);
      return;
    }
    for (int64_t e0 = 0; e0 < elems; e0 += group) {
      const hexllm::F16* x = src + e0;
      float amax = 0.0f;
      float vmax = 0.0f;  // signed value of the max-magnitude element
      for (int i = 0; i < group; ++i) {
        const float a = std::fabs(x[i].ToFloat());
        if (a > amax) {
          amax = a;
          vmax = x[i].ToFloat();
        }
      }
      uint8_t* payload = row + PayloadOffset(e0);
      const float d = dtype == KvDtype::kInt4 ? vmax / -8.0f : amax / 127.0f;
      const float id = (d != 0.0f) ? 1.0f / d : 0.0f;
      const auto q = [&](int i) { return static_cast<int>(std::lrintf(x[i].ToFloat() * id)); };
      if (dtype == KvDtype::kInt4) {
        for (int j = 0; j < group / 2; ++j) {
          payload[j] = static_cast<uint8_t>(hexllm::Clamp(q(2 * j) + 8, 0, 15) |
                                            (hexllm::Clamp(q(2 * j + 1) + 8, 0, 15) << 4));
        }
      } else {
        for (int i = 0; i < group; ++i) {
          payload[i] = static_cast<uint8_t>(hexllm::Clamp(q(i), -127, 127));
        }
      }
      const uint16_t d_bits = hexllm::F16(d).bits();
      std::memcpy(row + ScaleOffset(e0), &d_bits, 2);
    }
  }

  // Decodes elements [elem0, elem0 + n) of an encoded row into `dst` (elem0 and n
  // group-aligned).
  void DecodeSlice(const uint8_t* row, int64_t elem0, int64_t n, hexllm::F16* dst) const {
    if (!quantized()) {
      std::memcpy(dst, row + elem0 * 2, static_cast<size_t>(n) * 2);
      return;
    }
    for (int64_t g0 = 0; g0 < n; g0 += group) {
      uint16_t d_bits;
      std::memcpy(&d_bits, row + ScaleOffset(elem0 + g0), 2);
      const float d = hexllm::F16BitsToF32(d_bits);
      const uint8_t* payload = row + PayloadOffset(elem0 + g0);
      hexllm::F16* out = dst + g0;
      if (dtype == KvDtype::kInt4) {
        for (int j = 0; j < group / 2; ++j) {
          out[2 * j] = hexllm::F16(static_cast<float>((payload[j] & 0x0F) - 8) * d);
          out[2 * j + 1] = hexllm::F16(static_cast<float>((payload[j] >> 4) - 8) * d);
        }
      } else {
        for (int i = 0; i < group; ++i) {
          out[i] = hexllm::F16(static_cast<float>(static_cast<int8_t>(payload[i])) * d);
        }
      }
    }
  }
};

}  // namespace hquant

#endif  // SRC_QUANT_QUANT_TYPES_H_
