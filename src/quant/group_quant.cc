#include "src/quant/group_quant.h"

#include <cmath>

#include "src/base/check.h"
#include "src/base/math_util.h"

namespace hquant {

using hexllm::F16;

double WeightSchemeBpw(WeightScheme s) {
  switch (s) {
    case WeightScheme::kF16:
      return 16.0;
    case WeightScheme::kQ4_0:
      return 4.5;  // 16 bytes payload + 2 bytes scale per 32 weights
    case WeightScheme::kQ8_0:
      return 8.5;
    case WeightScheme::kPerChannelInt4:
      return 4.0;  // scale overhead amortized over a whole channel
  }
  return 0.0;
}

std::vector<BlockQ4_0> QuantizeQ4_0(std::span<const float> values) {
  HEXLLM_CHECK(values.size() % kGroupSize == 0);
  const size_t n_blocks = values.size() / kGroupSize;
  std::vector<BlockQ4_0> blocks(n_blocks);
  for (size_t bi = 0; bi < n_blocks; ++bi) {
    const float* x = values.data() + bi * kGroupSize;
    float amax = 0.0f;
    float vmax = 0.0f;  // signed value of the max-magnitude element
    for (int i = 0; i < kGroupSize; ++i) {
      const float a = std::fabs(x[i]);
      if (a > amax) {
        amax = a;
        vmax = x[i];
      }
    }
    const float d = vmax / -8.0f;
    const float id = (d != 0.0f) ? 1.0f / d : 0.0f;
    BlockQ4_0& b = blocks[bi];
    b.d = F16(d);
    for (int j = 0; j < kGroupSize / 2; ++j) {
      const int q_lo = hexllm::Clamp(static_cast<int>(std::lrintf(x[j] * id)) + 8, 0, 15);
      const int q_hi =
          hexllm::Clamp(static_cast<int>(std::lrintf(x[j + kGroupSize / 2] * id)) + 8, 0, 15);
      b.qs[j] = static_cast<uint8_t>(q_lo | (q_hi << 4));
    }
  }
  return blocks;
}

std::vector<BlockQ8_0> QuantizeQ8_0(std::span<const float> values) {
  HEXLLM_CHECK(values.size() % kGroupSize == 0);
  const size_t n_blocks = values.size() / kGroupSize;
  std::vector<BlockQ8_0> blocks(n_blocks);
  for (size_t bi = 0; bi < n_blocks; ++bi) {
    const float* x = values.data() + bi * kGroupSize;
    float amax = 0.0f;
    for (int i = 0; i < kGroupSize; ++i) {
      amax = std::max(amax, std::fabs(x[i]));
    }
    const float d = amax / 127.0f;
    const float id = (d != 0.0f) ? 1.0f / d : 0.0f;
    BlockQ8_0& b = blocks[bi];
    b.d = F16(d);
    for (int i = 0; i < kGroupSize; ++i) {
      b.qs[i] = static_cast<int8_t>(
          hexllm::Clamp(static_cast<int>(std::lrintf(x[i] * id)), -127, 127));
    }
  }
  return blocks;
}

float BlockQ4Value(const BlockQ4_0& b, int i) {
  HEXLLM_DCHECK(i >= 0 && i < kGroupSize);
  const int half = kGroupSize / 2;
  const uint8_t byte = b.qs[i % half];
  const int nib = (i < half) ? (byte & 0x0F) : (byte >> 4);
  return static_cast<float>(nib - 8) * b.d.ToFloat();
}

void DequantizeQ4_0(std::span<const BlockQ4_0> blocks, std::span<float> out) {
  HEXLLM_CHECK(out.size() == blocks.size() * kGroupSize);
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    float* o = out.data() + bi * kGroupSize;
    for (int i = 0; i < kGroupSize; ++i) {
      o[i] = BlockQ4Value(blocks[bi], i);
    }
  }
}

void DequantizeQ8_0(std::span<const BlockQ8_0> blocks, std::span<float> out) {
  HEXLLM_CHECK(out.size() == blocks.size() * kGroupSize);
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    const float d = blocks[bi].d.ToFloat();
    float* o = out.data() + bi * kGroupSize;
    for (int i = 0; i < kGroupSize; ++i) {
      o[i] = static_cast<float>(blocks[bi].qs[i]) * d;
    }
  }
}

PerChannelInt4 QuantizePerChannelInt4(std::span<const float> w, int64_t k, int64_t n) {
  HEXLLM_CHECK(static_cast<int64_t>(w.size()) == k * n);
  PerChannelInt4 q;
  q.k = k;
  q.n = n;
  q.scales.resize(static_cast<size_t>(n));
  const int64_t bytes_per_channel = hexllm::CeilDiv(k, 2);
  q.qs.assign(static_cast<size_t>(bytes_per_channel * n), 0);
  for (int64_t c = 0; c < n; ++c) {
    const float* col = w.data() + c * k;
    float amax = 0.0f;
    float vmax = 0.0f;
    for (int64_t i = 0; i < k; ++i) {
      const float a = std::fabs(col[i]);
      if (a > amax) {
        amax = a;
        vmax = col[i];
      }
    }
    const float d = vmax / -8.0f;
    const float id = (d != 0.0f) ? 1.0f / d : 0.0f;
    q.scales[static_cast<size_t>(c)] = d;
    uint8_t* qs = q.qs.data() + c * bytes_per_channel;
    for (int64_t i = 0; i < k; ++i) {
      const int v = hexllm::Clamp(static_cast<int>(std::lrintf(col[i] * id)) + 8, 0, 15);
      if (i % 2 == 0) {
        qs[i / 2] = static_cast<uint8_t>(v);
      } else {
        qs[i / 2] |= static_cast<uint8_t>(v << 4);
      }
    }
  }
  return q;
}

void DequantizePerChannelInt4(const PerChannelInt4& q, std::span<float> out) {
  HEXLLM_CHECK(static_cast<int64_t>(out.size()) == q.k * q.n);
  const int64_t bytes_per_channel = hexllm::CeilDiv(q.k, 2);
  for (int64_t c = 0; c < q.n; ++c) {
    const float d = q.scales[static_cast<size_t>(c)];
    const uint8_t* qs = q.qs.data() + c * bytes_per_channel;
    float* col = out.data() + c * q.k;
    for (int64_t i = 0; i < q.k; ++i) {
      const int nib = (i % 2 == 0) ? (qs[i / 2] & 0x0F) : (qs[i / 2] >> 4);
      col[i] = static_cast<float>(nib - 8) * d;
    }
  }
}

}  // namespace hquant
