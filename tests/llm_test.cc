#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/math_util.h"
#include "src/base/rng.h"
#include "src/exec/thread_pool.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/misc_ops.h"
#include "src/kvcache/kv_offload.h"
#include "src/llm/model_config.h"
#include "src/llm/sampling.h"
#include "src/llm/transformer.h"
#include "src/llm/weights.h"
#include "src/obs/metrics.h"
#include "src/quant/error_stats.h"
#include "src/serving/execution_backend.h"

// Global heap-allocation counter backing SteadyStateDecodeDoesNotHeapAllocate: replacing
// the allocation functions in one TU replaces them binary-wide, so every operator new in
// the test process funnels through the counter. malloc/free-compatible, as required of
// replacements.
static std::atomic<int64_t> g_heap_allocs{0};

namespace {
void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n != 0 ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace hllm {
namespace {

using hexllm::F16;
using hexllm::Rng;

// --- model configs ---

TEST(ModelConfigTest, ParameterCountsMatchPublishedSizes) {
  for (const auto* m : EvaluationModels()) {
    double params = 0.0;
    for (const auto& mat : m->LayerMatrices()) {
      params += static_cast<double>(mat.k) * mat.n;
    }
    params *= m->layers;
    params += static_cast<double>(m->vocab) * m->hidden;  // embedding (tied lm_head)
    EXPECT_NEAR(params / 1e9, m->params_b, 0.12 * m->params_b) << m->name;
  }
}

TEST(ModelConfigTest, DmabufMatchesFigure16) {
  // §7.5: pmap reports 1056 MiB (1.5B) and 2090 MiB (3B) of dmabuf under a 4096-token
  // context budget.
  const int64_t mib = 1 << 20;
  EXPECT_NEAR(static_cast<double>(Qwen25_1_5B().DmabufBytes(4096, 16)) / mib, 1056.0, 80.0);
  EXPECT_NEAR(static_cast<double>(Qwen25_3B().DmabufBytes(4096, 16)) / mib, 2090.0, 150.0);
}

TEST(ModelConfigTest, GqaShapes) {
  const auto& q = Qwen25_1_5B();
  EXPECT_EQ(q.q_dim(), 1536);
  EXPECT_EQ(q.kv_dim(), 256);
  EXPECT_EQ(q.heads % q.kv_heads, 0);
  const auto& l = Llama32_1B();
  EXPECT_EQ(l.q_dim(), 2048);
  EXPECT_EQ(l.kv_dim(), 512);
}

TEST(ModelConfigTest, FfnDownUsesQ8) {
  // §7.1: FFN down matrices use Q8_0 to protect accuracy.
  for (const auto* m : EvaluationModels()) {
    for (const auto& mat : m->LayerMatrices()) {
      if (std::string(mat.name) == "w_down") {
        EXPECT_EQ(mat.scheme, hquant::WeightScheme::kQ8_0);
      } else {
        EXPECT_EQ(mat.scheme, hquant::WeightScheme::kQ4_0);
      }
    }
  }
}

// --- quantized linear ---

TEST(QuantizedLinearTest, DequantizeReconstructsWithinQ4Error) {
  Rng rng(3);
  const int64_t k = 64, n = 64;
  std::vector<float> w(static_cast<size_t>(k * n));
  for (auto& v : w) {
    v = static_cast<float>(rng.NextGaussian() * 0.05);
  }
  const auto lin = QuantizedLinear::Create(w, k, n, hquant::WeightScheme::kQ4_0);
  const auto back = lin.Dequantize();
  const auto err = hquant::ComputeErrorStats(w, back);
  EXPECT_LT(err.rel_rms, 0.12);
  EXPECT_GT(err.cosine, 0.99);
}

TEST(QuantizedLinearTest, ForwardMatchesDequantizedMatmul) {
  Rng rng(4);
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  const int64_t k = 64, n = 96;
  const int m = 3;
  std::vector<float> w(static_cast<size_t>(k * n));
  for (auto& v : w) {
    v = static_cast<float>(rng.NextGaussian() * 0.05);
  }
  for (const auto scheme : {hquant::WeightScheme::kQ4_0, hquant::WeightScheme::kQ8_0}) {
    const auto lin = QuantizedLinear::Create(w, k, n, scheme);
    const auto wd = lin.Dequantize();
    std::vector<F16> x(static_cast<size_t>(m) * k);
    for (auto& v : x) {
      v = F16(static_cast<float>(rng.NextGaussian() * 0.3));
    }
    std::vector<F16> y(static_cast<size_t>(m) * n);
    lin.Forward(dev, x.data(), y.data(), m);
    for (int mi = 0; mi < m; ++mi) {
      for (int64_t ni = 0; ni < n; ++ni) {
        float expected = 0.0f;
        for (int64_t ki = 0; ki < k; ++ki) {
          expected += x[static_cast<size_t>(mi) * k + ki].ToFloat() *
                      hexllm::RoundToF16(wd[static_cast<size_t>(ni * k + ki)]);
        }
        EXPECT_NEAR(y[static_cast<size_t>(mi) * n + ni].ToFloat(), expected,
                    std::fabs(expected) * 3e-3 + 2e-2);
      }
    }
  }
}

TEST(QuantizedLinearTest, QuantizedBytesMatchBpw) {
  Rng rng(5);
  const int64_t k = 128, n = 128;
  std::vector<float> w(static_cast<size_t>(k * n), 0.01f);
  const auto q4 = QuantizedLinear::Create(w, k, n, hquant::WeightScheme::kQ4_0);
  const auto q8 = QuantizedLinear::Create(w, k, n, hquant::WeightScheme::kQ8_0);
  EXPECT_EQ(q4.quantized_bytes(), k * n * 18 / 32);  // 4.5 bpw
  EXPECT_EQ(q8.quantized_bytes(), k * n * 34 / 32);  // 8.5 bpw
}

// --- KV cache ---

TEST(KvCacheTest, IndexingAndAdvance) {
  const ModelConfig c = ToyConfig();
  KvCache kv(c.layers, c.kv_dim(), /*num_seqs=*/2, /*max_context=*/64);
  EXPECT_EQ(kv.length(0), 0);
  // Writes target the append region: every layer stores its rows for a position, then the
  // sequence advances. Distinct (layer, seq, k/v) rows must not alias.
  std::vector<F16> row(static_cast<size_t>(c.kv_dim()), F16::Zero());
  const auto write = [&](bool value, int layer, int seq, float x0) {
    row[0] = F16(x0);
    if (value) {
      kv.WriteValueRow(layer, seq, 0, row.data());
    } else {
      kv.WriteKeyRow(layer, seq, 0, row.data());
    }
  };
  const auto read = [&](bool value, int layer, int seq) {
    if (value) {
      kv.ReadValueRow(layer, seq, 0, row.data());
    } else {
      kv.ReadKeyRow(layer, seq, 0, row.data());
    }
    return row[0].ToFloat();
  };
  write(false, 0, 0, 1.5f);
  write(true, 0, 0, 2.0f);
  write(false, 1, 0, 3.0f);
  write(false, 0, 1, 4.0f);
  kv.Advance(0);
  EXPECT_EQ(kv.length(0), 1);
  EXPECT_EQ(kv.length(1), 0);
  EXPECT_FLOAT_EQ(read(false, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(read(true, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(read(false, 1, 0), 3.0f);
  EXPECT_FLOAT_EQ(read(false, 0, 1), 4.0f);
  kv.ResetSeq(0);
  EXPECT_EQ(kv.length(0), 0);
}

TEST(KvCacheTest, PoolSizeCoversDenseWorstCase) {
  const ModelConfig c = ToyConfig();
  // The default pool must hold every sequence at full context (dense worst case, no
  // sharing), and the block-pool bytes for one block must match the dense config math.
  KvCache kv(c.layers, c.kv_dim(), /*num_seqs=*/2, /*max_context=*/128);
  EXPECT_GE(kv.num_blocks() * static_cast<int64_t>(kv.block_tokens()),
            2 * static_cast<int64_t>(128));
  EXPECT_EQ(kv.stats().bytes_per_block, c.KvCacheBytes(kv.block_tokens()));
  EXPECT_EQ(kv.byte_size(), kv.num_blocks() * kv.stats().bytes_per_block);
}

// --- functional transformer on the simulator ---

// Plain decode's row plan: token i is a one-row span of sequence seq_ids[i], or of
// sequence i when seq_ids is empty. The default ids and the row counts come from fixed
// tables, so building the plan allocates nothing (the zero-alloc decode test drives this).
constexpr size_t kMaxDecodeRows = 16;
constexpr std::array<int, kMaxDecodeRows> kSeqIds = [] {
  std::array<int, kMaxDecodeRows> ids{};
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}();
constexpr std::array<int, kMaxDecodeRows> kOneRowEach = [] {
  std::array<int, kMaxDecodeRows> rows{};
  rows.fill(1);
  return rows;
}();

void DecodeStep(Transformer& tf, std::span<const int> tokens, std::span<float> logits,
                std::span<const int> seq_ids = {}) {
  const size_t n = tokens.size();
  ASSERT_LE(n, kMaxDecodeRows);
  tf.Forward({tokens, seq_ids.empty() ? std::span<const int>(kSeqIds).first(n) : seq_ids,
              std::span<const int>(kOneRowEach).first(n), logits});
}

class TransformerTest : public ::testing::Test {
 protected:
  TransformerTest()
      : config_(ToyConfig()),
        weights_(ModelWeights::Random(config_, 42)),
        dev_(hexsim::OnePlus12()) {}

  ModelConfig config_;
  ModelWeights weights_;
  hexsim::NpuDevice dev_;
};

TEST_F(TransformerTest, StepProducesFiniteLogits) {
  Transformer tf(dev_, weights_, /*max_batch=*/2, /*max_context=*/16);
  std::vector<int> tokens{1, 2};
  std::vector<float> logits(2 * static_cast<size_t>(config_.vocab));
  DecodeStep(tf, tokens, logits);
  for (const float v : logits) {
    EXPECT_TRUE(std::isfinite(v));
  }
  // Logits are non-degenerate (some spread).
  float mn = logits[0], mx = logits[0];
  for (const float v : logits) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_GT(mx - mn, 0.01f);
  EXPECT_EQ(tf.kv().length(0), 1);
  EXPECT_EQ(tf.kv().length(1), 1);
}

TEST_F(TransformerTest, DecodeIsDeterministic) {
  std::vector<int> out1;
  std::vector<int> out2;
  for (auto* out : {&out1, &out2}) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<float> logits(static_cast<size_t>(config_.vocab));
    int tok = 7;
    for (int i = 0; i < 6; ++i) {
      DecodeStep(tf, {&tok, 1}, logits);
      tok = ArgmaxToken(logits);
      out->push_back(tok);
    }
  }
  EXPECT_EQ(out1, out2);
}

TEST_F(TransformerTest, FullCoverageWindowDecodesBitIdenticalTokens) {
  // A sliding window + sinks covering the whole (short) context must be normalized away
  // end-to-end: tokens AND logits stay bit-identical to the unwindowed transformer
  // (docs/long_context.md's CI invariant).
  std::vector<std::vector<int>> outs;
  std::vector<std::vector<float>> last_logits;
  for (int use_window = 0; use_window < 2; ++use_window) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    if (use_window != 0) {
      hkern::AttnWindowSpec w;
      w.sink_blocks = 1;
      w.window_blocks = 8;  // >= the 16-token context in blocks — full coverage
      tf.SetAttentionWindow(w);
      ASSERT_TRUE(tf.attention_window().enabled());
    }
    std::vector<float> logits(static_cast<size_t>(config_.vocab));
    std::vector<int> out;
    int tok = 7;
    for (int i = 0; i < 6; ++i) {
      DecodeStep(tf, {&tok, 1}, logits);
      tok = ArgmaxToken(logits);
      out.push_back(tok);
    }
    outs.push_back(std::move(out));
    last_logits.push_back(std::move(logits));
  }
  EXPECT_EQ(outs[0], outs[1]);
  for (size_t i = 0; i < last_logits[0].size(); ++i) {
    ASSERT_EQ(last_logits[0][i], last_logits[1][i]) << i;
  }
}

TEST_F(TransformerTest, BatchedStepMatchesSingleSequence) {
  // Two independent sequences decoded as a batch must produce the same logits as decoding
  // each alone (row independence of every kernel).
  std::vector<float> logits_batch(2 * static_cast<size_t>(config_.vocab));
  {
    Transformer tf(dev_, weights_, 2, 16);
    std::vector<int> tokens{5, 9};
    DecodeStep(tf, tokens, logits_batch);
  }
  for (int seq = 0; seq < 2; ++seq) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<float> logits(static_cast<size_t>(config_.vocab));
    const int tok = (seq == 0) ? 5 : 9;
    DecodeStep(tf, {&tok, 1}, logits);
    for (int64_t v = 0; v < config_.vocab; ++v) {
      EXPECT_NEAR(logits[static_cast<size_t>(v)],
                  logits_batch[static_cast<size_t>(seq * config_.vocab + v)], 1e-3)
          << "seq " << seq << " vocab " << v;
    }
  }
}

TEST_F(TransformerTest, PrefillAdvancesContext) {
  Transformer tf(dev_, weights_, 1, 16);
  std::vector<int> prompt{1, 2, 3, 4};
  tf.Prefill(0, prompt);
  EXPECT_EQ(tf.kv().length(0), 4);
}

TEST_F(TransformerTest, ChunkedPrefillMatchesTokenByToken) {
  // Causal chunked prefill must leave the model in the same state as decoding the prompt
  // token by token: the next-step logits agree.
  const std::vector<int> prompt{11, 402, 3, 77, 250, 9, 18};
  std::vector<float> logits_chunked(static_cast<size_t>(config_.vocab));
  std::vector<float> logits_stepwise(static_cast<size_t>(config_.vocab));
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 64);
    tf.Prefill(0, prompt);
    const int tok = 5;
    DecodeStep(tf, {&tok, 1}, logits_chunked);
  }
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 64);
    std::vector<float> scratch(static_cast<size_t>(config_.vocab));
    for (const int t : prompt) {
      DecodeStep(tf, {&t, 1}, scratch);
    }
    const int tok = 5;
    DecodeStep(tf, {&tok, 1}, logits_stepwise);
  }
  for (int64_t v = 0; v < config_.vocab; ++v) {
    EXPECT_NEAR(logits_chunked[static_cast<size_t>(v)],
                logits_stepwise[static_cast<size_t>(v)], 0.02)
        << v;
  }
}

TEST_F(TransformerTest, MultiChunkPrefillCrossesChunkBoundary) {
  // Prompts longer than one prefill chunk must still produce coherent state.
  const int len = hkern::kPrefillChunk + 8;
  std::vector<int> prompt(static_cast<size_t>(len));
  for (size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<int>((i * 13 + 7) % 512);
  }
  Transformer tf(dev_, weights_, 1, len + 32);
  tf.Prefill(0, prompt);
  EXPECT_EQ(tf.kv().length(0), len);
  std::vector<float> logits(static_cast<size_t>(config_.vocab));
  const int tok = 2;
  DecodeStep(tf, {&tok, 1}, logits);
  for (const float v : logits) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(TransformerTest, ContextChangesPrediction) {
  // The same input token after different prefixes must yield different logits (attention
  // actually reads the KV cache).
  std::vector<float> a(static_cast<size_t>(config_.vocab));
  std::vector<float> b(static_cast<size_t>(config_.vocab));
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<int> prompt{1, 2, 3};
    tf.Prefill(0, prompt);
    const int tok = 8;
    DecodeStep(tf, {&tok, 1}, a);
  }
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<int> prompt{400, 301, 77};
    tf.Prefill(0, prompt);
    const int tok = 8;
    DecodeStep(tf, {&tok, 1}, b);
  }
  double diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff += std::fabs(a[i] - b[i]);
  }
  EXPECT_GT(diff, 0.01);
}

TEST_F(TransformerTest, ChargesAllEngineCategories) {
  Transformer tf(dev_, weights_, 1, 16);
  std::vector<float> logits(static_cast<size_t>(config_.vocab));
  const int tok = 3;
  DecodeStep(tf, {&tok, 1}, logits);
  const auto& ledger = dev_.ledger();
  EXPECT_GT(ledger.TagSeconds("linear.dequant"), 0.0);
  EXPECT_GT(ledger.TagSeconds("gemm.hmx"), 0.0);
  EXPECT_GT(ledger.TagSeconds("attn.softmax"), 0.0);
  EXPECT_GT(ledger.TagSeconds("misc.rmsnorm"), 0.0);
  EXPECT_GT(ledger.TagSeconds("misc.silu"), 0.0);
}

// --- zero-copy decode hot path (docs/performance.md) ---

// Per-sequence contiguous K/V history for the gather-style reference decode.
struct GatherSeq {
  std::vector<std::vector<F16>> k;  // [layer] -> [len * kv_dim] rows
  std::vector<std::vector<F16>> v;

  explicit GatherSeq(int layers) : k(static_cast<size_t>(layers)), v(static_cast<size_t>(layers)) {}
};

// One decode step in the pre-zero-copy style: heap scratch, per-KV-head gather of K/V into
// contiguous buffers consumed by the contiguous FlashAttentionF16, theta_base RoPE, and
// the all-F16 lm_head. The production Step (in-place paged attention, persistent
// workspace, dequant-once replay, blocked FP32 lm_head) must match this bit-for-bit in
// logits AND in every simulated charge.
void GatherReferenceStep(hexsim::NpuDevice& dev, const hkern::ExpLut& lut,
                         const ModelWeights& weights, std::span<const int> tokens,
                         std::span<GatherSeq* const> seqs, std::span<float> logits) {
  const ModelConfig& c = weights.config;
  const int batch = static_cast<int>(tokens.size());
  const int hidden = c.hidden;
  const int q_dim = static_cast<int>(c.q_dim());
  const int kv_dim = static_cast<int>(c.kv_dim());
  const int dh = c.head_dim;
  const int group = c.heads / c.kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  std::vector<F16> x(static_cast<size_t>(batch) * hidden);
  std::vector<F16> xn(static_cast<size_t>(batch) * hidden);
  std::vector<F16> q(static_cast<size_t>(batch) * q_dim);
  std::vector<F16> k(static_cast<size_t>(batch) * kv_dim);
  std::vector<F16> v(static_cast<size_t>(batch) * kv_dim);
  std::vector<F16> attn(static_cast<size_t>(batch) * q_dim);
  std::vector<F16> proj(static_cast<size_t>(batch) * hidden);
  std::vector<F16> gate(static_cast<size_t>(batch) * c.ffn_hidden);
  std::vector<F16> up(static_cast<size_t>(batch) * c.ffn_hidden);
  std::vector<F16> act(static_cast<size_t>(batch) * c.ffn_hidden);
  std::vector<F16> kbuf;
  std::vector<F16> vbuf;

  for (int b = 0; b < batch; ++b) {
    std::memcpy(x.data() + static_cast<int64_t>(b) * hidden,
                weights.embedding.data() +
                    static_cast<size_t>(tokens[static_cast<size_t>(b)]) * hidden,
                static_cast<size_t>(hidden) * 2);
  }

  for (int l = 0; l < c.layers; ++l) {
    const LayerWeights& lw = weights.layers[static_cast<size_t>(l)];
    hkern::RmsNormF16(dev, x.data(), lw.attn_norm.data(), xn.data(), batch, hidden,
                      c.rms_eps);
    lw.wq.Forward(dev, xn.data(), q.data(), batch);
    lw.wk.Forward(dev, xn.data(), k.data(), batch);
    lw.wv.Forward(dev, xn.data(), v.data(), batch);

    for (int b = 0; b < batch; ++b) {
      GatherSeq& s = *seqs[static_cast<size_t>(b)];
      const int pos = static_cast<int>(s.k[static_cast<size_t>(l)].size()) / kv_dim;
      hkern::RopeHeadsF16(dev, q.data() + static_cast<int64_t>(b) * q_dim, c.heads, dh, pos,
                          c.rope_theta);
      hkern::RopeHeadsF16(dev, k.data() + static_cast<int64_t>(b) * kv_dim, c.kv_heads, dh,
                          pos, c.rope_theta);
      s.k[static_cast<size_t>(l)].insert(s.k[static_cast<size_t>(l)].end(),
                                         k.begin() + static_cast<int64_t>(b) * kv_dim,
                                         k.begin() + static_cast<int64_t>(b + 1) * kv_dim);
      s.v[static_cast<size_t>(l)].insert(s.v[static_cast<size_t>(l)].end(),
                                         v.begin() + static_cast<int64_t>(b) * kv_dim,
                                         v.begin() + static_cast<int64_t>(b + 1) * kv_dim);
    }

    for (int b = 0; b < batch; ++b) {
      GatherSeq& s = *seqs[static_cast<size_t>(b)];
      const int kv_len = static_cast<int>(s.k[static_cast<size_t>(l)].size()) / kv_dim;
      kbuf.resize(static_cast<size_t>(kv_len) * dh);
      vbuf.resize(static_cast<size_t>(kv_len) * dh);
      for (int kvh = 0; kvh < c.kv_heads; ++kvh) {
        for (int p = 0; p < kv_len; ++p) {
          std::memcpy(kbuf.data() + static_cast<int64_t>(p) * dh,
                      s.k[static_cast<size_t>(l)].data() +
                          static_cast<int64_t>(p) * kv_dim + static_cast<int64_t>(kvh) * dh,
                      static_cast<size_t>(dh) * 2);
          std::memcpy(vbuf.data() + static_cast<int64_t>(p) * dh,
                      s.v[static_cast<size_t>(l)].data() +
                          static_cast<int64_t>(p) * kv_dim + static_cast<int64_t>(kvh) * dh,
                      static_cast<size_t>(dh) * 2);
        }
        // The GQA group's query heads are adjacent in q: one call stacks them as rows.
        const int64_t head0 = static_cast<int64_t>(b) * q_dim + kvh * group * dh;
        hkern::FlashAttentionF16(dev, lut, hkern::SoftmaxVariant::kLut, q.data() + head0,
                                 kbuf.data(), vbuf.data(), attn.data() + head0,
                                 /*q_len=*/group, kv_len, dh, scale);
      }
    }

    lw.wo.Forward(dev, attn.data(), proj.data(), batch);
    hkern::AddF16(dev, x.data(), proj.data(), x.data(), static_cast<int64_t>(batch) * hidden);
    hkern::RmsNormF16(dev, x.data(), lw.ffn_norm.data(), xn.data(), batch, hidden, c.rms_eps);
    lw.w_gate.Forward(dev, xn.data(), gate.data(), batch);
    lw.w_up.Forward(dev, xn.data(), up.data(), batch);
    hkern::SiluMulF16(dev, gate.data(), up.data(), act.data(),
                      static_cast<int64_t>(batch) * c.ffn_hidden);
    lw.w_down.Forward(dev, act.data(), proj.data(), batch);
    hkern::AddF16(dev, x.data(), proj.data(), x.data(), static_cast<int64_t>(batch) * hidden);
  }

  hkern::RmsNormF16(dev, x.data(), weights.final_norm.data(), xn.data(), batch, hidden,
                    c.rms_eps);
  hkern::LmHeadForward(xn.data(), weights.lm_head.data(), logits.data(), batch, hidden,
                       c.vocab);
}

// Attention DMA pinned to the staging rule: a scratch ledger the expected transfers were
// replayed through, and the number of attention calls that issued them.
struct AttnDmaPin {
  hexsim::CycleLedger ledger;
  int64_t calls = 0;
};

// Asserts the full simulated-activity profile of two devices is identical: every event
// count, DDR byte, per-unit instruction counter, and (same charges in the same order, so
// exactly equal) every busy-second total and tag. With pins, each device's attention DMA
// (DDR bytes, descriptors, DMA seconds and the dma tag) and attention call count instead
// equal its own pin, and everything else still matches between the two.
void ExpectSameCharges(const hexsim::NpuDevice& a, const hexsim::NpuDevice& b,
                       const AttnDmaPin* a_pin = nullptr, const AttnDmaPin* b_pin = nullptr) {
  auto a_counts = a.ledger().counts();
  auto b_counts = b.ledger().counts();
  if (a_pin != nullptr && b_pin != nullptr) {
    for (const auto& [dev, pin, counts] : {std::tuple{&a, a_pin, &a_counts},
                                           std::tuple{&b, b_pin, &b_counts}}) {
      EXPECT_EQ(counts->at("dma.descriptors"), pin->ledger.Count("dma.descriptors"));
      EXPECT_EQ(counts->at("kernel.flash_attention.calls"), pin->calls);
      counts->erase("dma.descriptors");
      counts->erase("kernel.flash_attention.calls");
      EXPECT_EQ(dev->ledger().dma_bytes(), pin->ledger.dma_bytes());
      EXPECT_DOUBLE_EQ(dev->ledger().EngineSeconds(hexsim::Engine::kDma),
                       pin->ledger.EngineSeconds(hexsim::Engine::kDma));
      EXPECT_DOUBLE_EQ(dev->ledger().TagSeconds("dma"), pin->ledger.TagSeconds("dma"));
    }
  } else {
    EXPECT_EQ(a.ledger().dma_bytes(), b.ledger().dma_bytes());
  }
  EXPECT_EQ(a_counts, b_counts);
  EXPECT_EQ(a.hmx().tile_ops(), b.hmx().tile_ops());
  EXPECT_EQ(a.hvx().packets(), b.hvx().packets());
  EXPECT_EQ(a.hvx().vgather_ops(), b.hvx().vgather_ops());
  EXPECT_EQ(a.hvx().vscatter_ops(), b.hvx().vscatter_ops());
  EXPECT_EQ(a.hvx().vlut16_ops(), b.hvx().vlut16_ops());
  for (int e = 0; e < static_cast<int>(hexsim::Engine::kCount); ++e) {
    const auto engine = static_cast<hexsim::Engine>(e);
    if (a_pin != nullptr && engine == hexsim::Engine::kDma) {
      continue;
    }
    EXPECT_DOUBLE_EQ(a.ledger().EngineSeconds(engine), b.ledger().EngineSeconds(engine))
        << hexsim::EngineName(engine);
  }
  const auto a_tags = a.ledger().tags();
  const auto b_tags = b.ledger().tags();
  ASSERT_EQ(a_tags.size(), b_tags.size());
  auto ib = b_tags.begin();
  for (const auto& [tag, seconds] : a_tags) {
    EXPECT_EQ(tag, ib->first);
    if (a_pin == nullptr || tag != "dma") {
      EXPECT_DOUBLE_EQ(seconds, ib->second) << tag;
    }
    ++ib;
  }
}

// Replays one decode step's attention DMA under the staging rule into `pin`, in kernel
// order, for sequences of `kv_lens` positions (under one 32-token block each, every
// sequence its own sharing cluster). Paged: one call per (layer, sequence) moves Q in per KV
// head, the block's K rows [0, 32) and V rows [0, kv_len) as one descriptor of whole rows,
// then O out per KV head. Gather reference: one FlashAttentionF16 call per (layer, sequence,
// KV head) moves Q, its separate K and V arrays with a descriptor each, then O.
void ReplayDecodeAttentionDma(const ModelConfig& c, std::span<const int> kv_lens, bool paged,
                              AttnDmaPin* pin) {
  hexsim::DmaEngine dma(hexsim::OnePlus12(), pin->ledger);
  const int group = c.heads / c.kv_heads;
  const int64_t head_bytes = static_cast<int64_t>(c.head_dim) * 2;
  const auto q_in = [&] {
    dma.Transfer2D(nullptr, head_bytes, nullptr, head_bytes, head_bytes, group,
                   hexsim::DmaDirection::kDdrToTcm);
  };
  const auto o_out = [&] {
    dma.Transfer2D(nullptr, head_bytes, nullptr, head_bytes, head_bytes, group,
                   hexsim::DmaDirection::kTcmToDdr);
  };
  for (int l = 0; l < c.layers; ++l) {
    for (const int kv_len : kv_lens) {
      if (paged) {
        const int64_t row_bytes = c.kv_dim() * 2;
        for (int kh = 0; kh < c.kv_heads; ++kh) {
          q_in();
        }
        dma.Transfer1D(nullptr, nullptr, (hkv::kDefaultBlockTokens + kv_len) * row_bytes,
                       hexsim::DmaDirection::kDdrToTcm);
        for (int kh = 0; kh < c.kv_heads; ++kh) {
          o_out();
        }
        ++pin->calls;
        continue;
      }
      for (int kh = 0; kh < c.kv_heads; ++kh) {
        q_in();
        for (int plane = 0; plane < 2; ++plane) {
          dma.Transfer1D(nullptr, nullptr, kv_len * head_bytes, hexsim::DmaDirection::kDdrToTcm);
        }
        o_out();
        ++pin->calls;
      }
    }
  }
}

TEST_F(TransformerTest, PagedAttentionMatchesGatherReference) {
  // Multi-layer, GQA (4 heads over 2 KV heads), with a copy-on-write fork mid-decode: the
  // in-place paged attention path must reproduce the gather-style reference decode down to
  // the last logit bit and the last simulated counter, except that each side's attention
  // DMA and call count follow the staging rule for its own KV layout.
  hexec::ParallelismOverride serial(1);
  const int64_t vocab = config_.vocab;

  hexsim::NpuDevice dev_ref(hexsim::OnePlus12());
  hkern::ExpLut ref_lut(dev_ref);
  GatherSeq ref0(config_.layers);
  GatherSeq ref1(config_.layers);

  Transformer tf(dev_, weights_, /*max_batch=*/2, /*max_context=*/16);
  std::vector<float> logits(2 * static_cast<size_t>(vocab));
  std::vector<float> ref_logits(2 * static_cast<size_t>(vocab));

  // Phase 1: three steps of sequence 0 alone.
  std::vector<int> tokens{7};
  std::vector<int> seq_ids{0};
  std::vector<GatherSeq*> ref_seqs{&ref0};
  AttnDmaPin paged_pin, ref_pin;
  for (int step = 0; step < 3; ++step) {
    const int kv_len[] = {step + 1};
    ReplayDecodeAttentionDma(config_, kv_len, /*paged=*/true, &paged_pin);
    ReplayDecodeAttentionDma(config_, kv_len, /*paged=*/false, &ref_pin);
    DecodeStep(tf, tokens, std::span<float>(logits.data(), static_cast<size_t>(vocab)), seq_ids);
    GatherReferenceStep(dev_ref, ref_lut, weights_, tokens, ref_seqs,
                        std::span<float>(ref_logits.data(), static_cast<size_t>(vocab)));
    ASSERT_EQ(std::memcmp(logits.data(), ref_logits.data(), sizeof(float) * vocab), 0)
        << "phase-1 step " << step;
    tokens[0] = ArgmaxToken(std::span<const float>(logits.data(), static_cast<size_t>(vocab)));
  }

  // Fork sequence 0 into sequence 1: paged cache shares the blocks copy-on-write, the
  // reference duplicates the history.
  const int64_t handle = tf.kv().Retain(0);
  tf.kv().ShareFromHandle(handle, /*dst_seq=*/1, tf.kv().handle_length(handle));
  tf.kv().DropHandle(handle);
  ASSERT_EQ(tf.kv().length(1), 3);
  ref1 = ref0;

  // Phase 2: the sequences diverge — the first write into the shared tail block must
  // CoW-split it, never perturbing sequence 0.
  tokens = {tokens[0], (tokens[0] + 11) % static_cast<int>(vocab)};
  seq_ids = {0, 1};
  ref_seqs = {&ref0, &ref1};
  for (int step = 0; step < 4; ++step) {
    const int kv_lens[] = {step + 4, step + 4};
    ReplayDecodeAttentionDma(config_, kv_lens, /*paged=*/true, &paged_pin);
    ReplayDecodeAttentionDma(config_, kv_lens, /*paged=*/false, &ref_pin);
    DecodeStep(tf, tokens, logits, seq_ids);
    GatherReferenceStep(dev_ref, ref_lut, weights_, tokens, ref_seqs, ref_logits);
    ASSERT_EQ(std::memcmp(logits.data(), ref_logits.data(), sizeof(float) * 2 * vocab), 0)
        << "phase-2 step " << step;
    for (int b = 0; b < 2; ++b) {
      tokens[static_cast<size_t>(b)] = ArgmaxToken(std::span<const float>(
          logits.data() + static_cast<int64_t>(b) * vocab, static_cast<size_t>(vocab)));
    }
  }
  EXPECT_GE(tf.kv().stats().cow_splits, 1);

  ExpectSameCharges(dev_, dev_ref, &paged_pin, &ref_pin);
}

// Prints a device's whole simulated-activity profile: ledger event counts, DDR bytes,
// per-unit instruction counters, and every engine and tag busy-second total in exact
// hexadecimal floating point (%a), so a string compare pins charges bit for bit.
std::string ChargeProfile(const hexsim::NpuDevice& dev) {
  std::string out;
  char line[256];
  for (const auto& [name, n] : dev.ledger().counts()) {
    std::snprintf(line, sizeof(line), "count %s %lld\n", name.c_str(),
                  static_cast<long long>(n));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "dma_bytes %lld\ntile_ops %lld\npackets %lld\nvgather %lld\nvscatter %lld\n"
                "vlut16 %lld\n",
                static_cast<long long>(dev.ledger().dma_bytes()),
                static_cast<long long>(dev.hmx().tile_ops()),
                static_cast<long long>(dev.hvx().packets()),
                static_cast<long long>(dev.hvx().vgather_ops()),
                static_cast<long long>(dev.hvx().vscatter_ops()),
                static_cast<long long>(dev.hvx().vlut16_ops()));
  out += line;
  for (int e = 0; e < static_cast<int>(hexsim::Engine::kCount); ++e) {
    const auto engine = static_cast<hexsim::Engine>(e);
    std::snprintf(line, sizeof(line), "engine %s %a\n", hexsim::EngineName(engine),
                  dev.ledger().EngineSeconds(engine));
    out += line;
  }
  for (const auto& [tag, seconds] : dev.ledger().tags()) {
    std::snprintf(line, sizeof(line), "tag %s %a\n", tag.c_str(), seconds);
    out += line;
  }
  return out;
}

// Any batch takes Forward's one path: x and y hold exactly m rows and one GEMM pads its own
// last strip. Cold and warm calls match a Forward over a zero-padded m_pad-row copy output
// for output and charge for charge; that padded run is what the staged path (live rows
// copied into an m_pad-row buffer, one whole-tile GEMM, live rows copied back) computed and
// charged. The digest over every output and charge profile was recorded from the staged
// path.
TEST(QuantizedLinearTest, AnyRowCountMatchesPaddedForwardColdAndWarm) {
  Rng rng(6);
  const int64_t k = 64, n = 96;
  std::vector<float> w(static_cast<size_t>(k * n));
  for (auto& v : w) {
    v = static_cast<float>(rng.NextGaussian() * 0.05);
  }
  uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a
  const auto mix = [&](const void* data, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      digest = (digest ^ static_cast<const uint8_t*>(data)[i]) * 0x100000001b3ull;
    }
  };
  for (const auto scheme : {hquant::WeightScheme::kQ4_0, hquant::WeightScheme::kQ8_0}) {
    for (const int m : {1, 17, 32, 33, 63}) {
      const int m_pad = static_cast<int>(hexllm::RoundUp(m, 32));
      // Separate instances: each owns its dequant cache, so both devices go cold then warm.
      const auto lin = QuantizedLinear::Create(w, k, n, scheme);
      const auto ref = QuantizedLinear::Create(w, k, n, scheme);
      hexsim::NpuDevice dev(hexsim::OnePlus12());
      hexsim::NpuDevice dev_ref(hexsim::OnePlus12());
      std::vector<F16> x(static_cast<size_t>(m) * k);
      for (auto& v : x) {
        v = F16(static_cast<float>(rng.NextGaussian() * 0.3));
      }
      std::vector<F16> x_pad(static_cast<size_t>(m_pad) * k);  // zero rows beyond m
      std::copy(x.begin(), x.end(), x_pad.begin());
      for (const char* pass : {"cold", "warm"}) {
        SCOPED_TRACE(testing::Message() << "scheme " << static_cast<int>(scheme) << " m " << m
                                        << " " << pass);
        std::vector<F16> y(static_cast<size_t>(m) * n);
        std::vector<F16> y_pad(static_cast<size_t>(m_pad) * n);
        lin.Forward(dev, x.data(), y.data(), m);
        ref.Forward(dev_ref, x_pad.data(), y_pad.data(), m_pad);
        EXPECT_EQ(std::memcmp(y.data(), y_pad.data(), y.size() * sizeof(F16)), 0);
        const std::string profile = ChargeProfile(dev);
        EXPECT_EQ(profile, ChargeProfile(dev_ref));
        mix(y.data(), y.size() * sizeof(F16));
        mix(profile.data(), profile.size());
      }
    }
  }
  EXPECT_EQ(digest, 0xde278bb6d7257a46ull);
}

// Recorded at one lane from the batched attention: one FlashAttentionBatch per sharing
// cluster (spans grouped by their first physical KV block) and layer over every KV head,
// each physical block a chunk reads staged once as whole rows. Against one call per
// (cluster, KV head) that staged each chunk instance per head in strided 2D descriptors:
// - DMA: descriptors 344 -> 222 and the DMA engine 1.22e-4 -> 7.30e-5 s (F16); bytes rise
//   619520 -> 651776 (F16), 388640 -> 405776 (INT8), 265504 -> 274576 (INT4), because a
//   partly filled block's one descriptor also moves the unused tail of its K plane.
// - Calls: flash_attention (and attn_kv_dequant) calls 80 -> 30.
// - Dequant: INT4/INT8 rows decode once per (staged block, KV head), and the fork shares
//   sequence 0's first block, so attn.kv_dequant and the INT4 vlut16 count fall.
// - attn.pack: sequence 0 and its fork now form one cluster, so their decode and verify
//   rows share q tiles: 20 fewer Q tiles, 320 fewer packets. Merged clusters also commit
//   their HVX/HMX work in one sum per head, which moves the HMX engine and the qk, pv,
//   rescale and normalize tags in the last bits (tile ops and packets of those are
//   unchanged).
// Verify argmaxes are unchanged.
constexpr const char* kForwardProfileF16 = R"(count dma.descriptors 214
count kernel.add.calls 28
count kernel.dequant_coalesced_lut.calls 84
count kernel.exp_lut.builds 1
count kernel.flash_attention.calls 24
count kernel.gemm_hmx.calls 98
count kernel.rmsnorm.calls 33
count kernel.rope.calls 1488
count kernel.silu_mul.calls 14
dma_bytes 586240
tile_ops 3328
packets 381562
vgather 1984
vscatter 0
vlut16 25088
engine HVX 0x1.33c448c1721cap-12
engine HMX 0x1.2fdc93e741383p-16
engine DMA 0x1.257c0dc599358p-14
engine CPU 0x0p+0
engine GPU 0x0p+0
tag attn.mask 0x1.916a0c5c9f2ap-21
tag attn.normalize 0x1.99ac7e64d937fp-20
tag attn.pack 0x1.35bbb4348121ap-18
tag attn.pv 0x1.473c5082e3c6bp-20
tag attn.qk 0x1.473c5082e3c6bp-20
tag attn.rescale 0x1.2ff39795254a8p-19
tag attn.softmax 0x1.e6131d30f23ebp-14
tag dma 0x1.257c0dc599358p-14
tag gemm.hmx 0x1.06f509d6e4bf6p-16
tag gemm.pack 0x0p+0
tag linear.dequant 0x1.090de0299a477p-13
tag misc.add 0x1.000bceff07c2ep-18
tag misc.rmsnorm 0x1.684c131877bf3p-16
tag misc.rope 0x1.cce20e3174617p-18
tag misc.silu 0x1.4cdc26b1f07dbp-17
verify_argmax 312 15 374 440 291 337 77 337 448
)";
constexpr const char* kForwardProfileInt4 = R"(count dma.descriptors 214
count kernel.add.calls 28
count kernel.attn_kv_dequant.calls 24
count kernel.dequant_coalesced_lut.calls 84
count kernel.exp_lut.builds 1
count kernel.flash_attention.calls 24
count kernel.gemm_hmx.calls 98
count kernel.rmsnorm.calls 33
count kernel.rope.calls 1488
count kernel.silu_mul.calls 14
dma_bytes 256144
tile_ops 3328
packets 393090
vgather 1984
vscatter 0
vlut16 27816
engine HVX 0x1.3d10afee4eacp-12
engine HMX 0x1.2fdc93e741383p-16
engine DMA 0x1.0e68c17aa1714p-14
engine CPU 0x0p+0
engine GPU 0x0p+0
tag attn.kv_dequant 0x1.298ce59b91e56p-17
tag attn.mask 0x1.916a0c5c9f2ap-21
tag attn.normalize 0x1.99ac7e64d937fp-20
tag attn.pack 0x1.35bbb4348121ap-18
tag attn.pv 0x1.473c5082e3c6bp-20
tag attn.qk 0x1.473c5082e3c6bp-20
tag attn.rescale 0x1.2ff39795254a8p-19
tag attn.softmax 0x1.e6131d30f23ebp-14
tag dma 0x1.0e68c17aa1714p-14
tag gemm.hmx 0x1.06f509d6e4bf6p-16
tag gemm.pack 0x0p+0
tag linear.dequant 0x1.090de0299a477p-13
tag misc.add 0x1.000bceff07c2ep-18
tag misc.rmsnorm 0x1.684c131877bf3p-16
tag misc.rope 0x1.cce20e3174617p-18
tag misc.silu 0x1.4cdc26b1f07dbp-17
verify_argmax 316 15 374 440 316 291 39 337 236
)";

constexpr const char* kForwardProfileInt8 = R"(count dma.descriptors 214
count kernel.add.calls 28
count kernel.attn_kv_dequant.calls 24
count kernel.dequant_coalesced_lut.calls 84
count kernel.exp_lut.builds 1
count kernel.flash_attention.calls 24
count kernel.gemm_hmx.calls 98
count kernel.rmsnorm.calls 33
count kernel.rope.calls 1488
count kernel.silu_mul.calls 14
dma_bytes 370960
tile_ops 3328
packets 389682
vgather 1984
vscatter 0
vlut16 25088
engine HVX 0x1.3a50f92df8265p-12
engine HMX 0x1.2fdc93e741383p-16
engine DMA 0x1.166f77d77d304p-14
engine CPU 0x0p+0
engine GPU 0x0p+0
tag attn.kv_dequant 0x1.a32c1b218262cp-18
tag attn.mask 0x1.916a0c5c9f2ap-21
tag attn.normalize 0x1.99ac7e64d937fp-20
tag attn.pack 0x1.35bbb4348121ap-18
tag attn.pv 0x1.473c5082e3c6bp-20
tag attn.qk 0x1.473c5082e3c6bp-20
tag attn.rescale 0x1.2ff39795254a8p-19
tag attn.softmax 0x1.e6131d30f23ebp-14
tag dma 0x1.166f77d77d304p-14
tag gemm.hmx 0x1.06f509d6e4bf6p-16
tag gemm.pack 0x0p+0
tag linear.dequant 0x1.090de0299a477p-13
tag misc.add 0x1.000bceff07c2ep-18
tag misc.rmsnorm 0x1.684c131877bf3p-16
tag misc.rope 0x1.cce20e3174617p-18
tag misc.silu 0x1.4cdc26b1f07dbp-17
verify_argmax 312 15 374 440 291 337 77 337 448
)";

// The fixed forward script behind ForwardChargeProfileIsPinned: prefills of 33 and 70
// tokens (one forward each, ending in a part-filled q tile), a copy-on-write fork of
// sequence 0, four decode steps at batch 3, and one speculative verify with spans
// {3, 1, 5}. Returns the charge profile followed by the argmax token of every verify row.
std::string ForwardScriptProfile(const ModelWeights& weights, hquant::KvDtype dtype) {
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  const int64_t vocab = weights.config.vocab;
  Transformer tf(dev, weights, /*max_batch=*/3, /*max_context=*/128, /*kv_pool_blocks=*/0,
                 dtype, /*max_step_rows=*/9);
  for (const auto& [seq, len] : {std::pair{0, 33}, std::pair{1, 70}}) {
    std::vector<int> prompt(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i) {
      prompt[static_cast<size_t>(i)] = (i * 37 + seq * 101 + 5) % static_cast<int>(vocab);
    }
    tf.Prefill(seq, prompt);
  }
  const int64_t handle = tf.kv().Retain(0);
  tf.kv().ShareFromHandle(handle, /*dst_seq=*/2, tf.kv().handle_length(handle));
  tf.kv().DropHandle(handle);

  std::vector<int> tokens{3, 9, 27};
  const std::vector<int> seqs{0, 1, 2};
  const std::vector<int> one_row_each{1, 1, 1};
  std::vector<float> logits(9 * static_cast<size_t>(vocab));
  for (int step = 0; step < 4; ++step) {
    tf.Forward({tokens, seqs, one_row_each,
                std::span<float>(logits.data(), 3 * static_cast<size_t>(vocab))});
    for (int b = 0; b < 3; ++b) {
      tokens[static_cast<size_t>(b)] = ArgmaxToken(std::span<const float>(
          logits.data() + b * vocab, static_cast<size_t>(vocab)));
    }
  }
  const std::vector<int> verify_tokens{tokens[0], 11, 12, tokens[1], tokens[2], 21, 22, 23, 24};
  const std::vector<int> span_rows{3, 1, 5};
  tf.Forward({verify_tokens, seqs, span_rows, logits});

  std::string out = ChargeProfile(dev) + "verify_argmax";
  for (int r = 0; r < 9; ++r) {
    out += ' ';
    out += std::to_string(ArgmaxToken(
        std::span<const float>(logits.data() + r * vocab, static_cast<size_t>(vocab))));
  }
  return out + "\n";
}

TEST_F(TransformerTest, ForwardChargeProfileIsPinned) {
  // Decode, prefill (incl. part-filled tail q tiles) and the multi-span verify keep
  // exactly their recorded charges and verify tokens at one lane.
  hexec::ParallelismOverride serial(1);
  const std::string f16 = ForwardScriptProfile(weights_, hquant::KvDtype::kF16);
  EXPECT_TRUE(f16 == kForwardProfileF16) << "F16 profile:\n" << f16;
  const std::string int8 = ForwardScriptProfile(weights_, hquant::KvDtype::kInt8);
  EXPECT_TRUE(int8 == kForwardProfileInt8) << "INT8 profile:\n" << int8;
  const std::string int4 = ForwardScriptProfile(weights_, hquant::KvDtype::kInt4);
  EXPECT_TRUE(int4 == kForwardProfileInt4) << "INT4 profile:\n" << int4;
}

TEST_F(TransformerTest, PrefillChunkingIsInvisibleToKv) {
  // One Prefill call (forwards of kPrefillChunk rows) against the same prompt fed as
  // 32-token Prefill slices: every stored K/V row is byte-equal and the next decode step's
  // logits are bit-equal, for every KV dtype, with and without a sink + window. Rows stack
  // into the same q tiles either way and every row keeps its KV chunk order, so only the
  // number of forwards moves: each layer matrix dequantizes once per chunk.
  const ModelConfig& c = config_;
  const int64_t vocab = c.vocab;
  const int bt = hkv::kDefaultBlockTokens;
  int q4_matrices = 0;
  for (const LayerWeights& lw : weights_.layers) {
    for (const QuantizedLinear* m : {&lw.wq, &lw.wk, &lw.wv, &lw.wo, &lw.w_gate, &lw.w_up,
                                     &lw.w_down}) {
      q4_matrices += m->scheme() == hquant::WeightScheme::kQ4_0 ? 1 : 0;
    }
  }
  ASSERT_GT(q4_matrices, 0);
  const int matrices = 7 * c.layers;
  constexpr int kMaxContext = 736;
  for (const hquant::KvDtype dtype :
       {hquant::KvDtype::kF16, hquant::KvDtype::kInt8, hquant::KvDtype::kInt4}) {
    for (const bool windowed : {false, true}) {
      for (const int n : {1, 31, 32, 33, 255, 256, 257, 700}) {
        SCOPED_TRACE(testing::Message() << hquant::KvDtypeName(dtype) << " windowed "
                                        << windowed << " n " << n);
        std::vector<int> prompt(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
          prompt[static_cast<size_t>(i)] = (i * 29 + 11) % static_cast<int>(vocab);
        }
        hexsim::NpuDevice dev_one(hexsim::OnePlus12());
        hexsim::NpuDevice dev_sliced(hexsim::OnePlus12());
        Transformer one(dev_one, weights_, 1, kMaxContext, 0, dtype);
        Transformer sliced(dev_sliced, weights_, 1, kMaxContext, 0, dtype);
        if (windowed) {
          hkern::AttnWindowSpec w;
          w.sink_blocks = 1;
          w.window_blocks = 2;
          one.SetAttentionWindow(w);
          sliced.SetAttentionWindow(w);
        }
        one.Prefill(0, prompt);
        for (int done = 0; done < n; done += hkern::kAttnQTile) {
          sliced.Prefill(0, std::span<const int>(prompt).subspan(
                                static_cast<size_t>(done),
                                static_cast<size_t>(std::min(hkern::kAttnQTile, n - done))));
        }
        const int64_t chunks = hexllm::CeilDiv(n, hkern::kPrefillChunk);
        const hexsim::CycleLedger& led = dev_one.ledger();
        EXPECT_EQ(led.Count("kernel.dequant_coalesced_lut.calls"), q4_matrices * chunks);
        EXPECT_EQ(led.Count("kernel.gemm_hmx.calls"), matrices * chunks);
        EXPECT_EQ(led.Count("kernel.flash_attention.calls"), c.layers * chunks);
        EXPECT_EQ(dev_sliced.ledger().Count("kernel.dequant_coalesced_lut.calls"),
                  q4_matrices * hexllm::CeilDiv(n, hkern::kAttnQTile));

        ASSERT_EQ(one.kv().length(0), n);
        ASSERT_EQ(sliced.kv().length(0), n);
        const int64_t row_bytes = one.kv().row_bytes();
        const int cap = one.kv().blocks_per_seq_capacity();
        std::vector<const uint8_t*> k1(static_cast<size_t>(cap)), v1(k1.size());
        std::vector<const uint8_t*> k2(k1.size()), v2(k1.size());
        for (int l = 0; l < c.layers; ++l) {
          one.kv().FillBlockPointers(l, 0, n, k1.data(), v1.data());
          sliced.kv().FillBlockPointers(l, 0, n, k2.data(), v2.data());
          for (int pos = 0; pos < n; ++pos) {
            const size_t b = static_cast<size_t>(pos / bt);
            const int64_t off = static_cast<int64_t>(pos % bt) * row_bytes;
            ASSERT_EQ(std::memcmp(k1[b] + off, k2[b] + off, static_cast<size_t>(row_bytes)), 0)
                << "K layer " << l << " pos " << pos;
            ASSERT_EQ(std::memcmp(v1[b] + off, v2[b] + off, static_cast<size_t>(row_bytes)), 0)
                << "V layer " << l << " pos " << pos;
          }
        }
        std::vector<float> lo(static_cast<size_t>(vocab)), ls(lo.size());
        const int tok = 5;
        DecodeStep(one, {&tok, 1}, lo);
        DecodeStep(sliced, {&tok, 1}, ls);
        ASSERT_EQ(std::memcmp(lo.data(), ls.data(), lo.size() * sizeof(float)), 0);
      }
    }
  }
}

TEST_F(TransformerTest, ShortSharedPromptStagesEachBlockOnce) {
  // A Best-of-8 over a 32-token shared prompt: the siblings map one physical prompt block,
  // so every decode step is one sharing cluster (one attention call per layer) that stages
  // the prompt block once per layer plus each sibling's private tail block. Its DDR traffic
  // is strictly below that of 8 independent requests with the same prompt, and every
  // sibling's logits equal that sibling served alone.
  hexec::ParallelismOverride serial(1);
  constexpr int kN = 8;
  constexpr int kSteps = 4;
  const ModelConfig& c = config_;
  const int64_t vocab = c.vocab;
  const int bt = hkv::kDefaultBlockTokens;
  std::vector<int> prompt(32);
  for (int i = 0; i < 32; ++i) {
    prompt[static_cast<size_t>(i)] = (i * 13 + 5) % static_cast<int>(vocab);
  }
  std::vector<int> first_tokens(kN);
  for (int b = 0; b < kN; ++b) {
    first_tokens[static_cast<size_t>(b)] = b * 41 + 3;
  }
  // Decodes kSteps steps of `seqs` from first_tokens, greedily; returns every step's
  // logits. Measures the decode steps' DMA bytes, descriptors and attention calls.
  struct Decoded {
    std::vector<float> logits;
    int64_t dma_bytes = 0;
    int64_t descriptors = 0;
    int64_t calls = 0;
  };
  const auto decode = [&](hexsim::NpuDevice& dev, Transformer& tf, std::span<const int> seqs,
                          std::span<const int> first) {
    Decoded out;
    const size_t n = seqs.size();
    std::vector<int> tokens(first.begin(), first.end());
    std::vector<float> logits(n * static_cast<size_t>(vocab));
    const int64_t dma0 = dev.ledger().dma_bytes();
    const int64_t desc0 = dev.ledger().Count("dma.descriptors");
    const int64_t calls0 = dev.ledger().Count("kernel.flash_attention.calls");
    for (int step = 0; step < kSteps; ++step) {
      DecodeStep(tf, tokens, logits, seqs);
      out.logits.insert(out.logits.end(), logits.begin(), logits.end());
      for (size_t b = 0; b < n; ++b) {
        tokens[b] = ArgmaxToken(std::span<const float>(logits.data() + b * vocab,
                                                       static_cast<size_t>(vocab)));
      }
    }
    out.dma_bytes = dev.ledger().dma_bytes() - dma0;
    out.descriptors = dev.ledger().Count("dma.descriptors") - desc0;
    out.calls = dev.ledger().Count("kernel.flash_attention.calls") - calls0;
    return out;
  };
  std::vector<int> seqs(kN);
  std::iota(seqs.begin(), seqs.end(), 0);

  hexsim::NpuDevice shared_dev(hexsim::OnePlus12());
  Transformer shared(shared_dev, weights_, kN, /*max_context=*/64);
  shared.Prefill(0, prompt);
  const int64_t handle = shared.kv().Retain(0);
  for (int b = 1; b < kN; ++b) {
    shared.kv().ShareFromHandle(handle, b, shared.kv().handle_length(handle));
  }
  shared.kv().DropHandle(handle);
  const Decoded grouped = decode(shared_dev, shared, seqs, first_tokens);

  hexsim::NpuDevice solo_dev(hexsim::OnePlus12());
  Transformer solo(solo_dev, weights_, kN, /*max_context=*/64);
  for (int b = 0; b < kN; ++b) {
    solo.Prefill(b, prompt);
  }
  const Decoded independent = decode(solo_dev, solo, seqs, first_tokens);

  // One cluster: one call per layer and step, against one per request and layer.
  EXPECT_EQ(grouped.calls, kSteps * c.layers);
  EXPECT_EQ(independent.calls, kSteps * kN * c.layers);
  // Per layer and step: the prompt block (32 K rows and 32 V rows) once, each sibling's
  // tail block (32 K rows and the step's V rows) once, one descriptor each, and Q in / O out
  // in one 16-row q tile per KV head.
  const int64_t row_bytes = shared.kv().row_bytes();
  const int64_t head_bytes = static_cast<int64_t>(c.head_dim) * 2;
  int64_t bytes = 0;
  for (int step = 0; step < kSteps; ++step) {
    bytes += c.layers * ((2 * bt * row_bytes) + kN * (bt + step + 1) * row_bytes +
                         2 * kN * c.heads * head_bytes);
  }
  EXPECT_EQ(grouped.dma_bytes, bytes);
  EXPECT_EQ(grouped.descriptors, kSteps * c.layers * (1 + kN + 2 * c.kv_heads));
  EXPECT_LT(grouped.dma_bytes, independent.dma_bytes);

  ASSERT_EQ(grouped.logits.size(), independent.logits.size());
  EXPECT_EQ(std::memcmp(grouped.logits.data(), independent.logits.data(),
                        grouped.logits.size() * sizeof(float)),
            0);
  for (int b = 0; b < kN; ++b) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer alone(dev, weights_, 1, /*max_context=*/64);
    alone.Prefill(0, prompt);
    const int seq = 0;
    const Decoded one = decode(dev, alone, std::span<const int>(&seq, 1),
                               std::span<const int>(&first_tokens[static_cast<size_t>(b)], 1));
    for (int step = 0; step < kSteps; ++step) {
      EXPECT_EQ(std::memcmp(one.logits.data() + step * vocab,
                            grouped.logits.data() + (step * kN + b) * vocab,
                            static_cast<size_t>(vocab) * sizeof(float)),
                0)
          << "sibling " << b << " step " << step;
    }
  }
}

TEST_F(TransformerTest, GroupedWindowedAttentionMatchesPerHeadCalls) {
  // Three forked sequences (a 200-token shared prompt, then private prefills of different
  // lengths) under a 1-sink + 2-block window. One transformer offloads every evictable
  // block outside the attended set after each call; its twin keeps every block resident.
  // End to end, decode, a prefill chunk and a multi-span verify give bit-equal logits. At
  // the kernel, one FlashAttentionBatch over every KV head of the offloaded cache matches
  // per-head one-span FlashAttentionBatch calls over the resident one bit for bit, and its
  // staging DMA is exactly the AppendAttendedBlocks set, with blocks the spans share staged
  // once.
  const ModelConfig& c = config_;
  const int64_t vocab = c.vocab;
  const int dh = c.head_dim;
  const int group = c.heads / c.kv_heads;
  hkern::AttnWindowSpec window;
  window.sink_blocks = 1;
  window.window_blocks = 2;
  hexsim::NpuDevice dev_off(hexsim::OnePlus12());
  hexsim::NpuDevice dev_ref(hexsim::OnePlus12());
  Transformer off(dev_off, weights_, /*max_batch=*/3, /*max_context=*/512, 0,
                  hquant::KvDtype::kF16, /*max_step_rows=*/8);
  Transformer ref(dev_ref, weights_, 3, 512, 0, hquant::KvDtype::kF16, 8);
  hkv::KvOffloadOptions opts;
  opts.resident_block_budget = 4;
  off.kv().ConfigureOffload(opts);
  for (Transformer* tf : {&off, &ref}) {
    tf->SetAttentionWindow(window);
  }
  const auto demote = [&] { off.kv().offload()->EnforceBudget(); };
  const auto prompt = [&](int seq, int len) {
    std::vector<int> t(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i) {
      t[static_cast<size_t>(i)] = (i * 31 + seq * 7 + 3) % static_cast<int>(vocab);
    }
    return t;
  };
  for (Transformer* tf : {&off, &ref}) {
    tf->Prefill(0, prompt(0, 200));
    const int64_t handle = tf->kv().Retain(0);
    for (const int seq : {1, 2}) {
      tf->kv().ShareFromHandle(handle, seq, tf->kv().handle_length(handle));
    }
    tf->kv().DropHandle(handle);
  }
  for (const auto& [seq, len] : {std::pair{0, 150}, std::pair{1, 140}, std::pair{2, 160}}) {
    off.Prefill(seq, prompt(seq + 3, len));
    ref.Prefill(seq, prompt(seq + 3, len));
    demote();
  }
  ASSERT_GT(off.kv().offload()->stats().demotions, 0);

  const std::vector<int> seqs{0, 1, 2};
  const std::vector<int> one_row_each{1, 1, 1};
  std::vector<float> lo(8 * static_cast<size_t>(vocab)), lr(lo.size());
  std::vector<int> tokens{5, 6, 7};
  for (int step = 0; step < 2; ++step) {  // GQA-grouped decode at batch 3
    off.Forward({tokens, seqs, one_row_each,
                 std::span<float>(lo.data(), 3 * static_cast<size_t>(vocab))});
    ref.Forward({tokens, seqs, one_row_each,
                 std::span<float>(lr.data(), 3 * static_cast<size_t>(vocab))});
    demote();
    ASSERT_EQ(std::memcmp(lo.data(), lr.data(), 3 * vocab * sizeof(float)), 0) << step;
    for (int b = 0; b < 3; ++b) {
      tokens[static_cast<size_t>(b)] = ArgmaxToken(std::span<const float>(
          lo.data() + b * vocab, static_cast<size_t>(vocab)));
    }
  }
  off.Prefill(1, prompt(9, 5));  // one 5-row prefill chunk
  ref.Prefill(1, prompt(9, 5));
  demote();
  const std::vector<int> verify_tokens{tokens[0], 11, 12, tokens[1], tokens[2], 21};
  const std::vector<int> verify_rows{3, 1, 2};
  off.Forward({verify_tokens, seqs, verify_rows, std::span<float>(lo.data(), 6 * vocab)});
  ref.Forward({verify_tokens, seqs, verify_rows, std::span<float>(lr.data(), 6 * vocab)});
  demote();
  ASSERT_EQ(std::memcmp(lo.data(), lr.data(), 6 * vocab * sizeof(float)), 0);

  // Kernel level, over the final caches: decode rows of every span, a 5-row prefill chunk
  // of sequence 1, and verify spans of 3, 1 and 2 rows.
  const int bt = off.kv().block_tokens();
  const int cap = off.kv().blocks_per_seq_capacity();
  hkern::ExpLut lut_off(dev_off);
  hkern::ExpLut lut_ref(dev_ref);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  hexllm::Rng rng(17);
  const std::vector<std::vector<int>> shapes{{1, 1, 1}, {0, 5, 0}, {3, 1, 2}};
  for (const auto& span_rows : shapes) {
    for (int l = 0; l < c.layers; ++l) {
      // Rows [row0[s], row0[s] + n) of span s, each with every query head.
      std::vector<int> row0;
      int total = 0;
      for (const int n : span_rows) {
        row0.push_back(total);
        total += n;
      }
      std::vector<F16> q(static_cast<size_t>(total) * c.heads * dh);
      for (auto& x : q) {
        x = F16(static_cast<float>(rng.NextGaussian()));
      }
      std::vector<F16> o_grouped(q.size()), o_heads(q.size());
      std::vector<std::vector<const uint8_t*>> kb(3, std::vector<const uint8_t*>(cap));
      std::vector<std::vector<const uint8_t*>> vb(kb);
      demote();
      // Staged bytes the attended sets imply: each distinct physical block once, with the
      // rows its longest reader needs, as whole rows (every KV head). V follows the block's K
      // plane in the cache, so one descriptor moves K rows [0, bt) and the V rows it needs.
      std::vector<std::pair<const uint8_t*, int>> blocks;  // (K base, rows)
      for (int s = 0; s < 3; ++s) {
        const int n = span_rows[static_cast<size_t>(s)];
        const int len = off.kv().length(s);
        if (n == 0) {
          continue;
        }
        std::vector<int> attended;
        hkern::AppendAttendedBlocks(&off.attention_window(), len - n, len - 1, len, bt,
                                    &attended);
        off.kv().EnsureResidentTableBlocks(s, attended);
        off.kv().FillBlockPointers(l, s, len, kb[static_cast<size_t>(s)].data(),
                                   vb[static_cast<size_t>(s)].data());
        for (const int b : attended) {
          const uint8_t* base = kb[static_cast<size_t>(s)][static_cast<size_t>(b)];
          ASSERT_EQ(vb[static_cast<size_t>(s)][static_cast<size_t>(b)],
                    base + bt * off.kv().row_bytes());
          const int need = std::min(bt, len - b * bt);
          const auto it = std::find_if(blocks.begin(), blocks.end(),
                                       [&](const auto& e) { return e.first == base; });
          if (it == blocks.end()) {
            blocks.emplace_back(base, need);
          } else {
            it->second = std::max(it->second, need);
          }
        }
      }
      int64_t staged_bytes = 0;
      for (const auto& [base, need] : blocks) {
        staged_bytes += (bt + need) * off.kv().row_bytes();
      }
      // One call for every KV head: rows KV-head-major, then span, token and query head.
      std::vector<hkern::AttnKvSpan> spans;
      std::vector<hkern::AttnQueryRow> rows;
      for (int s = 0; s < 3; ++s) {
        if (span_rows[static_cast<size_t>(s)] == 0) {
          continue;
        }
        hkern::AttnKvSpan& span = spans.emplace_back();
        span.kv.k_blocks = kb[static_cast<size_t>(s)].data();
        span.kv.v_blocks = vb[static_cast<size_t>(s)].data();
        span.kv.block_tokens = bt;
        span.kv.row = off.kv().row_codec();
        span.kv.v_follows_k = true;
        span.kv_len = off.kv().length(s);
      }
      for (int kh = 0; kh < c.kv_heads; ++kh) {
        int span_index = 0;
        for (int s = 0; s < 3; ++s) {
          const int n = span_rows[static_cast<size_t>(s)];
          const int len = off.kv().length(s);
          if (n == 0) {
            continue;
          }
          for (int r = 0; r < n; ++r) {
            for (int h = kh * group; h < (kh + 1) * group; ++h) {
              const int64_t at =
                  (static_cast<int64_t>(row0[static_cast<size_t>(s)] + r) * c.heads + h) * dh;
              rows.push_back({q.data() + at, o_grouped.data() + at, len - n + r, span_index, kh});
            }
          }
          ++span_index;
        }
      }
      const int64_t dma0 = dev_off.ledger().dma_bytes();
      hkern::FlashAttentionBatch(dev_off, lut_off, hkern::SoftmaxVariant::kLut, spans, rows, dh,
                                 scale, &off.attention_window());
      EXPECT_EQ(dev_off.ledger().dma_bytes() - dma0,
                staged_bytes + 2 * static_cast<int64_t>(rows.size()) * dh * 2)
          << "shape " << span_rows[0] << span_rows[1] << span_rows[2] << " layer " << l;
      for (int s = 0; s < 3; ++s) {
        const int n = span_rows[static_cast<size_t>(s)];
        const int len = ref.kv().length(s);
        if (n == 0) {
          continue;
        }
        std::vector<const uint8_t*> rk(static_cast<size_t>(cap)), rv(rk.size());
        ref.kv().FillBlockPointers(l, s, len, rk.data(), rv.data());
        hkern::AttnKvSpan span;
        span.kv.k_blocks = rk.data();
        span.kv.v_blocks = rv.data();
        span.kv.block_tokens = bt;
        span.kv.row = ref.kv().row_codec();
        span.kv_len = len;
        for (int h = 0; h < c.heads; ++h) {
          std::vector<hkern::AttnQueryRow> head_rows;
          for (int r = 0; r < n; ++r) {
            const int64_t at =
                (static_cast<int64_t>(row0[static_cast<size_t>(s)] + r) * c.heads + h) * dh;
            head_rows.push_back({q.data() + at, o_heads.data() + at, len - n + r, 0, h / group});
          }
          hkern::FlashAttentionBatch(dev_ref, lut_ref, hkern::SoftmaxVariant::kLut, {&span, 1},
                                     head_rows, dh, scale, &ref.attention_window());
        }
      }
      for (size_t e = 0; e < q.size(); ++e) {
        ASSERT_EQ(o_grouped[e].bits(), o_heads[e].bits())
            << "shape " << span_rows[0] << span_rows[1] << span_rows[2] << " layer " << l
            << " element " << e;
      }
    }
  }
}

TEST_F(TransformerTest, HvxPacketsCountCommittedWork) {
  // hvx().packets() (exported as hexsim.hvx.packets) counts exactly the packets committed
  // as HVX busy time: a cold and a warm weight cache commit the same count, 1 and 4 lanes
  // commit the same count, and the HVX busy seconds equal PacketsToSeconds of the count.
  const int64_t vocab = config_.vocab;
  const auto run = [&](int lanes) {
    hexec::ParallelismOverride pin(lanes);
    auto dev = std::make_unique<hexsim::NpuDevice>(hexsim::OnePlus12());
    Transformer tf(*dev, weights_, /*max_batch=*/3, /*max_context=*/64, 0,
                   hquant::KvDtype::kInt4, /*max_step_rows=*/6);
    std::vector<int> prompt(40);
    for (int i = 0; i < 40; ++i) {
      prompt[static_cast<size_t>(i)] = (i * 13 + 1) % static_cast<int>(vocab);
    }
    for (int seq = 0; seq < 3; ++seq) {
      tf.Prefill(seq, std::span<const int>(prompt.data(), static_cast<size_t>(30 + seq)));
    }
    std::vector<float> logits(6 * static_cast<size_t>(vocab));
    const std::vector<int> seqs{0, 1, 2};
    const std::vector<int> decode_tokens{3, 4, 5}, one_row_each{1, 1, 1};
    const std::vector<int> verify_tokens{6, 7, 8, 9, 10, 11}, verify_rows{2, 1, 3};
    tf.Forward({decode_tokens, seqs, one_row_each, std::span<float>(logits.data(), 3 * vocab)});
    tf.Forward({verify_tokens, seqs, verify_rows, logits});
    return dev;
  };
  const auto cold = run(1);
  const auto warm = run(1);
  const auto lanes4 = run(4);
  EXPECT_GT(cold->hvx().packets(), 0);
  EXPECT_EQ(cold->hvx().packets(), warm->hvx().packets());
  EXPECT_EQ(cold->hvx().packets(), lanes4->hvx().packets());
  for (const hexsim::NpuDevice* dev : {cold.get(), warm.get(), lanes4.get()}) {
    const double busy = dev->ledger().EngineSeconds(hexsim::Engine::kHvx);
    EXPECT_NEAR(busy, dev->hvx().PacketsToSeconds(dev->hvx().packets()), busy * 1e-9);
  }
}

TEST_F(TransformerTest, WeightCacheReplayParity) {
  // Dequant-once cache replay and its FP32 tile shadow must be invisible to the simulation:
  // identical logits, decoded tokens, and charge profile whether a run starts on freshly
  // built weights (each matrix's first Forward runs the LUT dequant and fills the cache) or
  // on weights a previous run already warmed (every Forward replays). The shapes cover a
  // batch-1 decode (one live row per strip), a 33-row forward (a full strip plus a one-row
  // strip) and a batch-3 decode (a partial strip), over Q4_0 and Q8_0 weights.
  hexec::ParallelismOverride serial(1);
  const int64_t vocab = config_.vocab;
  constexpr int kRuns = 2;  // cold (fresh weights), warm (the same weights again)
  constexpr int kPrefillRows = 33;
  const ModelWeights weights = ModelWeights::Random(config_, 42);

  std::vector<std::vector<float>> logits_runs[kRuns];
  std::vector<int> token_runs[kRuns];
  std::unique_ptr<hexsim::NpuDevice> devs[kRuns];
  for (int run = 0; run < kRuns; ++run) {
    devs[run] = std::make_unique<hexsim::NpuDevice>(hexsim::OnePlus12());
    Transformer tf(*devs[run], weights, /*max_batch=*/3, /*max_context=*/64, 0,
                   hquant::KvDtype::kF16, /*max_step_rows=*/kPrefillRows);
    const auto record = [&](std::span<const float> logits) {
      logits_runs[run].emplace_back(logits.begin(), logits.end());
      for (size_t r = 0; r * vocab < logits.size(); ++r) {
        token_runs[run].push_back(ArgmaxToken(logits.subspan(r * vocab, vocab)));
      }
    };
    std::vector<float> logits(static_cast<size_t>(kPrefillRows * vocab));
    int tok = 3;
    for (int i = 0; i < 5; ++i) {
      DecodeStep(tf, {&tok, 1}, std::span<float>(logits.data(), vocab));
      record(std::span<const float>(logits.data(), vocab));
      tok = token_runs[run].back();
    }
    std::vector<int> prompt(kPrefillRows);
    for (int i = 0; i < kPrefillRows; ++i) {
      prompt[static_cast<size_t>(i)] = (i * 29 + 7) % static_cast<int>(vocab);
    }
    const std::vector<int> seqs{0, 1, 2};
    const std::vector<int> eleven_rows_each{11, 11, 11};
    tf.Forward({prompt, seqs, eleven_rows_each, logits});
    record(logits);
    std::vector<int> tokens{5, 9, 14};
    for (int i = 0; i < 4; ++i) {
      DecodeStep(tf, tokens, std::span<float>(logits.data(), 3 * vocab), seqs);
      record(std::span<const float>(logits.data(), 3 * vocab));
      std::copy(token_runs[run].end() - 3, token_runs[run].end(), tokens.begin());
    }
  }

  EXPECT_GT(devs[0]->ledger().Count("kernel.dequant_coalesced_lut.calls"), 0);
  EXPECT_GT(devs[0]->hvx().vlut16_ops(), 0);
  EXPECT_EQ(token_runs[0], token_runs[1]);
  ASSERT_EQ(logits_runs[0].size(), logits_runs[1].size());
  for (size_t i = 0; i < logits_runs[0].size(); ++i) {
    ASSERT_EQ(logits_runs[0][i].size(), logits_runs[1][i].size());
    EXPECT_EQ(std::memcmp(logits_runs[0][i].data(), logits_runs[1][i].data(),
                          sizeof(float) * logits_runs[0][i].size()),
              0)
        << "call " << i;
  }
  ExpectSameCharges(*devs[0], *devs[1]);
}

TEST_F(TransformerTest, SteadyStateDecodeDoesNotHeapAllocate) {
  // The zero-alloc contract (docs/performance.md): after warmup (workspace sized, weight
  // caches filled, shard devices created), a decode step performs no heap allocation at
  // all — counted through the binary-wide operator new replacements above. Four lanes add
  // a shard-ledger merge after every region, which must allocate nothing either. Tokens are
  // sampled as perfbench samples them (temperature 0.8, top-k 8), so the sampler's
  // selection path is inside the contract too.
  SamplerOptions opts;
  opts.temperature = 0.8f;
  opts.top_k = 8;
  for (const int lanes : {1, 4}) {
    SCOPED_TRACE(lanes);
    hexec::ParallelismOverride pin(lanes);
    Transformer tf(dev_, weights_, /*max_batch=*/2, /*max_context=*/64);
    Rng rng(7);
    std::vector<int> tokens{3, 5};
    std::vector<float> logits(2 * static_cast<size_t>(config_.vocab));
    for (int i = 0; i < 3; ++i) {
      DecodeStep(tf, tokens, logits);
    }
    const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 5; ++i) {
      DecodeStep(tf, tokens, logits);
      for (int b = 0; b < 2; ++b) {
        tokens[static_cast<size_t>(b)] = SampleToken(
            std::span<const float>(logits.data() + static_cast<int64_t>(b) * config_.vocab,
                                   static_cast<size_t>(config_.vocab)),
            opts, rng);
      }
    }
    EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0);
  }
}

TEST_F(TransformerTest, ExpLutBuildsOncePerModelAtFourLanes) {
  // Each lane shard holds its own copy of the exp table in its own TCM, but the copies are
  // not builds: kernel.exp_lut.builds counts the model's one table at any lane count.
  hexec::ParallelismOverride pin(4);
  Transformer tf(dev_, weights_, /*max_batch=*/4, /*max_context=*/32);
  std::vector<int> tokens{3, 5, 7, 9};
  std::vector<float> logits(4 * static_cast<size_t>(config_.vocab));
  for (int i = 0; i < 3; ++i) {
    DecodeStep(tf, tokens, logits);
  }
  EXPECT_EQ(dev_.ledger().Count("kernel.exp_lut.builds"), 1);
}

TEST(ParallelForAllocTest, RegionsDoNotHeapAllocate) {
  // Forking and joining a region allocates nothing, whether the slots fan out over pool
  // workers or run inline because the pool has fewer lanes than the override asks for.
  hexec::ParallelismOverride lanes(4);
  std::atomic<int64_t> covered{0};
  auto body = [&covered](int64_t begin, int64_t end, int) {
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  };
  hexec::ParallelFor(64, body);  // warm-up: starts the pool's workers
  const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    hexec::ParallelFor(64, body);
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0);
  EXPECT_EQ(covered.load(), 101 * 64);
}

TEST_F(TransformerTest, WorkspaceBytesGaugeExported) {
  // The serving backend publishes the step-arena high watermark as exec.workspace.bytes
  // (docs/metrics_schema.md).
  hserve::FunctionalBackend backend(dev_, weights_, /*max_batch=*/2, /*max_context=*/16);
  std::vector<float> logits(static_cast<size_t>(config_.vocab));
  const int tok = 3;
  DecodeStep(backend.transformer(), {&tok, 1}, logits);

  obs::Registry registry;
  backend.ExportMetrics(registry);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  bool found = false;
  const double bytes = snap.GaugeValue("exec.workspace.bytes", {}, &found);
  EXPECT_TRUE(found);
  EXPECT_GT(bytes, 0.0);
  EXPECT_EQ(bytes,
            static_cast<double>(backend.transformer().workspace().high_watermark()));
}

// --- sampling ---

TEST(SamplingTest, GreedyPicksArgmax) {
  std::vector<float> logits{0.1f, 2.0f, -1.0f, 1.9f};
  EXPECT_EQ(ArgmaxToken(logits), 1);
  Rng rng(1);
  SamplerOptions opts;
  opts.temperature = 0.0f;
  EXPECT_EQ(SampleToken(logits, opts, rng), 1);
}

TEST(SamplingTest, TemperatureSamplingFollowsDistribution) {
  std::vector<float> logits{std::log(0.7f), std::log(0.2f), std::log(0.1f)};
  Rng rng(2);
  SamplerOptions opts;
  opts.temperature = 1.0f;
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[SampleToken(logits, opts, rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.02);
}

TEST(SamplingTest, TopKRestrictsSupport) {
  std::vector<float> logits{5.0f, 4.0f, -10.0f, 3.0f};
  Rng rng(3);
  SamplerOptions opts;
  opts.temperature = 2.0f;
  opts.top_k = 2;
  for (int i = 0; i < 500; ++i) {
    const int t = SampleToken(logits, opts, rng);
    EXPECT_TRUE(t == 0 || t == 1) << t;
  }
}

// The sampler without the top-k selection path: every candidate sorted by logit, then the
// first k kept.
int ReferenceSampleToken(std::span<const float> logits, const SamplerOptions& opts, hexllm::Rng& rng) {
  HEXLLM_CHECK(!logits.empty());
  if (opts.temperature <= 0.0f) {
    return ArgmaxToken(logits);
  }

  // Candidate set, ordered by logit descending if top-k truncation is active.
  std::vector<int> idx(logits.size());
  std::iota(idx.begin(), idx.end(), 0);
  if (opts.top_k > 0 && opts.top_k < static_cast<int>(logits.size())) {
    std::sort(idx.begin(), idx.end(),
              [&](int a, int b) { return logits[static_cast<size_t>(a)] > logits[static_cast<size_t>(b)]; });
    idx.resize(static_cast<size_t>(opts.top_k));
  }

  // Softmax over candidates at the given temperature.
  double max_logit = -1e30;
  for (int i : idx) {
    max_logit = std::max(max_logit, static_cast<double>(logits[static_cast<size_t>(i)]));
  }
  std::vector<double> p(idx.size());
  double sum = 0.0;
  for (size_t j = 0; j < idx.size(); ++j) {
    p[j] = std::exp((logits[static_cast<size_t>(idx[j])] - max_logit) / opts.temperature);
    sum += p[j];
  }
  for (auto& v : p) {
    v /= sum;
  }

  double r = rng.NextDouble();
  for (size_t j = 0; j < p.size(); ++j) {
    r -= p[j];
    if (r <= 0.0) {
      return idx[j];
    }
  }
  return idx.back();
}


// Draws one logit row with distinct values, then injects the tie `mode` names relative to
// the k-th largest: 0 none, 1 the top two (inside the top k for k >= 2), 2 at the k
// boundary, 3 below it, 4 a +0/-0 pair at the boundary, 5 a +0/-0 pair at the top, 6 an
// exact zero k-th with no injected tie. NaN is left out: the reference's comparator is no
// strict weak order over it.
std::vector<float> TiedLogits(Rng& rng, int vocab, int k, int mode) {
  std::vector<float> logits(static_cast<size_t>(vocab));
  for (auto& v : logits) {
    v = static_cast<float>(3.0 * rng.NextGaussian());
  }
  std::vector<int> order(static_cast<size_t>(vocab));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return logits[static_cast<size_t>(a)] > logits[static_cast<size_t>(b)];
  });
  const auto at = [&](int rank) -> float& {
    return logits[static_cast<size_t>(order[static_cast<size_t>(std::min(rank, vocab - 1))])];
  };
  const auto shift_to_zero = [&](int rank) {
    const float base = at(rank);
    for (auto& v : logits) {
      v -= base;
    }
  };
  switch (mode) {
    case 1:
      at(1) = at(0);
      break;
    case 2:
      at(k) = at(k - 1);
      break;
    case 3:
      at(k + 1) = at(k + 2);
      break;
    case 4:
      shift_to_zero(k - 1);
      at(k) = -0.0f;
      break;
    case 5:
      shift_to_zero(0);
      at(1) = -0.0f;
      break;
    case 6:
      shift_to_zero(k - 1);
      break;
    default:
      break;
  }
  return logits;
}

TEST(SamplingTest, TopKSelectionMatchesFullSort) {
  // The selection path must give the token a full sort gives, and consume the Rng alike, for
  // any k, whether the logits are distinct (selection) or tied (sort fallback).
  Rng gen(11);
  int cases = 0;
  for (const int vocab : {512, 64}) {
    for (int trial = 0; trial < 12; ++trial) {
      for (int mode = 0; mode <= 6; ++mode) {
        for (const int k : {1, 2, 8, 63, vocab - 1, vocab}) {
          const std::vector<float> logits = TiedLogits(gen, vocab, k, mode);
          SCOPED_TRACE(::testing::Message() << "vocab " << vocab << " trial " << trial
                                            << " mode " << mode << " k " << k);
          SamplerOptions opts;
          opts.temperature = 0.8f;
          opts.top_k = k;
          const uint64_t seed = gen.NextU64();
          Rng ref_rng(seed);
          Rng rng(seed);
          for (int draw = 0; draw < 4; ++draw) {
            ASSERT_EQ(SampleToken(logits, opts, rng), ReferenceSampleToken(logits, opts, ref_rng));
          }
          ASSERT_EQ(std::memcmp(&rng, &ref_rng, sizeof(Rng)), 0);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 12 * 7 * 6);
}

}  // namespace
}  // namespace hllm
