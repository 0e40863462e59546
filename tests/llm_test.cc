#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/exec/thread_pool.h"
#include "src/hexsim/npu_device.h"
#include "src/kernels/attention.h"
#include "src/kernels/exp_lut.h"
#include "src/kernels/lm_head.h"
#include "src/kernels/misc_ops.h"
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
  tf.Step(tokens, logits);
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
      tf.Step({&tok, 1}, logits);
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
      tf.Step({&tok, 1}, logits);
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
    tf.Step(tokens, logits_batch);
  }
  for (int seq = 0; seq < 2; ++seq) {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<float> logits(static_cast<size_t>(config_.vocab));
    const int tok = (seq == 0) ? 5 : 9;
    tf.Step({&tok, 1}, logits);
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
    tf.Step({&tok, 1}, logits_chunked);
  }
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 64);
    std::vector<float> scratch(static_cast<size_t>(config_.vocab));
    for (const int t : prompt) {
      tf.Step({&t, 1}, scratch);
    }
    const int tok = 5;
    tf.Step({&tok, 1}, logits_stepwise);
  }
  for (int64_t v = 0; v < config_.vocab; ++v) {
    EXPECT_NEAR(logits_chunked[static_cast<size_t>(v)],
                logits_stepwise[static_cast<size_t>(v)], 0.02)
        << v;
  }
}

TEST_F(TransformerTest, MultiChunkPrefillCrossesChunkBoundary) {
  // Prompts longer than one 32-token chunk must still produce coherent state.
  std::vector<int> prompt(40);
  for (size_t i = 0; i < prompt.size(); ++i) {
    prompt[i] = static_cast<int>((i * 13 + 7) % 512);
  }
  Transformer tf(dev_, weights_, 1, 64);
  tf.Prefill(0, prompt);
  EXPECT_EQ(tf.kv().length(0), 40);
  std::vector<float> logits(static_cast<size_t>(config_.vocab));
  const int tok = 2;
  tf.Step({&tok, 1}, logits);
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
    tf.Step({&tok, 1}, a);
  }
  {
    hexsim::NpuDevice dev(hexsim::OnePlus12());
    Transformer tf(dev, weights_, 1, 16);
    std::vector<int> prompt{400, 301, 77};
    tf.Prefill(0, prompt);
    const int tok = 8;
    tf.Step({&tok, 1}, b);
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
  tf.Step({&tok, 1}, logits);
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

// One decode step in the pre-zero-copy style: heap scratch, per-head gather of K/V into
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
      for (int h = 0; h < c.heads; ++h) {
        const int kvh = h / group;
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
        hkern::FlashAttentionF16(dev, lut, hkern::SoftmaxVariant::kLut,
                                 q.data() + static_cast<int64_t>(b) * q_dim + h * dh,
                                 kbuf.data(), vbuf.data(),
                                 attn.data() + static_cast<int64_t>(b) * q_dim + h * dh,
                                 /*q_len=*/1, kv_len, dh, scale);
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

// Asserts the full simulated-activity profile of two devices is identical: every event
// count, DDR byte, per-unit instruction counter, and (same charges in the same order, so
// exactly equal) every busy-second total and tag.
void ExpectSameCharges(const hexsim::NpuDevice& a, const hexsim::NpuDevice& b) {
  EXPECT_EQ(a.ledger().counts(), b.ledger().counts());
  EXPECT_EQ(a.ledger().dma_bytes(), b.ledger().dma_bytes());
  EXPECT_EQ(a.hmx().tile_ops(), b.hmx().tile_ops());
  EXPECT_EQ(a.hvx().packets(), b.hvx().packets());
  EXPECT_EQ(a.hvx().vgather_ops(), b.hvx().vgather_ops());
  EXPECT_EQ(a.hvx().vscatter_ops(), b.hvx().vscatter_ops());
  EXPECT_EQ(a.hvx().vlut16_ops(), b.hvx().vlut16_ops());
  for (int e = 0; e < static_cast<int>(hexsim::Engine::kCount); ++e) {
    EXPECT_DOUBLE_EQ(a.ledger().EngineSeconds(static_cast<hexsim::Engine>(e)),
                     b.ledger().EngineSeconds(static_cast<hexsim::Engine>(e)))
        << hexsim::EngineName(static_cast<hexsim::Engine>(e));
  }
  ASSERT_EQ(a.ledger().tags().size(), b.ledger().tags().size());
  auto ib = b.ledger().tags().begin();
  for (const auto& [tag, seconds] : a.ledger().tags()) {
    EXPECT_EQ(tag, ib->first);
    EXPECT_DOUBLE_EQ(seconds, ib->second) << tag;
    ++ib;
  }
}

TEST_F(TransformerTest, PagedAttentionMatchesGatherReference) {
  // Multi-layer, GQA (4 heads over 2 KV heads), with a copy-on-write fork mid-decode: the
  // in-place paged attention path must reproduce the gather-style reference decode down to
  // the last logit bit and the last simulated counter.
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
  for (int step = 0; step < 3; ++step) {
    tf.StepSeqs(tokens, seq_ids, std::span<float>(logits.data(), static_cast<size_t>(vocab)));
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
    tf.StepSeqs(tokens, seq_ids, logits);
    GatherReferenceStep(dev_ref, ref_lut, weights_, tokens, ref_seqs, ref_logits);
    ASSERT_EQ(std::memcmp(logits.data(), ref_logits.data(), sizeof(float) * 2 * vocab), 0)
        << "phase-2 step " << step;
    for (int b = 0; b < 2; ++b) {
      tokens[static_cast<size_t>(b)] = ArgmaxToken(std::span<const float>(
          logits.data() + static_cast<int64_t>(b) * vocab, static_cast<size_t>(vocab)));
    }
  }
  EXPECT_GE(tf.kv().stats().cow_splits, 1);

  ExpectSameCharges(dev_, dev_ref);
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

// Recorded at one lane: F16 and INT4 from the three-forward implementation (decode,
// prefill chunk and verify each ran their own forward), INT8 from the separate
// F16/quantized paged-attention kernels that preceded the single FlashAttentionPaged.
constexpr const char* kForwardProfileF16 = R"(count dma.descriptors 640
count kernel.add.calls 40
count kernel.dequant_coalesced_lut.calls 120
count kernel.exp_lut.builds 1
count kernel.flash_attention.calls 160
count kernel.gemm_hmx.calls 140
count kernel.rmsnorm.calls 45
count kernel.rope.calls 1488
count kernel.silu_mul.calls 20
dma_bytes 1112064
tile_ops 3584
packets 0
vgather 1984
vscatter 0
vlut16 35840
engine HVX 0x1.6d8267c18f2f8p-12
engine HMX 0x1.473c5082e3c87p-16
engine DMA 0x1.d4cebf9539259p-13
engine CPU 0x0p+0
engine GPU 0x0p+0
tag attn.pack 0x1.084e410741d12p-17
tag attn.pv 0x1.011d1aaffc1bdp-19
tag attn.qk 0x1.011d1aaffc1bdp-19
tag attn.rescale 0x1.084e410741d1ep-18
tag attn.softmax 0x1.deb15413318b2p-14
tag dma 0x1.d4cebf9539259p-13
tag gemm.hmx 0x1.06f509d6e4bf4p-16
tag gemm.pack 0x0p+0
tag linear.dequant 0x1.7aa61ba9258adp-13
tag misc.add 0x1.000bceff07c2ep-18
tag misc.rmsnorm 0x1.684c131877bf3p-16
tag misc.rope 0x1.cce20e3174617p-18
tag misc.silu 0x1.4cdc26b1f07d9p-17
verify_argmax 312 15 374 440 291 337 77 337 448
)";
constexpr const char* kForwardProfileInt4 = R"(count dma.descriptors 640
count kernel.add.calls 40
count kernel.attn_kv_dequant.calls 160
count kernel.dequant_coalesced_lut.calls 120
count kernel.exp_lut.builds 1
count kernel.flash_attention.calls 160
count kernel.gemm_hmx.calls 140
count kernel.rmsnorm.calls 45
count kernel.rope.calls 1488
count kernel.silu_mul.calls 20
dma_bytes 404032
tile_ops 3584
packets 0
vgather 1984
vscatter 0
vlut16 43600
engine HVX 0x1.880126598c9e2p-12
engine HMX 0x1.473c5082e3c87p-16
engine DMA 0x1.8c7c71fd1f968p-13
engine CPU 0x0p+0
engine GPU 0x0p+0
tag attn.kv_dequant 0x1.a7ebe97fd6f73p-16
tag attn.pack 0x1.084e410741d12p-17
tag attn.pv 0x1.011d1aaffc1bdp-19
tag attn.qk 0x1.011d1aaffc1bdp-19
tag attn.rescale 0x1.084e410741d1ep-18
tag attn.softmax 0x1.deb15413318b2p-14
tag dma 0x1.8c7c71fd1f968p-13
tag gemm.hmx 0x1.06f509d6e4bf4p-16
tag gemm.pack 0x0p+0
tag linear.dequant 0x1.7aa61ba9258adp-13
tag misc.add 0x1.000bceff07c2ep-18
tag misc.rmsnorm 0x1.684c131877bf3p-16
tag misc.rope 0x1.cce20e3174617p-18
tag misc.silu 0x1.4cdc26b1f07d9p-17
verify_argmax 316 15 374 440 316 291 39 337 236
)";

constexpr const char* kForwardProfileInt8 = R"(count dma.descriptors 640
count kernel.add.calls 40
count kernel.attn_kv_dequant.calls 160
count kernel.dequant_coalesced_lut.calls 120
count kernel.exp_lut.builds 1
count kernel.flash_attention.calls 160
count kernel.gemm_hmx.calls 140
count kernel.rmsnorm.calls 45
count kernel.rope.calls 1488
count kernel.silu_mul.calls 20
dma_bytes 650304
tile_ops 3584
packets 0
vgather 1984
vscatter 0
vlut16 35840
engine HVX 0x1.802f08c68f409p-12
engine HMX 0x1.473c5082e3c87p-16
engine DMA 0x1.aa4cc025905d5p-13
engine CPU 0x0p+0
engine GPU 0x0p+0
tag attn.kv_dequant 0x1.2aca10500101fp-16
tag attn.pack 0x1.084e410741d12p-17
tag attn.pv 0x1.011d1aaffc1bdp-19
tag attn.qk 0x1.011d1aaffc1bdp-19
tag attn.rescale 0x1.084e410741d1ep-18
tag attn.softmax 0x1.deb15413318b2p-14
tag dma 0x1.aa4cc025905d5p-13
tag gemm.hmx 0x1.06f509d6e4bf4p-16
tag gemm.pack 0x0p+0
tag linear.dequant 0x1.7aa61ba9258adp-13
tag misc.add 0x1.000bceff07c2ep-18
tag misc.rmsnorm 0x1.684c131877bf3p-16
tag misc.rope 0x1.cce20e3174617p-18
tag misc.silu 0x1.4cdc26b1f07d9p-17
verify_argmax 312 15 374 440 291 337 77 337 448
)";

// The fixed forward script behind ForwardChargeProfileIsPinned: prefills of 33 and 70
// tokens (one-token and six-token tail chunks), a copy-on-write fork of sequence 0, four
// decode steps at batch 3, and one speculative verify with spans {3, 1, 5}. Returns the
// charge profile followed by the argmax token of every verify row.
std::string ForwardScriptProfile(const ModelWeights& weights, hquant::KvDtype dtype) {
  hexsim::NpuDevice dev(hexsim::OnePlus12());
  const int64_t vocab = weights.config.vocab;
  Transformer tf(dev, weights, /*max_batch=*/3, /*max_context=*/128, /*kv_pool_blocks=*/0,
                 dtype, hquant::kGroupSize, /*max_step_rows=*/9);
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
  std::vector<float> logits(9 * static_cast<size_t>(vocab));
  for (int step = 0; step < 4; ++step) {
    tf.StepSeqs(tokens, seqs, std::span<float>(logits.data(), 3 * static_cast<size_t>(vocab)));
    for (int b = 0; b < 3; ++b) {
      tokens[static_cast<size_t>(b)] = ArgmaxToken(std::span<const float>(
          logits.data() + b * vocab, static_cast<size_t>(vocab)));
    }
  }
  const std::vector<int> verify_tokens{tokens[0], 11, 12, tokens[1], tokens[2], 21, 22, 23, 24};
  const std::vector<int> span_rows{3, 1, 5};
  tf.StepSpans(verify_tokens, seqs, span_rows, logits);

  std::string out = ChargeProfile(dev) + "verify_argmax";
  for (int r = 0; r < 9; ++r) {
    out += ' ';
    out += std::to_string(ArgmaxToken(
        std::span<const float>(logits.data() + r * vocab, static_cast<size_t>(vocab))));
  }
  return out + "\n";
}

TEST_F(TransformerTest, ForwardChargeProfileIsPinned) {
  // Decode, chunked prefill (incl. one-row tail chunks) and the multi-span verify must keep
  // exactly the charges they had when each ran its own forward: the profile strings were
  // recorded from that implementation at one lane.
  hexec::ParallelismOverride serial(1);
  const std::string f16 = ForwardScriptProfile(weights_, hquant::KvDtype::kF16);
  EXPECT_TRUE(f16 == kForwardProfileF16) << "F16 profile:\n" << f16;
  const std::string int8 = ForwardScriptProfile(weights_, hquant::KvDtype::kInt8);
  EXPECT_TRUE(int8 == kForwardProfileInt8) << "INT8 profile:\n" << int8;
  const std::string int4 = ForwardScriptProfile(weights_, hquant::KvDtype::kInt4);
  EXPECT_TRUE(int4 == kForwardProfileInt4) << "INT4 profile:\n" << int4;
}

TEST_F(TransformerTest, WeightCacheReplayParity) {
  // Dequant-once cache replay must be invisible to the simulation: identical logits,
  // decoded tokens, and charge profile whether every Forward re-simulates the dequant
  // (cache off) or replays the memoized charges (cache on).
  struct WeightCacheGuard {
    bool prev = WeightCacheEnabled();
    ~WeightCacheGuard() { SetWeightCacheEnabled(prev); }
  } guard;
  hexec::ParallelismOverride serial(1);
  const int64_t vocab = config_.vocab;
  const int steps = 5;

  std::vector<std::vector<float>> logits_runs[2];
  std::vector<int> token_runs[2];
  hexsim::NpuDevice dev_off(hexsim::OnePlus12());
  hexsim::NpuDevice dev_on(hexsim::OnePlus12());
  for (int run = 0; run < 2; ++run) {
    SetWeightCacheEnabled(run == 1);
    hexsim::NpuDevice& dev = (run == 0) ? dev_off : dev_on;
    Transformer tf(dev, weights_, 1, 16);
    std::vector<float> logits(static_cast<size_t>(vocab));
    int tok = 3;
    for (int i = 0; i < steps; ++i) {
      tf.Step({&tok, 1}, logits);
      tok = ArgmaxToken(logits);
      logits_runs[run].push_back(logits);
      token_runs[run].push_back(tok);
    }
  }

  EXPECT_EQ(token_runs[0], token_runs[1]);
  for (int i = 0; i < steps; ++i) {
    EXPECT_EQ(std::memcmp(logits_runs[0][static_cast<size_t>(i)].data(),
                          logits_runs[1][static_cast<size_t>(i)].data(),
                          sizeof(float) * vocab),
              0)
        << "step " << i;
  }
  EXPECT_GT(dev_on.ledger().Count("kernel.dequant_coalesced_lut.calls"), 0);
  ExpectSameCharges(dev_off, dev_on);
}

TEST_F(TransformerTest, SteadyStateDecodeDoesNotHeapAllocate) {
  // The zero-alloc contract (docs/performance.md): after warmup (workspace sized, weight
  // caches filled, ledger tags registered), a decode step performs no heap allocation at
  // all — counted through the binary-wide operator new replacements above.
  hexec::ParallelismOverride serial(1);
  Transformer tf(dev_, weights_, /*max_batch=*/2, /*max_context=*/64);
  std::vector<int> tokens{3, 5};
  std::vector<float> logits(2 * static_cast<size_t>(config_.vocab));
  for (int i = 0; i < 3; ++i) {
    tf.Step(tokens, logits);
  }
  const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) {
    tf.Step(tokens, logits);
    for (int b = 0; b < 2; ++b) {
      tokens[static_cast<size_t>(b)] = ArgmaxToken(std::span<const float>(
          logits.data() + static_cast<int64_t>(b) * config_.vocab,
          static_cast<size_t>(config_.vocab)));
    }
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0);
}

TEST_F(TransformerTest, WorkspaceBytesGaugeExported) {
  // The serving backend publishes the step-arena high watermark as exec.workspace.bytes
  // (docs/metrics_schema.md).
  hserve::FunctionalBackend backend(dev_, weights_, /*max_batch=*/2, /*max_context=*/16);
  std::vector<float> logits(static_cast<size_t>(config_.vocab));
  const int tok = 3;
  backend.transformer().Step({&tok, 1}, logits);

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

TEST(SamplingTest, TopPRestrictsTail) {
  std::vector<float> logits{std::log(0.6f), std::log(0.3f), std::log(0.05f),
                            std::log(0.05f)};
  Rng rng(4);
  SamplerOptions opts;
  opts.temperature = 1.0f;
  opts.top_p = 0.85f;
  for (int i = 0; i < 500; ++i) {
    const int t = SampleToken(logits, opts, rng);
    EXPECT_TRUE(t == 0 || t == 1) << t;
  }
}

TEST(SamplingTest, TokenLogProbIsConsistent) {
  std::vector<float> logits{1.0f, 2.0f, 3.0f};
  double total = 0.0;
  for (int t = 0; t < 3; ++t) {
    total += std::exp(TokenLogProb(logits, t, 1.0f));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(TokenLogProb(logits, 2, 1.0f), TokenLogProb(logits, 0, 1.0f));
}

}  // namespace
}  // namespace hllm
