// Deterministic, fast pseudo-random number generation (xoshiro256**).
//
// Every stochastic component in the reproduction (synthetic weights, sampling, reward-model
// noise) draws from an explicitly-seeded Rng so experiments are bit-reproducible.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cmath>
#include <cstdint>

namespace hexllm {

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) { return NextU64() % bound; }

  // Standard normal via Box-Muller (no caching; simple and deterministic).
  double NextGaussian() {
    double u1 = NextDouble();
    while (u1 <= 1e-300) {
      u1 = NextDouble();
    }
    const double u2 = NextDouble();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  // Bernoulli draw.
  bool NextBool(double p) { return NextDouble() < p; }

  // Exponential with rate 1.
  double NextExponential() {
    double u = NextDouble();
    while (u <= 0.0) {
      u = NextDouble();
    }
    return -std::log(u);
  }

  // Derives an independent stream (for per-worker/per-sample reproducibility).
  Rng Fork(uint64_t stream_id) { return Rng(NextU64() ^ (stream_id * 0xA24BAED4963EE407ull)); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace hexllm

#endif  // SRC_BASE_RNG_H_
