// Deterministic pseudo-random number generation.
//
// All randomness in BatchMaker (weight initialization, synthetic datasets,
// Poisson arrivals) flows through Rng so experiments are reproducible from a
// single seed.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>

namespace batchmaker {

// xoshiro256** by Blackman & Vigna: fast, high-quality, and trivially
// seedable. Not cryptographic.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // The per-draw functions are defined here so callers inline them: weight
  // initialization draws once per parameter (millions per model), and an
  // out-of-line call per draw cost more than the draw itself.

  // Uniform over all 64-bit values.
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

  // Uniform in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Uniform in [0, 1): 53 random mantissa bits.
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform in [lo, hi).
  double NextUniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Exponential with the given rate (events per unit time). Rate must be > 0.
  double NextExponential(double rate);

  // Derives an independent generator; useful for giving each component its
  // own stream from one master seed.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  // Cached second Box-Muller variate.
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace batchmaker

#endif  // SRC_UTIL_RNG_H_
