#ifndef TC_COMMON_RNG_H_
#define TC_COMMON_RNG_H_

#include <cstdint>

#include "tc/common/bytes.h"

namespace tc {

/// Output `k` of the splitmix64 stream seeded with `seed`: the splitmix64
/// finalizer of seed + 0x9e3779b97f4a7c15 * (k + 1). Derives decorrelated
/// seeds from one seed (a stream per shard, per cell, per fault draw); Rng
/// expands its seed into xoshiro state with outputs 0..3.
uint64_t MixSeed(uint64_t seed, uint64_t k);

/// Deterministic pseudo-random generator (xoshiro256**) for workload
/// synthesis: appliance schedules, GPS trips, adversary choices, test
/// property sweeps. NOT used for cryptographic keys — see
/// tc/crypto/random.h for the DRBG that the TEE uses.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform over the full 64-bit range.
  uint64_t NextU64();

  /// Uniform in [0, bound), bound > 0 (unbiased via rejection).
  uint64_t NextBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Exponential with the given rate (mean 1/rate).
  double NextExponential(double rate);

  /// Laplace(0, scale) — used directly by the differential-privacy module.
  double NextLaplace(double scale);

  /// True with probability p.
  bool NextBernoulli(double p);

  /// `n` pseudo-random bytes (again: workload data, not key material).
  Bytes NextBytes(size_t n);

 private:
  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace tc

#endif  // TC_COMMON_RNG_H_
