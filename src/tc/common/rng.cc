#include "tc/common/rng.h"

#include <cmath>

#include "tc/common/macros.h"

namespace tc {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  for (uint64_t k = 0; k < 4; ++k) s_[k] = MixSeed(seed, k);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  TC_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = -bound % bound;
  while (true) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  TC_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full range
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1, u2;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::NextExponential(double rate) {
  TC_CHECK(rate > 0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

double Rng::NextLaplace(double scale) {
  TC_CHECK(scale > 0);
  double u = NextDouble() - 0.5;
  double sign = u < 0 ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

Bytes Rng::NextBytes(size_t n) {
  Bytes out(n);
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t v = NextU64();
    for (int k = 0; k < 8; ++k) out[i++] = static_cast<uint8_t>(v >> (8 * k));
  }
  if (i < n) {
    uint64_t v = NextU64();
    for (; i < n; ++i) {
      out[i] = static_cast<uint8_t>(v);
      v >>= 8;
    }
  }
  return out;
}

}  // namespace tc
