#include "tc/crypto/sha256.h"

#include <cmath>
#include <cstring>

#include "tc/common/macros.h"

namespace tc::crypto {
namespace {

// The SHA-256 round constants are the first 32 bits of the fractional parts
// of the cube roots of the first 64 primes, and the initial state the same
// for square roots of the first 8 primes. We derive them numerically rather
// than transcribing 72 magic words; long-double precision leaves ~16 guard
// bits beyond the 32 we keep, and the FIPS test vectors in tests/crypto
// pin the result.
struct Constants {
  uint32_t k[64];
  uint32_t h0[8];
};

uint32_t FracBits(long double v) {
  long double frac = v - std::floor(v);
  return static_cast<uint32_t>(frac * 4294967296.0L);
}

Constants BuildConstants() {
  Constants c{};
  int primes[64];
  int count = 0;
  for (int n = 2; count < 64; ++n) {
    bool prime = true;
    for (int d = 2; d * d <= n; ++d) {
      if (n % d == 0) {
        prime = false;
        break;
      }
    }
    if (prime) primes[count++] = n;
  }
  for (int i = 0; i < 64; ++i) {
    c.k[i] = FracBits(cbrtl(static_cast<long double>(primes[i])));
  }
  for (int i = 0; i < 8; ++i) {
    c.h0[i] = FracBits(sqrtl(static_cast<long double>(primes[i])));
  }
  return c;
}

const Constants& GetConstants() {
  static const Constants kConstants = BuildConstants();
  return kConstants;
}

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

Sha256::Sha256() { Reset(); }

Sha256::Sha256(const Midstate& state, uint64_t blocks)
    : h_(state), buffer_len_(0), total_len_(64 * blocks) {}

void Sha256::Reset() {
  const Constants& c = GetConstants();
  std::memcpy(h_.data(), c.h0, sizeof(c.h0));
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == 64) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
}

void Sha256::Update(const Bytes& data) {
  if (!data.empty()) Update(data.data(), data.size());
}

Sha256::Midstate Sha256::midstate() const {
  TC_CHECK(buffer_len_ == 0);
  return h_;
}

void Sha256::Finish(uint8_t digest[kSha256DigestSize]) {
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ProcessBlock(buffer_);
  buffer_len_ = 0;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
}

Bytes Sha256::Finish() {
  Bytes digest(kSha256DigestSize);
  Finish(digest.data());
  return digest;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  const Constants& c = GetConstants();
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
           static_cast<uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = h_[0], b = h_[1], cc = h_[2], d = h_[3];
  uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + c.k[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & cc) ^ (b & cc);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = cc;
    cc = b;
    b = a;
    a = temp1 + temp2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += cc;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

Bytes Sha256Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256Hash2(const Bytes& a, const Bytes& b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

}  // namespace tc::crypto
