#include "tc/crypto/aes.h"

#include <cstring>

namespace tc::crypto {
namespace {

// GF(2^8) arithmetic with the AES reduction polynomial x^8+x^4+x^3+x+1.
uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    bool hi = a & 0x80;
    a <<= 1;
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

struct SboxTables {
  uint8_t sbox[256];
};

// Builds the S-box from first principles: multiplicative inverse in
// GF(2^8) followed by the affine transform (FIPS 197 §5.1.1).
SboxTables BuildSbox() {
  SboxTables t{};
  // Inverses via log tables with generator 3.
  uint8_t log[256] = {0};
  uint8_t alog[256] = {0};
  uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    alog[i] = x;
    log[x] = static_cast<uint8_t>(i);
    x = GfMul(x, 3);
  }
  auto inverse = [&](uint8_t v) -> uint8_t {
    if (v == 0) return 0;
    return alog[(255 - log[v]) % 255];
  };
  auto rotl8 = [](uint8_t v, int n) -> uint8_t {
    return static_cast<uint8_t>((v << n) | (v >> (8 - n)));
  };
  for (int i = 0; i < 256; ++i) {
    uint8_t inv = inverse(static_cast<uint8_t>(i));
    uint8_t s = inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^
                rotl8(inv, 4) ^ 0x63;
    t.sbox[i] = s;
  }
  return t;
}

const SboxTables& Tables() {
  static const SboxTables kTables = BuildSbox();
  return kTables;
}

uint32_t SubWord(uint32_t w) {
  const SboxTables& t = Tables();
  return static_cast<uint32_t>(t.sbox[(w >> 24) & 0xff]) << 24 |
         static_cast<uint32_t>(t.sbox[(w >> 16) & 0xff]) << 16 |
         static_cast<uint32_t>(t.sbox[(w >> 8) & 0xff]) << 8 |
         static_cast<uint32_t>(t.sbox[w & 0xff]);
}

uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

}  // namespace

Result<Aes> Aes::Create(const Bytes& key) {
  if (key.size() != 16 && key.size() != 32) {
    return Status::InvalidArgument("AES key must be 16 or 32 bytes");
  }
  Aes aes;
  const int nk = static_cast<int>(key.size() / 4);  // 4 or 8 words.
  aes.rounds_ = nk + 6;                             // 10 or 14.
  const int total_words = 4 * (aes.rounds_ + 1);

  for (int i = 0; i < nk; ++i) {
    aes.round_keys_[i] = static_cast<uint32_t>(key[4 * i]) << 24 |
                         static_cast<uint32_t>(key[4 * i + 1]) << 16 |
                         static_cast<uint32_t>(key[4 * i + 2]) << 8 |
                         static_cast<uint32_t>(key[4 * i + 3]);
  }
  uint8_t rcon = 1;
  for (int i = nk; i < total_words; ++i) {
    uint32_t temp = aes.round_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^ (static_cast<uint32_t>(rcon) << 24);
      rcon = GfMul(rcon, 2);
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    aes.round_keys_[i] = aes.round_keys_[i - nk] ^ temp;
  }
  return aes;
}

void Aes::EncryptBlock(const uint8_t in[kAesBlockSize],
                       uint8_t out[kAesBlockSize]) const {
  const SboxTables& t = Tables();
  uint8_t state[16];
  std::memcpy(state, in, 16);

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      uint32_t w = round_keys_[4 * round + c];
      state[4 * c] ^= static_cast<uint8_t>(w >> 24);
      state[4 * c + 1] ^= static_cast<uint8_t>(w >> 16);
      state[4 * c + 2] ^= static_cast<uint8_t>(w >> 8);
      state[4 * c + 3] ^= static_cast<uint8_t>(w);
    }
  };

  add_round_key(0);
  for (int round = 1; round <= rounds_; ++round) {
    // SubBytes.
    for (auto& b : state) b = t.sbox[b];
    // ShiftRows: row r (bytes state[4c + r]) rotates left by r.
    uint8_t tmp[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) {
        tmp[4 * c + r] = state[4 * ((c + r) % 4) + r];
      }
    }
    std::memcpy(state, tmp, 16);
    // MixColumns (skipped in the last round).
    if (round != rounds_) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = state + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = GfMul(a0, 2) ^ GfMul(a1, 3) ^ a2 ^ a3;
        col[1] = a0 ^ GfMul(a1, 2) ^ GfMul(a2, 3) ^ a3;
        col[2] = a0 ^ a1 ^ GfMul(a2, 2) ^ GfMul(a3, 3);
        col[3] = GfMul(a0, 3) ^ a1 ^ a2 ^ GfMul(a3, 2);
      }
    }
    add_round_key(round);
  }
  std::memcpy(out, state, 16);
}

}  // namespace tc::crypto
