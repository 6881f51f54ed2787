#include "tc/crypto/aes.h"

namespace tc::crypto {
namespace {

// GF(2^8) arithmetic with the AES reduction polynomial x^8+x^4+x^3+x+1.
// Used only to build the tables below and the key schedule's round
// constants; no per-block code calls it.
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

uint32_t Rotr8(uint32_t w) { return (w >> 8) | (w << 24); }

// te[0][x] is the MixColumns column of S-box output s = sbox[x] entering
// at row 0: (2s, s, s, 3s) as a big-endian word. Entering at row r
// rotates it right by 8r bits, so te[r] = rotr(te[0], 8r). One round of
// SubBytes + ShiftRows + MixColumns is then four lookups and XORs per
// column.
struct Tables {
  uint8_t sbox[256];
  uint32_t te[4][256];
};

// Builds the S-box from first principles: multiplicative inverse in
// GF(2^8) followed by the affine transform (FIPS 197 §5.1.1). The round
// tables follow from it.
Tables BuildTables() {
  Tables t{};
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
    t.te[0][i] = static_cast<uint32_t>(GfMul(s, 2)) << 24 |
                 static_cast<uint32_t>(s) << 16 |
                 static_cast<uint32_t>(s) << 8 | GfMul(s, 3);
    for (int r = 1; r < 4; ++r) t.te[r][i] = Rotr8(t.te[r - 1][i]);
  }
  return t;
}

const Tables& GetTables() {
  static const Tables kTables = BuildTables();
  return kTables;
}

uint32_t SubWord(uint32_t w) {
  const Tables& t = GetTables();
  return static_cast<uint32_t>(t.sbox[(w >> 24) & 0xff]) << 24 |
         static_cast<uint32_t>(t.sbox[(w >> 16) & 0xff]) << 16 |
         static_cast<uint32_t>(t.sbox[(w >> 8) & 0xff]) << 8 |
         static_cast<uint32_t>(t.sbox[w & 0xff]);
}

uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

uint32_t LoadBe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

void StoreBe32(uint32_t w, uint8_t* p) {
  p[0] = static_cast<uint8_t>(w >> 24);
  p[1] = static_cast<uint8_t>(w >> 16);
  p[2] = static_cast<uint8_t>(w >> 8);
  p[3] = static_cast<uint8_t>(w);
}

}  // namespace

Result<Aes> Aes::Create(const Bytes& key) {
  if (key.size() != 16 && key.size() != 32) {
    return Status::InvalidArgument("AES key must be 16 or 32 bytes");
  }
  Aes aes;
  const int nk = static_cast<int>(key.size() / 4);  // 4 or 8 words.
  aes.rounds_ = nk + 6;                             // 10 or 14.
  const int total_words = 4 * (aes.rounds_ + 1);

  for (int i = 0; i < nk; ++i) aes.round_keys_[i] = LoadBe32(&key[4 * i]);
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
  const Tables& t = GetTables();
  const uint32_t(&te)[4][256] = t.te;
  const uint32_t* rk = round_keys_;
  // Column c of the state is the big-endian word s<c> (state bytes
  // 4c..4c+3, rows 0..3). ShiftRows moves row r of column c + r into
  // column c, which is why the new column t<c> reads row r from
  // s<(c + r) % 4>.
  uint32_t s0 = LoadBe32(in) ^ rk[0];
  uint32_t s1 = LoadBe32(in + 4) ^ rk[1];
  uint32_t s2 = LoadBe32(in + 8) ^ rk[2];
  uint32_t s3 = LoadBe32(in + 12) ^ rk[3];
  for (int round = 1; round < rounds_; ++round) {
    rk += 4;
    uint32_t t0 = te[0][s0 >> 24] ^ te[1][(s1 >> 16) & 0xff] ^
                  te[2][(s2 >> 8) & 0xff] ^ te[3][s3 & 0xff] ^ rk[0];
    uint32_t t1 = te[0][s1 >> 24] ^ te[1][(s2 >> 16) & 0xff] ^
                  te[2][(s3 >> 8) & 0xff] ^ te[3][s0 & 0xff] ^ rk[1];
    uint32_t t2 = te[0][s2 >> 24] ^ te[1][(s3 >> 16) & 0xff] ^
                  te[2][(s0 >> 8) & 0xff] ^ te[3][s1 & 0xff] ^ rk[2];
    uint32_t t3 = te[0][s3 >> 24] ^ te[1][(s0 >> 16) & 0xff] ^
                  te[2][(s1 >> 8) & 0xff] ^ te[3][s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  // The last round has no MixColumns: SubBytes and ShiftRows only.
  rk += 4;
  const uint8_t* sbox = t.sbox;
  auto last = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d) {
    return static_cast<uint32_t>(sbox[a >> 24]) << 24 |
           static_cast<uint32_t>(sbox[(b >> 16) & 0xff]) << 16 |
           static_cast<uint32_t>(sbox[(c >> 8) & 0xff]) << 8 |
           static_cast<uint32_t>(sbox[d & 0xff]);
  };
  StoreBe32(last(s0, s1, s2, s3) ^ rk[0], out);
  StoreBe32(last(s1, s2, s3, s0) ^ rk[1], out + 4);
  StoreBe32(last(s2, s3, s0, s1) ^ rk[2], out + 8);
  StoreBe32(last(s3, s0, s1, s2) ^ rk[3], out + 12);
}

}  // namespace tc::crypto
