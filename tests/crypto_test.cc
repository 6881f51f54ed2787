#include <gtest/gtest.h>

#include <bitset>
#include <cstring>

#include "tc/crypto/aead.h"
#include "tc/crypto/aes.h"
#include "tc/crypto/aes_ctr.h"
#include "tc/crypto/hkdf.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/merkle.h"
#include "tc/crypto/random.h"
#include "tc/crypto/sha256.h"

namespace tc::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, Fips180EmptyString) {
  EXPECT_EQ(HexEncode(Sha256Hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Fips180Abc) {
  EXPECT_EQ(HexEncode(Sha256Hash(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, Fips180TwoBlockMessage) {
  EXPECT_EQ(
      HexEncode(Sha256Hash(
          ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data = ToBytes("the quick brown fox jumps over the lazy dog etc etc");
  Sha256 h;
  for (uint8_t b : data) h.Update(&b, 1);
  EXPECT_EQ(h.Finish(), Sha256Hash(data));
}

TEST(Sha256Test, MillionAs) {
  // FIPS 180-4 long test vector.
  Bytes data(1000000, 'a');
  EXPECT_EQ(HexEncode(Sha256Hash(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update(ToBytes("junk"));
  h.Reset();
  h.Update(ToBytes("abc"));
  EXPECT_EQ(HexEncode(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ------------------------------------------------------------------ HMAC

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes msg = ToBytes("Hi There");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Bytes msg = ToBytes("what do ya want for nothing?");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  Bytes msg = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, VerifyAcceptsAndRejects) {
  Bytes key = ToBytes("secret");
  Bytes msg = ToBytes("message");
  Bytes tag = HmacSha256(key, msg);
  EXPECT_TRUE(HmacVerify(key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(HmacVerify(key, msg, tag));
  EXPECT_FALSE(HmacVerify(key, ToBytes("other"), HmacSha256(key, msg)));
}

// ------------------------------------------------------------------ HKDF

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = *HexDecode("000102030405060708090a0b0c");
  // info = 0xf0f1..f9
  std::string info;
  for (int i = 0; i < 10; ++i) info.push_back(static_cast<char>(0xf0 + i));
  Bytes okm = HkdfSha256(ikm, salt, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, DistinctLabelsGiveIndependentKeys) {
  Bytes parent = ToBytes("parent key material");
  Bytes a = DeriveKey(parent, "label-a");
  Bytes b = DeriveKey(parent, "label-b");
  EXPECT_EQ(a.size(), 32u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, DeriveKey(parent, "label-a"));
}

// ------------------------------------------------------------------- AES

TEST(AesTest, Fips197Aes128) {
  Bytes key = *HexDecode("000102030405060708090a0b0c0d0e0f");
  Bytes pt = *HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Bytes(ct, ct + 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes256) {
  Bytes key =
      *HexDecode("000102030405060708090a0b0c0d0e0f"
                 "101112131415161718191a1b1c1d1e1f");
  Bytes pt = *HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Bytes(ct, ct + 16)),
            "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, RejectsBadKeySizes) {
  EXPECT_FALSE(Aes::Create(Bytes(15)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(24)).ok());  // AES-192 unsupported.
  EXPECT_FALSE(Aes::Create(Bytes(0)).ok());
}

// The byte-wise AES the T-table round replaced: SubBytes, ShiftRows and
// MixColumns over a 16-byte state, with GF(2^8) products computed bit by
// bit. It stays here only as the oracle of the differential sweep below.
// It also records which entry of each table the T-table round reads: in a
// full round the S-box input at row r indexes table r, and every byte
// entering the last round indexes the S-box (hits[4]).
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

class ReferenceAes {
 public:
  explicit ReferenceAes(const Bytes& key) {
    // S-box: GF(2^8) inverse (via logs to generator 3), then the affine
    // transform (FIPS 197 §5.1.1).
    uint8_t log[256] = {0}, alog[256] = {0};
    uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      alog[i] = x;
      log[x] = static_cast<uint8_t>(i);
      x = GfMul(x, 3);
    }
    auto rotl8 = [](uint8_t v, int n) {
      return static_cast<uint8_t>((v << n) | (v >> (8 - n)));
    };
    for (int i = 0; i < 256; ++i) {
      uint8_t inv = i == 0 ? 0 : alog[(255 - log[i]) % 255];
      sbox_[i] = inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^ rotl8(inv, 3) ^
                 rotl8(inv, 4) ^ 0x63;
    }
    // Key schedule over bytes: word i is w_[4i..4i+3].
    const int nk = static_cast<int>(key.size() / 4);
    rounds_ = nk + 6;
    std::memcpy(w_, key.data(), key.size());
    uint8_t rcon = 1;
    for (int i = nk; i < 4 * (rounds_ + 1); ++i) {
      uint8_t t[4];
      std::memcpy(t, w_ + 4 * (i - 1), 4);
      if (i % nk == 0) {
        uint8_t t0 = t[0];
        t[0] = sbox_[t[1]] ^ rcon;
        t[1] = sbox_[t[2]];
        t[2] = sbox_[t[3]];
        t[3] = sbox_[t0];
        rcon = GfMul(rcon, 2);
      } else if (nk > 6 && i % nk == 4) {
        for (uint8_t& b : t) b = sbox_[b];
      }
      for (int j = 0; j < 4; ++j) w_[4 * i + j] = w_[4 * (i - nk) + j] ^ t[j];
    }
  }

  void EncryptBlock(const uint8_t in[16], uint8_t out[16],
                    std::bitset<256> hits[5]) const {
    uint8_t state[16];
    for (int i = 0; i < 16; ++i) state[i] = in[i] ^ w_[i];
    for (int round = 1; round <= rounds_; ++round) {
      for (int i = 0; i < 16; ++i) {
        hits[round == rounds_ ? 4 : i % 4].set(state[i]);
        state[i] = sbox_[state[i]];
      }
      // ShiftRows: row r (bytes state[4c + r]) rotates left by r.
      uint8_t tmp[16];
      for (int c = 0; c < 4; ++c) {
        for (int r = 0; r < 4; ++r) {
          tmp[4 * c + r] = state[4 * ((c + r) % 4) + r];
        }
      }
      std::memcpy(state, tmp, 16);
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
      for (int i = 0; i < 16; ++i) state[i] ^= w_[16 * round + i];
    }
    std::memcpy(out, state, 16);
  }

 private:
  uint8_t sbox_[256];
  uint8_t w_[240];
  int rounds_;
};

TEST(AesTest, MatchesByteWiseReferenceOnEveryTableEntry) {
  SecureRandom rng(ToBytes("aes-differential-sweep"));
  for (size_t key_size : {16u, 32u}) {
    std::bitset<256> hits[5];
    for (int k = 0; k < 64; ++k) {
      Bytes key = rng.NextBytes(key_size);
      Aes aes = *Aes::Create(key);
      ReferenceAes reference(key);
      for (int b = 0; b < 32; ++b) {
        Bytes block = rng.NextBytes(kAesBlockSize);
        uint8_t want[16], got[16];
        reference.EncryptBlock(block.data(), want, hits);
        aes.EncryptBlock(block.data(), got);
        ASSERT_EQ(HexEncode(Bytes(got, got + 16)),
                  HexEncode(Bytes(want, want + 16)))
            << "key " << HexEncode(key) << " block " << HexEncode(block);
        aes.EncryptBlock(block.data(), block.data());  // In place.
        ASSERT_EQ(block, Bytes(want, want + 16));
      }
    }
    for (int t = 0; t < 5; ++t) {
      EXPECT_TRUE(hits[t].all())
          << "key size " << key_size << ": table " << t << " hit "
          << hits[t].count() << "/256 entries";
    }
  }
}

TEST(AesCtrTest, RoundTripVariousLengths) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x01);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    Bytes pt(len);
    for (size_t i = 0; i < len; ++i) pt[i] = static_cast<uint8_t>(i * 7);
    Bytes ct = *AesCtrCrypt(key, nonce, pt);
    EXPECT_EQ(ct.size(), len);
    if (len > 0) EXPECT_NE(ct, pt);
    EXPECT_EQ(*AesCtrCrypt(key, nonce, ct), pt);
  }
}

TEST(AesCtrTest, DifferentNoncesGiveDifferentStreams) {
  Bytes key(16, 0x11);
  Bytes pt(64, 0);
  Bytes n1(12, 0x01), n2(12, 0x02);
  EXPECT_NE(*AesCtrCrypt(key, n1, pt), *AesCtrCrypt(key, n2, pt));
}

// Known answers for AES-CTR and the AEAD, generated independently of this
// code with Python's `cryptography` package, version 48.0.0:
//
//   import hashlib, struct
//   from cryptography.hazmat.primitives import hashes, hmac
//   from cryptography.hazmat.primitives.ciphers import (
//       Cipher, algorithms, modes)
//   from cryptography.hazmat.primitives.kdf.hkdf import HKDF
//
//   def hkdf(key, info):
//       return HKDF(hashes.SHA256(), 32, None, info).derive(key)
//   def ctr(key, nonce, pt):
//       ctr_block = nonce + bytes(4)
//       e = Cipher(algorithms.AES(key), modes.CTR(ctr_block)).encryptor()
//       return e.update(pt) + e.finalize()
//   def seal(key, nonce, aad, pt):
//       ct = ctr(hkdf(key, b"tc.aead.enc"), nonce, pt)
//       h = hmac.HMAC(hkdf(key, b"tc.aead.mac"), hashes.SHA256())
//       h.update(nonce + struct.pack("<Q", len(aad)) + aad + ct)
//       return ct + h.finalize()
//
//   pattern = lambda n, a, b: bytes((a * i + b) & 0xff for i in range(n))
//   nonce, aad = pattern(12, 1, 0xa0), pattern(77, 3, 0x11)
//   digest = lambda out: hashlib.sha256(out).hexdigest()
//   for n in (0, 1, 15, 16, 17, 2004, 4096):
//       pt = pattern(n, 7, 3)
//       print("ctr", n, digest(ctr(pattern(16, 1, 0), nonce, pt)),
//             digest(ctr(pattern(32, 1, 0), nonce, pt)))
//       print("aead", n, digest(seal(pattern(32, 5, 1), nonce, b"", pt)),
//             digest(seal(pattern(32, 5, 1), nonce, aad, pt)))
//
// Each row pins SHA-256 of the whole output at one plaintext length. The
// 77-byte AAD makes nonce || LE64(|aad|) || aad cross a SHA-256 block.
struct KnownAnswer {
  size_t len;
  const char* first;   // CTR: 16-byte key. AEAD: empty AAD.
  const char* second;  // CTR: 32-byte key. AEAD: the 77-byte AAD.
};

Bytes Pattern(size_t n, unsigned a, unsigned b) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(a * i + b);
  return out;
}

std::string DigestHex(const Bytes& out) { return HexEncode(Sha256Hash(out)); }

TEST(AesCtrTest, MatchesIndependentKnownAnswers) {
  const KnownAnswer kAnswers[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71",
       "27952171c7fcdf0ddc765ab4f4e1c537cb29e5e533d57b3456257ee785c81711"},
      {15, "b163881d584cece3e51d44fd5b28cf90ba35aeb52201cda1923ceea7fb27e092",
       "943905b6c99d1b6c0ed824dc23f841e0b61079f87e6cbb8a039af20fb6b53099"},
      {16, "c59018c167c9f8d028f0ad287cd8f64eaf827677add22492534bc3f2b13f076d",
       "2fab5f4b5e7fa81bbb453c6b822894bf4b95ad0371dbc4bf3320bbf2d12418af"},
      {17, "1cae3472c0ad9a88f79f90508dd94bedcbccc8fe08f50ae5e4415a3990730d93",
       "870a18a648b2b0027ea9843449ebce600cf368a9e4d1291285f34f0e0205b931"},
      {2004,
       "3254637ba17a053a7e3dcf35e5fb47d267b98995fe4e80e4599e0da92b4cdf2d",
       "f6936aef54f9de3fe862a581e7a64f98e0702be00a9895cf09fe7a76554aa5e7"},
      {4096,
       "b1ee99bf204af850392c3f27b9c65ecc6378b038027fd4af5d549d566ef99e6b",
       "e7494ef5427c185c1cfb78018babf77e961a07ffd7b5d467b638500b4ee2fc1a"},
  };
  const Bytes nonce = Pattern(12, 1, 0xa0);
  for (const KnownAnswer& answer : kAnswers) {
    Bytes pt = Pattern(answer.len, 7, 3);
    EXPECT_EQ(DigestHex(*AesCtrCrypt(Pattern(16, 1, 0), nonce, pt)),
              answer.first)
        << "AES-128-CTR, " << answer.len << " bytes";
    EXPECT_EQ(DigestHex(*AesCtrCrypt(Pattern(32, 1, 0), nonce, pt)),
              answer.second)
        << "AES-256-CTR, " << answer.len << " bytes";
  }
}

// ------------------------------------------------------------------ AEAD

TEST(AeadTest, SealOpenRoundTrip) {
  Bytes key(32, 0x55);
  Bytes nonce(12, 0x77);
  Bytes aad = ToBytes("doc-id:42;version:3");
  Bytes pt = ToBytes("fifteen-minute aggregate: 1.21 kWh");
  Bytes sealed = *AeadSeal(key, nonce, aad, pt);
  EXPECT_EQ(sealed.size(), pt.size() + kAeadTagSize);
  EXPECT_EQ(*AeadOpen(key, nonce, aad, sealed), pt);
}

TEST(AeadTest, TamperedCiphertextRejected) {
  Bytes key(32, 0x55), nonce(12, 0x77);
  Bytes sealed = *AeadSeal(key, nonce, {}, ToBytes("hello"));
  sealed[0] ^= 1;
  EXPECT_TRUE(AeadOpen(key, nonce, {}, sealed).status().IsIntegrityViolation());
}

TEST(AeadTest, TamperedTagRejected) {
  Bytes key(32, 0x55), nonce(12, 0x77);
  Bytes sealed = *AeadSeal(key, nonce, {}, ToBytes("hello"));
  sealed.back() ^= 1;
  EXPECT_TRUE(AeadOpen(key, nonce, {}, sealed).status().IsIntegrityViolation());
}

TEST(AeadTest, WrongAadRejected) {
  Bytes key(32, 0x55), nonce(12, 0x77);
  Bytes sealed = *AeadSeal(key, nonce, ToBytes("ctx-a"), ToBytes("hello"));
  EXPECT_TRUE(AeadOpen(key, nonce, ToBytes("ctx-b"), sealed)
                  .status()
                  .IsIntegrityViolation());
}

TEST(AeadTest, WrongKeyOrNonceRejected) {
  Bytes key(32, 0x55), nonce(12, 0x77);
  Bytes sealed = *AeadSeal(key, nonce, {}, ToBytes("hello"));
  Bytes key2 = key;
  key2[0] ^= 1;
  EXPECT_FALSE(AeadOpen(key2, nonce, {}, sealed).ok());
  Bytes nonce2 = nonce;
  nonce2[0] ^= 1;
  EXPECT_FALSE(AeadOpen(key, nonce2, {}, sealed).ok());
}

TEST(AeadTest, TruncatedBlobRejected) {
  Bytes key(32, 0x55), nonce(12, 0x77);
  EXPECT_FALSE(AeadOpen(key, nonce, {}, Bytes(10)).ok());
}

TEST(AeadTest, MatchesIndependentKnownAnswers) {
  // Generated by the script above AesCtrTest.MatchesIndependentKnownAnswers.
  const KnownAnswer kAnswers[] = {
      {0, "4a0efe3615aac3107daf5229b4dd941415322d851d77402d831730aea8171ada",
       "0b3cd5ab13dae196b5259659ec25ca26b8433b2937c15a99975b5f316f2cbd29"},
      {1, "5a63e8b2b613591328d85549ce154234c990f9e82fa411fbfcb3780922444460",
       "d705fb446e73724dbb5c022792dbea162bef6567643bba9b44d294f5d589d603"},
      {15, "5706a0c2ae0e515b45f3cc9e138fbb7f16e71f23999d01bd71f53088b8006af9",
       "b8f7fd5bcd589be487d75791ec68a212ac77b7fcd3bc0085f20a9a2c0b9dd06d"},
      {16, "38b99d6bcd44f029399baff637f4bba0b6fc00c87122e90d68776db5246e33e0",
       "11ecfacde6f7b1e224f06c37ec868e0c92e645222d1ece823bf15d0da59b4ee5"},
      {17, "c2f9a4787d532d7194d9040d8c00e960c5b13185b2284a23d61c54735f0f1171",
       "4d985036f2a7781344b64c2d560b0d9ed95578fb9c4c47e9d5338f824054fb76"},
      {2004,
       "8f844c6c42c25f1d2f8c758f5c8e861a858d32fe70d6899a4a82edea715836b9",
       "4c5a40e6a2ca046313fb3800c4835c3846b6d72b6e449ea970b3212f29384433"},
      {4096,
       "aee4c7acba3eeb86419b6630977e033063c282cee0c076594aedc5a4ea5f3656",
       "824d4394ea771f08510878cfeec18e9486b66d542bf1079c2c81c1249bf477d5"},
  };
  const Bytes key = Pattern(32, 5, 1);
  const Bytes nonce = Pattern(12, 1, 0xa0);
  const Bytes aad = Pattern(77, 3, 0x11);
  for (const KnownAnswer& answer : kAnswers) {
    Bytes pt = Pattern(answer.len, 7, 3);
    Bytes sealed = *AeadSeal(key, nonce, {}, pt);
    EXPECT_EQ(DigestHex(sealed), answer.first)
        << "empty AAD, " << answer.len << " bytes";
    EXPECT_EQ(*AeadOpen(key, nonce, {}, sealed), pt);
    sealed = *AeadSeal(key, nonce, aad, pt);
    EXPECT_EQ(DigestHex(sealed), answer.second)
        << "77-byte AAD, " << answer.len << " bytes";
    EXPECT_EQ(*AeadOpen(key, nonce, aad, sealed), pt);
  }
}

// ---------------------------------------------------------------- Random

TEST(SecureRandomTest, DeterministicFromSeed) {
  SecureRandom a(ToBytes("seed")), b(ToBytes("seed"));
  EXPECT_EQ(a.NextBytes(64), b.NextBytes(64));
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(SecureRandomTest, DifferentSeedsDiverge) {
  SecureRandom a(ToBytes("seed-1")), b(ToBytes("seed-2"));
  EXPECT_NE(a.NextBytes(32), b.NextBytes(32));
}

TEST(SecureRandomTest, ReseedChangesStream) {
  SecureRandom a(ToBytes("seed")), b(ToBytes("seed"));
  a.Reseed(ToBytes("fresh entropy"));
  EXPECT_NE(a.NextBytes(32), b.NextBytes(32));
}

TEST(SecureRandomTest, OutputLooksBalanced) {
  SecureRandom rng(ToBytes("balance"));
  Bytes stream = rng.NextBytes(100000);
  int ones = 0;
  for (uint8_t b : stream) ones += __builtin_popcount(b);
  double fraction = static_cast<double>(ones) / (stream.size() * 8);
  EXPECT_NEAR(fraction, 0.5, 0.01);
}

// ---------------------------------------------------------------- Merkle

TEST(MerkleTest, SingleLeaf) {
  std::vector<Bytes> leaves = {ToBytes("only")};
  auto tree = MerkleTree::Build(leaves);
  ASSERT_TRUE(tree.ok());
  auto proof = tree->Prove(0);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(proof->empty());
  EXPECT_TRUE(MerkleTree::Verify(tree->root(), ToBytes("only"), *proof));
}

TEST(MerkleTest, ProveAndVerifyAllLeaves) {
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 33u}) {
    std::vector<Bytes> leaves;
    for (size_t i = 0; i < n; ++i) {
      leaves.push_back(ToBytes("leaf-" + std::to_string(i)));
    }
    auto tree = MerkleTree::Build(leaves);
    ASSERT_TRUE(tree.ok());
    for (size_t i = 0; i < n; ++i) {
      auto proof = tree->Prove(i);
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(MerkleTree::Verify(tree->root(), leaves[i], *proof))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MerkleTest, WrongLeafFailsVerification) {
  std::vector<Bytes> leaves = {ToBytes("a"), ToBytes("b"), ToBytes("c"),
                               ToBytes("d")};
  auto tree = MerkleTree::Build(leaves);
  ASSERT_TRUE(tree.ok());
  auto proof = *tree->Prove(1);
  EXPECT_FALSE(MerkleTree::Verify(tree->root(), ToBytes("tampered"), proof));
}

TEST(MerkleTest, ProofForOtherIndexFails) {
  std::vector<Bytes> leaves = {ToBytes("a"), ToBytes("b"), ToBytes("c"),
                               ToBytes("d")};
  auto tree = MerkleTree::Build(leaves);
  ASSERT_TRUE(tree.ok());
  auto proof_for_0 = *tree->Prove(0);
  EXPECT_FALSE(MerkleTree::Verify(tree->root(), leaves[1], proof_for_0));
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  std::vector<Bytes> leaves = {ToBytes("a"), ToBytes("b"), ToBytes("c")};
  auto t1 = MerkleTree::Build(leaves);
  leaves[2] = ToBytes("C");
  auto t2 = MerkleTree::Build(leaves);
  EXPECT_NE(t1->root(), t2->root());
}

TEST(MerkleTest, EmptyRejected) {
  EXPECT_FALSE(MerkleTree::Build({}).ok());
}

TEST(MerkleTest, OutOfRangeProofRejected) {
  auto tree = MerkleTree::Build({ToBytes("a")});
  EXPECT_FALSE(tree->Prove(1).ok());
}

}  // namespace
}  // namespace tc::crypto
