#include <gtest/gtest.h>

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
