// E9 — cryptographic primitive micro-benchmarks (google-benchmark).
//
// The per-class columns of E4/E6 all bottom out in these primitives; the
// numbers here are host-machine speeds (multiply by the DeviceProfile
// cpu_slowdown for a device-class estimate).
//
// BM_AeadSeal is the one-shot AEAD: it expands its key (two HKDFs and an
// AES key schedule) on every call. BM_TeeSeal and BM_TeeOpen are what a
// cell pays per flash page or document: the TEE seals and opens through
// the context its KeyStore expanded when the key was installed, and Seal
// draws a fresh nonce from the TEE's DRBG.

#include <benchmark/benchmark.h>

#include "tc/common/macros.h"
#include "tc/crypto/aead.h"
#include "tc/crypto/aes_ctr.h"
#include "tc/crypto/bignum.h"
#include "tc/crypto/dh.h"
#include "tc/crypto/group.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/merkle.h"
#include "tc/crypto/paillier.h"
#include "tc/crypto/schnorr.h"
#include "tc/crypto/shamir.h"
#include "tc/crypto/sha256.h"
#include "tc/tee/tee.h"

namespace tc::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(2048)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 1), data(state.range(0), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(2048);

void BM_AesCtr(benchmark::State& state) {
  Bytes key(32, 1), nonce(12, 2), data(state.range(0), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*AesCtrCrypt(key, nonce, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(2048)->Arg(65536);

void BM_AeadSeal(benchmark::State& state) {
  Bytes key(32, 1), nonce(12, 2), aad(32, 3), data(state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*AeadSeal(key, nonce, aad, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(2048)->Arg(65536);

void BM_TeeSeal(benchmark::State& state) {
  tee::TrustedExecutionEnvironment tee("bench-e9-seal",
                                       tee::DeviceClass::kHomeGateway);
  TC_CHECK(tee.keystore().GenerateKey("page").ok());
  Bytes aad(32, 3), data(state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*tee.Seal("page", aad, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TeeSeal)->Arg(2048);

void BM_TeeOpen(benchmark::State& state) {
  tee::TrustedExecutionEnvironment tee("bench-e9-open",
                                       tee::DeviceClass::kHomeGateway);
  TC_CHECK(tee.keystore().GenerateKey("page").ok());
  Bytes aad(32, 3);
  Bytes sealed = *tee.Seal("page", aad, Bytes(state.range(0), 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(*tee.Open("page", aad, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TeeOpen)->Arg(2048);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(Bytes(64, static_cast<uint8_t>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(*MerkleTree::Build(leaves));
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(64)->Arg(1024);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (int i = 0; i < 1024; ++i) {
    leaves.push_back(Bytes(64, static_cast<uint8_t>(i)));
  }
  auto tree = *MerkleTree::Build(leaves);
  for (auto _ : state) {
    auto proof = *tree.Prove(512);
    benchmark::DoNotOptimize(
        MerkleTree::Verify(tree.root(), leaves[512], proof));
  }
}
BENCHMARK(BM_MerkleProveVerify);

void BM_ModExp(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-modexp"));
  size_t bits = state.range(0);
  BigInt m = BigInt::GeneratePrime(rng, bits);
  BigInt base = BigInt::RandomBelow(rng, m);
  BigInt exp = BigInt::RandomBits(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModExp(base, exp, m));
  }
}
BENCHMARK(BM_ModExp)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_DhSharedKey(benchmark::State& state) {
  const GroupParams& group = GroupParams::Standard(state.range(0));
  DiffieHellman dh(group);
  SecureRandom rng(ToBytes("bench-dh"));
  DhKeyPair a = dh.GenerateKeyPair(rng);
  DhKeyPair b = dh.GenerateKeyPair(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *dh.ComputeSharedKey(a.private_key, b.public_key));
  }
}
BENCHMARK(BM_DhSharedKey)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_SchnorrSign(benchmark::State& state) {
  const GroupParams& group = GroupParams::Standard(512);
  Schnorr schnorr(group);
  SecureRandom rng(ToBytes("bench-schnorr"));
  SchnorrKeyPair keys = schnorr.GenerateKeyPair(rng);
  Bytes msg = ToBytes("daily aggregate 28.5 kWh");
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr.Sign(keys.private_key, msg, rng));
  }
}
BENCHMARK(BM_SchnorrSign)->Unit(benchmark::kMillisecond);

void BM_SchnorrVerify(benchmark::State& state) {
  const GroupParams& group = GroupParams::Standard(512);
  Schnorr schnorr(group);
  SecureRandom rng(ToBytes("bench-schnorr-v"));
  SchnorrKeyPair keys = schnorr.GenerateKeyPair(rng);
  Bytes msg = ToBytes("daily aggregate 28.5 kWh");
  SchnorrSignature sig = schnorr.Sign(keys.private_key, msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr.Verify(keys.public_key, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify)->Unit(benchmark::kMillisecond);

void BM_PaillierEncrypt(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-paillier"));
  static PaillierKeyPair kp = Paillier::GenerateKeyPair(rng, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*kp.pub.Encrypt(BigInt(12345), rng));
  }
}
BENCHMARK(BM_PaillierEncrypt)->Unit(benchmark::kMillisecond);

void BM_PaillierDecrypt(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-paillier-d"));
  static PaillierKeyPair kp = Paillier::GenerateKeyPair(rng, 512);
  BigInt ct = *kp.pub.Encrypt(BigInt(12345), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*kp.priv.Decrypt(ct, kp.pub));
  }
}
BENCHMARK(BM_PaillierDecrypt)->Unit(benchmark::kMillisecond);

void BM_ShamirSplit(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-shamir"));
  Bytes key = rng.NextBytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *ShamirSecretSharing::SplitKey(key, 3, state.range(0), rng));
  }
}
BENCHMARK(BM_ShamirSplit)->Arg(5)->Arg(20);

void BM_ShamirReconstruct(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-shamir-r"));
  Bytes key = rng.NextBytes(32);
  auto shares = *ShamirSecretSharing::SplitKey(key, 3, 5, rng);
  std::vector<ShamirShare> subset(shares.begin(), shares.begin() + 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*ShamirSecretSharing::ReconstructKey(subset));
  }
}
BENCHMARK(BM_ShamirReconstruct);

}  // namespace
}  // namespace tc::crypto

BENCHMARK_MAIN();
