#include "tc/crypto/schnorr.h"

#include "tc/common/codec.h"
#include "tc/crypto/sha256.h"

namespace tc::crypto {

Bytes SchnorrSignature::Serialize(size_t q_width) const {
  return Encode(e.ToBytesBE(q_width), s.ToBytesBE(q_width));
}

Result<SchnorrSignature> SchnorrSignature::Deserialize(const Bytes& data) {
  Bytes e_bytes, s_bytes;
  TC_RETURN_IF_ERROR(Decode(data, &e_bytes, &s_bytes));
  return SchnorrSignature{BigInt::FromBytesBE(e_bytes),
                          BigInt::FromBytesBE(s_bytes)};
}

SchnorrKeyPair Schnorr::GenerateKeyPair(SecureRandom& rng) const {
  BigInt x = BigInt::Add(
      BigInt::RandomBelow(rng, BigInt::Sub(group_.q, BigInt(1))), BigInt(1));
  return SchnorrKeyPair{x, BigInt::ModExp(group_.g, x, group_.p)};
}

BigInt Schnorr::Challenge(const BigInt& r, const Bytes& message) const {
  size_t p_width = (group_.p.BitLength() + 7) / 8;
  Sha256 h;
  h.Update(r.ToBytesBE(p_width));
  h.Update(message);
  return BigInt::Mod(BigInt::FromBytesBE(h.Finish()), group_.q);
}

SchnorrSignature Schnorr::Sign(const BigInt& private_key, const Bytes& message,
                               SecureRandom& rng) const {
  // Fresh nonce k in [1, q-1]; R = g^k; e = H(R || m); s = k - x e mod q.
  BigInt k = BigInt::Add(
      BigInt::RandomBelow(rng, BigInt::Sub(group_.q, BigInt(1))), BigInt(1));
  BigInt r = BigInt::ModExp(group_.g, k, group_.p);
  BigInt e = Challenge(r, message);
  BigInt s = BigInt::ModSub(k, BigInt::ModMul(private_key, e, group_.q),
                            group_.q);
  return SchnorrSignature{e, s};
}

bool Schnorr::Verify(const BigInt& public_key, const Bytes& message,
                     const SchnorrSignature& sig) const {
  if (BigInt::Compare(sig.e, group_.q) >= 0 ||
      BigInt::Compare(sig.s, group_.q) >= 0) {
    return false;
  }
  // R' = g^s * y^e mod p; accept iff H(R' || m) == e.
  BigInt rv = BigInt::ModMul(BigInt::ModExp(group_.g, sig.s, group_.p),
                             BigInt::ModExp(public_key, sig.e, group_.p),
                             group_.p);
  return Challenge(rv, message) == sig.e;
}

}  // namespace tc::crypto
