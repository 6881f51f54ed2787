#include "tc/tee/tee.h"

#include <algorithm>

#include "tc/common/codec.h"
#include "tc/crypto/aead.h"
#include "tc/crypto/group.h"
#include "tc/crypto/hkdf.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/shamir.h"

namespace tc::tee {
namespace {

const crypto::GroupParams& Group(size_t bits) {
  return crypto::GroupParams::Standard(bits);
}

// Seals into the TEE's one envelope layout, nonce(12) || ciphertext ||
// tag(32), written into a single buffer under a fresh nonce from `rng`.
Bytes SealEnvelope(const crypto::AeadKey& key, crypto::SecureRandom& rng,
                   const Bytes& aad, const Bytes& plaintext) {
  Bytes nonce = rng.NextBytes(crypto::kAeadNonceSize);
  Bytes out(crypto::kAeadNonceSize + plaintext.size() + crypto::kAeadTagSize);
  std::copy(nonce.begin(), nonce.end(), out.begin());
  key.Seal(out.data(), aad, plaintext, out.data() + crypto::kAeadNonceSize);
  return out;
}

// Opens an envelope of at least the nonce's length, reading the nonce and
// the body in place.
Result<Bytes> OpenEnvelope(const crypto::AeadKey& key, const Bytes& aad,
                           const Bytes& envelope) {
  return key.Open(envelope.data(), aad,
                  envelope.data() + crypto::kAeadNonceSize,
                  envelope.size() - crypto::kAeadNonceSize);
}

crypto::AeadKey WrapKey(const Bytes& pairwise_secret) {
  return crypto::AeadKey(crypto::DeriveKey(pairwise_secret, "tc.tee.keywrap"));
}

}  // namespace

TrustedExecutionEnvironment::TrustedExecutionEnvironment(
    std::string device_id, DeviceClass device_class, size_t group_bits)
    : device_id_(std::move(device_id)),
      profile_(DeviceProfile::Get(device_class)),
      group_bits_(group_bits),
      rng_(ToBytes("tc.device-secret." + device_id_)),
      keystore_(&rng_) {
  crypto::Schnorr schnorr(Group(group_bits_));
  signing_keys_ = schnorr.GenerateKeyPair(rng_);
  crypto::DiffieHellman dh(Group(group_bits_));
  dh_keys_ = dh.GenerateKeyPair(rng_);
}

uint64_t TrustedExecutionEnvironment::IncrementCounter(
    const std::string& name) {
  return ++counters_[name];
}

uint64_t TrustedExecutionEnvironment::CounterValue(
    const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Result<Bytes> TrustedExecutionEnvironment::Seal(const std::string& key_name,
                                                const Bytes& aad,
                                                const Bytes& plaintext) {
  TC_ASSIGN_OR_RETURN(const crypto::AeadKey* key,
                      keystore_.GetAeadKey(key_name));
  return SealEnvelope(*key, rng_, aad, plaintext);
}

Result<Bytes> TrustedExecutionEnvironment::Open(const std::string& key_name,
                                                const Bytes& aad,
                                                const Bytes& sealed) const {
  if (sealed.size() < crypto::kAeadNonceSize) {
    return Status::IntegrityViolation("sealed blob too short");
  }
  TC_ASSIGN_OR_RETURN(const crypto::AeadKey* key,
                      keystore_.GetAeadKey(key_name));
  return OpenEnvelope(*key, aad, sealed);
}

Result<Bytes> TrustedExecutionEnvironment::Mac(const std::string& key_name,
                                               const Bytes& message) const {
  TC_ASSIGN_OR_RETURN(Bytes key, keystore_.GetMaterial(key_name));
  return crypto::HmacSha256(key, message);
}

Status TrustedExecutionEnvironment::CheckMac(const std::string& key_name,
                                             const Bytes& message,
                                             const Bytes& tag) const {
  TC_ASSIGN_OR_RETURN(Bytes key, keystore_.GetMaterial(key_name));
  if (!crypto::HmacVerify(key, message, tag)) {
    return Status::IntegrityViolation("MAC mismatch");
  }
  return Status::OK();
}

crypto::SchnorrSignature TrustedExecutionEnvironment::Sign(
    const Bytes& message) {
  crypto::Schnorr schnorr(Group(group_bits_));
  return schnorr.Sign(signing_keys_.private_key, message, rng_);
}

bool TrustedExecutionEnvironment::VerifySignature(
    const crypto::BigInt& peer_public_key, const Bytes& message,
    const crypto::SchnorrSignature& signature, size_t group_bits) {
  crypto::Schnorr schnorr(Group(group_bits));
  return schnorr.Verify(peer_public_key, message, signature);
}

Result<Bytes> TrustedExecutionEnvironment::PairwiseSecret(
    const crypto::BigInt& peer_dh_public) const {
  crypto::DiffieHellman dh(Group(group_bits_));
  return dh.ComputeSharedKey(dh_keys_.private_key, peer_dh_public);
}

Result<Bytes> TrustedExecutionEnvironment::WrapKeyFor(
    const crypto::BigInt& peer_dh_public, const std::string& key_name,
    const Bytes& context) {
  TC_ASSIGN_OR_RETURN(Bytes material, keystore_.GetMaterial(key_name));
  TC_ASSIGN_OR_RETURN(Bytes shared, PairwiseSecret(peer_dh_public));
  return SealEnvelope(WrapKey(shared), rng_, context, material);
}

Status TrustedExecutionEnvironment::UnwrapKeyFrom(
    const crypto::BigInt& peer_dh_public, const Bytes& envelope,
    const Bytes& context, const std::string& store_as) {
  if (envelope.size() < crypto::kAeadNonceSize) {
    return Status::IntegrityViolation("wrap envelope too short");
  }
  TC_ASSIGN_OR_RETURN(Bytes shared, PairwiseSecret(peer_dh_public));
  TC_ASSIGN_OR_RETURN(Bytes material,
                      OpenEnvelope(WrapKey(shared), context, envelope));
  return keystore_.ImportKey(store_as, material);
}

Result<std::vector<Bytes>> TrustedExecutionEnvironment::ShardKeyFor(
    const std::string& key_name, int threshold,
    const std::vector<crypto::BigInt>& guardian_dh_publics,
    const Bytes& context) {
  TC_ASSIGN_OR_RETURN(Bytes material, keystore_.GetMaterial(key_name));
  if (material.size() != 32) {
    return Status::InvalidArgument("only 32-byte keys can be sharded");
  }
  TC_ASSIGN_OR_RETURN(
      std::vector<crypto::ShamirShare> shares,
      crypto::ShamirSecretSharing::SplitKey(
          material, threshold, static_cast<int>(guardian_dh_publics.size()),
          rng_));
  std::vector<Bytes> envelopes;
  envelopes.reserve(shares.size());
  for (size_t i = 0; i < shares.size(); ++i) {
    const Bytes share = Encode(shares[i].x, shares[i].y.ToBytesBE(33));
    // Wrap the serialized share directly under the pairwise secret with
    // guardian i (the construction WrapKeyFor uses; the share is transient
    // and never stored under a handle here).
    TC_ASSIGN_OR_RETURN(Bytes shared,
                        PairwiseSecret(guardian_dh_publics[i]));
    envelopes.push_back(SealEnvelope(WrapKey(shared), rng_, context, share));
  }
  return envelopes;
}

Status TrustedExecutionEnvironment::ReconstructKeyFromShares(
    const std::vector<std::string>& share_keys, const std::string& store_as) {
  std::vector<crypto::ShamirShare> shares;
  for (const std::string& name : share_keys) {
    TC_ASSIGN_OR_RETURN(Bytes material, keystore_.GetMaterial(name));
    crypto::ShamirShare share;
    Bytes y;
    TC_RETURN_IF_ERROR(Decode(material, &share.x, &y));
    share.y = crypto::BigInt::FromBytesBE(y);
    shares.push_back(std::move(share));
  }
  TC_ASSIGN_OR_RETURN(Bytes key,
                      crypto::ShamirSecretSharing::ReconstructKey(shares));
  return keystore_.ImportKey(store_as, key);
}

Status TrustedExecutionEnvironment::ReplaceKey(const std::string& key_name,
                                               const std::string& from_key) {
  TC_ASSIGN_OR_RETURN(Bytes material, keystore_.GetMaterial(from_key));
  if (keystore_.HasKey(key_name)) {
    TC_RETURN_IF_ERROR(keystore_.DestroyKey(key_name));
  }
  return keystore_.ImportKey(key_name, material);
}

void TrustedExecutionEnvironment::InstallEndorsement(Endorsement endorsement) {
  endorsement_ = std::move(endorsement);
}

Quote TrustedExecutionEnvironment::GenerateQuote(const Bytes& nonce,
                                                 const std::string& claims) {
  Quote quote;
  quote.device_id = device_id_;
  quote.nonce = nonce;
  quote.claims = claims;
  quote.boot_counter = CounterValue("boot");
  quote.signature = Sign(quote.SignedPayload());
  return quote;
}

bool TrustedExecutionEnvironment::VerifyQuote(const Quote& quote,
                                              const Endorsement& endorsement,
                                              const Manufacturer& manufacturer) {
  if (quote.device_id != endorsement.device_id) return false;
  if (!manufacturer.VerifyEndorsement(endorsement)) return false;
  return VerifySignature(endorsement.device_public_key, quote.SignedPayload(),
                         quote.signature, manufacturer.group_bits());
}

}  // namespace tc::tee
