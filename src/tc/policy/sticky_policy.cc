#include "tc/policy/sticky_policy.h"

#include "tc/crypto/hkdf.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/sha256.h"

namespace tc::policy {
namespace {

const std::string kStickyMagic = "tc.sticky.v1";

Bytes MacKey(const Bytes& data_key) {
  return crypto::DeriveKey(data_key, "tc.policy.sticky-mac");
}

Bytes MacInput(const Bytes& policy_bytes, const std::string& object_id) {
  return Encode(kStickyMagic, object_id, policy_bytes);
}

/// The envelope: magic, policy bytes, their SHA-256, the binding MAC.
Status DecodeEnvelope(const Bytes& envelope, Bytes* policy_bytes, Bytes* hash,
                      Bytes* tag) {
  std::string magic;
  TC_RETURN_IF_ERROR(Decode(envelope, &magic, policy_bytes, hash, tag));
  if (magic != kStickyMagic) {
    return Status::Corruption("bad sticky envelope magic");
  }
  return Status::OK();
}

}  // namespace

Bytes StickyPolicy::BindWithMac(const Policy& policy,
                                const std::string& object_id,
                                const MacFn& mac) {
  Bytes policy_bytes = policy.Serialize();
  Bytes tag = mac(MacInput(policy_bytes, object_id));
  return Encode(kStickyMagic, policy_bytes, crypto::Sha256Hash(policy_bytes),
                tag);
}

Result<Policy> StickyPolicy::VerifyAndExtractWithMac(const Bytes& envelope,
                                                     const std::string& object_id,
                                                     const MacFn& mac) {
  Bytes policy_bytes, hash, tag;
  TC_RETURN_IF_ERROR(DecodeEnvelope(envelope, &policy_bytes, &hash, &tag));
  if (!ConstantTimeEqual(mac(MacInput(policy_bytes, object_id)), tag)) {
    return Status::IntegrityViolation("sticky policy binding MAC mismatch");
  }
  if (!ConstantTimeEqual(hash, crypto::Sha256Hash(policy_bytes))) {
    return Status::IntegrityViolation("sticky policy hash mismatch");
  }
  return Policy::Deserialize(policy_bytes);
}

Bytes StickyPolicy::Bind(const Policy& policy, const std::string& object_id,
                         const Bytes& data_key) {
  Bytes mac_key = MacKey(data_key);
  return BindWithMac(policy, object_id, [&](const Bytes& input) {
    return crypto::HmacSha256(mac_key, input);
  });
}

Result<Policy> StickyPolicy::VerifyAndExtract(const Bytes& envelope,
                                              const std::string& object_id,
                                              const Bytes& data_key) {
  Bytes mac_key = MacKey(data_key);
  return VerifyAndExtractWithMac(envelope, object_id,
                                 [&](const Bytes& input) {
                                   return crypto::HmacSha256(mac_key, input);
                                 });
}

Result<Bytes> StickyPolicy::PeekPolicyHash(const Bytes& envelope) {
  Bytes policy_bytes, hash, tag;
  TC_RETURN_IF_ERROR(DecodeEnvelope(envelope, &policy_bytes, &hash, &tag));
  return hash;
}

}  // namespace tc::policy
