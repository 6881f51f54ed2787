#include "tc/tee/attestation.h"

#include "tc/common/codec.h"
#include "tc/crypto/group.h"

namespace tc::tee {

Bytes Quote::SignedPayload() const {
  return Encode(std::string("tc.quote.v1"), device_id, nonce, claims,
                boot_counter);
}

Manufacturer::Manufacturer(const std::string& seed_label, size_t group_bits)
    : group_bits_(group_bits),
      rng_(ToBytes("tc.manufacturer." + seed_label)) {
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits_));
  key_pair_ = schnorr.GenerateKeyPair(rng_);
}

Bytes Manufacturer::EndorsementPayload(
    const std::string& device_id, const crypto::BigInt& device_public_key) {
  return Encode(std::string("tc.endorsement.v1"), device_id,
                device_public_key.ToBytesBE());
}

Endorsement Manufacturer::Endorse(const std::string& device_id,
                                  const crypto::BigInt& device_public_key) {
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits_));
  return Endorsement{
      device_id, device_public_key,
      schnorr.Sign(key_pair_.private_key,
                   EndorsementPayload(device_id, device_public_key), rng_)};
}

bool Manufacturer::VerifyEndorsement(const Endorsement& endorsement) const {
  crypto::Schnorr schnorr(crypto::GroupParams::Standard(group_bits_));
  return schnorr.Verify(
      key_pair_.public_key,
      EndorsementPayload(endorsement.device_id,
                         endorsement.device_public_key),
      endorsement.signature);
}

}  // namespace tc::tee
