#include "tc/crypto/aead.h"

#include "tc/crypto/aes_ctr.h"
#include "tc/crypto/hkdf.h"

namespace tc::crypto {

AeadKey::AeadKey(const Bytes& key)
    : enc_(*Aes::Create(DeriveKey(key, "tc.aead.enc"))),
      mac_(DeriveKey(key, "tc.aead.mac")) {}

void AeadKey::Tag(const uint8_t nonce[kAeadNonceSize], const Bytes& aad,
                  const uint8_t* ciphertext, size_t len,
                  uint8_t tag[kAeadTagSize]) const {
  uint8_t aad_len[8];
  for (int i = 0; i < 8; ++i) {
    aad_len[i] = static_cast<uint8_t>(static_cast<uint64_t>(aad.size()) >>
                                      (8 * i));
  }
  Sha256 inner = mac_.Begin();
  inner.Update(nonce, kAeadNonceSize);
  inner.Update(aad_len, sizeof(aad_len));
  inner.Update(aad);
  inner.Update(ciphertext, len);
  mac_.Finish(inner, tag);
}

void AeadKey::Seal(const uint8_t nonce[kAeadNonceSize], const Bytes& aad,
                   const Bytes& plaintext, uint8_t* out) const {
  AesCtrXor(enc_, nonce, plaintext.data(), plaintext.size(), out);
  Tag(nonce, aad, out, plaintext.size(), out + plaintext.size());
}

Result<Bytes> AeadKey::Open(const uint8_t nonce[kAeadNonceSize],
                            const Bytes& aad, const uint8_t* sealed,
                            size_t sealed_len) const {
  if (sealed_len < kAeadTagSize) {
    return Status::IntegrityViolation("sealed blob shorter than tag");
  }
  const size_t len = sealed_len - kAeadTagSize;
  uint8_t tag[kAeadTagSize];
  Tag(nonce, aad, sealed, len, tag);
  if (!ConstantTimeEqual(tag, sealed + len, kAeadTagSize)) {
    return Status::IntegrityViolation("AEAD tag mismatch");
  }
  Bytes plaintext(len);
  AesCtrXor(enc_, nonce, sealed, len, plaintext.data());
  return plaintext;
}

Result<Bytes> AeadSeal(const Bytes& key, const Bytes& nonce, const Bytes& aad,
                       const Bytes& plaintext) {
  if (nonce.size() != kAeadNonceSize) {
    return Status::InvalidArgument("AEAD nonce must be 12 bytes");
  }
  Bytes sealed(plaintext.size() + kAeadTagSize);
  AeadKey(key).Seal(nonce.data(), aad, plaintext, sealed.data());
  return sealed;
}

Result<Bytes> AeadOpen(const Bytes& key, const Bytes& nonce, const Bytes& aad,
                       const Bytes& sealed) {
  if (nonce.size() != kAeadNonceSize) {
    return Status::InvalidArgument("AEAD nonce must be 12 bytes");
  }
  return AeadKey(key).Open(nonce.data(), aad, sealed.data(), sealed.size());
}

}  // namespace tc::crypto
