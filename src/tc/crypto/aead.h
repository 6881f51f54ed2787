#ifndef TC_CRYPTO_AEAD_H_
#define TC_CRYPTO_AEAD_H_

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/crypto/aes.h"
#include "tc/crypto/hmac.h"

namespace tc::crypto {

inline constexpr size_t kAeadNonceSize = 12;
inline constexpr size_t kAeadTagSize = 32;

/// Authenticated encryption with associated data, built as
/// Encrypt-then-MAC: AES-256-CTR under an encryption subkey, then
/// HMAC-SHA256 over nonce || LE64(|aad|) || aad || ciphertext under an
/// independent MAC subkey (both derived from the key via HKDF, labels
/// "tc.aead.enc" and "tc.aead.mac").
///
/// This is the sealing primitive for everything a trusted cell hands to the
/// untrusted infrastructure: vault documents, audit-log entries, sharing
/// envelopes, flash pages. The associated data binds context (document id,
/// version, policy hash) so the weakly-malicious cloud cannot splice
/// ciphertexts across contexts without detection.
///
/// An AeadKey is a key expanded once: the AES-256 schedule of its
/// encryption subkey and the HMAC-SHA256 ipad/opad midstates of its MAC
/// subkey, about 300 bytes. The TEE's KeyStore builds one per key when
/// the key is installed, so sealing a page costs the CTR pass and the
/// tag, not two HKDFs and a key expansion. Sealing and opening are const
/// and touch no shared state, so any number of threads may use one key.
class AeadKey {
 public:
  explicit AeadKey(const Bytes& key);

  /// Writes ciphertext || tag, plaintext.size() + kAeadTagSize bytes, to
  /// `out`, which must not overlap the inputs.
  void Seal(const uint8_t nonce[kAeadNonceSize], const Bytes& aad,
            const Bytes& plaintext, uint8_t* out) const;

  /// Opens `sealed_len` bytes of ciphertext || tag read in place. Fails
  /// with kIntegrityViolation on any forgery, truncation, nonce or AAD
  /// mismatch, before decrypting anything.
  Result<Bytes> Open(const uint8_t nonce[kAeadNonceSize], const Bytes& aad,
                     const uint8_t* sealed, size_t sealed_len) const;

 private:
  void Tag(const uint8_t nonce[kAeadNonceSize], const Bytes& aad,
           const uint8_t* ciphertext, size_t len,
           uint8_t tag[kAeadTagSize]) const;

  Aes enc_;
  HmacSha256Key mac_;
};

/// One-shot forms for a key used once: expand `key`, then seal or open
/// through AeadKey. Output layout: ciphertext || tag.
Result<Bytes> AeadSeal(const Bytes& key, const Bytes& nonce, const Bytes& aad,
                       const Bytes& plaintext);

/// Reverses AeadSeal. Fails with kIntegrityViolation on any forgery,
/// truncation, nonce or AAD mismatch.
Result<Bytes> AeadOpen(const Bytes& key, const Bytes& nonce, const Bytes& aad,
                       const Bytes& sealed);

}  // namespace tc::crypto

#endif  // TC_CRYPTO_AEAD_H_
