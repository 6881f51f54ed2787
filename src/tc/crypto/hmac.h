#ifndef TC_CRYPTO_HMAC_H_
#define TC_CRYPTO_HMAC_H_

#include "tc/common/bytes.h"
#include "tc/crypto/sha256.h"

namespace tc::crypto {

/// An HMAC-SHA256 key with its two padded key blocks already hashed: the
/// SHA-256 midstates after key ^ ipad and after key ^ opad, 64 bytes in
/// all. A key that tags many messages pays for its key blocks once.
class HmacSha256Key {
 public:
  /// Keys of any length are accepted (hashed down if longer than the
  /// 64-byte block size).
  explicit HmacSha256Key(const Bytes& key);

  /// An inner hash that has absorbed key ^ ipad; Update it with the
  /// message, then pass it to Finish.
  Sha256 Begin() const { return Sha256(inner_, 1); }

  /// Completes the tag of the message absorbed by `inner`.
  void Finish(Sha256& inner, uint8_t tag[kSha256DigestSize]) const;

 private:
  Sha256::Midstate inner_;
  Sha256::Midstate outer_;
};

/// HMAC-SHA256 (RFC 2104) in one call.
Bytes HmacSha256(const Bytes& key, const Bytes& message);

/// Verifies a tag in constant time.
bool HmacVerify(const Bytes& key, const Bytes& message, const Bytes& tag);

}  // namespace tc::crypto

#endif  // TC_CRYPTO_HMAC_H_
