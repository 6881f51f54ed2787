#include "tc/crypto/hmac.h"

namespace tc::crypto {

HmacSha256Key::HmacSha256Key(const Bytes& key) {
  constexpr size_t kBlockSize = 64;
  Bytes k = key;
  if (k.size() > kBlockSize) k = Sha256Hash(k);
  k.resize(kBlockSize, 0);

  uint8_t ipad[kBlockSize], opad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(ipad, kBlockSize);
  inner_ = inner.midstate();
  Sha256 outer;
  outer.Update(opad, kBlockSize);
  outer_ = outer.midstate();
}

void HmacSha256Key::Finish(Sha256& inner,
                           uint8_t tag[kSha256DigestSize]) const {
  uint8_t inner_digest[kSha256DigestSize];
  inner.Finish(inner_digest);
  Sha256 outer(outer_, 1);
  outer.Update(inner_digest, kSha256DigestSize);
  outer.Finish(tag);
}

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  HmacSha256Key mac(key);
  Sha256 inner = mac.Begin();
  inner.Update(message);
  Bytes tag(kSha256DigestSize);
  mac.Finish(inner, tag.data());
  return tag;
}

bool HmacVerify(const Bytes& key, const Bytes& message, const Bytes& tag) {
  return ConstantTimeEqual(HmacSha256(key, message), tag);
}

}  // namespace tc::crypto
