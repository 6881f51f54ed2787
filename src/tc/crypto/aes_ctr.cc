#include "tc/crypto/aes_ctr.h"

#include <algorithm>
#include <cstring>

namespace tc::crypto {

void AesCtrXor(const Aes& aes, const uint8_t nonce[kCtrNonceSize],
               const uint8_t* input, size_t len, uint8_t* out) {
  uint8_t counter_block[kAesBlockSize];
  uint8_t keystream[kAesBlockSize];
  std::memcpy(counter_block, nonce, kCtrNonceSize);

  uint32_t counter = 0;
  for (size_t offset = 0; offset < len; offset += kAesBlockSize) {
    counter_block[12] = static_cast<uint8_t>(counter >> 24);
    counter_block[13] = static_cast<uint8_t>(counter >> 16);
    counter_block[14] = static_cast<uint8_t>(counter >> 8);
    counter_block[15] = static_cast<uint8_t>(counter);
    aes.EncryptBlock(counter_block, keystream);
    size_t n = std::min(len - offset, kAesBlockSize);
    for (size_t i = 0; i < n; ++i) {
      out[offset + i] = input[offset + i] ^ keystream[i];
    }
    ++counter;
  }
}

Result<Bytes> AesCtrCrypt(const Bytes& key, const Bytes& nonce,
                          const Bytes& input) {
  if (nonce.size() != kCtrNonceSize) {
    return Status::InvalidArgument("CTR nonce must be 12 bytes");
  }
  TC_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  Bytes out(input.size());
  AesCtrXor(aes, nonce.data(), input.data(), input.size(), out.data());
  return out;
}

}  // namespace tc::crypto
