#ifndef TC_CRYPTO_AES_CTR_H_
#define TC_CRYPTO_AES_CTR_H_

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/crypto/aes.h"

namespace tc::crypto {

inline constexpr size_t kCtrNonceSize = 12;

/// AES-CTR keystream cipher. The 16-byte counter block is
/// nonce(12) || big-endian block counter(4); encryption and decryption are
/// the same operation.
///
/// CTR alone provides no integrity — library code uses it only through
/// the AEAD (aead.h), flash pages included.
///
/// Writes input XOR keystream(aes, nonce) to `out`, `len` bytes each.
/// `out` may equal `input` (in-place); otherwise the two must not overlap.
void AesCtrXor(const Aes& aes, const uint8_t nonce[kCtrNonceSize],
               const uint8_t* input, size_t len, uint8_t* out);

/// One-shot form: expands `key` (16 or 32 bytes) and returns the output.
Result<Bytes> AesCtrCrypt(const Bytes& key, const Bytes& nonce,
                          const Bytes& input);

}  // namespace tc::crypto

#endif  // TC_CRYPTO_AES_CTR_H_
