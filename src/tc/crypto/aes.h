#ifndef TC_CRYPTO_AES_H_
#define TC_CRYPTO_AES_H_

#include <cstdint>

#include "tc/common/bytes.h"
#include "tc/common/result.h"

namespace tc::crypto {

inline constexpr size_t kAesBlockSize = 16;

/// AES block cipher (FIPS 197), supporting 128- and 256-bit keys. Encrypt
/// direction only: CTR mode, the one mode built on it, never decrypts a
/// block.
///
/// A round is the 32-bit T-table formulation: SubBytes, ShiftRows and
/// MixColumns of one column are four lookups into 256-entry word tables
/// and three XORs, and the last round uses the S-box alone. The S-box is
/// derived at start-up from the GF(2^8) inverse + affine transform instead
/// of being transcribed, and the four tables from the S-box. The FIPS-197
/// vectors and a differential sweep against a byte-wise round in
/// tests/crypto pin it. Its lookups are indexed by secret state, so it is
/// not cache-timing resistant — acceptable for a simulated TEE, documented
/// as such. There is one portable path and no AES-NI one: device crypto
/// cost is a modelling question, not a property of the lab CPU.
class Aes {
 public:
  /// Expands the key schedule. `key` must be 16 or 32 bytes.
  static Result<Aes> Create(const Bytes& key);

  /// Encrypts exactly one 16-byte block, `out` may alias `in`.
  void EncryptBlock(const uint8_t in[kAesBlockSize],
                    uint8_t out[kAesBlockSize]) const;

  int rounds() const { return rounds_; }

 private:
  Aes() = default;
  uint32_t round_keys_[60];  // Up to 15 round keys of 4 words (AES-256).
  int rounds_ = 0;
};

}  // namespace tc::crypto

#endif  // TC_CRYPTO_AES_H_
