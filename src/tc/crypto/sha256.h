#ifndef TC_CRYPTO_SHA256_H_
#define TC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "tc/common/bytes.h"

namespace tc::crypto {

inline constexpr size_t kSha256DigestSize = 32;

/// Incremental SHA-256 (FIPS 180-4).
///
/// This is the project's only hash; everything — Merkle trees, HMAC, audit
/// chains, content addressing in the cloud blob store — is built on it.
/// Like the rest of tc::crypto it is a clean-room educational
/// implementation: correct (validated against the FIPS test vectors in
/// tests/crypto) but not hardened against side channels.
class Sha256 {
 public:
  /// The chaining value h0..h7 between two 64-byte blocks. HMAC keeps the
  /// ones after its padded key blocks, so a reused key hashes them once.
  using Midstate = std::array<uint32_t, 8>;

  Sha256();
  /// A hash that has absorbed `blocks` 64-byte blocks ending in `state`.
  Sha256(const Midstate& state, uint64_t blocks);

  /// Absorbs more input. May be called any number of times.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data);

  /// The chaining value so far. Valid only when a whole number of 64-byte
  /// blocks has been absorbed.
  Midstate midstate() const;

  /// Completes the computation and writes the 32-byte digest. The object
  /// must not be reused afterwards without calling Reset().
  void Finish(uint8_t digest[kSha256DigestSize]);
  Bytes Finish();

  /// Returns the object to its freshly-constructed state.
  void Reset();

 private:
  void ProcessBlock(const uint8_t* block);

  Midstate h_;
  uint8_t buffer_[64];
  size_t buffer_len_;
  uint64_t total_len_;
};

/// One-shot convenience: SHA-256(data).
Bytes Sha256Hash(const Bytes& data);

/// One-shot over the concatenation a || b (common for hash chaining).
Bytes Sha256Hash2(const Bytes& a, const Bytes& b);

}  // namespace tc::crypto

#endif  // TC_CRYPTO_SHA256_H_
