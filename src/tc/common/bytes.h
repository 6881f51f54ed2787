#ifndef TC_COMMON_BYTES_H_
#define TC_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tc/common/result.h"

namespace tc {

/// Owned byte buffer used across the code base for ciphertexts, serialized
/// records, keys and hashes.
using Bytes = std::vector<uint8_t>;

/// Copies the characters of `s` into a byte buffer.
Bytes ToBytes(std::string_view s);

/// Reinterprets `b` as text.
std::string ToString(const Bytes& b);

/// Lower-case hex encoding, e.g. {0xde, 0xad} -> "dead".
std::string HexEncode(const Bytes& b);

/// Parses a hex string produced by HexEncode. Fails on odd length or
/// non-hex characters.
Result<Bytes> HexDecode(std::string_view hex);

/// Constant-time equality. Used for MAC/tag comparison so that the simulated
/// adversary cannot use timing as an oracle (and because real trusted-cell
/// firmware must do the same).
bool ConstantTimeEqual(const Bytes& a, const Bytes& b);
bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t n);

/// Appends `src` to `dst`.
void Append(Bytes& dst, const Bytes& src);

/// XORs `src` into `dst` (dst[i] ^= src[i]); sizes must match.
void XorInto(Bytes& dst, const Bytes& src);

}  // namespace tc

#endif  // TC_COMMON_BYTES_H_
