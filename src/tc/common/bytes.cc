#include "tc/common/bytes.h"

#include "tc/common/macros.h"

namespace tc {

Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

std::string HexEncode(const Bytes& b) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t v : b) {
    out.push_back(kHex[v >> 4]);
    out.push_back(kHex[v & 0x0f]);
  }
  return out;
}

namespace {
int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Result<Bytes> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in input");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool ConstantTimeEqual(const Bytes& a, const Bytes& b) {
  return a.size() == b.size() &&
         ConstantTimeEqual(a.data(), b.data(), a.size());
}

bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t n) {
  uint8_t diff = 0;
  for (size_t i = 0; i < n; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

void Append(Bytes& dst, const Bytes& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void XorInto(Bytes& dst, const Bytes& src) {
  TC_CHECK(dst.size() == src.size());
  for (size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
}

}  // namespace tc
