#ifndef TC_COMMON_CODEC_H_
#define TC_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "tc/common/bytes.h"
#include "tc/common/result.h"

namespace tc {

/// Append-only binary encoder for the project's wire/storage format.
///
/// Integers are little-endian fixed width or LEB128 varints; strings and
/// byte blobs are varint-length-prefixed. The format is deliberately simple:
/// everything a trusted cell persists or ships to the untrusted cloud goes
/// through this codec, so that byte layouts are identical across modules.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);
  void PutVarint(uint64_t v);
  /// Length-prefixed byte blob.
  void PutBytes(const Bytes& b);
  /// Length-prefixed UTF-8 string.
  void PutString(std::string_view s);
  /// Raw bytes with no length prefix (caller knows the framing).
  void PutRaw(const Bytes& b);
  void PutBool(bool v);

  const Bytes& buffer() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Sequential decoder matching BinaryWriter. All getters fail with
/// `kCorruption` on truncated input instead of reading out of bounds.
class BinaryReader {
 public:
  explicit BinaryReader(const Bytes& buf) : buf_(buf) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<uint64_t> GetVarint();
  Result<Bytes> GetBytes();
  Result<std::string> GetString();
  /// Reads exactly `n` raw bytes.
  Result<Bytes> GetRaw(size_t n);
  Result<bool> GetBool();

  size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t position() const { return pos_; }

 private:
  const Bytes& buf_;
  size_t pos_ = 0;
};

/// Checks an element count decoded from `r` against the bytes still left
/// in it: each counted element costs at least `min_bytes_per` bytes (0 is
/// taken as 1), so a larger count is corrupt (`kCorruption`). Call it
/// BEFORE reserving memory for the elements: a count read from untrusted
/// or damaged bytes must never size an allocation.
Status CheckCount(const BinaryReader& r, uint64_t count, size_t min_bytes_per);

}  // namespace tc

#endif  // TC_COMMON_CODEC_H_
