#ifndef TC_COMMON_CODEC_H_
#define TC_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/result.h"

namespace tc {

/// Append-only binary encoder for the project's wire/storage format.
///
/// Integers are little-endian fixed width or LEB128 varints; strings and
/// byte blobs are varint-length-prefixed. Records are written through the
/// typed Put/Encode layer below; only the compressed formats (LogStore
/// page records, keyword postings, time-series chunks, telemetry frames)
/// and the fixed-size rpc frame header call these methods directly.
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

// ---------------------------------------------------------------------------
// One codec for every record
// ---------------------------------------------------------------------------
//
// Every record a cell stores, seals, signs or sends is a list of fields,
// and each field type has one Put and one Get. Encodings:
//   bool, uint8_t      one byte (a bool byte above 1 is corrupt)
//   uint32_t, uint64_t little-endian fixed width
//   int64_t, double    the same eight bytes as uint64_t (a double's IEEE
//                      bits)
//   string, Bytes      varint length, then the bytes
//   Status             u8 code, string message
//   vector<T>          varint count, then each element
//   pair<A, B>         A, then B
//   Result<T>          Status, then the value, or T() when not OK
//   a struct           its fields in declaration order
//
// A struct's Put and Get sit beside the type, in its namespace, so that
// argument-dependent lookup finds them from the templates here.
//
// Every Get fails with a non-OK status on truncated, oversized or
// inconsistent input: it never over-reads, and a vector's count is checked
// against the bytes left (CheckCount, at each element's fewest bytes)
// before anything is reserved. Decode is exact: bytes left over after the
// last field are corrupt.

void Put(BinaryWriter& w, bool v);
void Put(BinaryWriter& w, uint8_t v);
void Put(BinaryWriter& w, uint32_t v);
void Put(BinaryWriter& w, uint64_t v);
void Put(BinaryWriter& w, int64_t v);
void Put(BinaryWriter& w, double v);
void Put(BinaryWriter& w, const std::string& v);
/// A literal would otherwise convert to bool, not to std::string.
void Put(BinaryWriter& w, const char* v) = delete;
void Put(BinaryWriter& w, const Bytes& v);
void Put(BinaryWriter& w, const Status& v);

/// Each Get decodes into `*v`. The RETURNED status reports decode success;
/// a decoded Status (a field's value) lands in `*v`.
Status Get(BinaryReader& r, bool* v);
Status Get(BinaryReader& r, uint8_t* v);
Status Get(BinaryReader& r, uint32_t* v);
Status Get(BinaryReader& r, uint64_t* v);
Status Get(BinaryReader& r, int64_t* v);
Status Get(BinaryReader& r, double* v);
Status Get(BinaryReader& r, std::string* v);
Status Get(BinaryReader& r, Bytes* v);
Status Get(BinaryReader& r, Status* v);

template <typename T>
void Put(BinaryWriter& w, const std::vector<T>& v);
template <typename T>
Status Get(BinaryReader& r, std::vector<T>* v);
template <typename A, typename B>
void Put(BinaryWriter& w, const std::pair<A, B>& v);
template <typename A, typename B>
Status Get(BinaryReader& r, std::pair<A, B>* v);
template <typename T>
void Put(BinaryWriter& w, const Result<T>& v);
template <typename T>
Status Get(BinaryReader& r, Result<T>* v);

/// A struct's fields, in declaration order.
template <typename... Fields>
void PutFields(BinaryWriter& w, const Fields&... fields) {
  (Put(w, fields), ...);
}

/// Stops at the first field that fails.
template <typename... Fields>
Status GetFields(BinaryReader& r, Fields*... fields) {
  Status status;
  (void)((status = Get(r, fields)).ok() && ...);
  return status;
}

/// One record: `fields` in order.
template <typename... Fields>
Bytes Encode(const Fields&... fields) {
  BinaryWriter w;
  PutFields(w, fields...);
  return w.Take();
}

/// Reads exactly `fields` from `payload`, in order; fails on the first
/// field that does not decode and on trailing bytes (framing is exact).
template <typename... Fields>
Status Decode(const Bytes& payload, Fields*... fields) {
  BinaryReader r(payload);
  TC_RETURN_IF_ERROR(GetFields(r, fields...));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after record");
  return Status::OK();
}

/// The fewest bytes one element of a vector<T> takes: one for a byte or an
/// empty string, more for a fixed-width field. A struct whose fewest bytes
/// exceed one specializes this beside its Put and Get.
template <typename T>
inline constexpr size_t kMinEncodedBytes = 1;
template <>
inline constexpr size_t kMinEncodedBytes<uint64_t> = 8;
template <typename A, typename B>
inline constexpr size_t kMinEncodedBytes<std::pair<A, B>> =
    kMinEncodedBytes<A> + kMinEncodedBytes<B>;

template <typename T>
void Put(BinaryWriter& w, const std::vector<T>& v) {
  w.PutVarint(v.size());
  for (const T& e : v) Put(w, e);
}

template <typename T>
Status Get(BinaryReader& r, std::vector<T>* v) {
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  TC_RETURN_IF_ERROR(CheckCount(r, n, kMinEncodedBytes<T>));
  v->clear();
  v->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    T e;
    TC_RETURN_IF_ERROR(Get(r, &e));
    v->push_back(std::move(e));
  }
  return Status::OK();
}

template <typename A, typename B>
void Put(BinaryWriter& w, const std::pair<A, B>& v) {
  Put(w, v.first);
  Put(w, v.second);
}

template <typename A, typename B>
Status Get(BinaryReader& r, std::pair<A, B>* v) {
  TC_RETURN_IF_ERROR(Get(r, &v->first));
  return Get(r, &v->second);
}

template <typename T>
void Put(BinaryWriter& w, const Result<T>& v) {
  Put(w, v.status());
  if (v.ok()) {
    Put(w, *v);
  } else {
    Put(w, T());
  }
}

template <typename T>
Status Get(BinaryReader& r, Result<T>* v) {
  Status status;
  TC_RETURN_IF_ERROR(Get(r, &status));
  T value;
  TC_RETURN_IF_ERROR(Get(r, &value));
  if (status.ok()) {
    *v = std::move(value);
  } else {
    *v = std::move(status);
  }
  return Status::OK();
}

}  // namespace tc

#endif  // TC_COMMON_CODEC_H_
