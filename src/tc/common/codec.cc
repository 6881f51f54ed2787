#include "tc/common/codec.h"

#include <cstring>

#include "tc/common/macros.h"

namespace tc {

void BinaryWriter::PutU8(uint8_t v) { buf_.push_back(v); }

void BinaryWriter::PutU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void BinaryWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void BinaryWriter::PutBytes(const Bytes& b) {
  PutVarint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void BinaryWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryWriter::PutRaw(const Bytes& b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void BinaryWriter::PutBool(bool v) { PutU8(v ? 1 : 0); }

Result<uint8_t> BinaryReader::GetU8() {
  if (remaining() < 1) return Status::Corruption("truncated u8");
  return buf_[pos_++];
}

Result<uint16_t> BinaryReader::GetU16() {
  if (remaining() < 2) return Status::Corruption("truncated u16");
  uint16_t v = static_cast<uint16_t>(buf_[pos_]) |
               static_cast<uint16_t>(buf_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> BinaryReader::GetU32() {
  if (remaining() < 4) return Status::Corruption("truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::GetU64() {
  if (remaining() < 8) return Status::Corruption("truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> BinaryReader::GetI64() {
  TC_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> BinaryReader::GetDouble() {
  TC_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<uint64_t> BinaryReader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return Status::Corruption("truncated varint");
    uint8_t byte = buf_[pos_++];
    if (shift >= 63 && byte > 1) return Status::Corruption("varint overflow");
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<Bytes> BinaryReader::GetBytes() {
  TC_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  if (remaining() < n) return Status::Corruption("truncated byte blob");
  Bytes out(buf_.begin() + pos_, buf_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<std::string> BinaryReader::GetString() {
  TC_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  if (remaining() < n) return Status::Corruption("truncated string");
  std::string out(buf_.begin() + pos_, buf_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<Bytes> BinaryReader::GetRaw(size_t n) {
  if (remaining() < n) return Status::Corruption("truncated raw bytes");
  Bytes out(buf_.begin() + pos_, buf_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<bool> BinaryReader::GetBool() {
  TC_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  if (v > 1) return Status::Corruption("invalid bool encoding");
  return v == 1;
}

namespace {

constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kAborted);

template <typename T>
Status Take(Result<T> got, T* out) {
  if (!got.ok()) return got.status();
  *out = std::move(got).value();
  return Status::OK();
}

}  // namespace

Status CheckCount(const BinaryReader& r, uint64_t count,
                  size_t min_bytes_per) {
  if (min_bytes_per == 0) min_bytes_per = 1;
  if (count > r.remaining() / min_bytes_per) {
    return Status::Corruption("element count exceeds payload bytes");
  }
  return Status::OK();
}

void Put(BinaryWriter& w, bool v) { w.PutBool(v); }
void Put(BinaryWriter& w, uint8_t v) { w.PutU8(v); }
void Put(BinaryWriter& w, uint32_t v) { w.PutU32(v); }
void Put(BinaryWriter& w, uint64_t v) { w.PutU64(v); }
void Put(BinaryWriter& w, int64_t v) { w.PutI64(v); }
void Put(BinaryWriter& w, double v) { w.PutDouble(v); }
void Put(BinaryWriter& w, const std::string& v) { w.PutString(v); }
void Put(BinaryWriter& w, const Bytes& v) { w.PutBytes(v); }

void Put(BinaryWriter& w, const Status& v) {
  PutFields(w, static_cast<uint8_t>(v.code()), v.message());
}

Status Get(BinaryReader& r, bool* v) { return Take(r.GetBool(), v); }
Status Get(BinaryReader& r, uint8_t* v) { return Take(r.GetU8(), v); }
Status Get(BinaryReader& r, uint32_t* v) { return Take(r.GetU32(), v); }
Status Get(BinaryReader& r, uint64_t* v) { return Take(r.GetU64(), v); }
Status Get(BinaryReader& r, int64_t* v) { return Take(r.GetI64(), v); }
Status Get(BinaryReader& r, double* v) { return Take(r.GetDouble(), v); }
Status Get(BinaryReader& r, std::string* v) { return Take(r.GetString(), v); }
Status Get(BinaryReader& r, Bytes* v) { return Take(r.GetBytes(), v); }

Status Get(BinaryReader& r, Status* v) {
  uint8_t code = 0;
  TC_RETURN_IF_ERROR(Get(r, &code));
  if (code > kMaxStatusCode) {
    return Status::Corruption("unknown status code in record");
  }
  std::string message;
  TC_RETURN_IF_ERROR(Get(r, &message));
  *v = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

}  // namespace tc
