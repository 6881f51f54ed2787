#include "tc/db/value.h"

#include <cmath>

namespace tc::db {

std::string_view ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kBytes:
      return "bytes";
    case ValueType::kTimestamp:
      return "timestamp";
  }
  return "?";
}

ValueType Value::type() const {
  return static_cast<ValueType>(repr_.index());
}

Result<double> Value::AsNumeric() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kTimestamp:
      return static_cast<double>(AsTimestamp());
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    default:
      return Status::InvalidArgument(
          std::string("value of type ") + std::string(ValueTypeName(type())) +
          " is not numeric");
  }
}

namespace {

/// Reads one `T`, then makes the value of it.
template <typename T, typename Make>
Status GetAs(BinaryReader& r, Value* v, Make make) {
  T alternative;
  TC_RETURN_IF_ERROR(Get(r, &alternative));
  *v = make(std::move(alternative));
  return Status::OK();
}

}  // namespace

void Put(BinaryWriter& w, const Value& v) {
  Put(w, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      Put(w, v.AsBool());
      break;
    case ValueType::kInt64:
      Put(w, v.AsInt64());
      break;
    case ValueType::kDouble:
      Put(w, v.AsDouble());
      break;
    case ValueType::kString:
      Put(w, v.AsString());
      break;
    case ValueType::kBytes:
      Put(w, v.AsBytes());
      break;
    case ValueType::kTimestamp:
      Put(w, v.AsTimestamp());
      break;
  }
}

Status Get(BinaryReader& r, Value* v) {
  uint8_t tag = 0;
  TC_RETURN_IF_ERROR(Get(r, &tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *v = Value::Null();
      return Status::OK();
    case ValueType::kBool:
      return GetAs<bool>(r, v, Value::Bool);
    case ValueType::kInt64:
      return GetAs<int64_t>(r, v, Value::Int64);
    case ValueType::kDouble:
      return GetAs<double>(r, v, Value::Double);
    case ValueType::kString:
      return GetAs<std::string>(r, v, Value::String);
    case ValueType::kBytes:
      return GetAs<Bytes>(r, v, Value::Blob);
    case ValueType::kTimestamp:
      return GetAs<int64_t>(r, v, Value::TimestampVal);
  }
  return Status::Corruption("unknown value type tag");
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kString:
      return AsString();
    case ValueType::kBytes:
      return "0x" + HexEncode(AsBytes());
    case ValueType::kTimestamp:
      return FormatTimestamp(AsTimestamp());
  }
  return "?";
}

Result<int> Value::Compare(const Value& a, const Value& b) {
  // Numeric types compare across Int64/Double.
  auto numeric = [](const Value& v) {
    return v.type() == ValueType::kInt64 || v.type() == ValueType::kDouble;
  };
  if (numeric(a) && numeric(b)) {
    double x = *a.AsNumeric();
    double y = *b.AsNumeric();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.type() != b.type()) {
    return Status::InvalidArgument("cannot compare values of different types");
  }
  switch (a.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return static_cast<int>(a.AsBool()) - static_cast<int>(b.AsBool());
    case ValueType::kTimestamp: {
      if (a.AsTimestamp() < b.AsTimestamp()) return -1;
      if (a.AsTimestamp() > b.AsTimestamp()) return 1;
      return 0;
    }
    case ValueType::kString:
      return a.AsString().compare(b.AsString()) < 0
                 ? -1
                 : (a.AsString() == b.AsString() ? 0 : 1);
    case ValueType::kBytes: {
      if (a.AsBytes() < b.AsBytes()) return -1;
      if (a.AsBytes() == b.AsBytes()) return 0;
      return 1;
    }
    default:
      return Status::InvalidArgument("unsupported comparison");
  }
}

}  // namespace tc::db
