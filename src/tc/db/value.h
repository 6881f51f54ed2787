#ifndef TC_DB_VALUE_H_
#define TC_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "tc/common/bytes.h"
#include "tc/common/clock.h"
#include "tc/common/codec.h"
#include "tc/common/result.h"

namespace tc::db {

/// Column/value types of the embedded datastore.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kBytes = 5,
  kTimestamp = 6,
};

std::string_view ValueTypeName(ValueType type);

/// Dynamically-typed cell value. Small, value-semantic, totally ordered
/// within one type (cross-type comparison is an error caught by the
/// schema layer).
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Repr(v)); }
  static Value Int64(int64_t v) { return Value(Repr(v)); }
  static Value Double(double v) { return Value(Repr(v)); }
  static Value String(std::string v) { return Value(Repr(std::move(v))); }
  static Value Blob(Bytes v) { return Value(Repr(std::move(v))); }
  static Value TimestampVal(Timestamp t) { return Value(Repr(TimestampBox{t})); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; calling the wrong one aborts (programming error —
  /// schema validation happens before values are built).
  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  const Bytes& AsBytes() const { return std::get<Bytes>(repr_); }
  Timestamp AsTimestamp() const { return std::get<TimestampBox>(repr_).t; }

  /// Numeric view: Int64/Double/Timestamp as double (for aggregation).
  Result<double> AsNumeric() const;

  /// Human-readable rendering for reports and examples.
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.repr_ == b.repr_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Three-way compare; fails on mismatched types (except Int64/Double,
  /// which compare numerically).
  static Result<int> Compare(const Value& a, const Value& b);

 private:
  struct TimestampBox {
    Timestamp t;
    friend bool operator==(const TimestampBox&, const TimestampBox&) = default;
  };
  using Repr = std::variant<std::monostate, bool, int64_t, double,
                            std::string, Bytes, TimestampBox>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}
  Repr repr_;
};

/// A value in the one codec (tc/common/codec.h): its u8 ValueType, then
/// the alternative (nothing for null, an i64 for a timestamp).
void Put(BinaryWriter& w, const Value& v);
Status Get(BinaryReader& r, Value* v);

}  // namespace tc::db

#endif  // TC_DB_VALUE_H_
