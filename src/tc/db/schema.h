#ifndef TC_DB_SCHEMA_H_
#define TC_DB_SCHEMA_H_

#include <string>
#include <vector>

#include "tc/common/result.h"
#include "tc/db/value.h"

namespace tc::db {

struct Column {
  std::string name;
  ValueType type;
  bool nullable = true;
};

/// Name, u8 type, nullable.
void Put(BinaryWriter& w, const Column& v);
Status Get(BinaryReader& r, Column* v);

/// Table schema: ordered columns, unique names.
class Schema {
 public:
  Schema() = default;
  static Result<Schema> Create(std::vector<Column> columns);

  const std::vector<Column>& columns() const { return columns_; }
  size_t column_count() const { return columns_.size(); }

  /// Index of `name`, or kNotFound.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Validates a row against the schema (arity, types, nullability).
  Status ValidateRow(const std::vector<Value>& row) const;

  /// Reads the columns (Put's encoding) and validates them as Create does.
  static Result<Schema> Decode(BinaryReader& r);

 private:
  std::vector<Column> columns_;
};

/// A schema in the one codec: its columns.
void Put(BinaryWriter& w, const Schema& v);
Status Get(BinaryReader& r, Schema* v);

/// A stored row: automatically-assigned id plus one Value per column.
struct Row {
  uint64_t id = 0;
  std::vector<Value> values;
};

}  // namespace tc::db

namespace tc {
// Name length prefix, type byte and nullable flag.
template <>
inline constexpr size_t kMinEncodedBytes<db::Column> = 3;
}  // namespace tc

#endif  // TC_DB_SCHEMA_H_
