#include "tc/db/schema.h"

namespace tc::db {

Result<Schema> Schema::Create(std::vector<Column> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("schema needs at least one column");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name.empty()) {
      return Status::InvalidArgument("empty column name");
    }
    if (columns[i].type == ValueType::kNull) {
      return Status::InvalidArgument("column type may not be null");
    }
    for (size_t j = i + 1; j < columns.size(); ++j) {
      if (columns[i].name == columns[j].name) {
        return Status::InvalidArgument("duplicate column: " + columns[i].name);
      }
    }
  }
  Schema s;
  s.columns_ = std::move(columns);
  return s;
}

Result<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no such column: " + name);
}

Status Schema::ValidateRow(const std::vector<Value>& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      if (!columns_[i].nullable) {
        return Status::InvalidArgument("null in non-nullable column " +
                                       columns_[i].name);
      }
      continue;
    }
    if (row[i].type() != columns_[i].type) {
      return Status::InvalidArgument(
          "type mismatch in column " + columns_[i].name + ": expected " +
          std::string(ValueTypeName(columns_[i].type)) + ", got " +
          std::string(ValueTypeName(row[i].type())));
    }
  }
  return Status::OK();
}

void Schema::Encode(BinaryWriter& w) const {
  w.PutVarint(columns_.size());
  for (const Column& c : columns_) {
    w.PutString(c.name);
    w.PutU8(static_cast<uint8_t>(c.type));
    w.PutBool(c.nullable);
  }
}

Result<Schema> Schema::Decode(BinaryReader& r) {
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  // Name length prefix, type byte and nullable flag: 3 bytes at least.
  TC_RETURN_IF_ERROR(CheckCount(r, n, 3));
  std::vector<Column> columns;
  columns.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Column c;
    TC_ASSIGN_OR_RETURN(c.name, r.GetString());
    TC_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    c.type = static_cast<ValueType>(type);
    TC_ASSIGN_OR_RETURN(c.nullable, r.GetBool());
    columns.push_back(std::move(c));
  }
  return Schema::Create(std::move(columns));
}

}  // namespace tc::db
