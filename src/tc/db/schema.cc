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

Result<Schema> Schema::Decode(BinaryReader& r) {
  std::vector<Column> columns;
  TC_RETURN_IF_ERROR(Get(r, &columns));
  return Schema::Create(std::move(columns));
}

void Put(BinaryWriter& w, const Column& v) {
  PutFields(w, v.name, static_cast<uint8_t>(v.type), v.nullable);
}

Status Get(BinaryReader& r, Column* v) {
  uint8_t type = 0;
  TC_RETURN_IF_ERROR(GetFields(r, &v->name, &type, &v->nullable));
  v->type = static_cast<ValueType>(type);
  return Status::OK();
}

void Put(BinaryWriter& w, const Schema& v) { Put(w, v.columns()); }

Status Get(BinaryReader& r, Schema* v) {
  TC_ASSIGN_OR_RETURN(*v, Schema::Decode(r));
  return Status::OK();
}

}  // namespace tc::db
