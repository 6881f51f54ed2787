#include "tc/db/table.h"

#include <cinttypes>
#include <cstdio>

namespace tc::db {

Table::Table(storage::LogStore* store, std::string name, Schema schema)
    : store_(store), name_(std::move(name)), schema_(std::move(schema)) {}

std::string Table::RowKey(const std::string& table, uint64_t row_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, row_id);
  return "r/" + table + "/" + buf;
}

Result<std::pair<std::string, uint64_t>> Table::ParseRowKey(
    const std::string& key) {
  if (key.size() < 2 + 1 + 16 + 1 || key.compare(0, 2, "r/") != 0) {
    return Status::InvalidArgument("not a row key");
  }
  size_t slash = key.rfind('/');
  if (slash == std::string::npos || key.size() - slash - 1 != 16) {
    return Status::InvalidArgument("malformed row key");
  }
  std::string table = key.substr(2, slash - 2);
  uint64_t id = 0;
  for (size_t i = slash + 1; i < key.size(); ++i) {
    char c = key[i];
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else {
      return Status::InvalidArgument("malformed row id");
    }
    id = (id << 4) | static_cast<uint64_t>(v);
  }
  return std::make_pair(table, id);
}

Bytes Table::EncodeRowValues(const std::vector<Value>& values) {
  return Encode(values);
}

Result<std::vector<Value>> Table::DecodeRowValues(const Bytes& data) {
  std::vector<Value> values;
  TC_RETURN_IF_ERROR(Decode(data, &values));
  return values;
}

void Table::RestoreRowId(uint64_t row_id) {
  row_ids_.insert(row_id);
  if (row_id >= next_row_id_) next_row_id_ = row_id + 1;
}

Result<uint64_t> Table::Insert(const std::vector<Value>& values) {
  TC_RETURN_IF_ERROR(schema_.ValidateRow(values));
  uint64_t id = next_row_id_++;
  TC_RETURN_IF_ERROR(store_->Put(RowKey(name_, id), EncodeRowValues(values)));
  row_ids_.insert(id);
  return id;
}

Result<Row> Table::Get(uint64_t row_id) {
  if (row_ids_.count(row_id) == 0) {
    return Status::NotFound("no such row");
  }
  TC_ASSIGN_OR_RETURN(Bytes data, store_->Get(RowKey(name_, row_id)));
  TC_ASSIGN_OR_RETURN(std::vector<Value> values, DecodeRowValues(data));
  return Row{row_id, std::move(values)};
}

Status Table::Update(uint64_t row_id, const std::vector<Value>& values) {
  if (row_ids_.count(row_id) == 0) {
    return Status::NotFound("no such row");
  }
  TC_RETURN_IF_ERROR(schema_.ValidateRow(values));
  return store_->Put(RowKey(name_, row_id), EncodeRowValues(values));
}

Status Table::Delete(uint64_t row_id) {
  if (row_ids_.erase(row_id) == 0) {
    return Status::NotFound("no such row");
  }
  return store_->Delete(RowKey(name_, row_id));
}

Status Table::Scan(const std::function<void(const Row&)>& fn) {
  if (store_->index_complete()) {
    // Point lookups: one page read per row.
    for (uint64_t id : row_ids_) {
      TC_ASSIGN_OR_RETURN(Bytes data, store_->Get(RowKey(name_, id)));
      TC_ASSIGN_OR_RETURN(std::vector<Value> values, DecodeRowValues(data));
      fn(Row{id, std::move(values)});
    }
    return Status::OK();
  }
  // Partial index: one sequential pass over the log beats N full scans.
  std::string prefix = "r/" + name_ + "/";
  Status decode_status;
  TC_RETURN_IF_ERROR(
      store_->ScanAll([&](const std::string& key, const Bytes& data) {
        if (!decode_status.ok()) return;
        if (key.compare(0, prefix.size(), prefix) != 0) return;
        auto parsed = ParseRowKey(key);
        if (!parsed.ok()) return;
        auto values = DecodeRowValues(data);
        if (!values.ok()) {
          decode_status = values.status();
          return;
        }
        fn(Row{parsed->second, std::move(*values)});
      }));
  return decode_status;
}

}  // namespace tc::db
