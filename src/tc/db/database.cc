#include "tc/db/database.h"

#include "tc/common/codec.h"

namespace tc::db {

Database::Database(storage::LogStore* store)
    : store_(store), timeseries_(store), keywords_(store) {}

Result<std::unique_ptr<Database>> Database::Open(storage::LogStore* store) {
  std::unique_ptr<Database> db(new Database(store));
  TC_RETURN_IF_ERROR(db->Recover());
  return db;
}

Status Database::Recover() {
  // One pass: catalog entries first (rows may precede their catalog entry
  // in scan order, so buffer row keys).
  std::vector<std::pair<std::string, uint64_t>> row_keys;
  Status inner;
  TC_RETURN_IF_ERROR(
      store_->ScanAll([&](const std::string& key, const Bytes& value) {
        if (!inner.ok() || key.size() < 2) return;
        if (key.compare(0, 2, "m/") == 0) {
          Schema schema;
          inner = Decode(value, &schema);
          if (!inner.ok()) return;
          std::string name = key.substr(2);
          tables_.emplace(name,
                          std::make_unique<Table>(store_, name, schema));
        } else if (key.compare(0, 2, "r/") == 0) {
          auto parsed = Table::ParseRowKey(key);
          if (parsed.ok()) row_keys.push_back(*parsed);
        } else if (key.compare(0, 2, "s/") == 0) {
          Status s = timeseries_.RestoreChunk(key, value);
          if (!s.ok()) inner = s;
        }
        // "k/" posting lists need no recovery state.
      }));
  TC_RETURN_IF_ERROR(inner);
  for (const auto& [table, id] : row_keys) {
    auto it = tables_.find(table);
    if (it == tables_.end()) {
      return Status::Corruption("row for unknown table " + table);
    }
    it->second->RestoreRowId(id);
  }
  return Status::OK();
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::InvalidArgument("invalid table name");
  }
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  TC_RETURN_IF_ERROR(store_->Put("m/" + name, Encode(schema)));
  auto table = std::make_unique<Table>(store_, name, std::move(schema));
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

Status Database::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  // Delete rows, then the catalog entry.
  std::vector<uint64_t> ids;
  TC_RETURN_IF_ERROR(
      it->second->Scan([&](const Row& row) { ids.push_back(row.id); }));
  for (uint64_t id : ids) {
    TC_RETURN_IF_ERROR(store_->Delete(Table::RowKey(name, id)));
  }
  TC_RETURN_IF_ERROR(store_->Delete("m/" + name));
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> Database::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status Database::Flush() {
  TC_RETURN_IF_ERROR(timeseries_.FlushAll());
  return store_->Flush();
}

}  // namespace tc::db
