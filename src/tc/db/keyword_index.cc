#include "tc/db/keyword_index.h"

#include <algorithm>
#include <cctype>

#include "tc/common/codec.h"

namespace tc::db {

KeywordIndex::KeywordIndex(storage::LogStore* store) : store_(store) {}

std::vector<std::string> KeywordIndex::Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

std::string KeywordIndex::TermKey(const std::string& term) {
  return "k/" + term;
}

Bytes KeywordIndex::EncodePostings(const std::vector<uint64_t>& ids) {
  BinaryWriter w;
  w.PutVarint(ids.size());
  uint64_t prev = 0;
  for (uint64_t id : ids) {
    w.PutVarint(id - prev);
    prev = id;
  }
  return w.Take();
}

Result<std::vector<uint64_t>> KeywordIndex::DecodePostings(const Bytes& data) {
  BinaryReader r(data);
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  TC_RETURN_IF_ERROR(CheckCount(r, n, 1));  // One varint delta per id.
  std::vector<uint64_t> ids;
  ids.reserve(n);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(uint64_t delta, r.GetVarint());
    prev += delta;
    ids.push_back(prev);
  }
  return ids;
}

Status KeywordIndex::IndexDocument(uint64_t doc_id, const std::string& text) {
  for (const std::string& term : Tokenize(text)) {
    std::vector<uint64_t> ids;
    auto existing = store_->Get(TermKey(term));
    if (existing.ok()) {
      TC_ASSIGN_OR_RETURN(ids, DecodePostings(*existing));
    } else if (!existing.status().IsNotFound()) {
      return existing.status();
    }
    auto pos = std::lower_bound(ids.begin(), ids.end(), doc_id);
    if (pos != ids.end() && *pos == doc_id) continue;  // Already indexed.
    ids.insert(pos, doc_id);
    TC_RETURN_IF_ERROR(store_->Put(TermKey(term), EncodePostings(ids)));
  }
  return Status::OK();
}

Status KeywordIndex::RemoveDocument(uint64_t doc_id, const std::string& text) {
  for (const std::string& term : Tokenize(text)) {
    auto existing = store_->Get(TermKey(term));
    if (existing.status().IsNotFound()) continue;
    if (!existing.ok()) return existing.status();
    TC_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, DecodePostings(*existing));
    auto pos = std::lower_bound(ids.begin(), ids.end(), doc_id);
    if (pos == ids.end() || *pos != doc_id) continue;
    ids.erase(pos);
    if (ids.empty()) {
      TC_RETURN_IF_ERROR(store_->Delete(TermKey(term)));
    } else {
      TC_RETURN_IF_ERROR(store_->Put(TermKey(term), EncodePostings(ids)));
    }
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> KeywordIndex::Search(
    const std::string& term) const {
  std::vector<std::string> tokens = Tokenize(term);
  if (tokens.size() != 1) {
    return Status::InvalidArgument("Search expects a single term");
  }
  auto existing = store_->Get(TermKey(tokens[0]));
  if (existing.status().IsNotFound()) return std::vector<uint64_t>{};
  if (!existing.ok()) return existing.status();
  return DecodePostings(*existing);
}

Result<std::vector<uint64_t>> KeywordIndex::SearchAnd(
    const std::vector<std::string>& terms) const {
  if (terms.empty()) return Status::InvalidArgument("no terms");
  TC_ASSIGN_OR_RETURN(std::vector<uint64_t> acc, Search(terms[0]));
  for (size_t i = 1; i < terms.size() && !acc.empty(); ++i) {
    TC_ASSIGN_OR_RETURN(std::vector<uint64_t> next, Search(terms[i]));
    std::vector<uint64_t> merged;
    std::set_intersection(acc.begin(), acc.end(), next.begin(), next.end(),
                          std::back_inserter(merged));
    acc = std::move(merged);
  }
  return acc;
}

}  // namespace tc::db
