#include "tc/net/outbox.h"

#include <utility>

#include "tc/common/codec.h"

namespace tc::net {

namespace {
constexpr char kPrefix[] = "outbox/";
constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
// Every record is one provider transaction.
const std::string kMagic = "tc.outbox.txn.v1";

}  // namespace

void Put(BinaryWriter& w, const OutboxWrite& v) {
  PutFields(w, v.blob_id, v.payload);
}

Status Get(BinaryReader& r, OutboxWrite* v) {
  return GetFields(r, &v->blob_id, &v->payload);
}

Bytes OutboxRecord::Serialize() const {
  return Encode(kMagic, seq, token, writes);
}

Result<OutboxRecord> OutboxRecord::Deserialize(const Bytes& data) {
  std::string magic;
  OutboxRecord record;
  TC_RETURN_IF_ERROR(
      Decode(data, &magic, &record.seq, &record.token, &record.writes));
  if (magic != kMagic) return Status::Corruption("bad outbox record magic");
  return record;
}

Outbox::Outbox(storage::LogStore* store) : store_(store) {}

std::string Outbox::Key(uint64_t seq) {
  // Fixed-width so scan order (were it ever lexicographic) matches seq
  // order; 16 hex digits cover the full range.
  char buf[17];
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[seq & 0xf];
    seq >>= 4;
  }
  buf[16] = '\0';
  return std::string(kPrefix) + buf;
}

Status Outbox::Load() {
  pending_.clear();
  newest_.clear();
  Status decode_status;
  TC_RETURN_IF_ERROR(
      store_->ScanAll([&](const std::string& key, const Bytes& value) {
        if (!decode_status.ok() ||
            key.compare(0, kPrefixLen, kPrefix) != 0) {
          return;
        }
        auto record = OutboxRecord::Deserialize(value);
        if (!record.ok()) {
          decode_status = record.status();
          return;
        }
        next_seq_ = std::max(next_seq_, record->seq + 1);
        pending_.emplace(record->seq, std::move(*record));
      }));
  TC_RETURN_IF_ERROR(decode_status);
  // In seq order, so each blob ends up mapped to its newest writer.
  std::vector<uint64_t> seqs;
  for (const auto& [seq, record] : pending_) {
    for (const OutboxWrite& write : record.writes) {
      newest_[write.blob_id] = seq;
    }
    seqs.push_back(seq);
  }
  // An Enqueue's tombstones may have been lost to a crash after its Put.
  for (uint64_t seq : seqs) DropIfSuperseded(seq);
  return Status::OK();
}

Status Outbox::Enqueue(const std::string& token,
                       std::vector<OutboxWrite> writes) {
  if (token.empty() || writes.empty()) {
    return Status::InvalidArgument("outbox record needs a token and writes");
  }
  OutboxRecord record;
  record.seq = next_seq_++;
  record.token = token;
  record.writes = std::move(writes);
  TC_RETURN_IF_ERROR(store_->Put(Key(record.seq), record.Serialize()));
  // The journal's whole point is surviving a reboot: force the buffered
  // page out before acknowledging the enqueue.
  TC_RETURN_IF_ERROR(store_->Flush());
  std::vector<uint64_t> rewritten;
  for (const OutboxWrite& write : record.writes) {
    auto [it, inserted] = newest_.try_emplace(write.blob_id, record.seq);
    if (!inserted) {
      rewritten.push_back(it->second);
      it->second = record.seq;
    }
  }
  pending_.emplace(record.seq, std::move(record));
  for (uint64_t seq : rewritten) DropIfSuperseded(seq);
  return Status::OK();
}

void Outbox::DropIfSuperseded(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  for (const OutboxWrite& write : it->second.writes) {
    auto newest = newest_.find(write.blob_id);
    if (newest == newest_.end() || newest->second == seq) return;
  }
  (void)store_->Delete(Key(seq));
  pending_.erase(it);
}

Status Outbox::MarkDone(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    return Status::NotFound("no pending outbox record " + std::to_string(seq));
  }
  TC_RETURN_IF_ERROR(store_->Delete(Key(seq)));
  for (const OutboxWrite& write : it->second.writes) {
    auto newest = newest_.find(write.blob_id);
    if (newest != newest_.end() && newest->second == seq) {
      newest_.erase(newest);
    }
  }
  pending_.erase(it);
  return Status::OK();
}

const Bytes* Outbox::FindPayload(const std::string& blob_id) const {
  auto newest = newest_.find(blob_id);
  if (newest == newest_.end()) return nullptr;
  for (const OutboxWrite& write : pending_.at(newest->second).writes) {
    if (write.blob_id == blob_id) return &write.payload;
  }
  return nullptr;
}

}  // namespace tc::net
