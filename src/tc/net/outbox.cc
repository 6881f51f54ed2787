#include "tc/net/outbox.h"

#include <utility>

#include "tc/common/codec.h"

namespace tc::net {

namespace {
constexpr char kPrefix[] = "outbox/";
constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
}  // namespace

Bytes OutboxRecord::Serialize() const {
  BinaryWriter w;
  if (!is_txn) {
    w.PutString("tc.outbox.v1");
    w.PutU64(seq);
    w.PutString(blob_id);
    w.PutString(token);
    w.PutBytes(payload);
    return w.Take();
  }
  w.PutString("tc.outbox.txn.v1");
  w.PutU64(seq);
  w.PutString(token);
  w.PutVarint(txn_writes.size());
  for (const OutboxTxnWrite& write : txn_writes) {
    w.PutString(write.blob_id);
    w.PutBytes(write.payload);
  }
  return w.Take();
}

Result<OutboxRecord> OutboxRecord::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  TC_ASSIGN_OR_RETURN(std::string magic, r.GetString());
  OutboxRecord record;
  if (magic == "tc.outbox.v1") {
    TC_ASSIGN_OR_RETURN(record.seq, r.GetU64());
    TC_ASSIGN_OR_RETURN(record.blob_id, r.GetString());
    TC_ASSIGN_OR_RETURN(record.token, r.GetString());
    TC_ASSIGN_OR_RETURN(record.payload, r.GetBytes());
    return record;
  }
  if (magic == "tc.outbox.txn.v1") {
    record.is_txn = true;
    TC_ASSIGN_OR_RETURN(record.seq, r.GetU64());
    TC_ASSIGN_OR_RETURN(record.token, r.GetString());
    record.blob_id = "txn/" + record.token;
    TC_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
    // Two length prefixes per write: blob id and payload.
    TC_RETURN_IF_ERROR(CheckCount(r, count, 2));
    record.txn_writes.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      OutboxTxnWrite write;
      TC_ASSIGN_OR_RETURN(write.blob_id, r.GetString());
      TC_ASSIGN_OR_RETURN(write.payload, r.GetBytes());
      record.txn_writes.push_back(std::move(write));
    }
    return record;
  }
  return Status::Corruption("bad outbox record magic");
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
  by_blob_.clear();
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
        by_blob_[record->blob_id] = record->seq;
        pending_.emplace(record->seq, std::move(*record));
      }));
  TC_RETURN_IF_ERROR(decode_status);
  // Drop superseded duplicates (an Enqueue's tombstone may have been lost
  // to a crash between the Put and the Delete): keep only the seq each
  // blob id maps to.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (by_blob_[it->second.blob_id] != it->first) {
      (void)store_->Delete(Key(it->first));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status Outbox::Enqueue(const std::string& blob_id, const std::string& token,
                       Bytes payload) {
  OutboxRecord record;
  record.seq = next_seq_++;
  record.blob_id = blob_id;
  record.token = token;
  record.payload = std::move(payload);
  TC_RETURN_IF_ERROR(store_->Put(Key(record.seq), record.Serialize()));
  // The journal's whole point is surviving a reboot: force the buffered
  // page out before acknowledging the enqueue.
  TC_RETURN_IF_ERROR(store_->Flush());
  // Supersede an older pending push of the same blob: last writer wins.
  auto old = by_blob_.find(blob_id);
  if (old != by_blob_.end()) {
    (void)store_->Delete(Key(old->second));
    pending_.erase(old->second);
  }
  by_blob_[blob_id] = record.seq;
  ++enqueued_total_;
  pending_.emplace(record.seq, std::move(record));
  return Status::OK();
}

Status Outbox::EnqueueTxn(const std::string& token,
                          std::vector<OutboxTxnWrite> writes) {
  if (token.empty() || writes.empty()) {
    return Status::InvalidArgument("outbox txn needs a token and writes");
  }
  OutboxRecord record;
  record.seq = next_seq_++;
  record.is_txn = true;
  record.token = token;
  record.blob_id = "txn/" + token;
  record.txn_writes = std::move(writes);
  TC_RETURN_IF_ERROR(store_->Put(Key(record.seq), record.Serialize()));
  // Durable before acknowledged, like Enqueue: the one-record journal
  // entry is all-or-nothing on flash only once the page is programmed.
  TC_RETURN_IF_ERROR(store_->Flush());
  // Same token re-journaled (shouldn't happen — the cell journals a
  // transaction at most once) would supersede like a blob push.
  auto old = by_blob_.find(record.blob_id);
  if (old != by_blob_.end()) {
    (void)store_->Delete(Key(old->second));
    pending_.erase(old->second);
  }
  by_blob_[record.blob_id] = record.seq;
  ++enqueued_total_;
  pending_.emplace(record.seq, std::move(record));
  return Status::OK();
}

Status Outbox::MarkDone(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    return Status::NotFound("no pending outbox record " + std::to_string(seq));
  }
  TC_RETURN_IF_ERROR(store_->Delete(Key(seq)));
  by_blob_.erase(it->second.blob_id);
  pending_.erase(it);
  ++drained_total_;
  return Status::OK();
}

const OutboxRecord* Outbox::FindByBlobId(const std::string& blob_id,
                                         const Bytes** txn_payload) const {
  if (txn_payload != nullptr) *txn_payload = nullptr;
  auto it = by_blob_.find(blob_id);
  if (it != by_blob_.end()) {
    auto record = pending_.find(it->second);
    if (record != pending_.end()) {
      if (txn_payload != nullptr) *txn_payload = &record->second.payload;
      return &record->second;
    }
    return nullptr;
  }
  // Read-your-writes through pending transactions: newest record wins.
  for (auto rit = pending_.rbegin(); rit != pending_.rend(); ++rit) {
    if (!rit->second.is_txn) continue;
    for (const OutboxTxnWrite& write : rit->second.txn_writes) {
      if (write.blob_id == blob_id) {
        if (txn_payload != nullptr) *txn_payload = &write.payload;
        return &rit->second;
      }
    }
  }
  return nullptr;
}

}  // namespace tc::net
