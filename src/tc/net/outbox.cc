#include "tc/net/outbox.h"

#include <algorithm>
#include <utility>

#include "tc/common/codec.h"

namespace tc::net {

namespace {
constexpr char kPrefix[] = "outbox/";
constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
constexpr size_t kSeqDigits = 16;
// A head's piece count (8 bytes) and its piece's length prefix.
constexpr size_t kHeadOverhead = 16;
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

std::string Outbox::PieceKey(uint64_t seq, uint64_t piece) {
  return Key(seq) + "/" + std::to_string(piece);
}

Status Outbox::Load() {
  pending_.clear();
  pieces_.clear();
  // Heads by seq, pieces by key: a record is whole only once its head and
  // every piece the head counts are read.
  std::map<uint64_t, Bytes> heads;
  std::map<std::string, Bytes> pieces;
  TC_RETURN_IF_ERROR(
      store_->ScanAll([&](const std::string& key, const Bytes& value) {
        if (key.compare(0, kPrefixLen, kPrefix) != 0) return;
        if (key.size() == kPrefixLen + kSeqDigits) {
          heads[std::stoull(key.substr(kPrefixLen), nullptr, 16)] = value;
        } else {
          pieces[key] = value;
        }
      }));
  for (auto& [seq, head] : heads) {
    uint64_t count = 0;
    Bytes serialized;
    TC_RETURN_IF_ERROR(Decode(head, &count, &serialized));
    for (uint64_t i = 1; i <= count; ++i) {
      auto piece = pieces.find(PieceKey(seq, i));
      if (piece == pieces.end()) {
        return Status::DataLoss("outbox record " + std::to_string(seq) +
                                " lost piece " + std::to_string(i) + " of " +
                                std::to_string(count));
      }
      serialized.insert(serialized.end(), piece->second.begin(),
                        piece->second.end());
      pieces.erase(piece);
    }
    TC_ASSIGN_OR_RETURN(OutboxRecord record,
                        OutboxRecord::Deserialize(serialized));
    if (record.seq != seq) {
      return Status::Corruption("outbox record under another seq's key");
    }
    next_seq_ = std::max(next_seq_, seq + 1);
    pieces_[seq] = count;
    pending_.emplace(seq, std::move(record));
  }
  // Pieces of an Enqueue that crashed before its head, or of a delete that
  // crashed after its head's tombstone: no record names them.
  for (const auto& [key, piece] : pieces) {
    TC_RETURN_IF_ERROR(store_->Delete(key));
  }
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
  const Bytes serialized = record.Serialize();
  // Room for the head's piece count and length prefix.
  const size_t piece_size = store_->MaxValueSize() - kHeadOverhead;
  // Pieces after the head's (the magic leads every record: never empty).
  const uint64_t count = (serialized.size() - 1) / piece_size;
  auto piece = [&](uint64_t i) {
    const size_t begin = i * piece_size;
    const size_t end = std::min(serialized.size(), begin + piece_size);
    return Bytes(serialized.begin() + begin, serialized.begin() + end);
  };
  for (uint64_t i = 1; i <= count; ++i) {
    TC_RETURN_IF_ERROR(store_->Put(PieceKey(record.seq, i), piece(i)));
  }
  TC_RETURN_IF_ERROR(store_->Put(Key(record.seq), Encode(count, piece(0))));
  // The journal's whole point is surviving a reboot: force the buffered
  // pages out before acknowledging the enqueue.
  TC_RETURN_IF_ERROR(store_->Flush());
  pieces_[record.seq] = count;
  pending_.emplace(record.seq, std::move(record));
  return Status::OK();
}

Status Outbox::MarkDone(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    return Status::NotFound("no pending outbox record " + std::to_string(seq));
  }
  // Head first: a crash between the deletes leaves headless pieces, which
  // Load drops, never a head that lost a piece.
  TC_RETURN_IF_ERROR(store_->Delete(Key(seq)));
  for (uint64_t i = 1; i <= pieces_[seq]; ++i) {
    TC_RETURN_IF_ERROR(store_->Delete(PieceKey(seq, i)));
  }
  pieces_.erase(seq);
  pending_.erase(it);
  return Status::OK();
}

const Bytes* Outbox::FindPayload(const std::string& blob_id) const {
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    for (const OutboxWrite& write : it->second.writes) {
      if (write.blob_id == blob_id) return &write.payload;
    }
  }
  return nullptr;
}

}  // namespace tc::net
