#ifndef TC_NET_OUTBOX_H_
#define TC_NET_OUTBOX_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/codec.h"
#include "tc/common/result.h"
#include "tc/storage/log_store.h"

namespace tc::net {

/// One write of a journaled record: a blob and its sealed payload (safe at
/// rest — it is exactly the ciphertext that would have gone over the wire).
struct OutboxWrite {
  std::string blob_id;
  Bytes payload;
};

void Put(BinaryWriter& w, const OutboxWrite& v);
Status Get(BinaryReader& r, OutboxWrite* v);

/// One queued provider transaction: its writes plus the idempotency token
/// minted for the *first* attempt. A record drains through CommitTxn under
/// that token as blind writes, so all of its writes land atomically, and a
/// commit that reached the provider before a crash or a lost ack is
/// answered from the provider's txn-token table — never applied twice,
/// never partially.
struct OutboxRecord {
  uint64_t seq = 0;
  std::string token;
  std::vector<OutboxWrite> writes;

  /// "tc.outbox.txn.v1", seq, token, writes.
  Bytes Serialize() const;
  static Result<OutboxRecord> Deserialize(const Bytes& data);
};

/// Durable outbox journaled through the cell's encrypted LogStore: a write
/// the cell could not commit survives reboots, and every journaled record
/// drains, in seq order, on reconnect (anti-entropy catch-up). Only
/// MarkDone removes a pending record.
///
/// A record of any size spans values: its serialized bytes are cut into
/// pieces that each fit one LogStore value. The head, "outbox/<seq>",
/// holds the count of further pieces and the first piece; piece i sits at
/// "outbox/<seq>/<i>". Enqueue writes the head last and flushes it, so a
/// crash leaves either the head and every piece or no head at all; Load
/// drops pieces that have no head and reports a head missing a piece as
/// kDataLoss. MarkDone deletes the head first.
///
/// Not thread-safe (per-cell, like the LogStore underneath).
class Outbox {
 public:
  explicit Outbox(storage::LogStore* store);

  /// Rebuilds the pending set from the store (call once after Open).
  Status Load();

  /// Journals one transaction as one record — its pieces, then its head,
  /// flushed before returning, so after a crash either the whole record is
  /// pending or none of it is.
  Status Enqueue(const std::string& token, std::vector<OutboxWrite> writes);

  /// Drops a drained record.
  Status MarkDone(uint64_t seq);

  /// Pending records by seq (drain in this order).
  const std::map<uint64_t, OutboxRecord>& pending() const { return pending_; }

  /// The newest queued payload for `blob_id` across pending records (they
  /// are scanned newest first), or null — reads are served from here while
  /// the write is queued (read-your-writes while partitioned). Valid until
  /// the record holding it is marked done.
  const Bytes* FindPayload(const std::string& blob_id) const;

  size_t size() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }

 private:
  static std::string Key(uint64_t seq);
  /// The key of piece `piece` (1-based) of record `seq`.
  static std::string PieceKey(uint64_t seq, uint64_t piece);

  storage::LogStore* store_;
  std::map<uint64_t, OutboxRecord> pending_;
  /// seq -> how many pieces follow the head.
  std::map<uint64_t, uint64_t> pieces_;
  uint64_t next_seq_ = 1;
};

}  // namespace tc::net

namespace tc {
// Two length prefixes per write: blob id and payload.
template <>
inline constexpr size_t kMinEncodedBytes<net::OutboxWrite> = 2;
}  // namespace tc

#endif  // TC_NET_OUTBOX_H_
