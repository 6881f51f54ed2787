#ifndef TC_CLOUD_TXN_H_
#define TC_CLOUD_TXN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/codec.h"
#include "tc/common/status.h"

namespace tc::cloud {

/// Sentinel base version for a TxnWrite: the write skips first-committer-
/// wins validation and lands on top of whatever is latest (a "blind"
/// write). Marks every blind cell write: StoreDocument commits one, and
/// the outbox drain re-delivers each journaled transaction as blind
/// writes after reconnecting — last-writer-wins, atomic across the write
/// set.
inline constexpr uint64_t kBaseVersionAny = ~uint64_t{0};

/// A provider snapshot: every commit whose sequence is at most `base_seq`.
/// A commit draws its sequence while it holds the stripes of everything
/// it writes, so a reader at a snapshot that includes it waits for those
/// stripes and sees the whole commit (BlobStore's class comment).
struct SnapshotDescriptor {
  uint64_t base_seq = 0;

  /// True iff a version committed at `commit_seq` is visible here.
  bool Visible(uint64_t commit_seq) const {
    return commit_seq != 0 && commit_seq <= base_seq;
  }
};

/// One snapshot read result: the newest version of the blob whose commit
/// is visible in the descriptor.
struct SnapshotRead {
  Bytes data;
  uint64_t version = 0;     ///< 1-based version number.
  uint64_t commit_seq = 0;  ///< Sequence of the commit that wrote it.
};

/// Read-set entry: the caller observed `version` as the latest version of
/// `id` (0 = blob absent). Validation re-checks that this is STILL the
/// latest at commit time.
struct TxnRead {
  std::string id;
  uint64_t version = 0;
};

/// Write-set entry: append `data` as a new version of `id`, provided the
/// current latest version still equals `base_version` (first-committer-
/// wins; `kBaseVersionAny` skips the check).
struct TxnWrite {
  std::string id;
  Bytes data;
  uint64_t base_version = 0;
};

/// A whole multi-key transaction, delivered to the provider in one RPC.
/// `token` names the logical transaction; re-deliveries of the same token
/// are answered with the original outcome (commits only — an abort leaves
/// nothing behind, so a retried token revalidates and may commit later,
/// which is exactly what lets the cell retry an abort under the same
/// token).
struct TxnRequest {
  std::string token;
  SnapshotDescriptor snapshot;  ///< The snapshot the read set was taken at.
  std::vector<TxnRead> reads;
  std::vector<TxnWrite> writes;
};

/// Provider's answer to a CommitTxn.
struct TxnOutcome {
  Status status = Status::OK();
  bool committed = false;
  bool replayed = false;  ///< Answered from the txn-token table.
  uint64_t commit_seq = 0;
  /// Assigned version per write, in write-set order; valid iff committed.
  std::vector<uint64_t> versions;
  std::string conflict_id;  ///< First key that failed validation (abort).
  uint32_t delay_us = 0;    ///< Injected network delay (RPC layer only).
  uint64_t fault_ordinal = 0;  ///< Injector ordinal (RPC layer, 0 = clean).
};

// Field lists in the one codec (tc/common/codec.h), shared by the wire and
// by every reader of these types.
void Put(BinaryWriter& w, const SnapshotDescriptor& v);
void Put(BinaryWriter& w, const SnapshotRead& v);
void Put(BinaryWriter& w, const TxnRead& v);
void Put(BinaryWriter& w, const TxnWrite& v);
void Put(BinaryWriter& w, const TxnRequest& v);
void Put(BinaryWriter& w, const TxnOutcome& v);
Status Get(BinaryReader& r, SnapshotDescriptor* v);
Status Get(BinaryReader& r, SnapshotRead* v);
Status Get(BinaryReader& r, TxnRead* v);
Status Get(BinaryReader& r, TxnWrite* v);
Status Get(BinaryReader& r, TxnRequest* v);
Status Get(BinaryReader& r, TxnOutcome* v);

/// Observer of transaction lifecycle events, implemented by
/// tc::testing::HistoryChecker. Lives here (not in tc::testing) so the
/// fleet can carry a sink pointer without linking the testing library.
/// Implementations must be thread-safe: fleet cells call concurrently.
class TxnHistorySink {
 public:
  virtual ~TxnHistorySink() = default;
  /// A transaction attempt started under `snapshot`. `txn_id` names the
  /// attempt (not the token): an abort-and-rebuild is a new attempt.
  virtual void OnBegin(const std::string& txn_id,
                       const SnapshotDescriptor& snapshot) = 0;
  /// The attempt observed `version` as the newest visible version of
  /// `key` (0 = absent) under its snapshot.
  virtual void OnRead(const std::string& txn_id, const std::string& key,
                      uint64_t version) = 0;
  /// The attempt committed at `commit_seq`; `writes` are (key, assigned
  /// version) pairs.
  virtual void OnCommit(
      const std::string& txn_id, uint64_t commit_seq,
      const std::vector<std::pair<std::string, uint64_t>>& writes) = 0;
  /// The attempt aborted (first-committer-wins conflict). No effects.
  virtual void OnAbort(const std::string& txn_id) = 0;
};

}  // namespace tc::cloud

namespace tc {
// A TxnRead is an id and a version; a TxnWrite an id, data and a version.
template <>
inline constexpr size_t kMinEncodedBytes<cloud::TxnRead> = 1 + 8;
template <>
inline constexpr size_t kMinEncodedBytes<cloud::TxnWrite> = 1 + 1 + 8;
}  // namespace tc

#endif  // TC_CLOUD_TXN_H_
