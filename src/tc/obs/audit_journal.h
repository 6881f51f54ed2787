#ifndef TC_OBS_AUDIT_JOURNAL_H_
#define TC_OBS_AUDIT_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tc/common/clock.h"
#include "tc/common/codec.h"
#include "tc/common/result.h"

namespace tc::obs {

/// What class of evidence a journal record carries.
enum class AuditKind : uint8_t {
  kPolicyDecision = 1,  ///< Access-control allow/deny.
  kIncident = 2,        ///< SecurityIncident raised by a cell.
  kRecoverySkip = 3,    ///< Torn/corrupt page skipped during recovery.
  kAttestation = 4,     ///< Quote generated/verified, cell init.
  kLifecycle = 5,       ///< Journal/cell lifecycle (open, rotate, export).
};

const char* AuditKindName(AuditKind kind);

/// One tamper-evident record. `index`, `trace_id` and `span_id` are stamped
/// by AuditJournal::Append (the trace ids from the thread's CurrentContext,
/// tying every piece of audit evidence to the causal trace that produced
/// it); everything else is the caller's.
struct AuditRecord {
  uint64_t index = 0;
  Timestamp time = 0;
  AuditKind kind = AuditKind::kPolicyDecision;
  std::string subject;
  std::string action;  ///< e.g. "read", "share", "recover".
  std::string object;  ///< Document / page / device the action touched.
  bool allowed = false;
  std::string detail;  ///< Rule id, denial reason, incident description.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  Bytes Serialize() const;
  static Result<AuditRecord> Deserialize(const Bytes& data);
};

/// A periodic signed anchor in the hash chain. `chain_head` is the chain
/// value over everything *before* this checkpoint item (which the chain
/// then also absorbs), `record_count` the number of records it covers, and
/// `signature` an opaque attestation blob produced by the configured
/// CheckpointSigner — in this code base a serialized tc::tee::Quote whose
/// nonce is the chain head, but the journal itself never depends on tc_tee.
struct AuditCheckpoint {
  uint64_t record_count = 0;
  Bytes chain_head;
  Bytes signature;

  Bytes Serialize() const;
  static Result<AuditCheckpoint> Deserialize(const Bytes& data);
};

/// Signs (chain_head, record_count) -> opaque signature blob. Wired to
/// tee::Attestation::GenerateQuote by the policy layer.
using CheckpointSigner =
    std::function<Result<Bytes>(const Bytes& chain_head,
                                uint64_t record_count)>;

/// Verifies one parsed checkpoint's signature blob (chain/count equalities
/// are checked by AuditJournal::Verify itself before this is called).
using CheckpointVerifier = std::function<Status(const AuditCheckpoint&)>;

struct AuditJournalOptions {
  /// A signed checkpoint is appended after every N records (0 disables
  /// checkpointing).
  size_t checkpoint_interval = 64;
  /// Null -> checkpoints carry an empty signature (still chained, so still
  /// tamper-evident; just not attested).
  CheckpointSigner signer;
};

/// Everything Verify learned about an exported journal.
struct AuditVerifyReport {
  bool ok = false;
  std::string error;  ///< Empty when ok.
  uint64_t record_count = 0;
  uint64_t checkpoint_count = 0;
  Bytes head;  ///< Recomputed chain head over the parsed prefix.
  std::vector<AuditRecord> records;
};

/// Append-only, SHA-256 hash-chained audit journal with periodic signed
/// checkpoints.
///
/// Chain construction: h_0 = SHA256("tc.obs.journal.genesis"),
/// h_{i+1} = SHA256(h_i || item_i) where item_i is the full tagged item
/// (0x01 record / 0x02 checkpoint, then the length-prefixed payload —
/// checkpoint signatures are inside the chain, so a flipped signature bit
/// is detected without ever verifying a quote). A checkpoint stores the
/// chain head over everything before it; together with an out-of-band
/// anchor (expected head + count, held in the TEE or bound into the AEAD
/// AAD of an export), Verify detects 100% of truncations, reorderings and
/// bit-flips. Thread-safe.
class AuditJournal {
 public:
  explicit AuditJournal(AuditJournalOptions options = {});
  AuditJournal(const AuditJournal&) = delete;
  AuditJournal& operator=(const AuditJournal&) = delete;

  /// Stamps index + trace context, extends the chain, and appends a signed
  /// checkpoint when the interval rolls over. Fails only if the signer
  /// fails (the record itself is still appended in that case; only the
  /// checkpoint is lost).
  Status Append(AuditRecord record);

  uint64_t record_count() const;
  uint64_t checkpoint_count() const;
  /// Current chain head (the verifier anchor).
  Bytes head() const;

  /// Full journal as a self-contained byte stream:
  /// "tc.obs.journal.v1" | varint item_count | (u8 tag, bytes payload)*.
  Bytes Export() const;

  /// Last `n` records (most recent last), decoded from the journal's items
  /// — the flight recorder's journal tail.
  std::vector<AuditRecord> Tail(size_t n) const;

  /// Walks an exported stream, recomputing the chain and checking: item
  /// parse, record index contiguity, every checkpoint's stored head/count
  /// against the recomputed ones, optional per-checkpoint signature
  /// verification, and (when provided) the final head/count anchors.
  /// Returns a report rather than failing fast so tests can assert on what
  /// exactly was detected.
  static AuditVerifyReport Verify(
      const Bytes& exported, const Bytes* expected_head = nullptr,
      int64_t expected_count = -1,
      const CheckpointVerifier& verifier = nullptr);

 private:
  // Returns the serialized tagged item and advances the chain over it.
  void AbsorbItemLocked(uint8_t tag, const Bytes& payload);

  AuditJournalOptions options_;
  mutable std::mutex mu_;
  // Every record and checkpoint, held once, serialized. guarded by mu_.
  std::vector<std::pair<uint8_t, Bytes>> items_;
  Bytes head_;                                    // guarded by mu_.
  uint64_t next_index_ = 0;                       // guarded by mu_.
  uint64_t checkpoints_ = 0;                      // guarded by mu_.
};

}  // namespace tc::obs

#endif  // TC_OBS_AUDIT_JOURNAL_H_
