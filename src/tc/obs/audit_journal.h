#ifndef TC_OBS_AUDIT_JOURNAL_H_
#define TC_OBS_AUDIT_JOURNAL_H_

#include <cstdint>
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

/// Everything Verify learned about an exported journal.
struct AuditVerifyReport {
  bool ok = false;
  std::string error;  ///< Empty when ok.
  uint64_t record_count = 0;
  Bytes head;  ///< Recomputed chain head over the parsed prefix.
  std::vector<AuditRecord> records;
};

/// Append-only, SHA-256 hash-chained audit journal.
///
/// Chain construction: h_0 = SHA256("tc.obs.journal.genesis"),
/// h_{i+1} = SHA256(h_i || item_i) where item_i is the full tagged item
/// (tag 0x01, then the length-prefixed record). Against an out-of-band
/// anchor (expected head + count, bound into the AEAD AAD of an export and
/// attested by the export's quote), Verify detects 100% of truncations,
/// reorderings and bit-flips. The journal signs nothing itself: the policy
/// layer attests each export once (policy::AuditLog::Export), so the
/// journal never depends on tc_tee. Thread-safe.
class AuditJournal {
 public:
  AuditJournal();
  AuditJournal(const AuditJournal&) = delete;
  AuditJournal& operator=(const AuditJournal&) = delete;

  /// Stamps index + trace context and extends the chain.
  void Append(AuditRecord record);

  uint64_t record_count() const;
  /// Retired: the journal holds no checkpoints any more, so this is
  /// always 0. It stays only because the benchmark harness
  /// (cellbench/src/harness.cc) still reads it.
  uint64_t checkpoint_count() const { return 0; }
  /// Current chain head (the verifier anchor).
  Bytes head() const;

  /// Full journal as a self-contained byte stream:
  /// "tc.obs.journal.v1" | varint item_count | (u8 tag, bytes payload)*.
  Bytes Export() const;

  /// Last `n` records (most recent last), decoded from the journal's items
  /// — the flight recorder's journal tail.
  std::vector<AuditRecord> Tail(size_t n) const;

  /// Walks an exported stream, recomputing the chain and checking: item
  /// parse (a tag other than 0x01 is corrupt), record index contiguity,
  /// and (when provided) the final head/count anchors. Returns a report
  /// rather than failing fast so tests can assert on what exactly was
  /// detected.
  static AuditVerifyReport Verify(const Bytes& exported,
                                  const Bytes* expected_head = nullptr,
                                  int64_t expected_count = -1);

 private:
  mutable std::mutex mu_;
  // Every record, held once, serialized, under its tag. guarded by mu_.
  std::vector<std::pair<uint8_t, Bytes>> items_;
  Bytes head_;  // guarded by mu_.
};

}  // namespace tc::obs

#endif  // TC_OBS_AUDIT_JOURNAL_H_
