#ifndef TC_POLICY_AUDIT_H_
#define TC_POLICY_AUDIT_H_

#include <string>
#include <vector>

#include "tc/common/result.h"
#include "tc/obs/audit_journal.h"
#include "tc/tee/tee.h"

namespace tc::policy {

/// Serialized tee::Quote <-> bytes, the blob format AuditLog's checkpoint
/// signer stores inside obs::AuditCheckpoint::signature: device id, nonce,
/// claims, boot counter, serialized signature.
Bytes SerializeQuote(const tee::Quote& quote);
Result<tee::Quote> DeserializeQuote(const Bytes& data);

/// Builds a CheckpointVerifier that deserializes the checkpoint's quote,
/// checks it attests exactly this checkpoint (nonce == chain head, claims
/// name the record count), and verifies the quote signature against the
/// device endorsement + manufacturer.
obs::CheckpointVerifier QuoteCheckpointVerifier(
    const tee::Endorsement& endorsement, const tee::Manufacturer& manufacturer);

/// Tamper-evident, TEE-attested audit log.
///
/// Implements the paper's accountability requirement: "the recipient
/// trusted cell can maintain an audit log, encrypt it and push it on the
/// Cloud to the destination of the originator trusted cell". Since PR 4
/// the storage is an obs::AuditJournal — an append-only SHA-256 hash chain
/// over every record, with a TEE-signed checkpoint quote every
/// kCheckpointInterval records (quote nonce = chain head, so each quote
/// attests a prefix). Export() seals the whole journal stream under the
/// shared AEAD key with the record count and chain head bound into the
/// associated data; VerifyAndDecrypt re-walks the chain inside, so even
/// the legitimate key holder cannot splice, reorder or truncate records
/// without detection.
class AuditLog {
 public:
  static constexpr size_t kCheckpointInterval = 64;

  /// `key_name` must exist in the TEE keystore (e.g. a key shared with the
  /// data originator so that *they* can read the log).
  AuditLog(tee::TrustedExecutionEnvironment* tee, std::string key_name);

  /// Total journal records: policy decisions, incidents, attestation
  /// events, every record appended through journal().
  size_t size() const { return journal_.record_count(); }
  Bytes head_hash() const { return journal_.head(); }

  /// The underlying journal: every piece of evidence (policy decisions,
  /// incidents, recovery skips, attestation events) is appended here as an
  /// obs::AuditRecord, into one tamper-evident chain; the flight recorder
  /// captures its tail.
  obs::AuditJournal& journal() { return journal_; }
  const obs::AuditJournal& journal() const { return journal_; }

  /// Serializes the journal, AEAD-sealed for pushing to the cloud:
  /// "tc.audit.export.v2" | u64 record_count | bytes chain_head |
  /// bytes Seal(key, "tc.audit.v2"|count|head, journal stream).
  Result<Bytes> Export() const;

  /// Opens and verifies an exported journal using `tee`/`key_name`
  /// (typically the originator's cell): AEAD integrity first, then the
  /// full hash-chain walk anchored at the sealed-in head/count. Tail
  /// truncation is additionally caught against `expected_count` when
  /// >= 0. `verifier` (see QuoteCheckpointVerifier) optionally checks
  /// every checkpoint quote. Returns every record in order.
  static Result<std::vector<obs::AuditRecord>> VerifyAndDecrypt(
      const Bytes& exported, tee::TrustedExecutionEnvironment* tee,
      const std::string& key_name, int64_t expected_count = -1,
      const obs::CheckpointVerifier& verifier = nullptr);

 private:
  tee::TrustedExecutionEnvironment* tee_;
  std::string key_name_;
  obs::AuditJournal journal_;
};

}  // namespace tc::policy

#endif  // TC_POLICY_AUDIT_H_
