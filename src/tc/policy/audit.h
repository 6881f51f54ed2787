#ifndef TC_POLICY_AUDIT_H_
#define TC_POLICY_AUDIT_H_

#include <functional>
#include <string>
#include <vector>

#include "tc/common/result.h"
#include "tc/obs/audit_journal.h"
#include "tc/tee/tee.h"

namespace tc::policy {

/// Serialized tee::Quote <-> bytes, the form an audit export carries its
/// quote in: device id, nonce, claims, boot counter, serialized signature.
Bytes SerializeQuote(const tee::Quote& quote);
Result<tee::Quote> DeserializeQuote(const Bytes& data);

/// A caller's check of an export's quote (typically of its signature),
/// run once VerifyAndDecrypt has checked that the quote names the export's
/// sealed-in head and record count.
using ExportQuoteCheck = std::function<Status(const tee::Quote&)>;

/// Checks the quote's signature against the quoted device's endorsement
/// and the manufacturer that issued it.
ExportQuoteCheck EndorsedQuoteCheck(const tee::Endorsement& endorsement,
                                    const tee::Manufacturer& manufacturer);

/// Tamper-evident, TEE-attested audit log.
///
/// Implements the paper's accountability requirement: "the recipient
/// trusted cell can maintain an audit log, encrypt it and push it on the
/// Cloud to the destination of the originator trusted cell". The storage
/// is an obs::AuditJournal, a plain append-only SHA-256 hash chain over
/// every record. Export() seals the whole journal stream under the shared
/// AEAD key with the record count and chain head bound into the associated
/// data, then has the TEE sign one quote over that head and count, so the
/// evidence is signed once per export. VerifyAndDecrypt re-walks the chain
/// inside, so even the legitimate key holder cannot splice, reorder or
/// truncate records without detection.
class AuditLog {
 public:
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

  /// Serializes the journal, AEAD-sealed for pushing to the cloud, and
  /// attests it: "tc.audit.export.v3" | u64 record_count |
  /// bytes chain_head | bytes Seal(key, "tc.audit.v2"|count|head, journal
  /// stream) | bytes quote, where the quote's nonce is the chain head and
  /// its claims "tc.audit.export.<count>". Seals before it signs.
  Result<Bytes> Export() const;

  /// Opens and verifies an exported journal using `tee`/`key_name`
  /// (typically the originator's cell): AEAD integrity first, then the
  /// quote, which must name the sealed-in head and count and pass
  /// `check_quote` when one is given, then the full hash-chain walk
  /// anchored at that head and count. Tail truncation is additionally
  /// caught against `expected_count` when >= 0. Returns every record in
  /// order.
  static Result<std::vector<obs::AuditRecord>> VerifyAndDecrypt(
      const Bytes& exported, tee::TrustedExecutionEnvironment* tee,
      const std::string& key_name, int64_t expected_count = -1,
      const ExportQuoteCheck& check_quote = nullptr);

 private:
  tee::TrustedExecutionEnvironment* tee_;
  std::string key_name_;
  obs::AuditJournal journal_;
};

}  // namespace tc::policy

#endif  // TC_POLICY_AUDIT_H_
