#include "tc/policy/audit.h"

#include "tc/common/codec.h"

namespace tc::policy {
namespace {

const std::string kExportMagic = "tc.audit.export.v3";

// AEAD associated data for a sealed export: binds the record count and the
// chain head, so the anchors VerifyAndDecrypt hands to the journal walk
// are themselves integrity-protected.
Bytes ExportAad(uint64_t record_count, const Bytes& chain_head) {
  return Encode(std::string("tc.audit.v2"), record_count, chain_head);
}

// What an export's quote claims: the record count its head covers.
std::string ExportClaims(uint64_t record_count) {
  return "tc.audit.export." + std::to_string(record_count);
}

}  // namespace

Bytes SerializeQuote(const tee::Quote& quote) {
  return Encode(quote.device_id, quote.nonce, quote.claims,
                quote.boot_counter, quote.signature.Serialize(32));
}

Result<tee::Quote> DeserializeQuote(const Bytes& data) {
  tee::Quote quote;
  Bytes sig;
  TC_RETURN_IF_ERROR(Decode(data, &quote.device_id, &quote.nonce,
                            &quote.claims, &quote.boot_counter, &sig));
  TC_ASSIGN_OR_RETURN(quote.signature,
                      crypto::SchnorrSignature::Deserialize(sig));
  return quote;
}

ExportQuoteCheck EndorsedQuoteCheck(const tee::Endorsement& endorsement,
                                    const tee::Manufacturer& manufacturer) {
  return [&endorsement, &manufacturer](const tee::Quote& quote) {
    if (!tee::TrustedExecutionEnvironment::VerifyQuote(quote, endorsement,
                                                       manufacturer)) {
      return Status::IntegrityViolation("audit export quote signature invalid");
    }
    return Status::OK();
  };
}

AuditLog::AuditLog(tee::TrustedExecutionEnvironment* tee, std::string key_name)
    : tee_(tee), key_name_(std::move(key_name)) {}

Result<Bytes> AuditLog::Export() const {
  uint64_t count = journal_.record_count();
  Bytes head = journal_.head();
  TC_ASSIGN_OR_RETURN(
      Bytes sealed,
      tee_->Seal(key_name_, ExportAad(count, head), journal_.Export()));
  const tee::Quote quote = tee_->GenerateQuote(head, ExportClaims(count));
  return Encode(kExportMagic, count, head, sealed, SerializeQuote(quote));
}

Result<std::vector<obs::AuditRecord>> AuditLog::VerifyAndDecrypt(
    const Bytes& exported, tee::TrustedExecutionEnvironment* tee,
    const std::string& key_name, int64_t expected_count,
    const ExportQuoteCheck& check_quote) {
  std::string magic;
  uint64_t count = 0;
  Bytes head, sealed, quote_bytes;
  TC_RETURN_IF_ERROR(
      Decode(exported, &magic, &count, &head, &sealed, &quote_bytes));
  if (magic != kExportMagic) {
    return Status::Corruption("bad audit export magic");
  }
  if (expected_count >= 0 && count != static_cast<uint64_t>(expected_count)) {
    return Status::IntegrityViolation("audit log truncated or padded");
  }
  // AEAD integrity: the seal binds count + head, so a tampered wire header
  // or ciphertext dies here.
  TC_ASSIGN_OR_RETURN(Bytes stream,
                      tee->Open(key_name, ExportAad(count, head), sealed));
  // The quote must attest exactly the sealed-in anchors; whose device
  // signed it is the caller's check.
  TC_ASSIGN_OR_RETURN(tee::Quote quote, DeserializeQuote(quote_bytes));
  if (quote.nonce != head || quote.claims != ExportClaims(count)) {
    return Status::IntegrityViolation(
        "audit export quote names another head or count");
  }
  if (check_quote) TC_RETURN_IF_ERROR(check_quote(quote));
  // Defense in depth: re-walk the hash chain against the sealed-in
  // anchors, so even the key holder cannot re-seal a spliced journal.
  obs::AuditVerifyReport report = obs::AuditJournal::Verify(
      stream, &head, static_cast<int64_t>(count));
  if (!report.ok) {
    return Status::IntegrityViolation("audit journal verify: " + report.error);
  }
  return std::move(report.records);
}

}  // namespace tc::policy
