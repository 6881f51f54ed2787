#include "tc/policy/audit.h"

#include "tc/common/codec.h"
#include "tc/crypto/sha256.h"

namespace tc::policy {
namespace {

const std::string kExportMagic = "tc.audit.export.v2";

// AEAD associated data for a sealed export: binds the record count and the
// chain head, so the anchors VerifyAndDecrypt hands to the journal walk
// are themselves integrity-protected.
Bytes ExportAad(uint64_t record_count, const Bytes& chain_head) {
  return Encode(std::string("tc.audit.v2"), record_count, chain_head);
}

std::string CheckpointClaims(uint64_t record_count) {
  return "tc.audit.checkpoint." + std::to_string(record_count);
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

obs::CheckpointVerifier QuoteCheckpointVerifier(
    const tee::Endorsement& endorsement,
    const tee::Manufacturer& manufacturer) {
  return [&endorsement, &manufacturer](const obs::AuditCheckpoint& cp) {
    auto quote = DeserializeQuote(cp.signature);
    if (!quote.ok()) return quote.status();
    if (quote->nonce != cp.chain_head) {
      return Status::IntegrityViolation("quote nonce != checkpoint head");
    }
    if (quote->claims != CheckpointClaims(cp.record_count)) {
      return Status::IntegrityViolation("quote claims mismatch");
    }
    if (!tee::TrustedExecutionEnvironment::VerifyQuote(*quote, endorsement,
                                                       manufacturer)) {
      return Status::IntegrityViolation("checkpoint quote signature invalid");
    }
    return Status::OK();
  };
}

AuditLog::AuditLog(tee::TrustedExecutionEnvironment* tee, std::string key_name)
    : tee_(tee), key_name_(std::move(key_name)), journal_([this] {
        obs::AuditJournalOptions options;
        options.checkpoint_interval = kCheckpointInterval;
        options.signer = [this](const Bytes& head,
                                uint64_t count) -> Result<Bytes> {
          return SerializeQuote(
              tee_->GenerateQuote(head, CheckpointClaims(count)));
        };
        return options;
      }()) {}

Result<Bytes> AuditLog::Export() const {
  uint64_t count = journal_.record_count();
  Bytes head = journal_.head();
  TC_ASSIGN_OR_RETURN(
      Bytes sealed,
      tee_->Seal(key_name_, ExportAad(count, head), journal_.Export()));
  return Encode(kExportMagic, count, head, sealed);
}

Result<std::vector<obs::AuditRecord>> AuditLog::VerifyAndDecrypt(
    const Bytes& exported, tee::TrustedExecutionEnvironment* tee,
    const std::string& key_name, int64_t expected_count,
    const obs::CheckpointVerifier& verifier) {
  std::string magic;
  uint64_t count = 0;
  Bytes head, sealed;
  TC_RETURN_IF_ERROR(Decode(exported, &magic, &count, &head, &sealed));
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
  // Defense in depth: re-walk the hash chain against the sealed-in
  // anchors, so even the key holder cannot re-seal a spliced journal
  // without also forging every checkpoint relation.
  obs::AuditVerifyReport report = obs::AuditJournal::Verify(
      stream, &head, static_cast<int64_t>(count), verifier);
  if (!report.ok) {
    return Status::IntegrityViolation("audit journal verify: " + report.error);
  }
  return std::move(report.records);
}

}  // namespace tc::policy
