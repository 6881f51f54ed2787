#include "tc/obs/audit_journal.h"

#include <algorithm>

#include "tc/crypto/sha256.h"
#include "tc/obs/trace.h"

namespace tc::obs {
namespace {

constexpr uint8_t kTagRecord = 0x01;
constexpr uint8_t kTagCheckpoint = 0x02;
const std::string kExportMagic = "tc.obs.journal.v1";

Bytes GenesisHead() {
  return crypto::Sha256Hash(ToBytes("tc.obs.journal.genesis"));
}

// The chain absorbs the *tagged* item — tag byte included — so a record
// reinterpreted as a checkpoint (or vice versa) changes the chain.
Bytes TaggedItem(uint8_t tag, const Bytes& payload) {
  return Encode(tag, payload);
}

}  // namespace

const char* AuditKindName(AuditKind kind) {
  switch (kind) {
    case AuditKind::kPolicyDecision:
      return "policy_decision";
    case AuditKind::kIncident:
      return "incident";
    case AuditKind::kRecoverySkip:
      return "recovery_skip";
    case AuditKind::kAttestation:
      return "attestation";
    case AuditKind::kLifecycle:
      return "lifecycle";
  }
  return "unknown";
}

Bytes AuditRecord::Serialize() const {
  return Encode(index, time, static_cast<uint8_t>(kind), subject, action,
                object, allowed, detail, trace_id, span_id);
}

Result<AuditRecord> AuditRecord::Deserialize(const Bytes& data) {
  AuditRecord rec;
  uint8_t kind = 0;
  TC_RETURN_IF_ERROR(Decode(data, &rec.index, &rec.time, &kind, &rec.subject,
                            &rec.action, &rec.object, &rec.allowed,
                            &rec.detail, &rec.trace_id, &rec.span_id));
  if (kind < 1 || kind > 5) {
    return Status::Corruption("bad audit record kind");
  }
  rec.kind = static_cast<AuditKind>(kind);
  return rec;
}

Bytes AuditCheckpoint::Serialize() const {
  return Encode(record_count, chain_head, signature);
}

Result<AuditCheckpoint> AuditCheckpoint::Deserialize(const Bytes& data) {
  AuditCheckpoint cp;
  TC_RETURN_IF_ERROR(
      Decode(data, &cp.record_count, &cp.chain_head, &cp.signature));
  return cp;
}

AuditJournal::AuditJournal(AuditJournalOptions options)
    : options_(std::move(options)), head_(GenesisHead()) {}

void AuditJournal::AbsorbItemLocked(uint8_t tag, const Bytes& payload) {
  head_ = crypto::Sha256Hash2(head_, TaggedItem(tag, payload));
  items_.emplace_back(tag, payload);
}

Status AuditJournal::Append(AuditRecord record) {
  TraceContext context = CurrentContext();
  std::lock_guard<std::mutex> lock(mu_);
  record.index = next_index_++;
  record.trace_id = context.trace_id;
  record.span_id = context.span_id;
  AbsorbItemLocked(kTagRecord, record.Serialize());
  if (options_.checkpoint_interval != 0 &&
      next_index_ % options_.checkpoint_interval == 0) {
    AuditCheckpoint cp;
    cp.record_count = next_index_;
    cp.chain_head = head_;
    if (options_.signer) {
      TC_ASSIGN_OR_RETURN(cp.signature, options_.signer(head_, next_index_));
    }
    AbsorbItemLocked(kTagCheckpoint, cp.Serialize());
    ++checkpoints_;
  }
  return Status::OK();
}

uint64_t AuditJournal::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_index_;
}

uint64_t AuditJournal::checkpoint_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

Bytes AuditJournal::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

Bytes AuditJournal::Export() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Encode(kExportMagic, items_);
}

std::vector<AuditRecord> AuditJournal::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditRecord> tail;
  for (auto it = items_.rbegin(); it != items_.rend() && tail.size() < n;
       ++it) {
    if (it->first != kTagRecord) continue;
    // The journal serialized every record itself, so each decodes.
    tail.push_back(AuditRecord::Deserialize(it->second).value());
  }
  std::reverse(tail.begin(), tail.end());
  return tail;
}

AuditVerifyReport AuditJournal::Verify(const Bytes& exported,
                                       const Bytes* expected_head,
                                       int64_t expected_count,
                                       const CheckpointVerifier& verifier) {
  AuditVerifyReport report;
  report.head = GenesisHead();
  auto fail = [&report](const std::string& why) {
    report.ok = false;
    report.error = why;
    return report;
  };

  std::string magic;
  std::vector<std::pair<uint8_t, Bytes>> items;
  Status parsed = Decode(exported, &magic, &items);
  if (!parsed.ok()) {
    return fail("unparseable journal export: " + parsed.message());
  }
  if (magic != kExportMagic) return fail("bad journal export magic");

  for (const auto& [tag, payload] : items) {
    if (tag == kTagRecord) {
      auto rec = AuditRecord::Deserialize(payload);
      if (!rec.ok()) return fail("unparseable record");
      if (rec->index != report.record_count) {
        return fail("record index out of order");
      }
      ++report.record_count;
      report.records.push_back(std::move(*rec));
    } else if (tag == kTagCheckpoint) {
      auto cp = AuditCheckpoint::Deserialize(payload);
      if (!cp.ok()) return fail("unparseable checkpoint");
      // The stored head anchors everything before this checkpoint: a
      // flipped bit, dropped item or swap anywhere upstream lands here.
      if (cp->record_count != report.record_count) {
        return fail("checkpoint record count mismatch");
      }
      if (cp->chain_head != report.head) {
        return fail("checkpoint chain head mismatch");
      }
      if (verifier) {
        Status s = verifier(*cp);
        if (!s.ok()) return fail("checkpoint signature rejected: " +
                                 s.message());
      }
      ++report.checkpoint_count;
    } else {
      return fail("unknown item tag");
    }
    report.head = crypto::Sha256Hash2(report.head, TaggedItem(tag, payload));
  }
  if (expected_count >= 0 &&
      report.record_count != static_cast<uint64_t>(expected_count)) {
    return fail("journal truncated or padded");
  }
  if (expected_head != nullptr && report.head != *expected_head) {
    return fail("journal head does not match anchor");
  }
  report.ok = true;
  return report;
}

}  // namespace tc::obs
