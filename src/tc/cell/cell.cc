#include "tc/cell/cell.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "tc/cloud/txn.h"
#include "tc/common/codec.h"
#include "tc/crypto/sha256.h"
#include "tc/obs/flight_recorder.h"
#include "tc/obs/telemetry.h"
#include "tc/obs/trace.h"

namespace tc::cell {

using namespace std::string_literals;

namespace {

std::string MetaKey(const std::string& doc_id) { return "x/doc/" + doc_id; }

/// Which cell a pending document's approval was asked of: a record of the
/// proposer's own, so the meta keeps its bytes.
std::string ApprovalKey(const std::string& doc_id) {
  return "x/approval/" + doc_id;
}

/// What the asked cell signs: its verdict on one proposer's document.
Bytes ApprovalPayload(const std::string& proposer_cell,
                      const std::string& doc_id, bool approve) {
  return Encode("tc.approval.v1"s, proposer_cell, doc_id, approve);
}

/// The associated data of a sealed manifest root body.
Bytes ManifestAad(const std::string& owner, uint64_t version) {
  return Encode("tc.manifest"s, owner, version);
}

/// The associated data of a sealed manifest segment body.
Bytes SegmentAad(const std::string& owner, uint32_t slot) {
  return Encode("tc.manifest.seg"s, owner, slot);
}

/// The fewest slot bits that keep `listed` entries at most
/// kManifestSlotEntries per slot on average.
uint32_t SlotBits(size_t listed) {
  uint32_t bits = 0;
  while ((kManifestSlotEntries << bits) < listed) ++bits;
  return bits;
}

/// The top `bits` bits of a doc id (hex SHA-256; a digit that is not
/// lowercase hex reads as 0).
uint32_t SlotOf(const std::string& doc_id, uint32_t bits) {
  uint64_t top = 0;
  for (size_t i = 0; i < 16; ++i) {
    const char c = i < doc_id.size() ? doc_id[i] : '0';
    const uint64_t digit = c >= '0' && c <= '9'   ? c - '0'
                           : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                                  : 0;
    top = top << 4 | digit;
  }
  return bits == 0 ? 0 : static_cast<uint32_t>(top >> (64 - bits));
}

/// What the keyword index holds a document under.
std::string IndexedText(const DocumentMeta& meta) {
  return meta.title + " " + meta.keywords;
}

/// Schnorr/DH group size of every cell's TEE (and of the signatures the
/// cells check).
constexpr size_t kGroupBits = 512;

storage::FlashGeometry DefaultGeometry(const tee::DeviceProfile& profile) {
  storage::FlashGeometry geo;
  geo.page_size = 2048;
  geo.pages_per_block = 64;
  switch (profile.device_class) {
    case tee::DeviceClass::kSecureToken:
      geo.block_count = 128;  // 16 MiB.
      break;
    case tee::DeviceClass::kSensorNode:
      geo.block_count = 64;   // 8 MiB.
      break;
    case tee::DeviceClass::kSmartPhone:
      geo.block_count = 512;  // 64 MiB.
      break;
    case tee::DeviceClass::kHomeGateway:
      geo.block_count = 2048;  // 256 MiB.
      break;
  }
  geo.read_page_us = profile.flash_read_page_us;
  geo.program_page_us = profile.flash_program_page_us;
  geo.erase_block_us = profile.flash_erase_block_us;
  return geo;
}

}  // namespace

// --------------------------------------------------------- DocumentMeta

void Put(BinaryWriter& w, const DocumentMeta& v) {
  PutFields(w, v.doc_id, v.title, v.keywords, v.origin_owner, v.origin_cell,
            v.version, v.size, v.created, v.policy_envelope, v.blob_id,
            v.key_name, v.pending_approval);
}

Status Get(BinaryReader& r, DocumentMeta* v) {
  return GetFields(r, &v->doc_id, &v->title, &v->keywords, &v->origin_owner,
                   &v->origin_cell, &v->version, &v->size, &v->created,
                   &v->policy_envelope, &v->blob_id, &v->key_name,
                   &v->pending_approval);
}

// ------------------------------------------------------- manifest bodies

void Put(BinaryWriter& w, const ManifestRoot& v) {
  PutFields(w, v.bits, v.segments);
}

Status Get(BinaryReader& r, ManifestRoot* v) {
  TC_RETURN_IF_ERROR(GetFields(r, &v->bits, &v->segments));
  if (v->bits > 32) return Status::Corruption("manifest root bits above 32");
  const uint64_t slots = uint64_t{1} << v->bits;
  for (size_t i = 0; i < v->segments.size(); ++i) {
    if (v->segments[i].first >= slots ||
        (i > 0 && v->segments[i].first <= v->segments[i - 1].first)) {
      return Status::Corruption("manifest root slots out of order");
    }
  }
  return Status::OK();
}

void Put(BinaryWriter& w, const ManifestSegment& v) { PutFields(w, v.entries); }

Status Get(BinaryReader& r, ManifestSegment* v) {
  return GetFields(r, &v->entries);
}

// ----------------------------------------------------------- ShareGrant

Bytes ShareGrant::SignedPayload() const {
  return Encode("tc.grant.v1"s, grant_id, doc_id, blob_id, origin_owner,
                version, title, keywords, sender_cell, recipient_cell,
                policy_envelope, wrapped_key);
}

Bytes ShareGrant::Serialize() const {
  return Encode(SignedPayload(), signature.Serialize(32));
}

Result<ShareGrant> ShareGrant::Deserialize(const Bytes& data) {
  Bytes payload, sig_bytes;
  TC_RETURN_IF_ERROR(Decode(data, &payload, &sig_bytes));
  ShareGrant grant;
  std::string magic;
  TC_RETURN_IF_ERROR(Decode(
      payload, &magic, &grant.grant_id, &grant.doc_id, &grant.blob_id,
      &grant.origin_owner, &grant.version, &grant.title, &grant.keywords,
      &grant.sender_cell, &grant.recipient_cell, &grant.policy_envelope,
      &grant.wrapped_key));
  if (magic != "tc.grant.v1") return Status::Corruption("bad grant magic");
  TC_ASSIGN_OR_RETURN(grant.signature,
                      crypto::SchnorrSignature::Deserialize(sig_bytes));
  return grant;
}

// ---------------------------------------------------------- TrustedCell

policy::Policy MakeOwnerPolicy(const std::string& owner) {
  policy::UsageRule rule;
  rule.id = "owner-all";
  rule.subjects = {owner};
  rule.rights = {policy::Right::kRead, policy::Right::kWrite,
                 policy::Right::kShare, policy::Right::kAggregate,
                 policy::Right::kExport};
  rule.obligations = {policy::ObligationType::kLogAccess};
  policy::Policy p;
  p.id = "owner-default";
  p.owner = owner;
  p.rules = {rule};
  return p;
}

TrustedCell::Metrics::Metrics()
    : seal_us(obs::MetricRegistry::Global().GetHistogram("cell.seal_us")),
      unseal_us(obs::MetricRegistry::Global().GetHistogram("cell.unseal_us")),
      reads_allowed(obs::MetricRegistry::Global().GetCounter(
          "cell.policy.reads_allowed")),
      reads_denied(obs::MetricRegistry::Global().GetCounter(
          "cell.policy.reads_denied")),
      incidents(obs::MetricRegistry::Global().GetCounter("cell.incidents")),
      degraded_ms(
          obs::MetricRegistry::Global().GetCounter("cell.degraded_ms")),
      degraded(
          obs::MetricRegistry::Global().GetGauge(obs::kDegradedGaugeName)),
      outbox_depth(obs::MetricRegistry::Global().GetGauge(
          obs::kOutboxDepthGaugeName)) {}

TrustedCell::TrustedCell(const Config& config,
                         cloud::CloudInfrastructure* cloud,
                         CellDirectory* directory, const Clock* clock)
    : config_(config),
      cloud_(cloud),
      directory_(directory),
      clock_(clock),
      in_process_(cloud) {}

Result<std::unique_ptr<TrustedCell>> TrustedCell::Create(
    const Config& config, cloud::CloudInfrastructure* cloud,
    CellDirectory* directory, const Clock* clock) {
  if (config.cell_id.empty() || config.owner.empty()) {
    return Status::InvalidArgument("cell needs an id and an owner");
  }
  std::unique_ptr<TrustedCell> cell(
      new TrustedCell(config, cloud, directory, clock));
  TC_RETURN_IF_ERROR(cell->Init());
  return cell;
}

Status TrustedCell::Init() {
  tee_ = std::make_unique<tee::TrustedExecutionEnvironment>(
      config_.cell_id, config_.device_class, kGroupBits);

  // Owner master key: identical on every cell of the owner (models the
  // user enrolling each device with her passphrase-derived secret).
  Bytes owner_secret = crypto::Sha256Hash(ToBytes(
      "tc.owner-secret." + config_.owner + "|" + config_.enrollment_secret));
  TC_RETURN_IF_ERROR(tee_->keystore().ImportKey("owner-master", owner_secret));
  TC_RETURN_IF_ERROR(tee_->keystore().DeriveChildKey(
      "owner-master", "storage-root", "storage/" + config_.cell_id));
  TC_RETURN_IF_ERROR(tee_->keystore().DeriveChildKey(
      "owner-master", "manifest-key", "manifest"));
  TC_RETURN_IF_ERROR(tee_->keystore().DeriveChildKey(
      "owner-master", "audit-key", "audit/" + config_.cell_id));

  // The audit journal must exist before the store opens: recovery can
  // raise incidents, and every incident is journaled evidence.
  audit_ = std::make_unique<policy::AuditLog>(tee_.get(), "audit-key");
  {
    obs::AuditRecord boot;
    boot.time = clock_->Now();
    boot.kind = obs::AuditKind::kAttestation;
    boot.subject = config_.cell_id;
    boot.action = "init";
    boot.object = config_.cell_id;
    boot.allowed = true;
    boot.detail =
        "boot_counter=" + std::to_string(tee_->CounterValue("boot"));
    audit_->journal().Append(std::move(boot));
  }

  const tee::DeviceProfile& profile = tee_->profile();
  const storage::FlashGeometry geo =
      config_.flash.value_or(DefaultGeometry(profile));
  flash_ = std::make_unique<storage::FlashDevice>(geo);
  transform_ = std::make_unique<storage::EncryptedPageTransform>(
      tee_.get(), "storage-root");
  storage::LogStoreOptions store_options;
  store_options.ram_budget_bytes = profile.ram_budget_bytes;
  // Survive a power loss mid-program (at most one torn page, plus the
  // residue of an interrupted GC erase) without bricking the cell, while a
  // wholesale undecodable image — wrong key, gross tampering — still
  // refuses to open.
  store_options.max_recovery_skips = geo.pages_per_block;
  TC_ASSIGN_OR_RETURN(store_,
                      storage::LogStore::Open(flash_.get(), transform_.get(),
                                              store_options));
  if (store_->stats().recovery_pages_skipped > 0) {
    obs::AuditRecord skip;
    skip.time = clock_->Now();
    skip.kind = obs::AuditKind::kRecoverySkip;
    skip.subject = config_.cell_id;
    skip.action = "recover";
    skip.object = "flash";
    skip.allowed = true;  // Tolerated by max_recovery_skips.
    skip.detail = std::to_string(store_->stats().recovery_pages_skipped) +
                  " pages skipped";
    audit_->journal().Append(std::move(skip));
    RecordIncident(
        IncidentType::kStorageDataLoss, "flash",
        std::to_string(store_->stats().recovery_pages_skipped) +
            " undecodable flash pages skipped during store recovery");
  }
  TC_ASSIGN_OR_RETURN(db_, db::Database::Open(store_.get()));

  net::ChannelOptions channel_options = config_.channel;
  if (channel_options.seed == net::ChannelOptions{}.seed) {
    // Per-cell jitter stream by default, so a fleet of cells does not
    // retry in lockstep.
    Bytes digest = crypto::Sha256Hash(Encode("tc.net-seed." + config_.cell_id));
    uint64_t seed = 0;
    for (int i = 0; i < 8; ++i) seed = (seed << 8) | digest[i];
    channel_options.seed = seed;
  }
  if (!config_.resilient_sync) {
    // An open circuit has nothing to send such a cell to (no outbox), and
    // only CatchUp waits one out, so it would never close again: the
    // breaker stays closed and each call probes the provider within its
    // own deadline and retry budget.
    channel_options.breaker.failure_threshold =
        std::numeric_limits<uint32_t>::max();
  }
  net::CloudTransport* transport =
      config_.transport != nullptr ? config_.transport : &in_process_;
  channel_ = std::make_unique<net::ResilientChannel>(transport, config_.owner,
                                                     channel_options);
  if (config_.resilient_sync) {
    outbox_ = std::make_unique<net::Outbox>(store_.get());
    TC_RETURN_IF_ERROR(outbox_->Load());
    if (!outbox_->empty()) {
      // Crashed (or was shut down) while partitioned: the queued writes
      // survived in the encrypted store. Resume degraded until CatchUp.
      metrics_.outbox_depth.Add(static_cast<int64_t>(outbox_->size()));
      EnterDegraded();
    }
  }

  // Rebuild the document registry.
  Status scan_status;
  TC_RETURN_IF_ERROR(store_->ScanAll([&](const std::string& key,
                                         const Bytes& value) {
    if (!scan_status.ok() || key.compare(0, 6, "x/doc/") != 0) return;
    uint64_t number = 0;
    DocumentMeta meta;
    scan_status = Decode(value, &number, &meta);
    if (!scan_status.ok()) return;
    docs_[meta.doc_id] = {number, ManifestEntry(meta), next_entry_id_++};
    number_to_doc_[number] = meta.doc_id;
    next_doc_number_ = std::max(next_doc_number_, number + 1);
  }));
  TC_RETURN_IF_ERROR(scan_status);

  Status registered = directory_->Register(
      CellIdentity{config_.cell_id, config_.owner, tee_->signing_public_key(),
                   tee_->dh_public_key()});
  if (!registered.ok() && registered.code() != StatusCode::kAlreadyExists) {
    return registered;
  }
  return Status::OK();
}

std::string TrustedCell::SpaceBlobId(const std::string& doc_id) const {
  return "space/" + config_.owner + "/doc/" + doc_id;
}

std::string TrustedCell::ManifestBlobId() const {
  return "space/" + config_.owner + "/manifest";
}

std::string TrustedCell::SegmentBlobId(const Bytes& hash) const {
  return ManifestBlobId() + "/" + HexEncode(hash);
}

// ---- Disconnected operation ----

std::string TrustedCell::PushToken(const std::string& blob_id,
                                   uint64_t version,
                                   const Bytes& sealed) const {
  // (blob, version) alone does not name one write: a call that fails after
  // its push landed keeps the saved version, so the next call re-seals new
  // content under the same version. Every pushed blob ends in the AEAD tag
  // of its seal (a manifest wraps its sealed body last) — a keyed digest of
  // nonce, AAD and content — so its tail tells such writes apart, while
  // each retry and outbox drain of one write re-sends the same token.
  const size_t tail = std::min<size_t>(sealed.size(), 8);
  return config_.cell_id + "|" + blob_id + "|v" + std::to_string(version) +
         "|" + HexEncode(Bytes(sealed.end() - tail, sealed.end()));
}

void TrustedCell::EnterDegraded() {
  // +1/-1, not Set: the gauge is process-global, so with several cells in
  // one process it counts the currently-degraded ones.
  metrics_.degraded.Add(1);
  degraded_timer_ = obs::Stopwatch();
}

void TrustedCell::ExitDegraded() {
  metrics_.degraded.Add(-1);
  metrics_.degraded_ms.Increment(degraded_timer_.ElapsedUs() / 1000);
}

Status TrustedCell::CommitOrJournal(const cloud::TxnRequest& req,
                                    const Status& observed) {
  // An older queued write must reach the provider first: committing this
  // one now could land it under that one.
  const bool queued = outbox_ != nullptr && !outbox_->empty();
  Status failure = observed;
  if (failure.ok() && !queued) {
    cloud::TxnOutcome outcome = channel_->CommitTxn(req);
    if (outcome.committed) return Status::OK();
    failure = outcome.status;
  }
  const bool unreachable =
      failure.IsTransient() || failure.IsDeadlineExceeded();
  if (!failure.ok() && (!unreachable || outbox_ == nullptr)) return failure;
  // The sealed bytes are journaled in the encrypted store and the write
  // succeeds locally. An unresolved commit may have applied with only its
  // ack lost: the drain re-sends under the same token, so it applies at
  // most once.
  std::vector<net::OutboxWrite> writes;
  writes.reserve(req.writes.size());
  for (const cloud::TxnWrite& write : req.writes) {
    writes.push_back({write.id, write.data});
  }
  TC_RETURN_IF_ERROR(outbox_->Enqueue(req.token, std::move(writes)));
  metrics_.outbox_depth.Add(1);
  ++stats_.writes_deferred;
  if (outbox_->size() == 1) EnterDegraded();
  return Status::OK();
}

Result<Bytes> TrustedCell::PullBlob(const std::string& blob_id) {
  if (outbox_ != nullptr) {
    // Read-your-writes while the write is queued.
    if (const Bytes* queued = outbox_->FindPayload(blob_id)) return *queued;
  }
  return channel_->Get(blob_id);
}

Status TrustedCell::CatchUp() {
  if (outbox_ == nullptr || outbox_->empty()) {
    // Nothing to drain, but the circuit may have opened on reads: catch-up
    // is the reconnection attempt, so the next call may probe.
    channel_->WaitOutBreaker();
    return Status::OK();
  }
  obs::TraceSpan span("cell", "catch_up", config_.cell_id);
  // Catch-up is anti-entropy traffic: tag the channel kBackground for the
  // duration so an overloaded provider sheds this drain before any cell's
  // foreground commits. Restored on every exit path.
  struct CriticalityGuard {
    net::ResilientChannel* ch;
    Criticality prev;
    ~CriticalityGuard() { ch->set_criticality(prev); }
  } criticality_guard{channel_.get(), channel_->criticality()};
  channel_->set_criticality(Criticality::kBackground);
  while (!outbox_->empty()) {
    // Catch-up is the reconnection attempt: it must be allowed to probe.
    channel_->WaitOutBreaker();
    const net::OutboxRecord& record = outbox_->pending().begin()->second;
    // Blind last-writer-wins writes under the record's original token
    // (the partition aged any read set past meaningful validation),
    // answered from the provider's token table if the commit already
    // applied before a crash or a lost ack — either way all of the
    // record's writes land atomically, exactly once.
    cloud::TxnRequest req;
    req.token = record.token;
    for (const net::OutboxWrite& write : record.writes) {
      req.writes.push_back(
          {write.blob_id, write.payload, cloud::kBaseVersionAny});
    }
    cloud::TxnOutcome outcome = channel_->CommitTxn(req);
    if (!outcome.committed) {
      if (outcome.status.IsTransient() ||
          outcome.status.IsDeadlineExceeded()) {
        return Status::Unavailable(
            "catch-up stalled with " + std::to_string(outbox_->size()) +
            " records pending: " + outcome.status.ToString());
      }
      return outcome.status;  // Blind writes never abort; a real error.
    }
    // Read-back verification: each acked version must hold exactly the
    // bytes we sealed — a provider that acked without storing (or stored
    // something else) is caught here, not at some future fetch.
    for (size_t i = 0; i < record.writes.size(); ++i) {
      const net::OutboxWrite& write = record.writes[i];
      auto echo = cloud_->GetBlobVersion(write.blob_id, outcome.versions[i]);
      if (!echo.ok() || *echo != write.payload) {
        RecordIncident(IncidentType::kPayloadTampered, write.blob_id,
                       "catch-up read-back mismatch at version " +
                           std::to_string(outcome.versions[i]));
        return Status::IntegrityViolation("catch-up read-back mismatch on " +
                                          write.blob_id);
      }
    }
    TC_RETURN_IF_ERROR(outbox_->MarkDone(record.seq));
    metrics_.outbox_depth.Add(-1);
    ++stats_.catchup_drained;
  }
  ExitDegraded();
  // Everything queued is durable; publish a fresh manifest so sibling
  // cells see the post-partition state.
  return SyncPush();
}

Bytes TrustedCell::DocumentAad(const std::string& doc_id,
                               uint64_t version) const {
  return Encode("tc.doc"s, doc_id, version);
}

policy::StickyPolicy::MacFn TrustedCell::StickyMac(
    const std::string& key_name) {
  std::string sticky_key = key_name + ".sticky";
  if (!tee_->keystore().HasKey(sticky_key)) {
    Status s = tee_->keystore().DeriveChildKey(key_name, sticky_key, "sticky");
    TC_CHECK(s.ok());
  }
  return [this, sticky_key](const Bytes& input) {
    auto tag = tee_->Mac(sticky_key, input);
    TC_CHECK(tag.ok());
    return *tag;
  };
}

Status TrustedCell::EnsureDocKey(const std::string& key_name) {
  if (tee_->keystore().HasKey(key_name)) return Status::OK();
  // The derivation label is the key name itself, so any cell of the owner
  // reconstructs the same key from metadata alone — including rotated
  // keys ("dk/<doc>/rN").
  return tee_->keystore().DeriveChildKey("owner-master", key_name, key_name);
}

Result<DocumentMeta> TrustedCell::LoadMeta(const std::string& doc_id) {
  TC_ASSIGN_OR_RETURN(Bytes data, store_->Get(MetaKey(doc_id)));
  uint64_t number = 0;
  DocumentMeta meta;
  TC_RETURN_IF_ERROR(Decode(data, &number, &meta));
  return meta;
}

Status TrustedCell::SaveMeta(const DocumentMeta& meta, bool is_new) {
  uint64_t number;
  if (is_new) {
    // Spent even if the write fails: the number names the doc id a store
    // derives, and that store may already have committed its blob.
    number = next_doc_number_++;
  } else {
    auto it = docs_.find(meta.doc_id);
    if (it == docs_.end()) {
      return Status::Internal("meta update for unknown document");
    }
    number = it->second.number;
  }
  TC_RETURN_IF_ERROR(CheckMetaFits(meta));
  if (is_new) {
    // Postings a failed record write leaves behind resolve to nothing:
    // the search resolves a number only once the registry names it.
    TC_RETURN_IF_ERROR(
        db_->keywords().IndexDocument(number, IndexedText(meta)));
  }
  TC_RETURN_IF_ERROR(store_->Put(MetaKey(meta.doc_id), Encode(number, meta)));
  Bytes entry = ManifestEntry(meta);
  RegisteredDocument& doc = docs_[meta.doc_id];
  doc.number = number;
  if (doc.manifest_entry != entry) {
    doc.manifest_entry = std::move(entry);
    doc.entry_id = next_entry_id_++;
  }
  if (is_new) number_to_doc_[number] = meta.doc_id;
  return Status::OK();
}

Status TrustedCell::CheckMetaFits(const DocumentMeta& meta) const {
  // The record's size does not depend on its keyword-index number.
  if (Encode(uint64_t{0}, meta).size() <= store_->MaxValueSize()) {
    return Status::OK();
  }
  return Status::InvalidArgument("document meta larger than one flash page");
}

bool TrustedCell::IsOwn(const DocumentMeta& meta) const {
  return meta.origin_owner == config_.owner && meta.origin_cell.empty();
}

Bytes TrustedCell::ManifestEntry(const DocumentMeta& meta) const {
  // A pending document stays out until approved: approval does not bump
  // its version, so a sibling that pulled it pending would never adopt it.
  if (!IsOwn(meta) || meta.pending_approval) return {};
  // The manifest lists a meta as the store holds it, under keyword-index
  // number 0.
  Bytes entry = Encode(uint64_t{0}, meta);
  entry.shrink_to_fit();  // Held as long as the document: no writer slack.
  return entry;
}

Status TrustedCell::ForgetDocument(const DocumentMeta& meta) {
  TC_RETURN_IF_ERROR(store_->Delete(MetaKey(meta.doc_id)));
  (void)tee_->keystore().DestroyKey(meta.key_name);
  (void)tee_->keystore().DestroyKey(meta.key_name + ".sticky");
  auto doc = docs_.find(meta.doc_id);
  if (doc == docs_.end()) return Status::OK();
  const uint64_t number = doc->second.number;
  number_to_doc_.erase(number);
  docs_.erase(doc);
  return db_->keywords().RemoveDocument(number, IndexedText(meta));
}

Result<Bytes> TrustedCell::SealDocument(const DocumentMeta& meta,
                                        const Bytes& content) {
  obs::Stopwatch seal_timer;
  TC_ASSIGN_OR_RETURN(
      Bytes sealed,
      tee_->Seal(meta.key_name, DocumentAad(meta.doc_id, meta.version),
                 content));
  metrics_.seal_us.Record(seal_timer.ElapsedUs());
  return sealed;
}

namespace {

const char* IncidentName(IncidentType type) {
  switch (type) {
    case IncidentType::kPayloadTampered:
      return "payload_tampered";
    case IncidentType::kRollbackDetected:
      return "rollback_detected";
    case IncidentType::kForgedGrant:
      return "forged_grant";
    case IncidentType::kReplayedGrant:
      return "replayed_grant";
    case IncidentType::kPolicyTampered:
      return "policy_tampered";
    case IncidentType::kStorageDataLoss:
      return "storage_data_loss";
  }
  return "unknown";
}

}  // namespace

void TrustedCell::RecordIncident(IncidentType type,
                                 const std::string& object_id,
                                 const std::string& detail) {
  incidents_.push_back(SecurityIncident{type, object_id, detail});
  metrics_.incidents.Increment();
  obs::TraceRing::Global().Emit(obs::TraceKind::kInstant, "cell",
                                std::string("incident/") + IncidentName(type),
                                config_.cell_id + " " + object_id);
  // Every incident is journaled evidence (audit_ exists for the whole
  // post-Init lifetime; Init constructs it before the store opens).
  const obs::AuditJournal* journal = nullptr;
  if (audit_ != nullptr) {
    obs::AuditRecord record;
    record.time = clock_->Now();
    record.kind = obs::AuditKind::kIncident;
    record.subject = config_.cell_id;
    record.action = IncidentName(type);
    record.object = object_id;
    record.allowed = false;
    record.detail = detail;
    audit_->journal().Append(std::move(record));
    journal = &audit_->journal();
  }
  obs::FlightRecorder::Global().Trigger(
      std::string("incident:") + IncidentName(type),
      config_.cell_id + " " + object_id + ": " + detail, journal);
}

// ---- Controlled collection ----

Status TrustedCell::IngestReading(const std::string& series, Timestamp t,
                                  int64_t value) {
  TC_RETURN_IF_ERROR(db_->timeseries().Append(series, t, value));
  ++stats_.readings_ingested;
  return Status::OK();
}

Result<std::vector<db::WindowAggregate>> TrustedCell::Aggregates(
    const std::string& series, Timestamp t0, Timestamp t1,
    Timestamp window_seconds) {
  return db_->timeseries().Windowed(series, t0, t1, window_seconds);
}

Status TrustedCell::PublishAggregate(const std::string& recipient,
                                     const std::string& series, Timestamp t0,
                                     Timestamp t1, Timestamp window_seconds) {
  TC_ASSIGN_OR_RETURN(std::vector<db::WindowAggregate> windows,
                      Aggregates(series, t0, t1, window_seconds));
  std::vector<std::pair<Timestamp, double>> means;
  means.reserve(windows.size());
  for (const db::WindowAggregate& agg : windows) {
    means.emplace_back(agg.window_start, agg.mean);
  }
  cloud_->Send(config_.cell_id, recipient, "aggregate",
               Encode(series, window_seconds, means));
  ++stats_.aggregates_published;
  return Status::OK();
}

// ---- Secure private store ----

Result<std::string> TrustedCell::StoreDocument(const std::string& title,
                                               const std::string& keywords,
                                               const Bytes& content,
                                               const policy::Policy& policy) {
  // Cell API surface: plain spans mint a new trace when none is active,
  // so every public operation roots one causal tree (or nests under the
  // caller's, e.g. a fleet run).
  obs::TraceSpan span("cell", "store_document", config_.cell_id);
  std::string doc_id =
      HexEncode(crypto::Sha256Hash(Encode(config_.cell_id, next_doc_number_)))
          .substr(0, 16);

  std::string key_name = "dk/" + doc_id;
  TC_RETURN_IF_ERROR(EnsureDocKey(key_name));

  DocumentMeta meta;
  meta.doc_id = doc_id;
  meta.title = title;
  meta.keywords = keywords;
  meta.origin_owner = config_.owner;
  meta.origin_cell = "";
  meta.version = 1;
  meta.size = content.size();
  meta.created = clock_->Now();
  meta.policy_envelope =
      policy::StickyPolicy::BindWithMac(policy, doc_id, StickyMac(key_name));
  meta.blob_id = SpaceBlobId(doc_id);
  meta.key_name = key_name;
  // Refused before the payload is sealed or committed, a store whose meta
  // SaveMeta would refuse leaves no trace.
  if (Status fits = CheckMetaFits(meta); !fits.ok()) {
    (void)tee_->keystore().DestroyKey(key_name);
    (void)tee_->keystore().DestroyKey(key_name + ".sticky");
    return fits;
  }

  TC_ASSIGN_OR_RETURN(Bytes sealed, SealDocument(meta, content));
  // The cell's one blind write (kBaseVersionAny): no manifest names the
  // document yet, so there is no version to validate against.
  cloud::TxnRequest req;
  req.token = PushToken(meta.blob_id, meta.version, sealed);
  req.writes.push_back(
      {meta.blob_id, std::move(sealed), cloud::kBaseVersionAny});
  TC_RETURN_IF_ERROR(CommitOrJournal(req));
  TC_RETURN_IF_ERROR(SaveMeta(meta, /*is_new=*/true));
  ++stats_.documents_stored;
  return doc_id;
}

Status TrustedCell::UpdateDocumentAtomic(const std::string& doc_id,
                                         const Bytes& content,
                                         const policy::Policy* new_policy) {
  obs::TraceSpan span("cell", "update_document_atomic", doc_id);
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (!IsOwn(meta)) {
    return Status::PermissionDenied("cannot update a document shared by " +
                                    meta.origin_owner);
  }
  ++meta.version;
  meta.size = content.size();
  if (new_policy != nullptr) {
    meta.policy_envelope = policy::StickyPolicy::BindWithMac(
        *new_policy, doc_id, StickyMac(meta.key_name));
  }
  TC_ASSIGN_OR_RETURN(Bytes sealed, SealDocument(meta, content));
  TC_RETURN_IF_ERROR(PublishManifest(&meta, sealed));
  ++stats_.atomic_updates;
  return Status::OK();
}

Result<Bytes> TrustedCell::FetchAndOpen(DocumentMeta* meta) {
  // The owner's manifest names every own document's current version and
  // key, so an own payload that fails to open may be newer than this
  // cell's meta (a sibling updated or rotated it): pull once before
  // convicting the provider.
  for (bool may_pull = IsOwn(*meta);; may_pull = false) {
    TC_ASSIGN_OR_RETURN(Bytes blob, PullBlob(meta->blob_id));
    obs::Stopwatch unseal_timer;
    auto payload = tee_->Open(meta->key_name,
                              DocumentAad(meta->doc_id, meta->version), blob);
    metrics_.unseal_us.Record(unseal_timer.ElapsedUs());
    if (payload.ok() || !payload.status().IsIntegrityViolation()) {
      return payload;
    }
    const uint64_t version = meta->version;
    if (may_pull) {
      // A pull the provider could not answer proves nothing either way; a
      // manifest the pull rejected is its own incident.
      Status pulled = SyncPull();
      if (pulled.IsTransient() || pulled.IsDeadlineExceeded()) return pulled;
      if (pulled.ok()) {
        TC_ASSIGN_OR_RETURN(*meta, LoadMeta(meta->doc_id));
        if (meta->version != version) continue;
      }
    }
    // Distinguish rollback (an older version served as latest) from blind
    // tampering: an old version still opens under its own AAD.
    for (uint64_t v = version; v-- > 1;) {
      auto old = tee_->Open(meta->key_name, DocumentAad(meta->doc_id, v), blob);
      if (old.ok()) {
        RecordIncident(IncidentType::kRollbackDetected, meta->doc_id,
                       "cloud served version " + std::to_string(v) +
                           " as latest (" + std::to_string(version) +
                           " expected)");
        return Status::IntegrityViolation("rollback detected on " +
                                          meta->doc_id);
      }
    }
    RecordIncident(IncidentType::kPayloadTampered, meta->doc_id,
                   "AEAD failure on fetched payload");
    return payload;
  }
}

Result<Bytes> TrustedCell::ReadDocument(const std::string& doc_id,
                                        const std::string& subject,
                                        const policy::Attributes& attributes) {
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (meta.pending_approval) {
    return Status::FailedPrecondition(
        "document awaits approval of the referenced individual");
  }
  // Open before deciding: the open may pull a newer meta, and the decision
  // must be made under the sticky policy of the version it releases.
  TC_ASSIGN_OR_RETURN(Bytes payload, FetchAndOpen(&meta));
  auto policy = policy::StickyPolicy::VerifyAndExtractWithMac(
      meta.policy_envelope, doc_id, StickyMac(meta.key_name));
  if (!policy.ok()) {
    if (policy.status().IsIntegrityViolation()) {
      RecordIncident(IncidentType::kPolicyTampered, doc_id,
                     "sticky policy verification failed");
    }
    return policy.status();
  }
  policy::AccessRequest request{subject, policy::Right::kRead, attributes,
                                clock_->Now()};
  policy::Decision decision = pdp_.EvaluateAndConsume(*policy, request);
  audit_->journal().Append(
      {.time = clock_->Now(),
       .subject = subject,
       .action = "read",
       .object = doc_id,
       .allowed = decision.allowed,
       .detail = decision.allowed ? decision.rule_id : decision.reason});
  if (!decision.allowed) {
    ++stats_.reads_denied;
    metrics_.reads_denied.Increment();
    return Status::PermissionDenied(decision.reason);
  }

  // Obligations are discharged mechanically — that is what "enforced by
  // any trusted cell downloading data" means.
  for (policy::ObligationType obligation : decision.obligations) {
    switch (obligation) {
      case policy::ObligationType::kLogAccess:
        break;  // Already appended above.
      case policy::ObligationType::kNotifyOwner:
        if (!meta.origin_cell.empty()) {
          cloud_->Send(config_.cell_id, meta.origin_cell,
                       "access-notification",
                       Encode(doc_id, subject, clock_->Now()));
        }
        break;
      case policy::ObligationType::kDeleteAfterUse:
        TC_RETURN_IF_ERROR(ForgetDocument(meta));
        break;
    }
  }
  ++stats_.reads_allowed;
  metrics_.reads_allowed.Increment();
  ++stats_.documents_fetched;
  return payload;
}

Result<Bytes> TrustedCell::FetchDocument(const std::string& doc_id,
                                         const policy::Attributes& attributes) {
  obs::TraceSpan span("cell", "fetch_document", doc_id);
  return ReadDocument(doc_id, config_.owner, attributes);
}

Result<std::vector<DocumentMeta>> TrustedCell::SearchDocuments(
    const std::string& term) {
  TC_ASSIGN_OR_RETURN(std::vector<uint64_t> numbers,
                      db_->keywords().Search(term));
  std::vector<DocumentMeta> out;
  for (uint64_t number : numbers) {
    auto it = number_to_doc_.find(number);
    if (it == number_to_doc_.end()) continue;
    TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(it->second));
    out.push_back(std::move(meta));
  }
  return out;
}

Result<DocumentMeta> TrustedCell::GetDocumentMeta(const std::string& doc_id) {
  return LoadMeta(doc_id);
}

std::vector<DocumentMeta> TrustedCell::ListDocuments() {
  std::vector<DocumentMeta> out;
  for (const auto& [doc_id, doc] : docs_) {
    auto meta = LoadMeta(doc_id);
    if (meta.ok()) out.push_back(std::move(*meta));
  }
  return out;
}

// ---- Sync ----

uint32_t TrustedCell::RegistryBits() const {
  return SlotBits(std::count_if(docs_.begin(), docs_.end(), [](const auto& doc) {
    return !doc.second.manifest_entry.empty();
  }));
}

std::map<uint32_t, std::vector<const TrustedCell::RegistryEntry*>>
TrustedCell::ListedSlots() const {
  std::map<uint32_t, std::vector<const RegistryEntry*>> out;
  for (const RegistryEntry& doc : docs_) {
    if (!doc.second.manifest_entry.empty()) {
      out[SlotOf(doc.first, manifest_bits_)].push_back(&doc);
    }
  }
  return out;
}

Result<ManifestRoot> TrustedCell::OpenManifestRoot(const Bytes& blob,
                                                   uint64_t* version) {
  // The cell's siblings wrote every byte of the root: any header it cannot
  // parse was altered on the way.
  std::string magic;
  Bytes sealed;
  if (!Decode(blob, &magic, version, &sealed).ok() ||
      magic != "tc.manifest.v2") {
    RecordIncident(IncidentType::kPayloadTampered, ManifestBlobId(),
                   "manifest header unparseable");
    return Status::IntegrityViolation("manifest header corrupt");
  }
  const uint64_t floor = tee_->CounterValue("manifest-seen");
  if (*version < floor) {
    RecordIncident(IncidentType::kRollbackDetected, ManifestBlobId(),
                   "manifest version " + std::to_string(*version) +
                       " below TEE floor " + std::to_string(floor));
    return Status::IntegrityViolation("manifest rollback detected");
  }
  auto body = tee_->Open("manifest-key", ManifestAad(config_.owner, *version),
                         sealed);
  if (!body.ok()) {
    if (body.status().IsIntegrityViolation()) {
      RecordIncident(IncidentType::kPayloadTampered, ManifestBlobId(),
                     "manifest AEAD failure");
    }
    return body.status();
  }
  ManifestRoot root;
  TC_RETURN_IF_ERROR(Decode(*body, &root));
  return root;
}

Status TrustedCell::PublishManifest(const DocumentMeta* meta,
                                    const Bytes& sealed) {
  // An update or a rotation never changes whether its document is listed,
  // so the registry's count gives the bits.
  const uint32_t bits = RegistryBits();
  if (bits != manifest_bits_) {
    manifest_bits_ = bits;
    held_.clear();
  }
  const auto listed = ListedSlots();
  auto entry_ids = [](const std::vector<const RegistryEntry*>& docs) {
    std::vector<uint64_t> ids;
    ids.reserve(docs.size());
    for (const RegistryEntry* doc : docs) ids.push_back(doc->second.entry_id);
    return ids;
  };
  // Dirty: a slot whose listed entries are not the ones its held segment
  // lists, and `meta`'s slot when its entry changes.
  std::set<uint32_t> dirty;
  for (const auto& [slot, docs] : listed) {
    auto held = held_.find(slot);
    if (held == held_.end() || held->second.entry_ids != entry_ids(docs)) {
      dirty.insert(slot);
    }
  }
  for (const auto& [slot, held] : held_) {
    if (listed.count(slot) == 0) dirty.insert(slot);
  }
  const Bytes meta_entry = meta != nullptr ? ManifestEntry(*meta) : Bytes();
  if (meta != nullptr) {
    auto doc = docs_.find(meta->doc_id);
    if (doc == docs_.end() || doc->second.manifest_entry != meta_entry) {
      dirty.insert(SlotOf(meta->doc_id, bits));
    }
  }

  // A fresh segment for each dirty slot that lists anything, `meta`'s entry
  // in place, sealed once: its bytes do not depend on what the provider
  // holds. A dirty slot that lists nothing leaves the root.
  std::map<uint32_t, std::pair<Bytes, Bytes>> fresh;  // slot -> hash, sealed
  for (uint32_t slot : dirty) {
    auto docs = listed.find(slot);
    if (docs == listed.end()) continue;
    ManifestSegment segment;
    segment.entries.reserve(docs->second.size());
    for (const RegistryEntry* doc : docs->second) {
      segment.entries.push_back(meta != nullptr && doc->first == meta->doc_id
                                    ? meta_entry
                                    : doc->second.manifest_entry);
    }
    TC_ASSIGN_OR_RETURN(Bytes sealed_segment,
                        tee_->Seal("manifest-key",
                                   SegmentAad(config_.owner, slot),
                                   Encode(segment)));
    Bytes hash = crypto::Sha256Hash(sealed_segment);
    fresh[slot] = {std::move(hash), std::move(sealed_segment)};
  }

  Status last_abort = Status::Aborted("manifest publish: contention");
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // Observe the provider under one snapshot. First-committer-wins
    // validation re-checks every base at commit, so a stale observation
    // costs one abort, never correctness. A failed observation leaves the
    // bases at 0 and CommitOrJournal decides what it means.
    cloud::TxnRequest req;
    Status observed;
    auto snap = channel_->GetSnapshot();
    if (snap.ok()) {
      req.snapshot = std::move(*snap);
    } else {
      observed = snap.status();
    }
    auto observe = [&](const std::string& id) {
      std::optional<cloud::SnapshotRead> out;
      if (!observed.ok()) return out;
      auto read = channel_->GetAtSnapshot(id, req.snapshot);
      if (read.ok()) {
        out = std::move(*read);
      } else if (!read.status().IsNotFound()) {
        observed = read.status();
      }
      return out;
    };
    const std::optional<cloud::SnapshotRead> doc_read =
        meta != nullptr ? observe(meta->blob_id) : std::nullopt;
    const std::optional<cloud::SnapshotRead> root_read =
        observe(ManifestBlobId());
    const uint64_t doc_base = doc_read ? doc_read->version : 0;
    const uint64_t root_base = root_read ? root_read->version : 0;

    // Every slot this publish did not dirty keeps the observed root's
    // segment, so a sibling's change there survives. Queued behind the
    // outbox, the provider's root may predate the cell's own queued one:
    // the cell then names only segments it wrote or pulled, as it does
    // when it observed no root.
    std::map<uint32_t, Bytes> named;
    bool copied = false;
    if (root_read && (outbox_ == nullptr || outbox_->empty())) {
      uint64_t observed_version = 0;
      TC_ASSIGN_OR_RETURN(ManifestRoot current,
                          OpenManifestRoot(root_read->data, &observed_version));
      if (current.bits == bits) {
        for (auto& [slot, hash] : current.segments) {
          if (dirty.count(slot) == 0) named[slot] = std::move(hash);
        }
        copied = true;
      }
    }
    if (!copied) {
      for (const auto& [slot, held] : held_) {
        if (dirty.count(slot) == 0) named[slot] = held.hash;
      }
    }
    for (const auto& [slot, segment] : fresh) named[slot] = segment.first;

    // The root must advance past both the TEE floor and whatever the
    // provider holds.
    const uint64_t version =
        std::max(tee_->CounterValue("manifest-seen"), root_base) + 1;
    ManifestRoot root;
    root.bits = bits;
    root.segments.assign(named.begin(), named.end());
    TC_ASSIGN_OR_RETURN(Bytes sealed_root,
                        tee_->Seal("manifest-key",
                                   ManifestAad(config_.owner, version),
                                   Encode(root)));
    Bytes root_blob = Encode("tc.manifest.v2"s, version, sealed_root);
    if (meta != nullptr) {
      // Stable across every rebuild and the outbox fallback: the
      // provider's txn-token table makes this update exactly-once.
      req.token = PushToken("txn/" + meta->blob_id, meta->version, sealed);
      req.writes.push_back({meta->blob_id, sealed, doc_base});
    } else {
      req.token = PushToken(ManifestBlobId(), version, root_blob);
    }
    // A segment is a blind create: its id is its hash, so no other write
    // can name it.
    for (const auto& [slot, segment] : fresh) {
      req.writes.push_back({SegmentBlobId(segment.first), segment.second,
                            cloud::kBaseVersionAny});
    }
    req.writes.push_back({ManifestBlobId(), std::move(root_blob), root_base});
    Status written = CommitOrJournal(req, observed);
    if (written.IsAborted()) {
      // First committer won — refresh the snapshot, rebuild the root
      // against the new base, retry (an update under the SAME token).
      ++stats_.atomic_update_aborts;
      last_abort = written;
      continue;
    }
    TC_RETURN_IF_ERROR(written);
    if (meta != nullptr) {
      TC_RETURN_IF_ERROR(SaveMeta(*meta, /*is_new=*/false));
    }
    // Each dirty slot is held as written, under the ids its entries carry
    // now that SaveMeta has given `meta`'s its new one.
    for (uint32_t slot : dirty) {
      auto segment = fresh.find(slot);
      if (segment == fresh.end()) {
        held_.erase(slot);
      } else {
        held_[slot] = {segment->second.first, entry_ids(listed.at(slot))};
      }
    }
    while (tee_->CounterValue("manifest-seen") < version) {
      tee_->IncrementCounter("manifest-seen");
    }
    ++stats_.sync_pushes;
    return Status::OK();
  }
  return last_abort;
}

Status TrustedCell::SyncPush() {
  obs::TraceSpan span("cell", "sync_push", config_.cell_id);
  return PublishManifest(nullptr, {});
}

Status TrustedCell::SyncPull() {
  obs::TraceSpan span("cell", "sync_pull", config_.cell_id);
  TC_ASSIGN_OR_RETURN(Bytes blob, PullBlob(ManifestBlobId()));
  uint64_t version = 0;
  TC_ASSIGN_OR_RETURN(ManifestRoot root, OpenManifestRoot(blob, &version));

  // Only the segments whose hash the cell does not hold for their slot;
  // `pulled` is the root's segments as the cell would hold them.
  const bool same_bits = root.bits == manifest_bits_;
  std::map<uint32_t, HeldSegment> pulled;
  for (const auto& [slot, hash] : root.segments) {
    if (same_bits) {
      auto held = held_.find(slot);
      if (held != held_.end() && held->second.hash == hash) {
        pulled[slot] = held->second;
        continue;
      }
    }
    const std::string segment_id = SegmentBlobId(hash);
    TC_ASSIGN_OR_RETURN(Bytes sealed, PullBlob(segment_id));
    // The id is the hash: any other bytes were substituted on the way.
    if (crypto::Sha256Hash(sealed) != hash) {
      RecordIncident(IncidentType::kPayloadTampered, segment_id,
                     "manifest segment does not match its hash");
      return Status::IntegrityViolation("manifest segment substituted");
    }
    auto body = tee_->Open("manifest-key", SegmentAad(config_.owner, slot),
                           sealed);
    if (!body.ok()) {
      if (body.status().IsIntegrityViolation()) {
        RecordIncident(IncidentType::kPayloadTampered, segment_id,
                       "manifest segment AEAD failure");
      }
      return body.status();
    }
    ManifestSegment segment;
    TC_RETURN_IF_ERROR(Decode(*body, &segment));
    HeldSegment& held = pulled[slot];
    held.hash = hash;
    for (const Bytes& entry : segment.entries) {
      uint64_t number = 0;
      DocumentMeta incoming;
      TC_RETURN_IF_ERROR(Decode(entry, &number, &incoming));
      // An entry the registry holds byte for byte has that same version.
      auto doc = docs_.find(incoming.doc_id);
      if (doc == docs_.end() || doc->second.manifest_entry != entry) {
        auto existing = LoadMeta(incoming.doc_id);
        if (!existing.ok() || existing->version < incoming.version) {
          TC_RETURN_IF_ERROR(EnsureDocKey(incoming.key_name));
          TC_RETURN_IF_ERROR(SaveMeta(incoming, /*is_new=*/!existing.ok()));
          doc = docs_.find(incoming.doc_id);
        }
      }
      // Its id once applied; 0 where the registry holds other bytes.
      held.entry_ids.push_back(
          doc != docs_.end() && doc->second.manifest_entry == entry
              ? doc->second.entry_id
              : 0);
    }
  }

  // Under the registry's bits the cell holds what the root names and
  // nothing else: a slot the segment lists differently from the registry,
  // or the root omits while the registry lists it, is dirty by its ids, so
  // the next publish writes what the root lacks.
  if (root.bits == RegistryBits()) {
    manifest_bits_ = root.bits;
    held_ = std::move(pulled);
  }
  while (tee_->CounterValue("manifest-seen") < version) {
    tee_->IncrementCounter("manifest-seen");
  }
  ++stats_.sync_pulls;
  return Status::OK();
}

// ---- Sharing ----

Status TrustedCell::ShareDocument(const std::string& doc_id,
                                  const std::string& recipient_cell,
                                  const policy::Policy& policy) {
  obs::TraceSpan span("cell", "share_document", doc_id);
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (meta.pending_approval) {
    return Status::FailedPrecondition(
        "document awaits approval of the referenced individual");
  }
  if (meta.origin_owner != config_.owner) {
    // Re-sharing of received documents requires the kShare right.
    auto sticky = policy::StickyPolicy::VerifyAndExtractWithMac(
        meta.policy_envelope, doc_id, StickyMac(meta.key_name));
    TC_RETURN_IF_ERROR(sticky.status());
    policy::AccessRequest request{config_.owner, policy::Right::kShare,
                                  {}, clock_->Now()};
    policy::Decision decision = pdp_.EvaluateAndConsume(*sticky, request);
    if (!decision.allowed) {
      return Status::PermissionDenied("re-share denied: " + decision.reason);
    }
  }
  TC_ASSIGN_OR_RETURN(CellIdentity recipient,
                      directory_->Lookup(recipient_cell));

  ShareGrant grant;
  grant.grant_id = config_.cell_id + "/g" + std::to_string(next_grant_number_++);
  grant.doc_id = doc_id;
  grant.blob_id = meta.blob_id;
  grant.origin_owner = meta.origin_owner;
  grant.version = meta.version;
  grant.title = meta.title;
  grant.keywords = meta.keywords;
  grant.sender_cell = config_.cell_id;
  grant.recipient_cell = recipient_cell;
  grant.policy_envelope =
      policy::StickyPolicy::BindWithMac(policy, doc_id, StickyMac(meta.key_name));

  TC_ASSIGN_OR_RETURN(grant.wrapped_key,
                      tee_->WrapKeyFor(recipient.dh_public_key, meta.key_name,
                                       Encode(doc_id, policy.Hash())));
  grant.signature = tee_->Sign(grant.SignedPayload());

  cloud_->Send(config_.cell_id, recipient_cell, "share", grant.Serialize());
  audit_->journal().Append({.time = clock_->Now(),
                            .subject = config_.owner,
                            .action = "share",
                            .object = doc_id,
                            .allowed = true,
                            .detail = "to " + recipient_cell});
  ++stats_.shares_sent;
  return Status::OK();
}

Result<int> TrustedCell::ProcessInbox() {
  obs::TraceSpan span("cell", "process_inbox", config_.cell_id);
  int accepted = 0;
  for (cloud::Message& msg : cloud_->Receive(config_.cell_id)) {
    if (msg.topic == "guardian-share") {
      // Install the escrow share of another owner's master key.
      std::string owner;
      Bytes envelope;
      if (!Decode(msg.payload, &owner, &envelope).ok()) {
        RecordIncident(IncidentType::kForgedGrant, "?",
                       "unparseable guardian share from " + msg.from);
        continue;
      }
      auto sender = directory_->Lookup(msg.from);
      if (!sender.ok()) {
        RecordIncident(IncidentType::kForgedGrant, owner,
                       "guardian share from unknown cell " + msg.from);
        continue;
      }
      std::string key_name = "gs/" + owner;
      if (tee_->keystore().HasKey(key_name)) {
        (void)tee_->keystore().DestroyKey(key_name);
      }
      Status unwrapped =
          tee_->UnwrapKeyFrom(sender->dh_public_key, envelope,
                              Encode("tc.guardian." + owner), key_name);
      if (!unwrapped.ok()) {
        RecordIncident(IncidentType::kForgedGrant, owner,
                       "guardian share failed to unwrap");
      }
      continue;
    }
    if (msg.topic != "share") {
      pending_messages_.push_back(std::move(msg));
      continue;
    }
    auto grant = ShareGrant::Deserialize(msg.payload);
    if (!grant.ok()) {
      RecordIncident(IncidentType::kForgedGrant, "?",
                     "unparseable grant from " + msg.from);
      continue;
    }
    if (seen_grant_ids_.count(grant->grant_id) > 0) {
      RecordIncident(IncidentType::kReplayedGrant, grant->doc_id,
                     "grant " + grant->grant_id + " replayed");
      continue;
    }
    auto sender = directory_->Lookup(grant->sender_cell);
    if (!sender.ok() ||
        !tee::TrustedExecutionEnvironment::VerifySignature(
            sender->signing_public_key, grant->SignedPayload(),
            grant->signature, kGroupBits)) {
      RecordIncident(IncidentType::kForgedGrant, grant->doc_id,
                     "signature check failed for grant from " +
                         grant->sender_cell);
      continue;
    }
    if (grant->recipient_cell != config_.cell_id) {
      RecordIncident(IncidentType::kForgedGrant, grant->doc_id,
                     "grant addressed to " + grant->recipient_cell);
      continue;
    }
    auto policy_hash =
        policy::StickyPolicy::PeekPolicyHash(grant->policy_envelope);
    if (!policy_hash.ok()) {
      RecordIncident(IncidentType::kPolicyTampered, grant->doc_id,
                     "grant policy envelope unparseable");
      continue;
    }
    std::string key_name = "sk/" + grant->doc_id;
    if (tee_->keystore().HasKey(key_name)) {
      (void)tee_->keystore().DestroyKey(key_name);
      (void)tee_->keystore().DestroyKey(key_name + ".sticky");
    }
    Status unwrapped = tee_->UnwrapKeyFrom(
        sender->dh_public_key, grant->wrapped_key,
        Encode(grant->doc_id, *policy_hash), key_name);
    if (!unwrapped.ok()) {
      RecordIncident(IncidentType::kPolicyTampered, grant->doc_id,
                     "wrapped key failed to open: " + unwrapped.message());
      continue;
    }

    DocumentMeta meta;
    meta.doc_id = grant->doc_id;
    meta.title = grant->title;
    meta.keywords = grant->keywords;
    meta.origin_owner = grant->origin_owner;
    meta.origin_cell = grant->sender_cell;
    meta.version = grant->version;
    meta.created = clock_->Now();
    meta.policy_envelope = grant->policy_envelope;
    meta.blob_id = grant->blob_id;
    meta.key_name = key_name;
    bool is_new = docs_.count(meta.doc_id) == 0;
    TC_RETURN_IF_ERROR(SaveMeta(meta, is_new));
    seen_grant_ids_.insert(grant->grant_id);
    ++stats_.shares_accepted;
    ++accepted;
  }
  return accepted;
}

std::vector<cloud::Message> TrustedCell::TakeMessages(
    const std::string& topic) {
  std::vector<cloud::Message> out;
  auto it = pending_messages_.begin();
  while (it != pending_messages_.end()) {
    if (it->topic == topic) {
      out.push_back(std::move(*it));
      it = pending_messages_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

Result<Bytes> TrustedCell::ReadSharedDocument(
    const std::string& doc_id, const std::string& subject,
    const policy::Attributes& attributes) {
  obs::TraceSpan span("cell", "read_shared_document", doc_id);
  return ReadDocument(doc_id, subject, attributes);
}

// ---- Space proofs & key rotation ----

namespace {

Bytes SpaceLeaf(const std::string& doc_id, uint64_t version,
                const Bytes& sealed_payload_hash) {
  return Encode("tc.space-leaf.v1"s, doc_id, version, sealed_payload_hash);
}

Bytes SpaceRootPayload(const std::string& cell_id, const Bytes& root) {
  return Encode("tc.space-root.v1"s, cell_id, root);
}

}  // namespace

Result<TrustedCell::SpaceProof> TrustedCell::ProveDocumentInSpace(
    const std::string& doc_id) {
  // Leaves over all own documents, ordered by doc id (docs_ is an
  // ordered map, so both prover and any owner cell agree on the order).
  std::vector<Bytes> leaves;
  int target_index = -1;
  SpaceProof out;
  for (const auto& [id, doc] : docs_) {
    TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(id));
    if (!IsOwn(meta)) continue;
    TC_ASSIGN_OR_RETURN(Bytes sealed, PullBlob(meta.blob_id));
    Bytes leaf = SpaceLeaf(id, meta.version, crypto::Sha256Hash(sealed));
    if (id == doc_id) {
      target_index = static_cast<int>(leaves.size());
      out.version = meta.version;
      out.leaf = leaf;
    }
    leaves.push_back(std::move(leaf));
  }
  if (target_index < 0) {
    return Status::NotFound("document not in this cell's own space");
  }
  TC_ASSIGN_OR_RETURN(crypto::MerkleTree tree,
                      crypto::MerkleTree::Build(leaves));
  TC_ASSIGN_OR_RETURN(out.proof, tree.Prove(target_index));
  out.cell_id = config_.cell_id;
  out.doc_id = doc_id;
  out.root = tree.root();
  out.root_signature = tee_->Sign(SpaceRootPayload(config_.cell_id,
                                                   out.root));
  return out;
}

bool TrustedCell::VerifySpaceProof(const SpaceProof& proof,
                                   const CellDirectory& directory) {
  auto identity = directory.Lookup(proof.cell_id);
  if (!identity.ok()) return false;
  // The leaf must commit to the claimed document id/version.
  std::string magic, doc_id;
  uint64_t version = 0;
  Bytes payload_hash;
  if (!Decode(proof.leaf, &magic, &doc_id, &version, &payload_hash).ok() ||
      magic != "tc.space-leaf.v1" || doc_id != proof.doc_id ||
      version != proof.version) {
    return false;
  }
  if (!crypto::MerkleTree::Verify(proof.root, proof.leaf, proof.proof)) {
    return false;
  }
  return tee::TrustedExecutionEnvironment::VerifySignature(
      identity->signing_public_key,
      SpaceRootPayload(proof.cell_id, proof.root), proof.root_signature,
      kGroupBits);
}

Status TrustedCell::RotateDocumentKey(const std::string& doc_id) {
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  if (!IsOwn(meta)) {
    return Status::PermissionDenied("only the owner rotates document keys");
  }
  TC_ASSIGN_OR_RETURN(Bytes payload, FetchAndOpen(&meta));
  // Current policy, verified under the old key.
  TC_ASSIGN_OR_RETURN(policy::Policy policy,
                      policy::StickyPolicy::VerifyAndExtractWithMac(
                          meta.policy_envelope, doc_id,
                          StickyMac(meta.key_name)));

  std::string old_key = meta.key_name;
  std::string new_key =
      "dk/" + doc_id + "/r" + std::to_string(meta.version + 1);
  TC_RETURN_IF_ERROR(EnsureDocKey(new_key));

  meta.version += 1;
  meta.key_name = new_key;
  meta.policy_envelope =
      policy::StickyPolicy::BindWithMac(policy, doc_id, StickyMac(new_key));
  TC_ASSIGN_OR_RETURN(Bytes sealed, SealDocument(meta, payload));
  TC_RETURN_IF_ERROR(PublishManifest(&meta, sealed));
  (void)tee_->keystore().DestroyKey(old_key);
  (void)tee_->keystore().DestroyKey(old_key + ".sticky");
  audit_->journal().Append({.time = clock_->Now(),
                            .subject = config_.owner,
                            .action = "rotate-key",
                            .object = doc_id,
                            .allowed = true,
                            .detail = ""});
  return Status::OK();
}

// ---- Guardian recovery ----

Status TrustedCell::EnrollGuardians(
    const std::vector<std::string>& guardian_cells, int threshold) {
  std::vector<crypto::BigInt> publics;
  for (const std::string& guardian : guardian_cells) {
    TC_ASSIGN_OR_RETURN(CellIdentity identity, directory_->Lookup(guardian));
    publics.push_back(identity.dh_public_key);
  }
  TC_ASSIGN_OR_RETURN(
      std::vector<Bytes> envelopes,
      tee_->ShardKeyFor("owner-master", threshold, publics,
                        Encode("tc.guardian." + config_.owner)));
  for (size_t i = 0; i < envelopes.size(); ++i) {
    cloud_->Send(config_.cell_id, guardian_cells[i], "guardian-share",
                 Encode(config_.owner, envelopes[i]));
  }
  return Status::OK();
}

bool TrustedCell::HoldsGuardianShareFor(const std::string& owner) const {
  return tee_->keystore().HasKey("gs/" + owner);
}

Status TrustedCell::ReleaseGuardianShare(const std::string& owner,
                                         const std::string& requester_cell) {
  std::string share_key = "gs/" + owner;
  if (!tee_->keystore().HasKey(share_key)) {
    return Status::NotFound("no guardian share held for " + owner);
  }
  TC_ASSIGN_OR_RETURN(CellIdentity requester,
                      directory_->Lookup(requester_cell));
  TC_ASSIGN_OR_RETURN(Bytes envelope,
                      tee_->WrapKeyFor(requester.dh_public_key, share_key,
                                       Encode("tc.recovery." + owner)));
  cloud_->Send(config_.cell_id, requester_cell, "recovery-share",
               Encode(owner, envelope));
  return Status::OK();
}

Result<int> TrustedCell::CompleteRecovery(
    const std::vector<cloud::Message>& shares) {
  std::vector<std::string> share_keys;
  for (const cloud::Message& msg : shares) {
    // The bus does not authenticate its sender: a share that does not
    // decode, comes from outside the directory or does not unwrap is
    // evidence, not a reason to drop the genuine ones.
    std::string owner;
    Bytes envelope;
    if (!Decode(msg.payload, &owner, &envelope).ok()) {
      RecordIncident(IncidentType::kForgedGrant, "?",
                     "unparseable recovery share from " + msg.from);
      continue;
    }
    if (owner != config_.owner) continue;
    auto sender = directory_->Lookup(msg.from);
    if (!sender.ok()) {
      RecordIncident(IncidentType::kForgedGrant, owner,
                     "recovery share from unknown cell " + msg.from);
      continue;
    }
    std::string key_name = "rs/" + std::to_string(share_keys.size());
    if (tee_->keystore().HasKey(key_name)) {
      (void)tee_->keystore().DestroyKey(key_name);
    }
    if (!tee_->UnwrapKeyFrom(sender->dh_public_key, envelope,
                             Encode("tc.recovery." + owner), key_name)
             .ok()) {
      RecordIncident(IncidentType::kForgedGrant, owner,
                     "recovery share from " + msg.from +
                         " failed to unwrap");
      continue;
    }
    share_keys.push_back(key_name);
  }
  if (share_keys.empty()) {
    return Status::FailedPrecondition("no usable recovery shares");
  }
  TC_RETURN_IF_ERROR(
      tee_->ReconstructKeyFromShares(share_keys, "owner-master-recovered"));
  TC_RETURN_IF_ERROR(tee_->ReplaceKey("owner-master",
                                      "owner-master-recovered"));
  (void)tee_->keystore().DestroyKey("owner-master-recovered");
  for (const std::string& name : share_keys) {
    (void)tee_->keystore().DestroyKey(name);
  }
  // Re-derive the owner-space keys from the true master; per-cell keys
  // (storage-root, audit) stay as provisioned.
  (void)tee_->keystore().DestroyKey("manifest-key");
  TC_RETURN_IF_ERROR(tee_->keystore().DeriveChildKey(
      "owner-master", "manifest-key", "manifest"));
  return static_cast<int>(share_keys.size());
}

// ---- Cross-principal approval ----

Result<std::string> TrustedCell::ProposeDocumentReferencing(
    const std::string& referenced_cell, const std::string& title,
    const std::string& keywords, const Bytes& content,
    const policy::Policy& policy) {
  TC_ASSIGN_OR_RETURN(CellIdentity referenced,
                      directory_->Lookup(referenced_cell));
  TC_ASSIGN_OR_RETURN(std::string doc_id,
                      StoreDocument(title, keywords, content, policy));
  TC_ASSIGN_OR_RETURN(DocumentMeta meta, LoadMeta(doc_id));
  meta.pending_approval = true;
  TC_RETURN_IF_ERROR(SaveMeta(meta, /*is_new=*/false));
  TC_RETURN_IF_ERROR(store_->Put(ApprovalKey(doc_id), Encode(referenced_cell)));

  cloud_->Send(config_.cell_id, referenced_cell, "approval-request",
               Encode(doc_id, title, config_.owner));
  return doc_id;
}

Status TrustedCell::RespondToApproval(const cloud::Message& request,
                                      bool approve) {
  std::string doc_id, title, owner;
  TC_RETURN_IF_ERROR(Decode(request.payload, &doc_id, &title, &owner));
  const crypto::SchnorrSignature signature =
      tee_->Sign(ApprovalPayload(request.from, doc_id, approve));
  cloud_->Send(config_.cell_id, request.from, "approval-response",
               Encode(doc_id, approve, signature.Serialize(32)));
  audit_->journal().Append(
      {.time = clock_->Now(),
       .subject = config_.owner,
       .action = "approval",
       .object = doc_id,
       .allowed = approve,
       .detail = "reference approval for " + request.from});
  return Status::OK();
}

Result<std::pair<int, int>> TrustedCell::ProcessApprovalResponses() {
  int approved = 0, rejected = 0;
  for (const cloud::Message& msg : TakeMessages("approval-response")) {
    // The bus does not authenticate its sender: only the signature of the
    // cell this one asked decides, and a response that fails it is
    // evidence, not a reason to stop reading the others.
    std::string doc_id;
    bool approve = false;
    Bytes sig_bytes;
    if (!Decode(msg.payload, &doc_id, &approve, &sig_bytes).ok()) {
      RecordIncident(IncidentType::kForgedGrant, "?",
                     "unparseable approval response from " + msg.from);
      continue;
    }
    auto meta = LoadMeta(doc_id);
    if (!meta.ok() || !meta->pending_approval) continue;
    TC_ASSIGN_OR_RETURN(Bytes asked_record, store_->Get(ApprovalKey(doc_id)));
    std::string asked;
    TC_RETURN_IF_ERROR(Decode(asked_record, &asked));
    auto responder = directory_->Lookup(asked);
    auto signature = crypto::SchnorrSignature::Deserialize(sig_bytes);
    if (!responder.ok() || !signature.ok() ||
        !tee::TrustedExecutionEnvironment::VerifySignature(
            responder->signing_public_key,
            ApprovalPayload(config_.cell_id, doc_id, approve), *signature,
            kGroupBits)) {
      RecordIncident(IncidentType::kForgedGrant, doc_id,
                     "approval response from " + msg.from +
                         " not signed by " + asked);
      continue;
    }
    TC_RETURN_IF_ERROR(store_->Delete(ApprovalKey(doc_id)));
    if (approve) {
      meta->pending_approval = false;
      TC_RETURN_IF_ERROR(SaveMeta(*meta, /*is_new=*/false));
      ++approved;
    } else {
      TC_RETURN_IF_ERROR(ForgetDocument(*meta));
      ++rejected;
    }
  }
  return std::make_pair(approved, rejected);
}

// ---- Accountability ----

Status TrustedCell::PushAuditLog(const std::string& recipient_cell) {
  TC_ASSIGN_OR_RETURN(CellIdentity recipient,
                      directory_->Lookup(recipient_cell));
  TC_ASSIGN_OR_RETURN(
      Bytes wrapped,
      tee_->WrapKeyFor(recipient.dh_public_key, "audit-key",
                       Encode("tc.audit-key"s, config_.cell_id)));
  TC_ASSIGN_OR_RETURN(Bytes exported, audit_->Export());
  cloud_->Send(config_.cell_id, recipient_cell, "audit-log",
               Encode(config_.cell_id, uint64_t{audit_->size()}, wrapped,
                      exported));
  return Status::OK();
}

Result<std::vector<obs::AuditRecord>> TrustedCell::VerifyAuditPush(
    const cloud::Message& message) {
  std::string sender_cell;
  uint64_t count = 0;
  Bytes wrapped, exported;
  TC_RETURN_IF_ERROR(
      Decode(message.payload, &sender_cell, &count, &wrapped, &exported));

  TC_ASSIGN_OR_RETURN(CellIdentity sender, directory_->Lookup(sender_cell));
  std::string key_name = "ak/" + sender_cell;
  if (tee_->keystore().HasKey(key_name)) {
    (void)tee_->keystore().DestroyKey(key_name);
  }
  TC_RETURN_IF_ERROR(tee_->UnwrapKeyFrom(sender.dh_public_key, wrapped,
                                         Encode("tc.audit-key"s, sender_cell),
                                         key_name));
  // The export's one quote must be the sender's own: checked against the
  // signing key the directory holds for it.
  auto signed_by_sender = [&sender](const tee::Quote& quote) {
    if (!tee::TrustedExecutionEnvironment::VerifySignature(
            sender.signing_public_key, quote.SignedPayload(),
            quote.signature, kGroupBits)) {
      return Status::IntegrityViolation("audit export quote not signed by " +
                                        sender.cell_id);
    }
    return Status::OK();
  };
  return policy::AuditLog::VerifyAndDecrypt(exported, tee_.get(), key_name,
                                            static_cast<int64_t>(count),
                                            signed_by_sender);
}

// ---- Shared commons ----

Result<int64_t> TrustedCell::ProvideAggregateValue(const std::string& series,
                                                   Timestamp t0,
                                                   Timestamp t1) {
  TC_ASSIGN_OR_RETURN(std::vector<db::Reading> readings,
                      db_->timeseries().Range(series, t0, t1));
  int64_t sum = 0;
  for (const db::Reading& r : readings) sum += r.value;
  return sum;
}

}  // namespace tc::cell
