#ifndef TC_CELL_CELL_H_
#define TC_CELL_CELL_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "tc/cell/directory.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/clock.h"
#include "tc/common/codec.h"
#include "tc/common/result.h"
#include "tc/crypto/merkle.h"
#include "tc/db/database.h"
#include "tc/db/timeseries.h"
#include "tc/net/channel.h"
#include "tc/net/outbox.h"
#include "tc/obs/metrics.h"
#include "tc/policy/audit.h"
#include "tc/policy/sticky_policy.h"
#include "tc/policy/ucon.h"
#include "tc/sensors/power_meter.h"
#include "tc/storage/flash_device.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"
#include "tc/tee/tee.h"

namespace tc::cell {

/// Local metadata of a vault document.
struct DocumentMeta {
  std::string doc_id;
  std::string title;
  std::string keywords;
  std::string origin_owner;   ///< Whose personal space hosts the payload.
  std::string origin_cell;    ///< Cell that granted access ("" = own doc).
  uint64_t version = 0;
  size_t size = 0;
  Timestamp created = 0;
  Bytes policy_envelope;      ///< Sticky policy (bound to the data key).
  std::string blob_id;        ///< Cloud location of the sealed payload.
  std::string key_name;       ///< TEE key handle for the payload.
  /// True while a referenced individual's approval is outstanding (the
  /// paper's cross-principal usage control: data referencing B must be
  /// "submitted for approbation to B's trusted cell"). Pending documents
  /// cannot be fetched or shared.
  bool pending_approval = false;
};

/// A meta's fields in the one codec (tc/common/codec.h). The cell stores a
/// meta as (u64 keyword-index number, DocumentMeta); its manifest lists
/// each own meta in that form under number 0.
void Put(BinaryWriter& w, const DocumentMeta& v);
Status Get(BinaryReader& r, DocumentMeta* v);

/// Wire format of a sharing grant: metadata + wrapped key + sticky policy,
/// signed by the granting cell. Safe to carry over the untrusted bus.
struct ShareGrant {
  std::string grant_id;
  std::string doc_id;
  std::string blob_id;
  std::string origin_owner;
  uint64_t version = 0;
  std::string title;
  std::string keywords;
  std::string sender_cell;
  std::string recipient_cell;
  Bytes policy_envelope;
  Bytes wrapped_key;
  crypto::SchnorrSignature signature;

  Bytes SignedPayload() const;
  Bytes Serialize() const;
  static Result<ShareGrant> Deserialize(const Bytes& data);
};

/// Security incidents a cell detects (convictions of the weakly-malicious
/// infrastructure, forged grants, replays). E8's detection-rate metric
/// counts these against the adversary's ground truth.
enum class IncidentType : uint8_t {
  kPayloadTampered = 1,   ///< AEAD failure on a fetched blob.
  kRollbackDetected = 2,  ///< Version regression on manifest or blob.
  kForgedGrant = 3,       ///< Grant, approval or key share failing its checks.
  kReplayedGrant = 4,     ///< Grant id seen twice.
  kPolicyTampered = 5,    ///< Sticky-policy binding failure.
  kStorageDataLoss = 6,   ///< Undecodable flash pages skipped at recovery.
};

struct SecurityIncident {
  IncidentType type;
  std::string object_id;
  std::string detail;
};

/// Operation counters for the experiment harnesses.
struct CellStats {
  uint64_t documents_stored = 0;
  uint64_t documents_fetched = 0;
  uint64_t shares_sent = 0;
  uint64_t shares_accepted = 0;
  uint64_t reads_allowed = 0;
  uint64_t reads_denied = 0;
  uint64_t readings_ingested = 0;
  uint64_t aggregates_published = 0;
  uint64_t sync_pushes = 0;  ///< Manifests committed or journaled.
  uint64_t sync_pulls = 0;
  uint64_t writes_deferred = 0;   ///< Writes journaled to the outbox.
  uint64_t catchup_drained = 0;   ///< Outbox records drained by CatchUp.
  uint64_t atomic_updates = 0;        ///< UpdateDocumentAtomic completions.
  /// First-committer-wins aborts retried by UpdateDocumentAtomic (same
  /// token), RotateDocumentKey (same token) or SyncPush.
  uint64_t atomic_update_aborts = 0;
};

/// A trusted cell: the paper's "personal data server running on secure
/// hardware", composed of
///   * a simulated TEE (keys, counters, attestation)            [tc::tee]
///   * an encrypted log-structured datastore on simulated NAND  [tc::storage]
///   * an embedded database (tables, time series, keywords)     [tc::db]
///   * a UCON decision point, sticky policies and an audit log  [tc::policy]
/// talking to peers exclusively through the untrusted cloud     [tc::cloud].
/// A cell is driven by one thread at a time: its state, stats and channel
/// take no locks of their own.
///
/// The public API is organized around the paper's five requirements:
/// controlled collection (IngestReading / PublishAggregate), secure private
/// store (StoreDocument / FetchDocument / Search / SyncPush / SyncPull),
/// secure sharing (ShareDocument / ProcessInbox / ReadSharedDocument),
/// usage & accountability (sticky policies + audit log + notifications),
/// and shared commons (ProvideAggregateValue feeding tc::compute).
///
/// Every write to the provider is one provider transaction through one
/// private step, CommitOrJournal. StoreDocument commits the one blind
/// write, a new document's first version. UpdateDocumentAtomic,
/// RotateDocumentKey and SyncPush commit a manifest validated against a
/// snapshot, with the document's new payload in the same transaction, so
/// the owner's manifest always names every own document's current version
/// and key. With resilient_sync, a write the provider cannot take — or any
/// write while an older one is queued — goes to the durable outbox, which
/// CatchUp drains in order: no write overtakes a queued one.
///
/// Every read, FetchDocument and ReadSharedDocument, runs one step that
/// enforces the whole sticky policy: it refuses a pending document, opens
/// the payload, then verifies, evaluates and audits the policy of the
/// version it opened and discharges its obligations. An own payload that
/// fails to open convicts the provider only after one SyncPull, which may
/// name a newer version to fetch and judge instead; a pull the provider
/// could not answer convicts nobody.
///
/// Observability (tc::obs global registry, aggregated across cells):
///   cell.seal_us / cell.unseal_us    histograms, TEE AEAD cost per doc
///   cell.policy.reads_allowed /
///   cell.policy.reads_denied         counters, UCON decisions
///   cell.incidents                   counter (+ a trace instant carrying
///                                    the cell id and incident detail)
class TrustedCell {
 public:
  struct Config {
    std::string cell_id;
    std::string owner;
    tee::DeviceClass device_class = tee::DeviceClass::kHomeGateway;
    /// Flash geometry; unset = sized by device class.
    std::optional<storage::FlashGeometry> flash;
    /// User enrollment secret mixed into the owner master key (models the
    /// passphrase entered when adding a device). Cells of one owner must
    /// use the same value to share a personal space; a cell created with
    /// the wrong value needs guardian recovery (CompleteRecovery).
    std::string enrollment_secret;
    /// Every cell reaches the provider's blobs and transactions through a
    /// ResilientChannel (retry/backoff, idempotent tokens). This decides
    /// what happens when the provider stays unreachable: with it, the
    /// write goes to a LogStore-journaled outbox, the channel's circuit
    /// breaker may open, and the cell keeps working in degraded local-only
    /// mode until CatchUp drains it; without it, the call fails and the
    /// breaker never opens (there is no degraded mode to fall back to, so
    /// every call probes the provider).
    bool resilient_sync = false;
    net::ChannelOptions channel;
    /// The transport the cell's channel crosses (e.g. an
    /// rpc::SocketTransport to a provider in another process). Not owned;
    /// must outlive the cell. Null = an InProcessTransport over the
    /// `cloud` passed to Create, owned by the cell.
    net::CloudTransport* transport = nullptr;
  };

  /// Creates the cell, provisions its TEE (owner master key, storage root
  /// key), opens the encrypted store and registers in `directory`.
  static Result<std::unique_ptr<TrustedCell>> Create(
      const Config& config, cloud::CloudInfrastructure* cloud,
      CellDirectory* directory, const Clock* clock);

  const std::string& id() const { return config_.cell_id; }
  const std::string& owner() const { return config_.owner; }
  tee::TrustedExecutionEnvironment& tee() { return *tee_; }
  db::Database& database() { return *db_; }
  storage::LogStore& store() { return *store_; }
  policy::DecisionPoint& pdp() { return pdp_; }
  const CellStats& stats() const { return stats_; }
  const std::vector<SecurityIncident>& incidents() const { return incidents_; }

  // ---- Controlled collection of sensed data ----

  /// Ingests one raw reading from a local trusted source (e.g. the 1 Hz
  /// Linky feed over the home short-range link).
  Status IngestReading(const std::string& series, Timestamp t, int64_t value);

  /// Epoch-aligned window aggregates of a local series — the *only* view
  /// the cell exposes at each externalization granularity.
  Result<std::vector<db::WindowAggregate>> Aggregates(
      const std::string& series, Timestamp t0, Timestamp t1,
      Timestamp window_seconds);

  /// Externalizes window means of [t0, t1) to `recipient` via the cloud
  /// bus (plaintext by design: this IS the release, at the granularity the
  /// owner opted into).
  Status PublishAggregate(const std::string& recipient,
                          const std::string& series, Timestamp t0,
                          Timestamp t1, Timestamp window_seconds);

  // ---- Secure private store ----

  /// Stores a document: payload sealed and pushed to the owner's personal
  /// cloud space, metadata + sticky policy kept locally and indexed.
  /// Returns the document id.
  Result<std::string> StoreDocument(const std::string& title,
                                    const std::string& keywords,
                                    const Bytes& content,
                                    const policy::Policy& policy);

  /// The one update path of an own document: replaces the payload (version
  /// bump; old cloud versions become rollback bait the cell must detect). The
  /// sealed payload (optionally re-bound to `new_policy`) and the refreshed
  /// manifest reach the provider in ONE multi-key transaction, so no sibling
  /// cell can ever observe new data under an old manifest or vice versa.
  /// First-committer-wins aborts (a sibling moved the manifest or the document
  /// first) are transient: the cell refreshes its snapshot and retries under
  /// the SAME txn token (bounded; the final abort is returned if contention
  /// never clears). With resilient_sync, an unreachable provider, an unresolved
  /// commit or an older queued write journals the whole transaction to the
  /// outbox — it drains atomically in CatchUp under its original token; without
  /// it, an unreachable provider fails the update.
  Status UpdateDocumentAtomic(const std::string& doc_id, const Bytes& content,
                              const policy::Policy* new_policy = nullptr);

  /// ReadSharedDocument with the owner as subject ("the trusted cell owner
  /// ... only gets data according to her privileges").
  Result<Bytes> FetchDocument(const std::string& doc_id,
                              const policy::Attributes& attributes = {});

  /// Metadata-first search: runs entirely on the local keyword index,
  /// touching the cloud not at all.
  Result<std::vector<DocumentMeta>> SearchDocuments(const std::string& term);

  Result<DocumentMeta> GetDocumentMeta(const std::string& doc_id);
  std::vector<DocumentMeta> ListDocuments();

  // ---- Multi-device sync (one owner, several cells) ----

  /// Publishes the manifest of own documents to the owner's personal
  /// space (sealed, version above both the TEE monotonic counter and the
  /// provider's manifest), committed against a snapshot like
  /// UpdateDocumentAtomic's manifest.
  Status SyncPush();

  /// Pulls the owner's manifest from the cloud, detects rollback via the
  /// TEE-remembered version floor, and adopts new/updated metadata.
  /// Payloads stay in the cloud until fetched (metadata-first).
  Status SyncPull();

  // ---- Disconnected operation (resilient_sync mode) ----

  /// True while the outbox holds writes: local writes succeed and queue
  /// behind them, reads of queued blobs are served locally
  /// (read-your-writes).
  bool degraded() const { return degraded_; }

  /// Outbox records (whole transactions) still queued for the provider.
  size_t outbox_pending() const { return outbox_ ? outbox_->size() : 0; }

  /// Anti-entropy catch-up: drains the outbox in order (each record
  /// committed as blind writes under its original idempotency token, so a
  /// commit whose ack was lost is answered from the provider's token
  /// table), read-back-verifies every drained write against the provider,
  /// then republishes the manifest. Returns kUnavailable if the provider
  /// is still unreachable — the outbox keeps the remainder and the cell
  /// stays degraded.
  Status CatchUp();

  /// The cell's channel to the provider (tests and harnesses inspect its
  /// stats and virtual clock).
  net::ResilientChannel* net_channel() { return channel_.get(); }

  // ---- Secure sharing ----

  /// Grants `recipient_cell` access to an own document under `policy`:
  /// wraps the doc key to the recipient, binds the sticky policy and sends
  /// the signed grant via the cloud bus.
  Status ShareDocument(const std::string& doc_id,
                       const std::string& recipient_cell,
                       const policy::Policy& policy);

  /// Drains the cloud inbox: validates share grants (signature via the
  /// directory, replay check), installs wrapped keys and metadata, and
  /// installs guardian shares. A grant or guardian share that does not
  /// decode, comes from outside the directory or does not unwrap is a
  /// kForgedGrant incident. Other message topics are retained for
  /// TakeMessages. Returns the number of grants accepted.
  Result<int> ProcessInbox();

  /// Removes and returns retained inbox messages of `topic` (aggregates,
  /// access notifications, audit pushes...).
  std::vector<cloud::Message> TakeMessages(const std::string& topic);

  /// Reads a document as `subject` through the one read step (see the
  /// class comment): the UCON decision consumes a use, and the obligations
  /// include owner notification and delete after use.
  Result<Bytes> ReadSharedDocument(const std::string& doc_id,
                                   const std::string& subject,
                                   const policy::Attributes& attributes = {});

  // ---- Space proofs & key rotation ----

  /// A verifiable statement that a document (by id, version and payload
  /// hash) is part of this cell's personal space: Merkle inclusion proof
  /// against a root signed by the cell. Lets a third party check
  /// provenance without seeing any other document.
  struct SpaceProof {
    std::string cell_id;
    std::string doc_id;
    uint64_t version = 0;
    Bytes leaf;  ///< Serialized (doc_id, version, payload hash).
    crypto::MerkleProof proof;
    Bytes root;
    crypto::SchnorrSignature root_signature;
  };

  /// Builds a SpaceProof for an own document.
  Result<SpaceProof> ProveDocumentInSpace(const std::string& doc_id);

  /// Verifier side (any party): checks the Merkle path and the signature
  /// of the claimed cell (public key from the directory).
  static bool VerifySpaceProof(const SpaceProof& proof,
                               const CellDirectory& directory);

  /// Rotates the document key: derives a fresh key, re-seals the payload
  /// (version bump), re-binds the sticky policy and commits payload and
  /// manifest in one transaction, so sibling cells follow the new key.
  /// Previously shared wrapped keys stop working for all *future* versions
  /// — the revocation mechanism for already-granted recipients.
  Status RotateDocumentKey(const std::string& doc_id);

  // ---- Guardian recovery of the master secret ----
  // Paper: "master secrets must be restorable in case of crash/loss of a
  // trusted cell".

  /// Shamir-splits the owner master key inside the TEE and sends one
  /// wrapped share to each guardian cell (any `threshold` restore it).
  Status EnrollGuardians(const std::vector<std::string>& guardian_cells,
                         int threshold);

  /// Guardian side: re-wraps the stored share of `owner` to
  /// `requester_cell` (invoked after the owner authenticates to the
  /// guardian's human out of band).
  Status ReleaseGuardianShare(const std::string& owner,
                              const std::string& requester_cell);

  /// True if this cell holds a guardian share for `owner`.
  bool HoldsGuardianShareFor(const std::string& owner) const;

  /// Recovering cell: consumes "recovery-share" messages (from
  /// TakeMessages), reconstructs the owner master inside the TEE,
  /// replaces the provisional master and re-derives the space keys.
  /// A share that does not decode, comes from outside the directory or
  /// does not unwrap is recorded as a kForgedGrant incident and skipped.
  /// Returns the number of shares used.
  Result<int> CompleteRecovery(const std::vector<cloud::Message>& shares);

  // ---- Cross-principal approval ----

  /// Stores a document that *references another individual* (e.g. a photo
  /// with B in the frame): the document is created pending, unusable until
  /// the referenced cell approves. Remembers which cell it asked, then
  /// sends that cell an approval request.
  Result<std::string> ProposeDocumentReferencing(
      const std::string& referenced_cell, const std::string& title,
      const std::string& keywords, const Bytes& content,
      const policy::Policy& policy);

  /// Referenced side: answer an "approval-request" message with a verdict
  /// signed by this cell's TEE over (proposer cell, doc id, verdict).
  Status RespondToApproval(const cloud::Message& request, bool approve);

  /// Proposer side: applies "approval-response" messages — approved
  /// documents become usable, rejected ones are erased. Only a verdict
  /// signed by the cell that was asked counts; an unparseable or
  /// unverifiable response is recorded as an incident and skipped, and
  /// the rest are still processed. Returns (approved, rejected).
  Result<std::pair<int, int>> ProcessApprovalResponses();

  // ---- Accountability ----

  policy::AuditLog& audit_log() { return *audit_; }

  /// Ships the sealed audit log to `recipient_cell` (typically the data
  /// originator), together with a wrapped copy of the audit key. The
  /// export carries one quote of this cell's TEE over its head and count.
  Status PushAuditLog(const std::string& recipient_cell);

  /// Originator side: verifies + decrypts an audit push received in the
  /// inbox (topic "audit-log"), and checks the export's quote against the
  /// sender's signing key in the directory (kIntegrityViolation when
  /// another key signed it or it names another head or count). Returns
  /// the full journal record stream (policy decisions plus
  /// incident/attestation evidence).
  Result<std::vector<obs::AuditRecord>> VerifyAuditPush(
      const cloud::Message& message);

  // ---- Shared commons ----

  /// The cell's private contribution to an aggregate computation (e.g.
  /// yesterday's total consumption in watt-hours) — fed to
  /// tc::compute::SecureAggregation by the application.
  Result<int64_t> ProvideAggregateValue(const std::string& series,
                                        Timestamp t0, Timestamp t1);

 private:
  /// Registry handles resolved once per cell; hot path touches only the
  /// relaxed atomics inside.
  struct Metrics {
    Metrics();
    obs::Histogram& seal_us;
    obs::Histogram& unseal_us;
    obs::Counter& reads_allowed;
    obs::Counter& reads_denied;
    obs::Counter& incidents;
    obs::Counter& degraded_ms;  // cell.degraded_ms (wall time in degraded).
    /// Fleet-telemetry gauges (obs::kDegradedGaugeName /
    /// kOutboxDepthGaugeName): degraded-or-not and the outbox backlog —
    /// the per-cell state the TelemetryHub sums into its per-window
    /// degraded-cell and outbox-depth aggregates.
    obs::Gauge& degraded;
    obs::Gauge& outbox_depth;
  };

  TrustedCell(const Config& config, cloud::CloudInfrastructure* cloud,
              CellDirectory* directory, const Clock* clock);
  Status Init();

  std::string SpaceBlobId(const std::string& doc_id) const;
  std::string ManifestBlobId() const;
  Bytes DocumentAad(const std::string& doc_id, uint64_t version) const;
  /// Sticky-policy MAC oracle bound to a document key inside the TEE.
  policy::StickyPolicy::MacFn StickyMac(const std::string& key_name);
  Status EnsureDocKey(const std::string& key_name);
  Result<DocumentMeta> LoadMeta(const std::string& doc_id);
  /// Indexes a new document, writes the meta record, then registers the
  /// document: the registry names only documents whose meta the store
  /// holds. A meta that cannot fit one page is refused before any write.
  Status SaveMeta(const DocumentMeta& meta, bool is_new);
  /// kInvalidArgument unless `meta`'s record fits one flash page.
  Status CheckMetaFits(const DocumentMeta& meta) const;
  /// An own-space document, not a granted one: what the manifest names.
  bool IsOwn(const DocumentMeta& meta) const;
  /// The bytes the manifest lists `meta` by, Encode(uint64_t{0}, meta),
  /// for an own document not pending approval; empty for any other.
  Bytes ManifestEntry(const DocumentMeta& meta) const;
  /// Erases a document's meta, registry entry, keyword postings and keys;
  /// the sealed cloud blob is unreadable without them.
  Status ForgetDocument(const DocumentMeta& meta);
  /// Seals the manifest at `version` from the registry's entries in doc-id
  /// order, with `override_meta`'s entry (when non-null) in place of its
  /// document's — lets an update publish a manifest that includes a meta
  /// not yet saved locally. Reads nothing from the store.
  Result<Bytes> BuildManifestBlob(uint64_t version,
                                  const DocumentMeta* override_meta);
  void RecordIncident(IncidentType type, const std::string& object_id,
                      const std::string& detail);
  /// Seals `content` as `meta`'s payload, timed into cell.seal_us.
  Result<Bytes> SealDocument(const DocumentMeta& meta, const Bytes& content);
  /// The one read step (see the class comment), `subject` reading.
  Result<Bytes> ReadDocument(const std::string& doc_id,
                             const std::string& subject,
                             const policy::Attributes& attributes);
  /// Fetches and opens `meta`'s payload, pulling before it convicts the
  /// provider of an own payload (see the class comment); a pull that moved
  /// the version replaces `*meta`.
  Result<Bytes> FetchAndOpen(DocumentMeta* meta);
  /// Idempotency token of one write of `sealed` as (blob, version) —
  /// stable across retries, restarts and outbox drains, so the provider
  /// applies it at most once; a re-seal of the same version gets a fresh
  /// token.
  std::string PushToken(const std::string& blob_id, uint64_t version,
                        const Bytes& sealed) const;
  /// The cell's one write step, behind StoreDocument's blind write and
  /// PublishManifest: commits `req` through the channel, or journals its
  /// writes to the outbox under its token and marks the cell degraded. It
  /// journals when the outbox already holds a write (so writes reach the
  /// provider in the order the cell made them, and only CatchUp drains),
  /// when `observed` — the caller's observation of the provider — failed
  /// transiently or on its deadline, and when the commit's fate is
  /// unresolved. Returns OK once `req` is committed or journaled;
  /// otherwise the commit's abort, a definitive error, or, without an
  /// outbox, the failure that would have journaled.
  Status CommitOrJournal(const cloud::TxnRequest& req,
                         const Status& observed = Status::OK());
  /// UpdateDocumentAtomic's, RotateDocumentKey's and SyncPush's loop:
  /// observes the manifest (and `meta`'s blob, when non-null) under one
  /// snapshot, seals a manifest above both the TEE floor and the
  /// provider's version, and commits it (with `sealed` as `meta`'s new
  /// payload) validated against what it observed; an abort rebuilds from
  /// a fresh snapshot (bounded). On success saves `meta` and raises the
  /// manifest floor.
  Status PublishManifest(const DocumentMeta* meta, const Bytes& sealed);
  /// Fetches a blob, serving the newest queued payload from the outbox
  /// first (read-your-writes while partitioned).
  Result<Bytes> PullBlob(const std::string& blob_id);
  void EnterDegraded();
  void ExitDegraded();

  Config config_;
  cloud::CloudInfrastructure* cloud_;
  CellDirectory* directory_;
  const Clock* clock_;

  std::unique_ptr<tee::TrustedExecutionEnvironment> tee_;
  std::unique_ptr<storage::FlashDevice> flash_;
  std::unique_ptr<storage::EncryptedPageTransform> transform_;
  std::unique_ptr<storage::LogStore> store_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<policy::AuditLog> audit_;
  net::InProcessTransport in_process_;  // Used when Config.transport is null.
  std::unique_ptr<net::ResilientChannel> channel_;
  std::unique_ptr<net::Outbox> outbox_;  // resilient_sync only.
  bool degraded_ = false;
  obs::Stopwatch degraded_timer_;
  policy::DecisionPoint pdp_;

  /// A document the cell holds: what the manifest needs of it without
  /// reading its meta back.
  struct RegisteredDocument {
    uint64_t number = 0;  ///< Its keyword-index number.
    Bytes manifest_entry;  ///< ManifestEntry(meta) as last saved.
  };
  // Document registry, one entry per document in doc-id order: rebuilt
  // from the store at Init, then written by SaveMeta and ForgetDocument
  // only.
  std::map<std::string, RegisteredDocument> docs_;
  std::map<uint64_t, std::string> number_to_doc_;
  std::set<std::string> seen_grant_ids_;
  std::vector<cloud::Message> pending_messages_;
  uint64_t next_doc_number_ = 1;
  uint64_t next_grant_number_ = 1;
  Metrics metrics_;
  CellStats stats_;
  std::vector<SecurityIncident> incidents_;
};

/// Convenience: a permissive owner policy (read/write/share, unlimited,
/// audit obligation) used by examples and tests as the base policy for own
/// documents.
policy::Policy MakeOwnerPolicy(const std::string& owner);

}  // namespace tc::cell

#endif  // TC_CELL_CELL_H_
