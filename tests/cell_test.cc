#include <gtest/gtest.h>

#include <memory>

#include "tc/cell/cell.h"
#include "tc/cell/vault_baseline.h"
#include "tc/net/transport.h"

namespace tc::cell {
namespace {

using policy::ObligationType;
using policy::Policy;
using policy::Right;
using policy::UsageRule;

class CellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(MakeTimestamp(2013, 1, 7, 9, 0, 0));
    alice_gateway_ = MakeCell("alice-gateway", "alice",
                              tee::DeviceClass::kHomeGateway);
    alice_phone_ =
        MakeCell("alice-phone", "alice", tee::DeviceClass::kSmartPhone);
    bob_phone_ = MakeCell("bob-phone", "bob", tee::DeviceClass::kSmartPhone);
  }

  std::unique_ptr<TrustedCell> MakeCell(const std::string& id,
                                        const std::string& owner,
                                        tee::DeviceClass device_class) {
    TrustedCell::Config config;
    config.cell_id = id;
    config.owner = owner;
    config.device_class = device_class;
    // Small flash keeps tests fast.
    config.flash.emplace();
    config.flash->page_size = 2048;
    config.flash->pages_per_block = 16;
    config.flash->block_count = 256;
    auto cell = TrustedCell::Create(config, &cloud_, &directory_, &clock_);
    TC_CHECK(cell.ok());
    return std::move(*cell);
  }

  Policy BobReadPolicy(int max_uses = 0) {
    UsageRule rule;
    rule.id = "bob-read";
    rule.subjects = {"bob"};
    rule.rights = {Right::kRead};
    rule.max_uses = max_uses;
    rule.obligations = {ObligationType::kLogAccess,
                        ObligationType::kNotifyOwner};
    Policy p;
    p.id = "share-with-bob";
    p.owner = "alice";
    p.rules = {rule};
    return p;
  }

  SimulatedClock clock_;
  cloud::CloudInfrastructure cloud_;
  CellDirectory directory_;
  std::unique_ptr<TrustedCell> alice_gateway_;
  std::unique_ptr<TrustedCell> alice_phone_;
  std::unique_ptr<TrustedCell> bob_phone_;
};

TEST_F(CellTest, CellsRegisterInDirectory) {
  EXPECT_EQ(directory_.size(), 3u);
  EXPECT_EQ(directory_.CellsOf("alice").size(), 2u);
  auto bob = directory_.Lookup("bob-phone");
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(bob->owner, "bob");
}

TEST_F(CellTest, StoreAndFetchOwnDocument) {
  Bytes content = ToBytes("electricity bill January 2013");
  auto doc_id = alice_gateway_->StoreDocument(
      "EDF bill 2013-01", "bill energy edf", content,
      MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  auto fetched = alice_gateway_->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, content);
  EXPECT_EQ(alice_gateway_->stats().documents_stored, 1u);
  EXPECT_EQ(alice_gateway_->stats().reads_allowed, 1u);
}

TEST_F(CellTest, PayloadInCloudIsCiphertext) {
  Bytes content = ToBytes("super secret medical record");
  auto doc_id = alice_gateway_->StoreDocument("medical", "health", content,
                                              MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  auto meta = alice_gateway_->GetDocumentMeta(*doc_id);
  ASSERT_TRUE(meta.ok());
  Bytes blob = *cloud_.blob_store().Get(meta->blob_id);
  std::string blob_str(blob.begin(), blob.end());
  EXPECT_EQ(blob_str.find("secret"), std::string::npos);
  EXPECT_EQ(blob_str.find("medical"), std::string::npos);
}

TEST_F(CellTest, MetadataSearchIsLocal) {
  (void)*alice_gateway_->StoreDocument("Paris photo", "photo paris 2012",
                                       ToBytes("jpg"), MakeOwnerPolicy("alice"));
  (void)*alice_gateway_->StoreDocument("Bill EDF", "bill energy",
                                       ToBytes("pdf"), MakeOwnerPolicy("alice"));
  uint64_t gets_before = cloud_.stats().blob_gets;
  auto hits = alice_gateway_->SearchDocuments("paris");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].title, "Paris photo");
  // Metadata-first: the search touched no cloud blob.
  EXPECT_EQ(cloud_.stats().blob_gets, gets_before);
}

TEST_F(CellTest, UpdateBumpsVersionAndFetchesLatest) {
  auto doc_id = alice_gateway_->StoreDocument("notes", "notes",
                                              ToBytes("v1"),
                                              MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->UpdateDocumentAtomic(*doc_id, ToBytes("v2")).ok());
  EXPECT_EQ(alice_gateway_->GetDocumentMeta(*doc_id)->version, 2u);
  EXPECT_EQ(*alice_gateway_->FetchDocument(*doc_id), ToBytes("v2"));
}

TEST_F(CellTest, OwnerPolicyDeniesStrangers) {
  auto doc_id = alice_gateway_->StoreDocument(
      "private", "private", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  auto read = alice_gateway_->ReadSharedDocument(*doc_id, "mallory");
  EXPECT_TRUE(read.status().IsPermissionDenied());
  EXPECT_EQ(alice_gateway_->stats().reads_denied, 1u);
}

TEST_F(CellTest, SyncPropagatesMetadataBetweenOwnerCells) {
  Bytes content = ToBytes("pay slip March");
  auto doc_id = alice_gateway_->StoreDocument("pay slip", "salary pay",
                                              content,
                                              MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(alice_gateway_->SyncPush().ok());
  ASSERT_TRUE(alice_phone_->SyncPull().ok());

  // The phone now finds the doc locally and can fetch+decrypt it (doc key
  // derived from the shared owner master).
  auto hits = alice_phone_->SearchDocuments("salary");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  auto fetched = alice_phone_->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, content);
}

TEST_F(CellTest, SyncRollbackDetected) {
  (void)*alice_gateway_->StoreDocument("d1", "k", ToBytes("1"),
                                       MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice_gateway_->SyncPush().ok());
  ASSERT_TRUE(alice_phone_->SyncPull().ok());
  (void)*alice_gateway_->StoreDocument("d2", "k", ToBytes("2"),
                                       MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice_gateway_->SyncPush().ok());
  ASSERT_TRUE(alice_phone_->SyncPull().ok());

  // The adversary rolls the manifest back to version 1 on every read.
  cloud::AdversaryConfig adversary;
  adversary.rollback_read_prob = 1.0;
  cloud_.set_adversary(adversary);
  Status pulled = alice_phone_->SyncPull();
  EXPECT_TRUE(pulled.IsIntegrityViolation());
  ASSERT_FALSE(alice_phone_->incidents().empty());
  EXPECT_EQ(alice_phone_->incidents().back().type,
            IncidentType::kRollbackDetected);
}

TEST_F(CellTest, TruncatedManifestIsConvicted) {
  // A failed fetch of an own document reads the manifest too, so every
  // manifest the cell cannot parse must convict, like a payload that fails
  // to open: here the sealed body falls short of its length prefix.
  (void)*alice_gateway_->StoreDocument("d1", "k", ToBytes("1"),
                                       MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice_gateway_->SyncPush().ok());
  const std::string manifest_id = "space/alice/manifest";
  Bytes manifest = *cloud_.blob_store().Get(manifest_id);
  manifest.pop_back();
  cloud_.blob_store().Put(manifest_id, manifest);

  EXPECT_TRUE(alice_phone_->SyncPull().IsIntegrityViolation());
  ASSERT_EQ(alice_phone_->incidents().size(), 1u);
  EXPECT_EQ(alice_phone_->incidents()[0].type,
            IncidentType::kPayloadTampered);
}

TEST_F(CellTest, ShareGrantFlowEndToEnd) {
  Bytes content = ToBytes("holiday photo from Brittany");
  auto doc_id = alice_gateway_->StoreDocument("Brittany photo",
                                              "photo brittany holiday",
                                              content, MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy())
          .ok());
  auto accepted = bob_phone_->ProcessInbox();
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, 1);

  auto read = bob_phone_->ReadSharedDocument(*doc_id, "bob");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, content);
  EXPECT_EQ(bob_phone_->stats().reads_allowed, 1u);

  // Obligation kNotifyOwner produced an access notification for Alice.
  (void)alice_gateway_->ProcessInbox();
  auto notifications = alice_gateway_->TakeMessages("access-notification");
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications[0].from, "bob-phone");
}

TEST_F(CellTest, SharedPolicyEnforcedOnRecipient) {
  auto doc_id = alice_gateway_->StoreDocument(
      "photo", "photo", ToBytes("img"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  // Two uses only (footnote-6 style mutability).
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy(2))
          .ok());
  ASSERT_EQ(*bob_phone_->ProcessInbox(), 1);

  EXPECT_TRUE(bob_phone_->ReadSharedDocument(*doc_id, "bob").ok());
  EXPECT_TRUE(bob_phone_->ReadSharedDocument(*doc_id, "bob").ok());
  auto third = bob_phone_->ReadSharedDocument(*doc_id, "bob");
  EXPECT_TRUE(third.status().IsPermissionDenied());
  // Carol can't read on Bob's cell either (not a rule subject).
  EXPECT_TRUE(bob_phone_->ReadSharedDocument(*doc_id, "carol")
                  .status()
                  .IsPermissionDenied());
}

TEST_F(CellTest, ForgedGrantRejected) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy())
          .ok());
  // The infrastructure tampers with the grant in transit.
  auto pending = cloud_.Receive("bob-phone");
  ASSERT_EQ(pending.size(), 1u);
  Bytes tampered = pending[0].payload;
  tampered[tampered.size() / 2] ^= 1;
  cloud_.Send(pending[0].from, "bob-phone", "share", tampered);

  auto accepted = bob_phone_->ProcessInbox();
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, 0);
  ASSERT_FALSE(bob_phone_->incidents().empty());
}

TEST_F(CellTest, ReplayedGrantDetected) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy())
          .ok());
  auto pending = cloud_.Receive("bob-phone");
  ASSERT_EQ(pending.size(), 1u);
  // Deliver the same grant twice.
  cloud_.Send(pending[0].from, "bob-phone", "share", pending[0].payload);
  cloud_.Send(pending[0].from, "bob-phone", "share", pending[0].payload);
  auto accepted = bob_phone_->ProcessInbox();
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, 1);
  bool replay_detected = false;
  for (const auto& incident : bob_phone_->incidents()) {
    if (incident.type == IncidentType::kReplayedGrant) replay_detected = true;
  }
  EXPECT_TRUE(replay_detected);
}

TEST_F(CellTest, TamperedPayloadDetectedOnFetch) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("payload"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  cloud::AdversaryConfig adversary;
  adversary.tamper_read_prob = 1.0;
  cloud_.set_adversary(adversary);
  auto fetched = alice_gateway_->FetchDocument(*doc_id);
  EXPECT_TRUE(fetched.status().IsIntegrityViolation());
  ASSERT_FALSE(alice_gateway_->incidents().empty());
  EXPECT_EQ(alice_gateway_->incidents().back().type,
            IncidentType::kPayloadTampered);
}

TEST_F(CellTest, BlobRollbackDetectedOnFetch) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("v1"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->UpdateDocumentAtomic(*doc_id, ToBytes("v2")).ok());
  cloud::AdversaryConfig adversary;
  adversary.rollback_read_prob = 1.0;
  cloud_.set_adversary(adversary);
  auto fetched = alice_gateway_->FetchDocument(*doc_id);
  EXPECT_TRUE(fetched.status().IsIntegrityViolation());
  ASSERT_FALSE(alice_gateway_->incidents().empty());
  EXPECT_EQ(alice_gateway_->incidents().back().type,
            IncidentType::kRollbackDetected);
}

TEST_F(CellTest, AuditLogPushedAndVerifiedByOriginator) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(
      alice_gateway_->ShareDocument(*doc_id, "bob-phone", BobReadPolicy(3))
          .ok());
  ASSERT_EQ(*bob_phone_->ProcessInbox(), 1);
  (void)bob_phone_->ReadSharedDocument(*doc_id, "bob");
  (void)bob_phone_->ReadSharedDocument(*doc_id, "carol");  // Denied.

  ASSERT_TRUE(bob_phone_->PushAuditLog("alice-gateway").ok());
  (void)alice_gateway_->ProcessInbox();
  auto pushes = alice_gateway_->TakeMessages("audit-log");
  ASSERT_EQ(pushes.size(), 1u);
  auto entries = alice_gateway_->VerifyAuditPush(pushes[0]);
  ASSERT_TRUE(entries.ok());
  // The journal carries the full evidence stream: the cell's boot
  // attestation record first, then the two policy decisions.
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].kind, obs::AuditKind::kAttestation);
  EXPECT_EQ((*entries)[1].subject, "bob");
  EXPECT_EQ((*entries)[1].kind, obs::AuditKind::kPolicyDecision);
  EXPECT_TRUE((*entries)[1].allowed);
  EXPECT_EQ((*entries)[2].subject, "carol");
  EXPECT_FALSE((*entries)[2].allowed);
}

TEST_F(CellTest, AuditPushQuoteMustBeTheSendersOverItsHeadAndCount) {
  ASSERT_TRUE(bob_phone_->PushAuditLog("alice-gateway").ok());
  (void)alice_gateway_->ProcessInbox();
  auto pushes = alice_gateway_->TakeMessages("audit-log");
  ASSERT_EQ(pushes.size(), 1u);
  ASSERT_TRUE(alice_gateway_->VerifyAuditPush(pushes[0]).ok());

  // The push: sender | count | wrapped key | export, and the export:
  // magic | count | head | sealed journal | quote. Each forgery below
  // keeps everything but the quote.
  std::string sender, magic;
  uint64_t count = 0, sealed_count = 0;
  Bytes wrapped, exported, head, sealed, quote;
  ASSERT_TRUE(
      Decode(pushes[0].payload, &sender, &count, &wrapped, &exported).ok());
  ASSERT_TRUE(
      Decode(exported, &magic, &sealed_count, &head, &sealed, &quote).ok());
  auto requoted = [&](const tee::Quote& forged_quote) {
    cloud::Message forged = pushes[0];
    forged.payload =
        Encode(sender, count, wrapped,
               Encode(magic, sealed_count, head, sealed,
                      policy::SerializeQuote(forged_quote)));
    return forged;
  };
  const std::string claims = "tc.audit.export." + std::to_string(count);
  Bytes other_head = head;
  other_head[0] ^= 1;

  // Another cell's TEE signed the right head and count.
  EXPECT_TRUE(alice_gateway_
                  ->VerifyAuditPush(requoted(
                      alice_phone_->tee().GenerateQuote(head, claims)))
                  .status()
                  .IsIntegrityViolation());
  // The sender's own TEE signed another head, or another count.
  EXPECT_TRUE(alice_gateway_
                  ->VerifyAuditPush(requoted(
                      bob_phone_->tee().GenerateQuote(other_head, claims)))
                  .status()
                  .IsIntegrityViolation());
  EXPECT_TRUE(
      alice_gateway_
          ->VerifyAuditPush(requoted(bob_phone_->tee().GenerateQuote(
              head, "tc.audit.export." + std::to_string(count + 1))))
          .status()
          .IsIntegrityViolation());
  // A fresh quote of the sender's over the right anchors is as good as
  // the original.
  EXPECT_TRUE(alice_gateway_
                  ->VerifyAuditPush(requoted(
                      bob_phone_->tee().GenerateQuote(head, claims)))
                  .ok());
}

TEST_F(CellTest, SensorIngestAndGranularityViews) {
  // One hour of 1 Hz readings.
  Timestamp start = MakeTimestamp(2013, 1, 7, 0, 0, 0);
  for (int i = 0; i < 3600; ++i) {
    ASSERT_TRUE(
        alice_gateway_->IngestReading("power", start + i, 200 + i % 100)
            .ok());
  }
  auto quarter_hours =
      alice_gateway_->Aggregates("power", start, start + 3600, 900);
  ASSERT_TRUE(quarter_hours.ok());
  EXPECT_EQ(quarter_hours->size(), 4u);
  for (const auto& w : *quarter_hours) {
    EXPECT_EQ(w.count, 900u);
    EXPECT_GT(w.mean, 199.0);
  }
  // Publish to the social game at daily granularity.
  ASSERT_TRUE(alice_gateway_
                  ->PublishAggregate("social-game", "power", start,
                                     start + 3600, kSecondsPerDay)
                  .ok());
  auto msgs = cloud_.Receive("social-game");
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].topic, "aggregate");
}

TEST_F(CellTest, PublishedAggregatePayloadDecodes) {
  Timestamp start = MakeTimestamp(2013, 1, 7, 0, 0, 0);
  for (int i = 0; i < 1800; ++i) {
    ASSERT_TRUE(alice_gateway_->IngestReading("power", start + i, 100).ok());
  }
  ASSERT_TRUE(alice_gateway_
                  ->PublishAggregate("utility", "power", start, start + 1800,
                                     900)
                  .ok());
  auto msgs = cloud_.Receive("utility");
  ASSERT_EQ(msgs.size(), 1u);
  BinaryReader r(msgs[0].payload);
  EXPECT_EQ(*r.GetString(), "power");
  EXPECT_EQ(*r.GetI64(), 900);
  ASSERT_EQ(*r.GetVarint(), 2u);  // Two 15-minute windows.
  EXPECT_EQ(*r.GetI64(), start);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 100.0);
  EXPECT_EQ(*r.GetI64(), start + 900);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 100.0);
  EXPECT_TRUE(r.AtEnd());
}

TEST_F(CellTest, ProvideAggregateValueSums) {
  Timestamp start = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(alice_gateway_->IngestReading("power", start + i, 10).ok());
  }
  auto sum = alice_gateway_->ProvideAggregateValue("power", 0, 100);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 1000);
}

TEST_F(CellTest, DeleteAfterUseObligation) {
  UsageRule rule;
  rule.id = "one-shot";
  rule.subjects = {"bob"};
  rule.rights = {Right::kRead};
  rule.obligations = {ObligationType::kDeleteAfterUse};
  Policy p{"one-shot-policy", "alice", {rule}};

  auto doc_id = alice_gateway_->StoreDocument(
      "ephemeral", "secret", ToBytes("burn after reading"),
      MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(alice_gateway_->ShareDocument(*doc_id, "bob-phone", p).ok());
  ASSERT_EQ(*bob_phone_->ProcessInbox(), 1);
  ASSERT_TRUE(bob_phone_->ReadSharedDocument(*doc_id, "bob").ok());
  // Metadata, keyword postings and key are gone afterwards.
  EXPECT_TRUE(
      bob_phone_->ReadSharedDocument(*doc_id, "bob").status().IsNotFound());
  EXPECT_TRUE(bob_phone_->database().keywords().Search("secret")->empty());
}

TEST_F(CellTest, FetchDocumentDischargesTheStickyPolicysObligations) {
  // A recipient reading through FetchDocument reads under the same sticky
  // policy as through ReadSharedDocument.
  UsageRule rule;
  rule.id = "one-shot";
  rule.subjects = {"bob"};
  rule.rights = {Right::kRead};
  rule.obligations = {ObligationType::kDeleteAfterUse,
                      ObligationType::kNotifyOwner};
  Policy p{"one-shot-policy", "alice", {rule}};

  auto doc_id = alice_gateway_->StoreDocument(
      "ephemeral", "secret", ToBytes("burn after reading"),
      MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(alice_gateway_->ShareDocument(*doc_id, "bob-phone", p).ok());
  ASSERT_EQ(*bob_phone_->ProcessInbox(), 1);
  auto first = bob_phone_->FetchDocument(*doc_id);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, ToBytes("burn after reading"));
  EXPECT_TRUE(bob_phone_->FetchDocument(*doc_id).status().IsNotFound());

  (void)alice_gateway_->ProcessInbox();
  EXPECT_EQ(alice_gateway_->TakeMessages("access-notification").size(), 1u);
}

TEST_F(CellTest, DocumentGrantedBetweenOneOwnersCellsCannotBeUpdated) {
  // A grant may go to another cell of the same owner. The recipient holds
  // a granted document, not an own one, so it must not publish an update
  // of it into the owner's manifest.
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  ASSERT_TRUE(alice_gateway_
                  ->ShareDocument(*doc_id, "alice-phone",
                                  MakeOwnerPolicy("alice"))
                  .ok());
  ASSERT_EQ(*alice_phone_->ProcessInbox(), 1);
  EXPECT_TRUE(alice_phone_->UpdateDocumentAtomic(*doc_id, ToBytes("y"))
                  .IsPermissionDenied());
}

TEST_F(CellTest, KeyRotationSealIsTimed) {
  auto doc_id = alice_gateway_->StoreDocument(
      "doc", "doc", ToBytes("x"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok());
  obs::Histogram& seal_us =
      obs::MetricRegistry::Global().GetHistogram("cell.seal_us");
  const uint64_t before = seal_us.Snapshot().count;
  ASSERT_TRUE(alice_gateway_->RotateDocumentKey(*doc_id).ok());
  EXPECT_EQ(seal_us.Snapshot().count, before + 1);
}

TEST_F(CellTest, MetaLargerThanAPageIsRefusedBeforeAnyWrite) {
  // A meta record must fit one flash page. A store whose meta cannot is
  // refused before its payload is sealed or committed, and leaves no
  // document behind for the manifest, the index or the provider.
  auto kept = alice_gateway_->StoreDocument("kept", "kept", ToBytes("x"),
                                            MakeOwnerPolicy("alice"));
  ASSERT_TRUE(kept.ok());
  const size_t blobs = cloud_.blob_store().blob_count();
  const size_t listed = alice_gateway_->ListDocuments().size();
  std::string title = "ghost";
  while (title.size() < 2100) title += " ghost";
  auto ghost = alice_gateway_->StoreDocument(title, "ghost", ToBytes("y"),
                                             MakeOwnerPolicy("alice"));
  EXPECT_EQ(ghost.status().code(), StatusCode::kInvalidArgument)
      << ghost.status().ToString();
  EXPECT_EQ(cloud_.blob_store().blob_count(), blobs);
  EXPECT_EQ(alice_gateway_->ListDocuments().size(), listed);

  Status updated = alice_gateway_->UpdateDocumentAtomic(*kept, ToBytes("z"));
  EXPECT_TRUE(updated.ok()) << updated.ToString();
  Status pushed = alice_gateway_->SyncPush();
  EXPECT_TRUE(pushed.ok()) << pushed.ToString();
  auto hits = alice_gateway_->SearchDocuments("ghost");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_TRUE(hits->empty());
}

TEST_F(CellTest, CentralizedVaultBaselineContrasts) {
  CentralizedVault vault(&cloud_, &clock_);
  Policy alice_only = MakeOwnerPolicy("alice");
  auto doc = vault.StoreDocument("alice", "diary", ToBytes("dear diary"),
                                 alice_only);
  ASSERT_TRUE(doc.ok());
  // Policy honoured at first...
  EXPECT_TRUE(vault.ReadDocument(*doc, "mallory").status().IsPermissionDenied());
  EXPECT_TRUE(vault.ReadDocument(*doc, "alice").ok());
  // ...until the provider silently changes its mind.
  vault.set_honour_policies(false);
  EXPECT_TRUE(vault.ReadDocument(*doc, "mallory").ok());
  // And one breach exposes everything in plaintext.
  auto loot = vault.BreachAll();
  ASSERT_EQ(loot.size(), 1u);
  EXPECT_EQ(ToString(std::get<2>(loot[0])), "dear diary");
}

/// Counts every call that crosses it, then hands the call to the provider
/// in-process.
class CountingTransport final : public net::CloudTransport {
 public:
  explicit CountingTransport(cloud::CloudInfrastructure* cloud)
      : inner_(cloud) {}

  Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) override {
    ++gets;
    return inner_.GetBlob(id, delay_us);
  }
  Result<cloud::SnapshotDescriptor> GetSnapshot(uint32_t* delay_us) override {
    ++snapshots;
    return inner_.GetSnapshot(delay_us);
  }
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override {
    ++snapshot_gets;
    return inner_.GetAtSnapshot(id, snap, delay_us);
  }
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req) override {
    ++commits;
    return inner_.CommitTxn(req);
  }
  obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) override {
    return inner_.ReportTelemetry(frame, delay_us);
  }
  Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override {
    return inner_.ScrapeTelemetry(delay_us);
  }
  std::string name() const override { return "counting"; }

  uint64_t gets = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_gets = 0;
  uint64_t commits = 0;

 private:
  net::InProcessTransport inner_;
};

TEST(CellTransportTest, NonResilientCellCrossesItsTransport) {
  // resilient_sync only decides what happens when the provider stays
  // unreachable; a cell without it still speaks to the provider through
  // its channel over Config.transport.
  SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
  cloud::CloudInfrastructure cloud;
  CellDirectory directory;
  CountingTransport transport(&cloud);
  TrustedCell::Config config;
  config.cell_id = "alice-gateway";
  config.owner = "alice";
  config.flash.emplace();
  config.flash->page_size = 2048;
  config.flash->pages_per_block = 16;
  config.flash->block_count = 256;
  config.resilient_sync = false;
  config.transport = &transport;
  auto created = TrustedCell::Create(config, &cloud, &directory, &clock);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TrustedCell& cell = **created;

  auto doc_id = cell.StoreDocument("note", "memo", ToBytes("first"),
                                   MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(cell.SyncPush().ok());
  EXPECT_EQ(*cell.FetchDocument(*doc_id), ToBytes("first"));
  ASSERT_TRUE(cell.UpdateDocumentAtomic(*doc_id, ToBytes("second")).ok());
  ASSERT_TRUE(cell.SyncPull().ok());

  // Every write is a commit: the store's blind one, then the push's and
  // the atomic update's, each after a snapshot and its base reads (the
  // manifest; the document and the manifest).
  EXPECT_EQ(transport.commits, 3u);
  EXPECT_EQ(transport.snapshots, 2u);
  EXPECT_EQ(transport.snapshot_gets, 3u);
  EXPECT_EQ(transport.gets, 2u);  // Fetch + manifest pull.
  // Every blob the provider stored or served crossed the transport.
  const cloud::CloudStats stats = cloud.stats();
  EXPECT_EQ(stats.blob_puts, 4u);  // 1 + 1 + 2 txn writes.
  EXPECT_EQ(stats.blob_gets, transport.gets + transport.snapshot_gets);
}

TEST(CellRegistryTest, AnUpdatesStoreLookupsDoNotGrowWithTheDocumentCount) {
  // The manifest is built from the cell's document registry: an update
  // reads back its own document's meta and no other, a push reads none,
  // and a pull of a manifest whose every entry the registry already holds
  // reads none. On a token whose index overflowed its RAM budget, each
  // lookup could be a scan of the whole log.
  for (tee::DeviceClass device_class :
       {tee::DeviceClass::kHomeGateway, tee::DeviceClass::kSecureToken}) {
    SCOPED_TRACE(device_class == tee::DeviceClass::kHomeGateway ? "gateway"
                                                                : "token");
    SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
    cloud::CloudInfrastructure cloud;
    CellDirectory directory;
    TrustedCell::Config config;
    config.cell_id = "alice-cell";
    config.owner = "alice";
    config.device_class = device_class;
    auto created = TrustedCell::Create(config, &cloud, &directory, &clock);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    TrustedCell& cell = **created;
    std::vector<std::string> docs;
    for (int i = 0; i < 64; ++i) {
      auto doc = cell.StoreDocument("doc " + std::to_string(i), "common",
                                    ToBytes("v1"), MakeOwnerPolicy("alice"));
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      docs.push_back(*doc);
    }
    auto lookups = [&] {
      const storage::LogStoreStats& stats = cell.store().stats();
      return stats.index_hits + stats.full_scans;
    };
    uint64_t before = lookups();
    ASSERT_TRUE(cell.UpdateDocumentAtomic(docs[17], ToBytes("v2")).ok());
    EXPECT_LE(lookups() - before, 1u);
    before = lookups();
    ASSERT_TRUE(cell.SyncPush().ok());
    EXPECT_EQ(lookups() - before, 0u);
    before = lookups();
    ASSERT_TRUE(cell.SyncPull().ok());
    EXPECT_EQ(lookups() - before, 0u);
  }
}

}  // namespace
}  // namespace tc::cell
