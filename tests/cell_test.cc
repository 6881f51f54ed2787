#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

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

// ---- Manifest v2 (root + content-addressed segments) under attack ----
// Each case is pulled by a sibling that holds no segment yet, so the pull
// reads the root and every segment it names; each attack must convict
// exactly once.

/// Alice's segment blob ids at the provider.
std::vector<std::string> SegmentIds(cloud::CloudInfrastructure& cloud,
                                    const std::string& owner) {
  return cloud.ListBlobs("space/" + owner + "/manifest/");
}

/// Stores `count` documents on `cell` and publishes them.
std::vector<std::string> StoreAndPush(TrustedCell& cell,
                                      const std::string& owner, int count) {
  std::vector<std::string> docs;
  for (int i = 0; i < count; ++i) {
    auto doc = cell.StoreDocument("doc " + std::to_string(i), "common",
                                  ToBytes("v1 " + std::to_string(i)),
                                  MakeOwnerPolicy(owner));
    TC_CHECK(doc.ok());
    docs.push_back(*doc);
  }
  TC_CHECK(cell.SyncPush().ok());
  return docs;
}

/// `cell`'s pull fails as tampering and records exactly one incident.
void ExpectPullConvictsOnce(TrustedCell& cell, IncidentType type) {
  EXPECT_TRUE(cell.SyncPull().IsIntegrityViolation());
  ASSERT_EQ(cell.incidents().size(), 1u);
  EXPECT_EQ(cell.incidents()[0].type, type);
}

TEST_F(CellTest, TamperedRootIsConvictedOnce) {
  StoreAndPush(*alice_gateway_, "alice", 6);
  const std::string root_id = "space/alice/manifest";
  Bytes root = *cloud_.blob_store().Get(root_id);
  root.back() ^= 0x01;  // The sealed body's tag.
  cloud_.blob_store().Put(root_id, root);
  ExpectPullConvictsOnce(*alice_phone_, IncidentType::kPayloadTampered);
}

TEST_F(CellTest, RootRolledBackBelowTheFloorIsConvictedOnce) {
  StoreAndPush(*alice_gateway_, "alice", 3);
  const std::string root_id = "space/alice/manifest";
  const Bytes first = *cloud_.blob_store().Get(root_id);
  ASSERT_TRUE(alice_phone_->SyncPull().ok());
  StoreAndPush(*alice_gateway_, "alice", 3);
  ASSERT_TRUE(alice_phone_->SyncPull().ok());
  cloud_.blob_store().Put(root_id, first);
  ExpectPullConvictsOnce(*alice_phone_, IncidentType::kRollbackDetected);
}

TEST_F(CellTest, TamperedSegmentIsConvictedOnce) {
  StoreAndPush(*alice_gateway_, "alice", 6);
  const std::vector<std::string> segments = SegmentIds(cloud_, "alice");
  ASSERT_FALSE(segments.empty());
  Bytes segment = *cloud_.blob_store().Get(segments[0]);
  segment[segment.size() / 2] ^= 0x40;
  cloud_.blob_store().Put(segments[0], segment);
  ExpectPullConvictsOnce(*alice_phone_, IncidentType::kPayloadTampered);
}

TEST_F(CellTest, StaleSegmentUnderAFreshRootIsConvictedOnce) {
  // Three documents share one slot, so the update replaces the one
  // segment; the provider serves the replaced, authentic one in place of
  // the fresh one.
  const std::vector<std::string> docs =
      StoreAndPush(*alice_gateway_, "alice", 3);
  const std::vector<std::string> before = SegmentIds(cloud_, "alice");
  ASSERT_EQ(before.size(), 1u);
  ASSERT_TRUE(alice_gateway_->UpdateDocumentAtomic(docs[2], ToBytes("v2")).ok());
  std::vector<std::string> after = SegmentIds(cloud_, "alice");
  after.erase(std::find(after.begin(), after.end(), before[0]));
  ASSERT_EQ(after.size(), 1u);
  cloud_.blob_store().Put(after[0], *cloud_.blob_store().Get(before[0]));
  ExpectPullConvictsOnce(*alice_phone_, IncidentType::kPayloadTampered);
}

TEST_F(CellTest, SegmentReplayedFromAnotherOwnerIsConvictedOnce) {
  StoreAndPush(*alice_gateway_, "alice", 6);
  StoreAndPush(*bob_phone_, "bob", 6);
  const std::string alice_segment = SegmentIds(cloud_, "alice")[0];
  cloud_.blob_store().Put(alice_segment,
                          *cloud_.blob_store().Get(SegmentIds(cloud_, "bob")[0]));
  ExpectPullConvictsOnce(*alice_phone_, IncidentType::kPayloadTampered);
}

TEST_F(CellTest, SegmentServedForAnotherSlotIsConvictedOnce) {
  StoreAndPush(*alice_gateway_, "alice", 6);
  const std::vector<std::string> segments = SegmentIds(cloud_, "alice");
  ASSERT_GE(segments.size(), 2u);
  cloud_.blob_store().Put(segments[0],
                          *cloud_.blob_store().Get(segments[1]));
  ExpectPullConvictsOnce(*alice_phone_, IncidentType::kPayloadTampered);
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
  // manifest root; the document and the root).
  EXPECT_EQ(transport.commits, 3u);
  EXPECT_EQ(transport.snapshots, 2u);
  EXPECT_EQ(transport.snapshot_gets, 3u);
  // Fetch + root pull: the pull holds the root's one segment already.
  EXPECT_EQ(transport.gets, 2u);
  // Every blob the provider stored or served crossed the transport.
  const cloud::CloudStats stats = cloud.stats();
  // 1 + 2 (segment, root) + 3 (document, segment, root) txn writes.
  EXPECT_EQ(stats.blob_puts, 6u);
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

/// A cell of `owner` on `cloud` that crosses `transport` (null =
/// in-process).
std::unique_ptr<TrustedCell> MakeCellOn(const std::string& id,
                                        cloud::CloudInfrastructure* cloud,
                                        CellDirectory* directory,
                                        const Clock* clock,
                                        net::CloudTransport* transport,
                                        const std::string& owner = "alice") {
  TrustedCell::Config config;
  config.cell_id = id;
  config.owner = owner;
  config.flash.emplace();
  config.flash->page_size = 2048;
  config.flash->pages_per_block = 16;
  config.flash->block_count = 256;
  config.transport = transport;
  auto created = TrustedCell::Create(config, cloud, directory, clock);
  TC_CHECK(created.ok());
  return std::move(*created);
}

/// Runs `hook` once, right after the first read of the manifest root that
/// crosses it.
class RootReadHookTransport final : public net::CloudTransport {
 public:
  RootReadHookTransport(cloud::CloudInfrastructure* cloud,
                        std::function<void()> hook)
      : inner_(cloud), hook_(std::move(hook)) {}

  Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) override {
    Result<Bytes> got = inner_.GetBlob(id, delay_us);
    if (id == "space/alice/manifest" && hook_) {
      auto hook = std::move(hook_);
      hook_ = nullptr;
      hook();
    }
    return got;
  }
  Result<cloud::SnapshotDescriptor> GetSnapshot(uint32_t* delay_us) override {
    return inner_.GetSnapshot(delay_us);
  }
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override {
    return inner_.GetAtSnapshot(id, snap, delay_us);
  }
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req) override {
    return inner_.CommitTxn(req);
  }
  obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) override {
    return inner_.ReportTelemetry(frame, delay_us);
  }
  Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override {
    return inner_.ScrapeTelemetry(delay_us);
  }
  std::string name() const override { return "root-read-hook"; }

 private:
  net::InProcessTransport inner_;
  std::function<void()> hook_;
};

TEST(ManifestSegmentTest, APublishBetweenASiblingsRootAndSegmentReadsConvictsNobody) {
  // The sibling reads the root, then another cell of the owner publishes
  // every slot anew before the sibling reads a segment. Segments are never
  // rewritten, so each one the sibling's root names is still there.
  SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
  cloud::CloudInfrastructure cloud;
  CellDirectory directory;
  auto gateway = MakeCellOn("alice-gateway", &cloud, &directory, &clock,
                            nullptr);
  const std::vector<std::string> docs = StoreAndPush(*gateway, "alice", 12);
  RootReadHookTransport transport(&cloud, [&] {
    for (const std::string& doc : docs) {
      TC_CHECK(gateway->UpdateDocumentAtomic(doc, ToBytes("v2")).ok());
    }
  });
  auto phone = MakeCellOn("alice-phone", &cloud, &directory, &clock,
                          &transport);
  ASSERT_TRUE(phone->SyncPull().ok());
  EXPECT_EQ(phone->ListDocuments().size(), docs.size());
  // The next pull follows the publishes it raced.
  ASSERT_TRUE(phone->SyncPull().ok());
  EXPECT_EQ(*phone->FetchDocument(docs[5]), ToBytes("v2"));
  EXPECT_TRUE(gateway->incidents().empty());
  EXPECT_TRUE(phone->incidents().empty());
}

TEST(ManifestSegmentTest, AnUpdateCommitsOneSegmentAndASmallRoot) {
  // After a push, an update commits its document, one segment and the
  // root, not the owner's whole manifest; a sibling that pulled before
  // fetches the root and that one segment.
  for (int documents : {64, 512}) {
    SCOPED_TRACE(std::to_string(documents) + " documents");
    SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
    cloud::CloudInfrastructure cloud;
    CellDirectory directory;
    auto gateway = MakeCellOn("alice-gateway", &cloud, &directory, &clock,
                              nullptr);
    CountingTransport transport(&cloud);
    auto phone = MakeCellOn("alice-phone", &cloud, &directory, &clock,
                            &transport);
    const std::vector<std::string> docs =
        StoreAndPush(*gateway, "alice", documents);
    ASSERT_TRUE(phone->SyncPull().ok());

    const uint64_t bytes_before = cloud.stats().bytes_in;
    const uint64_t puts_before = cloud.stats().blob_puts;
    ASSERT_TRUE(gateway->UpdateDocumentAtomic(docs[documents / 3],
                                              Bytes(1024, 0x5a))
                    .ok());
    const uint64_t committed = cloud.stats().bytes_in - bytes_before;
    EXPECT_EQ(cloud.stats().blob_puts - puts_before, 3u);
    EXPECT_LE(committed, documents == 64 ? 6u * 1024 : 16u * 1024);

    const uint64_t gets_before = transport.gets;
    ASSERT_TRUE(phone->SyncPull().ok());
    EXPECT_EQ(transport.gets - gets_before, 2u);  // The root + one segment.
    EXPECT_EQ(*phone->FetchDocument(docs[documents / 3]), Bytes(1024, 0x5a));
    EXPECT_TRUE(gateway->incidents().empty());
    EXPECT_TRUE(phone->incidents().empty());
  }
}

TEST(ManifestSegmentTest, EveryUpdateInARowCommitsOneSegment) {
  // An update holds its slot under the id SaveMeta gives the new entry, so
  // the next update, wherever its slot, does not rewrite that slot again.
  SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
  cloud::CloudInfrastructure cloud;
  CellDirectory directory;
  auto gateway = MakeCellOn("alice-gateway", &cloud, &directory, &clock,
                            nullptr);
  const std::vector<std::string> docs = StoreAndPush(*gateway, "alice", 64);
  for (int i = 0; i < 8; ++i) {
    const uint64_t puts_before = cloud.stats().blob_puts;
    ASSERT_TRUE(
        gateway->UpdateDocumentAtomic(docs[i * 7], ToBytes("v2")).ok());
    // The document, its slot's segment and the root.
    EXPECT_EQ(cloud.stats().blob_puts - puts_before, 3u) << "update " << i;
  }
}

TEST(ManifestSegmentTest, APushAfterAProposalWritesOnlyTheRoot) {
  // A proposal lists its document for a moment (the store) and then not
  // (pending): the slot lists what its held segment lists, so the push
  // writes no segment.
  SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
  cloud::CloudInfrastructure cloud;
  CellDirectory directory;
  auto gateway = MakeCellOn("alice-gateway", &cloud, &directory, &clock,
                            nullptr);
  auto bob = MakeCellOn("bob-phone", &cloud, &directory, &clock, nullptr,
                        "bob");
  StoreAndPush(*gateway, "alice", 3);
  ASSERT_TRUE(gateway
                  ->ProposeDocumentReferencing("bob-phone", "with bob",
                                               "photo", ToBytes("jpeg"),
                                               MakeOwnerPolicy("alice"))
                  .ok());
  const uint64_t puts_before = cloud.stats().blob_puts;
  ASSERT_TRUE(gateway->SyncPush().ok());
  EXPECT_EQ(cloud.stats().blob_puts - puts_before, 1u);  // The root.
  EXPECT_EQ(SegmentIds(cloud, "alice").size(), 1u);
}

TEST(ManifestSegmentTest, ASlotALaggingSiblingOverwroteIsRewrittenByTheNextPush) {
  // Three documents share the one slot. The gateway updates docs[1]
  // without pulling the phone's update of docs[0], so its segment names
  // docs[0] at version 1. The phone's pull keeps its newer entry and the
  // slot dirty; its push writes the slot back.
  SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
  cloud::CloudInfrastructure cloud;
  CellDirectory directory;
  auto gateway = MakeCellOn("alice-gateway", &cloud, &directory, &clock,
                            nullptr);
  auto phone = MakeCellOn("alice-phone", &cloud, &directory, &clock, nullptr);
  const std::vector<std::string> docs = StoreAndPush(*gateway, "alice", 3);
  ASSERT_EQ(SegmentIds(cloud, "alice").size(), 1u);
  ASSERT_TRUE(phone->SyncPull().ok());
  ASSERT_TRUE(phone->UpdateDocumentAtomic(docs[0], ToBytes("phone v2")).ok());
  ASSERT_TRUE(
      gateway->UpdateDocumentAtomic(docs[1], ToBytes("gateway v2")).ok());

  ASSERT_TRUE(phone->SyncPull().ok());
  ASSERT_TRUE(phone->SyncPush().ok());

  auto tablet = MakeCellOn("alice-tablet", &cloud, &directory, &clock,
                           nullptr);
  ASSERT_TRUE(tablet->SyncPull().ok());
  ASSERT_EQ(tablet->GetDocumentMeta(docs[0])->version, 2u);
  EXPECT_EQ(*tablet->FetchDocument(docs[0]), ToBytes("phone v2"));
  EXPECT_EQ(*tablet->FetchDocument(docs[1]), ToBytes("gateway v2"));
  for (const TrustedCell* cell : {gateway.get(), phone.get(), tablet.get()}) {
    EXPECT_TRUE(cell->incidents().empty()) << cell->id();
  }
}

TEST(ManifestSegmentTest, ASlotTheRootOmitsIsRewrittenByASiblingThatListsIt) {
  // The gateway reads, and so forgets, every document of one slot: its
  // push drops the slot from the root. The phone still lists them; its
  // pull keeps the slot dirty and its push writes the slot back.
  SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
  cloud::CloudInfrastructure cloud;
  CellDirectory directory;
  auto gateway = MakeCellOn("alice-gateway", &cloud, &directory, &clock,
                            nullptr);
  auto phone = MakeCellOn("alice-phone", &cloud, &directory, &clock, nullptr);
  Policy burn = MakeOwnerPolicy("alice");
  burn.rules[0].obligations = {ObligationType::kDeleteAfterUse};
  std::vector<std::string> docs;
  for (int i = 0; i < 8; ++i) {
    auto doc = gateway->StoreDocument("doc " + std::to_string(i), "common",
                                      ToBytes("v1 " + std::to_string(i)),
                                      burn);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    docs.push_back(*doc);
  }
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(phone->SyncPull().ok());
  // Eight documents take two slots, picked by a doc id's top bit.
  std::vector<std::string> high;
  for (const std::string& doc : docs) {
    if (doc[0] >= '8') high.push_back(doc);
  }
  ASSERT_EQ(SegmentIds(cloud, "alice").size(), 2u);
  // Forgetting them keeps at least five listed, so the root keeps 2 slots.
  ASSERT_GE(high.size(), 1u);
  ASSERT_LE(high.size(), 3u);
  for (const std::string& doc : high) {
    ASSERT_TRUE(gateway->FetchDocument(doc).ok());
  }
  ASSERT_TRUE(gateway->SyncPush().ok());

  ASSERT_TRUE(phone->SyncPull().ok());
  ASSERT_TRUE(phone->SyncPush().ok());

  auto tablet = MakeCellOn("alice-tablet", &cloud, &directory, &clock,
                           nullptr);
  ASSERT_TRUE(tablet->SyncPull().ok());
  EXPECT_EQ(tablet->ListDocuments().size(), docs.size());
  EXPECT_EQ(*tablet->FetchDocument(high[0]), ToBytes("v1 " + std::to_string(
      std::find(docs.begin(), docs.end(), high[0]) - docs.begin())));
  for (const TrustedCell* cell : {gateway.get(), phone.get(), tablet.get()}) {
    EXPECT_TRUE(cell->incidents().empty()) << cell->id();
  }
}

}  // namespace
}  // namespace tc::cell
