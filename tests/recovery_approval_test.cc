#include <gtest/gtest.h>

#include <memory>

#include "tc/cell/cell.h"

namespace tc::cell {
namespace {

class RecoveryApprovalTest : public ::testing::Test {
 protected:
  void SetUp() override { clock_.Set(MakeTimestamp(2013, 4, 1, 10, 0, 0)); }

  std::unique_ptr<TrustedCell> MakeCell(const std::string& id,
                                        const std::string& owner,
                                        const std::string& enrollment = "") {
    TrustedCell::Config config;
    config.cell_id = id;
    config.owner = owner;
    config.device_class = tee::DeviceClass::kSmartPhone;
    config.enrollment_secret = enrollment;
    auto cell = TrustedCell::Create(config, &cloud_, &directory_, &clock_);
    TC_CHECK(cell.ok());
    return std::move(*cell);
  }

  SimulatedClock clock_;
  cloud::CloudInfrastructure cloud_;
  CellDirectory directory_;
};

TEST_F(RecoveryApprovalTest, GuardianRecoveryRestoresAccess) {
  // Alice's phone (with the correct enrollment secret) stores data and
  // escrows her master key to three guardians, threshold 2.
  auto alice = MakeCell("alice-phone", "alice", "correct-horse");
  auto g1 = MakeCell("guardian-1", "gw1");
  auto g2 = MakeCell("guardian-2", "gw2");
  auto g3 = MakeCell("guardian-3", "gw3");

  auto doc = *alice->StoreDocument("will", "important testament",
                                   ToBytes("my last will"),
                                   MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice->SyncPush().ok());
  ASSERT_TRUE(
      alice->EnrollGuardians({"guardian-1", "guardian-2", "guardian-3"}, 2)
          .ok());
  for (auto* g : {&g1, &g2, &g3}) {
    ASSERT_TRUE((*g)->ProcessInbox().ok());
    EXPECT_TRUE((*g)->HoldsGuardianShareFor("alice"));
  }

  // The phone is lost. Alice gets a new device but has forgotten her
  // enrollment secret — the provisional master cannot decrypt her space.
  auto replacement = MakeCell("alice-new-phone", "alice", "");
  // The provisional master cannot even open the manifest.
  EXPECT_FALSE(replacement->SyncPull().ok());
  EXPECT_FALSE(replacement->FetchDocument(doc).ok());

  // Two guardians release their shares to the new device.
  ASSERT_TRUE(g1->ReleaseGuardianShare("alice", "alice-new-phone").ok());
  ASSERT_TRUE(g3->ReleaseGuardianShare("alice", "alice-new-phone").ok());
  ASSERT_TRUE(replacement->ProcessInbox().ok());
  auto shares = replacement->TakeMessages("recovery-share");
  ASSERT_EQ(shares.size(), 2u);
  auto used = replacement->CompleteRecovery(shares);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, 2);

  // With the recovered master, the new cell decrypts the personal space.
  ASSERT_TRUE(replacement->SyncPull().ok());
  auto content = replacement->FetchDocument(doc);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, ToBytes("my last will"));
}

TEST_F(RecoveryApprovalTest, MalformedRecoveryShareIsAnIncidentNotAFailure) {
  auto alice = MakeCell("alice-phone", "alice", "correct-horse");
  auto g1 = MakeCell("guardian-1", "gw1");
  auto g2 = MakeCell("guardian-2", "gw2");
  auto g3 = MakeCell("guardian-3", "gw3");
  auto doc = *alice->StoreDocument("will", "important testament",
                                   ToBytes("my last will"),
                                   MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice->SyncPush().ok());
  ASSERT_TRUE(
      alice->EnrollGuardians({"guardian-1", "guardian-2", "guardian-3"}, 2)
          .ok());
  for (auto* g : {&g1, &g2, &g3}) ASSERT_TRUE((*g)->ProcessInbox().ok());

  // Anyone can put bytes on the bus: a share that does not decode arrives
  // ahead of two genuine releases.
  auto replacement = MakeCell("alice-new-phone", "alice", "");
  cloud_.Send("guardian-2", "alice-new-phone", "recovery-share", Bytes{0xff});
  ASSERT_TRUE(g1->ReleaseGuardianShare("alice", "alice-new-phone").ok());
  ASSERT_TRUE(g3->ReleaseGuardianShare("alice", "alice-new-phone").ok());
  ASSERT_TRUE(replacement->ProcessInbox().ok());
  auto shares = replacement->TakeMessages("recovery-share");
  ASSERT_EQ(shares.size(), 3u);
  const size_t incidents_before = replacement->incidents().size();
  auto used = replacement->CompleteRecovery(shares);
  ASSERT_TRUE(used.ok()) << used.status().ToString();
  EXPECT_EQ(*used, 2);
  EXPECT_EQ(replacement->incidents().size(), incidents_before + 1);

  ASSERT_TRUE(replacement->SyncPull().ok());
  auto content = replacement->FetchDocument(doc);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_EQ(*content, ToBytes("my last will"));
}

TEST_F(RecoveryApprovalTest, MalformedGuardianShareIsAnIncident) {
  auto alice = MakeCell("alice-phone", "alice", "secret");
  auto g1 = MakeCell("guardian-1", "gw1");
  cloud_.Send("alice-phone", "guardian-1", "guardian-share", Bytes{0xff});
  ASSERT_TRUE(alice->EnrollGuardians({"guardian-1"}, 1).ok());
  ASSERT_TRUE(g1->ProcessInbox().ok());
  EXPECT_EQ(g1->incidents().size(), 1u);
  // The genuine share behind it still installs.
  EXPECT_TRUE(g1->HoldsGuardianShareFor("alice"));
}

TEST_F(RecoveryApprovalTest, SingleShareIsUseless) {
  auto alice = MakeCell("alice-phone", "alice", "secret");
  auto g1 = MakeCell("guardian-1", "gw1");
  auto g2 = MakeCell("guardian-2", "gw2");
  auto doc = *alice->StoreDocument("d", "k", ToBytes("x"),
                                   MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice->SyncPush().ok());
  ASSERT_TRUE(alice->EnrollGuardians({"guardian-1", "guardian-2"}, 2).ok());
  ASSERT_TRUE(g1->ProcessInbox().ok());
  ASSERT_TRUE(g2->ProcessInbox().ok());

  auto replacement = MakeCell("alice-new", "alice", "");
  ASSERT_TRUE(g1->ReleaseGuardianShare("alice", "alice-new").ok());
  ASSERT_TRUE(replacement->ProcessInbox().ok());
  auto shares = replacement->TakeMessages("recovery-share");
  ASSERT_EQ(shares.size(), 1u);
  // Reconstruction from one share of a threshold-2 split yields garbage
  // (or an out-of-range point); either way the space stays locked.
  auto used = replacement->CompleteRecovery(shares);
  if (used.ok()) {
    ASSERT_TRUE(replacement->SyncPull().ok() ||
                !replacement->SyncPull().ok());
    EXPECT_FALSE(replacement->FetchDocument(doc).ok());
  }
}

TEST_F(RecoveryApprovalTest, GuardianCannotReadEscrowedSpace) {
  auto alice = MakeCell("alice-phone", "alice", "secret");
  auto g1 = MakeCell("guardian-1", "gw1");
  auto doc = *alice->StoreDocument("diary", "private", ToBytes("dear diary"),
                                   MakeOwnerPolicy("alice"));
  ASSERT_TRUE(alice->SyncPush().ok());
  ASSERT_TRUE(alice->EnrollGuardians({"guardian-1"}, 1).ok());
  ASSERT_TRUE(g1->ProcessInbox().ok());
  // The guardian holds a share (here even threshold 1!) but has no
  // metadata/key-derivation path registered for Alice's space documents —
  // and a well-behaved guardian cell's firmware only ever re-wraps it.
  // What we can assert mechanically: the share alone doesn't let the
  // guardian fetch Alice's document through its own API.
  EXPECT_FALSE(g1->FetchDocument(doc).ok());
}

TEST_F(RecoveryApprovalTest, ReleaseWithoutShareFails) {
  auto g1 = MakeCell("guardian-1", "gw1");
  auto someone = MakeCell("someone", "who");
  EXPECT_TRUE(
      g1->ReleaseGuardianShare("alice", "someone").IsNotFound());
}

TEST_F(RecoveryApprovalTest, ApprovalFlowApprove) {
  auto alice = MakeCell("alice-phone", "alice");
  auto bob = MakeCell("bob-phone", "bob");

  // Alice photographs Bob; the photo is pending until Bob approves.
  auto doc = alice->ProposeDocumentReferencing(
      "bob-phone", "Group photo", "photo group",
      ToBytes("[jpeg with bob in frame]"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(alice->FetchDocument(*doc).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(alice->ReadSharedDocument(*doc, "alice").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(alice->ShareDocument(*doc, "bob-phone",
                                 MakeOwnerPolicy("alice"))
                .code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(bob->ProcessInbox().ok());
  auto requests = bob->TakeMessages("approval-request");
  ASSERT_EQ(requests.size(), 1u);
  ASSERT_TRUE(bob->RespondToApproval(requests[0], true).ok());

  ASSERT_TRUE(alice->ProcessInbox().ok());
  auto result = alice->ProcessApprovalResponses();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->first, 1);
  EXPECT_EQ(result->second, 0);
  EXPECT_TRUE(alice->FetchDocument(*doc).ok());
}

TEST_F(RecoveryApprovalTest, ApprovalFlowReject) {
  auto alice = MakeCell("alice-phone", "alice");
  auto bob = MakeCell("bob-phone", "bob");
  auto doc = alice->ProposeDocumentReferencing(
      "bob-phone", "Embarrassing photo", "photo karaoke",
      ToBytes("[jpeg]"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(bob->ProcessInbox().ok());
  auto requests = bob->TakeMessages("approval-request");
  ASSERT_EQ(requests.size(), 1u);
  ASSERT_TRUE(bob->RespondToApproval(requests[0], false).ok());

  ASSERT_TRUE(alice->ProcessInbox().ok());
  auto result = alice->ProcessApprovalResponses();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->first, 0);
  EXPECT_EQ(result->second, 1);
  // The document is gone: metadata and keyword postings erased, key
  // destroyed.
  EXPECT_TRUE(alice->FetchDocument(*doc).status().IsNotFound());
  EXPECT_TRUE(alice->SearchDocuments("karaoke")->empty());
  EXPECT_TRUE(alice->database().keywords().Search("karaoke")->empty());
}

TEST_F(RecoveryApprovalTest, SiblingAdoptsAReferencingDocumentOnceApproved) {
  // Approval does not bump the version, and a sibling adopts only newer
  // versions: a pending document stays out of the manifest until approved.
  auto alice = MakeCell("alice-phone", "alice");
  auto tablet = MakeCell("alice-tablet", "alice");
  auto bob = MakeCell("bob-phone", "bob");
  auto doc = alice->ProposeDocumentReferencing(
      "bob-phone", "Group photo", "photo group",
      ToBytes("[jpeg with bob in frame]"), MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(alice->SyncPush().ok());
  ASSERT_TRUE(tablet->SyncPull().ok());
  EXPECT_TRUE(tablet->GetDocumentMeta(*doc).status().IsNotFound());

  ASSERT_TRUE(bob->ProcessInbox().ok());
  auto requests = bob->TakeMessages("approval-request");
  ASSERT_EQ(requests.size(), 1u);
  ASSERT_TRUE(bob->RespondToApproval(requests[0], true).ok());
  ASSERT_TRUE(alice->ProcessInbox().ok());
  auto result = alice->ProcessApprovalResponses();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->first, 1);
  ASSERT_TRUE(alice->SyncPush().ok());
  ASSERT_TRUE(tablet->SyncPull().ok());
  auto read = tablet->FetchDocument(*doc);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, ToBytes("[jpeg with bob in frame]"));
}

TEST_F(RecoveryApprovalTest, ApprovalSurvivesOnlyForPending) {
  auto alice = MakeCell("alice-phone", "alice");
  auto bob = MakeCell("bob-phone", "bob");
  auto doc = alice->ProposeDocumentReferencing(
      "bob-phone", "photo", "photo", ToBytes("[jpeg]"),
      MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(bob->ProcessInbox().ok());
  auto requests = bob->TakeMessages("approval-request");
  // Bob answers twice (client retry); the second response is a no-op.
  ASSERT_TRUE(bob->RespondToApproval(requests[0], true).ok());
  ASSERT_TRUE(bob->RespondToApproval(requests[0], false).ok());
  ASSERT_TRUE(alice->ProcessInbox().ok());
  auto result = alice->ProcessApprovalResponses();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->first, 1);
  EXPECT_EQ(result->second, 0);  // Second response ignored (not pending).
  EXPECT_TRUE(alice->FetchDocument(*doc).ok());
}

// The bus does not authenticate senders, so an approval response counts
// only when the cell that was asked signed it.
class ForgedApprovalTest : public RecoveryApprovalTest {
 protected:
  void SetUp() override {
    RecoveryApprovalTest::SetUp();
    alice_ = MakeCell("alice-phone", "alice");
    bob_ = MakeCell("bob-phone", "bob");
    mallory_ = MakeCell("mallory-phone", "mallory");
    auto doc = alice_->ProposeDocumentReferencing(
        "bob-phone", "Group photo", "photo group",
        ToBytes("[jpeg with bob in frame]"), MakeOwnerPolicy("alice"));
    ASSERT_TRUE(doc.ok());
    doc_ = *doc;
    ASSERT_TRUE(bob_->ProcessInbox().ok());
    auto requests = bob_->TakeMessages("approval-request");
    ASSERT_EQ(requests.size(), 1u);
    request_ = requests[0];
  }

  Result<std::pair<int, int>> AliceProcessesResponses() {
    TC_RETURN_IF_ERROR(alice_->ProcessInbox().status());
    return alice_->ProcessApprovalResponses();
  }

  std::unique_ptr<TrustedCell> alice_, bob_, mallory_;
  std::string doc_;
  cloud::Message request_;
};

TEST_F(ForgedApprovalTest, RejectionForgedUnderTheAskedCellsIdIsAnIncident) {
  // Mallory answers a copy of the request, and the bus delivers her answer
  // under bob-phone's id.
  ASSERT_TRUE(mallory_->RespondToApproval(request_, false).ok());
  for (const cloud::Message& m : cloud_.Receive("alice-phone")) {
    cloud_.Send("bob-phone", "alice-phone", m.topic, m.payload);
  }
  auto result = AliceProcessesResponses();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, std::make_pair(0, 0));
  EXPECT_EQ(alice_->FetchDocument(doc_).status().code(),
            StatusCode::kFailedPrecondition);  // Still pending, not erased.
  ASSERT_EQ(alice_->incidents().size(), 1u);
  EXPECT_EQ(alice_->incidents()[0].object_id, doc_);

  // Bob's own verdict still lands.
  ASSERT_TRUE(bob_->RespondToApproval(request_, true).ok());
  result = AliceProcessesResponses();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, std::make_pair(1, 0));
  EXPECT_TRUE(alice_->FetchDocument(doc_).ok());
}

TEST_F(ForgedApprovalTest, ApprovalFromACellNeverAskedIsAnIncident) {
  ASSERT_TRUE(mallory_->RespondToApproval(request_, true).ok());
  auto result = AliceProcessesResponses();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, std::make_pair(0, 0));
  EXPECT_EQ(alice_->FetchDocument(doc_).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(alice_->incidents().size(), 1u);
}

TEST_F(ForgedApprovalTest, MalformedResponseIsSkippedAndTheRestProcessed) {
  cloud_.Send("bob-phone", "alice-phone", "approval-response", Bytes{0xff});
  ASSERT_TRUE(bob_->RespondToApproval(request_, true).ok());
  auto result = AliceProcessesResponses();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, std::make_pair(1, 0));
  EXPECT_TRUE(alice_->FetchDocument(doc_).ok());
  EXPECT_EQ(alice_->incidents().size(), 1u);
}

}  // namespace
}  // namespace tc::cell
