// Cross-module scenario tests: the paper's composite use cases exercised
// end-to-end on the full platform (cells + cloud + sensors + compute).

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "tc/cell/cell.h"
#include "tc/compute/dp.h"
#include "tc/compute/kanon.h"
#include "tc/compute/secure_aggregation.h"
#include "tc/sensors/household.h"

namespace tc {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override { clock_.Set(MakeTimestamp(2013, 1, 14)); }

  std::unique_ptr<cell::TrustedCell> MakeCell(const std::string& id,
                                              const std::string& owner) {
    cell::TrustedCell::Config config;
    config.cell_id = id;
    config.owner = owner;
    config.device_class = tee::DeviceClass::kHomeGateway;
    config.flash.emplace();
    config.flash->page_size = 2048;
    config.flash->pages_per_block = 16;
    config.flash->block_count = 512;
    auto cell =
        cell::TrustedCell::Create(config, &cloud_, &directory_, &clock_);
    TC_CHECK(cell.ok());
    return std::move(*cell);
  }

  SimulatedClock clock_;
  cloud::CloudInfrastructure cloud_;
  cell::CellDirectory directory_;
};

// "time series at required granularity are securely exchanged with other
// trusted cells in their neighborhood to achieve consumption peak load
// shaving" — N gateways aggregate their evening peak privately.
TEST_F(ScenarioTest, NeighborhoodPeakShaving) {
  const int kHomes = 12;
  std::vector<std::unique_ptr<cell::TrustedCell>> gateways;
  std::vector<int64_t> true_peak_wh(kHomes, 0);
  Timestamp day_start = clock_.Now();

  for (int h = 0; h < kHomes; ++h) {
    auto gw = MakeCell("home-" + std::to_string(h), "family-" +
                       std::to_string(h));
    sensors::HouseholdSimulator::Config config;
    config.seed = 100 + h;
    sensors::HouseholdSimulator house(config);
    sensors::DayTrace day = house.SimulateDay(14);
    // Ingest only the evening peak hours (18:00-21:00) at 10 s resolution
    // to keep the test fast.
    for (int s = 18 * 3600; s < 21 * 3600; s += 10) {
      ASSERT_TRUE(
          gw->IngestReading("power", day_start + s, day.watts[s]).ok());
    }
    auto wh = gw->ProvideAggregateValue("power", day_start + 18 * 3600,
                                        day_start + 21 * 3600);
    ASSERT_TRUE(wh.ok());
    true_peak_wh[h] = *wh;
    gateways.push_back(std::move(gw));
  }

  // Private aggregation: each gateway contributes its peak-hours sum via
  // additive masking; the aggregator learns only the neighborhood total.
  std::vector<int64_t> contributions = true_peak_wh;
  auto channels = compute::SecureAggregation::PairwiseChannels::Setup(
      kHomes, /*use_real_dh=*/false, 77);
  Rng rng(5);
  auto outcome = compute::SecureAggregation::RunAdditiveMasking(
      cloud_, contributions, channels, /*round=*/14, /*dropout_rate=*/0.0,
      rng);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->sum, std::accumulate(true_peak_wh.begin(),
                                          true_peak_wh.end(), int64_t{0}));
  EXPECT_TRUE(outcome->privacy_preserving);
}

// "Larger-scale sharing brings public health insights (e.g.,
// epidemiological study cross-analyzing diseases and alimentation)" —
// cells contribute microdata under the kAggregate right; the release is
// k-anonymized and counts are perturbed with differential privacy.
TEST_F(ScenarioTest, EpidemiologicalRelease) {
  const int kPatients = 80;
  Rng rng(31);
  std::vector<compute::MicroRecord> cohort;
  const char* diseases[] = {"diabetes", "asthma", "none"};
  for (int i = 0; i < kPatients; ++i) {
    auto patient = MakeCell("patient-" + std::to_string(i) + "-cell",
                            "patient-" + std::to_string(i));
    compute::MicroRecord record{
        static_cast<int>(rng.NextInt(20, 80)),
        "75" + std::to_string(rng.NextInt(100, 115)),
        diseases[rng.NextBelow(3)]};
    // The record is held as a document in the patient's own cell...
    ASSERT_TRUE(patient
                    ->StoreDocument("medical record", "medical " +
                                        record.sensitive,
                                    ToBytes(record.sensitive),
                                    cell::MakeOwnerPolicy(patient->owner()))
                    .ok());
    // ...and (under the kAggregate right) contributed to the study.
    cohort.push_back(record);
  }

  auto release = compute::KAnonymizer::Anonymize(cohort, 10);
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(compute::KAnonymizer::IsKAnonymous(release->records, 10));

  // DP-perturbed disease counts on top of the anonymized release.
  std::map<std::string, int> exact;
  for (const auto& r : release->records) ++exact[r.sensitive];
  compute::PrivacyBudget budget(1.0);
  Rng noise(7);
  for (const auto& [disease, count] : exact) {
    ASSERT_TRUE(budget.Consume(0.3).ok());
    auto noisy = compute::DifferentialPrivacy::LaplaceMechanism(
        count, /*sensitivity=*/1.0, /*epsilon=*/0.3, noise);
    ASSERT_TRUE(noisy.ok());
    EXPECT_NEAR(*noisy, count, 40.0);  // Within plausible Laplace spread.
  }
  // The fourth query exhausts the budget: the cell refuses further
  // releases to this recipient.
  EXPECT_TRUE(budget.Consume(0.3).IsResourceExhausted());
}

// Re-sharing chain: A -> B (with kShare) -> C; audit flows back to A.
TEST_F(ScenarioTest, ReShareChainWithAccountability) {
  auto alice = MakeCell("alice-cell", "alice");
  auto bob = MakeCell("bob-cell", "bob");
  auto carol = MakeCell("carol-cell", "carol");

  Bytes content = ToBytes("conference slides draft");
  auto doc = *alice->StoreDocument("slides", "slides talk", content,
                                   cell::MakeOwnerPolicy("alice"));

  // Policy for Bob: read + re-share, audited.
  policy::UsageRule bob_rule;
  bob_rule.id = "bob-read-share";
  bob_rule.subjects = {"bob"};
  bob_rule.rights = {policy::Right::kRead, policy::Right::kShare};
  bob_rule.obligations = {policy::ObligationType::kLogAccess};
  ASSERT_TRUE(alice
                  ->ShareDocument(doc, "bob-cell",
                                  policy::Policy{"p1", "alice", {bob_rule}})
                  .ok());
  ASSERT_EQ(*bob->ProcessInbox(), 1);
  EXPECT_EQ(*bob->ReadSharedDocument(doc, "bob"), content);

  // Bob re-shares to Carol (allowed by kShare).
  policy::UsageRule carol_rule;
  carol_rule.id = "carol-read";
  carol_rule.subjects = {"carol"};
  carol_rule.rights = {policy::Right::kRead};
  carol_rule.max_uses = 1;
  carol_rule.obligations = {policy::ObligationType::kLogAccess};
  ASSERT_TRUE(bob->ShareDocument(doc, "carol-cell",
                                 policy::Policy{"p2", "bob", {carol_rule}})
                  .ok());
  ASSERT_EQ(*carol->ProcessInbox(), 1);
  EXPECT_EQ(*carol->ReadSharedDocument(doc, "carol"), content);
  // Carol's single use is consumed.
  EXPECT_TRUE(carol->ReadSharedDocument(doc, "carol")
                  .status()
                  .IsPermissionDenied());

  // Both downstream cells push their audit logs to Alice.
  ASSERT_TRUE(bob->PushAuditLog("alice-cell").ok());
  ASSERT_TRUE(carol->PushAuditLog("alice-cell").ok());
  (void)alice->ProcessInbox();
  auto pushes = alice->TakeMessages("audit-log");
  ASSERT_EQ(pushes.size(), 2u);
  int entries_total = 0;
  for (const auto& push : pushes) {
    auto entries = alice->VerifyAuditPush(push);
    ASSERT_TRUE(entries.ok());
    entries_total += static_cast<int>(entries->size());
  }
  EXPECT_GE(entries_total, 4);  // Bob: read+share; Carol: read + denied.
}

// A recipient without the kShare right cannot re-share.
TEST_F(ScenarioTest, ReShareWithoutRightDenied) {
  auto alice = MakeCell("alice-cell", "alice");
  auto bob = MakeCell("bob-cell", "bob");
  auto carol = MakeCell("carol-cell", "carol");
  auto doc = *alice->StoreDocument("d", "k", ToBytes("x"),
                                   cell::MakeOwnerPolicy("alice"));
  policy::UsageRule read_only;
  read_only.id = "bob-read";
  read_only.subjects = {"bob"};
  read_only.rights = {policy::Right::kRead};
  ASSERT_TRUE(alice
                  ->ShareDocument(doc, "bob-cell",
                                  policy::Policy{"p", "alice", {read_only}})
                  .ok());
  ASSERT_EQ(*bob->ProcessInbox(), 1);
  EXPECT_TRUE(bob->ShareDocument(doc, "carol-cell",
                                 cell::MakeOwnerPolicy("bob"))
                  .IsPermissionDenied());
}

// The "internet cafe" scenario: a cell keeps working against a cloud that
// is partially unreliable (drops some messages), and sharing retries
// converge.
TEST_F(ScenarioTest, SharingSurvivesLossyInfrastructure) {
  auto alice = MakeCell("alice-cell", "alice");
  auto bob = MakeCell("bob-cell", "bob");
  auto doc = *alice->StoreDocument("d", "k", ToBytes("payload"),
                                   cell::MakeOwnerPolicy("alice"));
  cloud::AdversaryConfig lossy;
  lossy.drop_message_prob = 0.5;
  lossy.seed = 13;
  cloud_.set_adversary(lossy);

  policy::UsageRule rule;
  rule.id = "bob";
  rule.subjects = {"bob"};
  rule.rights = {policy::Right::kRead};
  policy::Policy p{"p", "alice", {rule}};
  // Application-level retry until the grant arrives (each attempt is a
  // fresh grant id, so replays are no issue).
  int accepted = 0;
  for (int attempt = 0; attempt < 20 && accepted == 0; ++attempt) {
    ASSERT_TRUE(alice->ShareDocument(doc, "bob-cell", p).ok());
    accepted = *bob->ProcessInbox();
  }
  ASSERT_EQ(accepted, 1);
  EXPECT_EQ(*bob->ReadSharedDocument(doc, "bob"), ToBytes("payload"));
}

}  // namespace
}  // namespace tc
