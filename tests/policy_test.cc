#include <gtest/gtest.h>

#include "tc/common/clock.h"
#include "tc/common/codec.h"
#include "tc/crypto/sha256.h"
#include "tc/policy/audit.h"
#include "tc/policy/sticky_policy.h"
#include "tc/policy/ucon.h"

namespace tc::policy {
namespace {

// Footnote 6 of the paper: "a photo could be accessed ten times
// (mutability), in the course of 2012 (condition), informing the owner of
// the precise access date (obligation)".
Policy Footnote6Policy() {
  UsageRule rule;
  rule.id = "photo-rule";
  rule.subjects = {"bob"};
  rule.rights = {Right::kRead};
  rule.not_before = MakeTimestamp(2012, 1, 1);
  rule.not_after = MakeTimestamp(2012, 12, 31, 23, 59, 59);
  rule.max_uses = 10;
  rule.obligations = {ObligationType::kNotifyOwner,
                      ObligationType::kLogAccess};
  Policy p;
  p.id = "photo-policy";
  p.owner = "alice";
  p.rules = {rule};
  return p;
}

TEST(UconTest, Footnote6AllowsTenReadsIn2012) {
  Policy p = Footnote6Policy();
  DecisionPoint pdp;
  AccessRequest req{"bob", Right::kRead, {}, MakeTimestamp(2012, 6, 1)};
  for (int i = 0; i < 10; ++i) {
    Decision d = pdp.EvaluateAndConsume(p, req);
    EXPECT_TRUE(d.allowed) << "access " << i;
    EXPECT_EQ(d.rule_id, "photo-rule");
    ASSERT_EQ(d.obligations.size(), 2u);
  }
  // Eleventh access: mutability quota exhausted.
  Decision d = pdp.EvaluateAndConsume(p, req);
  EXPECT_FALSE(d.allowed);
  EXPECT_NE(d.reason.find("quota"), std::string::npos);
  EXPECT_EQ(pdp.UseCount("photo-policy", "photo-rule", "bob"), 10u);
}

TEST(UconTest, ConditionTimeWindowEnforced) {
  Policy p = Footnote6Policy();
  DecisionPoint pdp;
  // 2013: outside the validity window.
  AccessRequest req{"bob", Right::kRead, {}, MakeTimestamp(2013, 1, 1)};
  EXPECT_FALSE(pdp.EvaluateAndConsume(p, req).allowed);
  // 2011: before the window.
  req.now = MakeTimestamp(2011, 12, 31);
  EXPECT_FALSE(pdp.EvaluateAndConsume(p, req).allowed);
  // Denied attempts must not consume quota.
  EXPECT_EQ(pdp.UseCount("photo-policy", "photo-rule", "bob"), 0u);
}

TEST(UconTest, SubjectAndRightFiltering) {
  Policy p = Footnote6Policy();
  DecisionPoint pdp;
  AccessRequest wrong_subject{"carol", Right::kRead, {},
                              MakeTimestamp(2012, 6, 1)};
  EXPECT_FALSE(pdp.EvaluateAndConsume(p, wrong_subject).allowed);
  AccessRequest wrong_right{"bob", Right::kShare, {},
                            MakeTimestamp(2012, 6, 1)};
  EXPECT_FALSE(pdp.EvaluateAndConsume(p, wrong_right).allowed);
}

TEST(UconTest, AttributeConditions) {
  UsageRule rule;
  rule.id = "adults-from-home";
  rule.rights = {Right::kRead};
  rule.conditions = {
      AttributeCondition{"age", ConditionOp::kGe, PolicyValue(int64_t{18})},
      AttributeCondition{"location", ConditionOp::kEq,
                         PolicyValue(std::string("home"))}};
  Policy p{"attr-policy", "alice", {rule}};
  DecisionPoint pdp;

  Attributes ok_attrs{{"age", PolicyValue(int64_t{30})},
                      {"location", PolicyValue(std::string("home"))}};
  EXPECT_TRUE(pdp.EvaluateAndConsume(p, {"any", Right::kRead, ok_attrs, 0})
                  .allowed);

  Attributes minor{{"age", PolicyValue(int64_t{12})},
                   {"location", PolicyValue(std::string("home"))}};
  EXPECT_FALSE(
      pdp.EvaluateAndConsume(p, {"any", Right::kRead, minor, 0}).allowed);

  Attributes away{{"age", PolicyValue(int64_t{30})},
                  {"location", PolicyValue(std::string("cafe"))}};
  EXPECT_FALSE(
      pdp.EvaluateAndConsume(p, {"any", Right::kRead, away, 0}).allowed);

  // Missing attribute -> deny.
  EXPECT_FALSE(pdp.EvaluateAndConsume(p, {"any", Right::kRead, {}, 0}).allowed);
}

TEST(UconTest, FirstMatchingRuleWins) {
  UsageRule narrow;
  narrow.id = "bob-limited";
  narrow.subjects = {"bob"};
  narrow.rights = {Right::kRead};
  narrow.max_uses = 1;
  UsageRule broad;
  broad.id = "anyone";
  broad.rights = {Right::kRead};
  Policy p{"pol", "alice", {narrow, broad}};
  DecisionPoint pdp;
  AccessRequest req{"bob", Right::kRead, {}, 0};
  EXPECT_EQ(pdp.EvaluateAndConsume(p, req).rule_id, "bob-limited");
  // Quota used up -> falls through to the broad rule.
  EXPECT_EQ(pdp.EvaluateAndConsume(p, req).rule_id, "anyone");
}

TEST(UconTest, PeekDoesNotConsume) {
  Policy p = Footnote6Policy();
  DecisionPoint pdp;
  AccessRequest req{"bob", Right::kRead, {}, MakeTimestamp(2012, 3, 1)};
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(pdp.Peek(p, req).allowed);
  EXPECT_EQ(pdp.UseCount("photo-policy", "photo-rule", "bob"), 0u);
}

TEST(UconTest, StateExportImportRoundTrip) {
  Policy p = Footnote6Policy();
  DecisionPoint pdp;
  AccessRequest req{"bob", Right::kRead, {}, MakeTimestamp(2012, 3, 1)};
  for (int i = 0; i < 7; ++i) (void)pdp.EvaluateAndConsume(p, req);

  DecisionPoint restored;
  ASSERT_TRUE(restored.ImportState(pdp.ExportState()).ok());
  EXPECT_EQ(restored.UseCount("photo-policy", "photo-rule", "bob"), 7u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(restored.EvaluateAndConsume(p, req).allowed);
  }
  EXPECT_FALSE(restored.EvaluateAndConsume(p, req).allowed);
}

TEST(UconTest, PolicySerializationRoundTrip) {
  Policy p = Footnote6Policy();
  auto back = Policy::Deserialize(p.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, p.id);
  EXPECT_EQ(back->owner, p.owner);
  ASSERT_EQ(back->rules.size(), 1u);
  EXPECT_EQ(back->rules[0].max_uses, 10u);
  EXPECT_EQ(back->rules[0].obligations.size(), 2u);
  EXPECT_EQ(back->Hash(), p.Hash());
}

TEST(StickyPolicyTest, BindVerifyRoundTrip) {
  Policy p = Footnote6Policy();
  Bytes key(32, 0x42);
  Bytes envelope = StickyPolicy::Bind(p, "doc-1", key);
  auto back = StickyPolicy::VerifyAndExtract(envelope, "doc-1", key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, p.id);
  EXPECT_EQ(*StickyPolicy::PeekPolicyHash(envelope), p.Hash());
}

TEST(StickyPolicyTest, SwappedPolicyDetected) {
  Policy strict = Footnote6Policy();
  Policy lax = strict;
  lax.rules[0].max_uses = 0;  // Unlimited.
  Bytes key(32, 0x42);
  Bytes strict_env = StickyPolicy::Bind(strict, "doc-1", key);
  Bytes lax_env = StickyPolicy::Bind(lax, "doc-1", key);

  // An adversary without the key cannot re-MAC a lax policy.
  Bytes forged_key(32, 0x13);
  Bytes forged = StickyPolicy::Bind(lax, "doc-1", forged_key);
  EXPECT_TRUE(StickyPolicy::VerifyAndExtract(forged, "doc-1", key)
                  .status()
                  .IsIntegrityViolation());
  // Envelope bound to a different object id fails too.
  EXPECT_TRUE(StickyPolicy::VerifyAndExtract(strict_env, "doc-2", key)
                  .status()
                  .IsIntegrityViolation());
  // The legitimate lax envelope (made by the key holder) verifies.
  EXPECT_TRUE(StickyPolicy::VerifyAndExtract(lax_env, "doc-1", key).ok());
}

TEST(StickyPolicyTest, BitFlipDetected) {
  Policy p = Footnote6Policy();
  Bytes key(32, 0x42);
  Bytes envelope = StickyPolicy::Bind(p, "doc-1", key);
  for (size_t pos : {size_t{20}, envelope.size() / 2, envelope.size() - 1}) {
    Bytes tampered = envelope;
    tampered[pos] ^= 1;
    EXPECT_FALSE(StickyPolicy::VerifyAndExtract(tampered, "doc-1", key).ok());
  }
}

// An allowed policy decision by subject "s" on object "o".
obs::AuditRecord Allowed(const std::string& action) {
  return {.subject = "s",
          .action = action,
          .object = "o",
          .allowed = true,
          .detail = ""};
}

TEST(AuditLogTest, AppendExportVerify) {
  tee::TrustedExecutionEnvironment tee("audit-cell",
                                       tee::DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("audit").ok());
  AuditLog log(&tee, "audit");
  for (int i = 0; i < 5; ++i) {
    log.journal().Append({.time = 1000 + i,
                          .subject = "bob",
                          .action = "read",
                          .object = "doc-" + std::to_string(i),
                          .allowed = i % 2 == 0,
                          .detail = "rule-x"});
  }
  auto exported = log.Export();
  ASSERT_TRUE(exported.ok());
  auto entries = AuditLog::VerifyAndDecrypt(*exported, &tee, "audit", 5);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 5u);
  EXPECT_EQ((*entries)[3].object, "doc-3");
  EXPECT_EQ((*entries)[3].index, 3u);
  EXPECT_FALSE((*entries)[3].allowed);
  EXPECT_EQ((*entries)[3].kind, obs::AuditKind::kPolicyDecision);
}

// A 63-record journal, pinned by the SHA-256 of its stream and by its head.
// The pins were taken at 0e595a5, whose journal signed a checkpoint into
// the chain on every 64th record: below that, the record items and the
// chain are the same bytes with or without in-chain checkpoints.
TEST(AuditLogTest, SixtyThreeRecordJournalIsPinned) {
  tee::TrustedExecutionEnvironment tee("audit-pin",
                                       tee::DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("audit").ok());
  AuditLog log(&tee, "audit");
  auto numbered = [](std::string prefix, int n) {
    return prefix += std::to_string(n);
  };
  for (int i = 0; i < 63; ++i) {
    log.journal().Append({.time = 1000 + i,
                          .kind = static_cast<obs::AuditKind>(1 + i % 5),
                          .subject = numbered("s", i % 7),
                          .action = i % 2 == 0 ? "read" : "share",
                          .object = numbered("doc-", i),
                          .allowed = i % 3 != 0,
                          .detail = numbered("rule-", i % 4)});
  }
  EXPECT_EQ(HexEncode(crypto::Sha256Hash(log.journal().Export())),
            "8fefa4574460e3d1ed61e27d4f9cde6157358b0e5ae3c1158763a4ccdfbecc13");
  EXPECT_EQ(HexEncode(log.journal().head()),
            "0ec0352f4c006bf64164b4046215ee882323b8e11e4746eef480442819da905c");
}

// An export's fields: magic | count | chain head | sealed journal | quote.
struct ExportFields {
  std::string magic;
  uint64_t count = 0;
  Bytes head, sealed, quote;
};

ExportFields SplitExport(const Bytes& exported) {
  ExportFields f;
  TC_CHECK(
      Decode(exported, &f.magic, &f.count, &f.head, &f.sealed, &f.quote).ok());
  return f;
}

Bytes JoinExport(const ExportFields& f) {
  return Encode(f.magic, f.count, f.head, f.sealed, f.quote);
}

TEST(AuditLogTest, ExportCarriesOneQuoteOverItsHeadAndCount) {
  tee::Manufacturer maker("audit-maker");
  tee::TrustedExecutionEnvironment tee("audit-cell5",
                                       tee::DeviceClass::kSmartPhone);
  tee.InstallEndorsement(
      maker.Endorse("audit-cell5", tee.signing_public_key()));
  ASSERT_TRUE(tee.keystore().GenerateKey("audit").ok());
  AuditLog log(&tee, "audit");
  for (int i = 0; i < 3; ++i) log.journal().Append(Allowed("read"));
  auto exported = log.Export();
  ASSERT_TRUE(exported.ok());
  const ExportFields fields = SplitExport(*exported);
  EXPECT_EQ(fields.magic, "tc.audit.export.v3");
  EXPECT_EQ(fields.count, 3u);
  EXPECT_EQ(fields.head, log.head_hash());
  auto quote = DeserializeQuote(fields.quote);
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(quote->nonce, log.head_hash());
  EXPECT_EQ(quote->claims, "tc.audit.export.3");

  // The caller's check sees that quote; the manufacturer's endorsement
  // accepts it, another manufacturer's does not.
  EXPECT_TRUE(AuditLog::VerifyAndDecrypt(*exported, &tee, "audit", 3,
                                         EndorsedQuoteCheck(tee.endorsement(),
                                                            maker))
                  .ok());
  tee::Manufacturer other("other-maker");
  EXPECT_TRUE(AuditLog::VerifyAndDecrypt(*exported, &tee, "audit", 3,
                                         EndorsedQuoteCheck(tee.endorsement(),
                                                            other))
                  .status()
                  .IsIntegrityViolation());
}

TEST(AuditLogTest, QuoteBindingAnotherHeadOrCountRefused) {
  tee::TrustedExecutionEnvironment tee("audit-cell6",
                                       tee::DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("audit").ok());
  AuditLog log(&tee, "audit");
  for (int i = 0; i < 3; ++i) log.journal().Append(Allowed("read"));
  auto exported = log.Export();
  ASSERT_TRUE(exported.ok());
  ASSERT_TRUE(AuditLog::VerifyAndDecrypt(*exported, &tee, "audit", 3).ok());
  const ExportFields honest = SplitExport(*exported);

  // Signed by the right TEE, over the wrong anchors: the seal still opens,
  // so only the quote's own check can refuse it.
  Bytes other_head = honest.head;
  other_head[0] ^= 1;
  for (const tee::Quote& quote :
       {tee.GenerateQuote(other_head, "tc.audit.export.3"),
        tee.GenerateQuote(honest.head, "tc.audit.export.4"),
        tee.GenerateQuote(honest.head, "tc.audit.checkpoint.3")}) {
    ExportFields forged = honest;
    forged.quote = SerializeQuote(quote);
    EXPECT_TRUE(AuditLog::VerifyAndDecrypt(JoinExport(forged), &tee, "audit")
                    .status()
                    .IsIntegrityViolation())
        << quote.claims;
  }
}

TEST(AuditLogTest, TamperedEntryDetected) {
  tee::TrustedExecutionEnvironment tee("audit-cell2",
                                       tee::DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("audit").ok());
  AuditLog log(&tee, "audit");
  for (int i = 0; i < 3; ++i) {
    log.journal().Append(Allowed("read"));
  }
  auto exported_or = log.Export();
  ASSERT_TRUE(exported_or.ok());
  Bytes exported = *exported_or;
  exported[exported.size() / 2] ^= 1;
  EXPECT_FALSE(
      AuditLog::VerifyAndDecrypt(exported, &tee, "audit", 3).ok());
}

TEST(AuditLogTest, TruncationDetected) {
  tee::TrustedExecutionEnvironment tee("audit-cell3",
                                       tee::DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("audit").ok());
  AuditLog log(&tee, "audit");
  for (int i = 0; i < 4; ++i) {
    log.journal().Append(Allowed("read"));
  }
  // A provider that drops the last (incriminating) entry is caught by the
  // expected count.
  AuditLog shorter(&tee, "audit");
  for (int i = 0; i < 3; ++i) {
    shorter.journal().Append(Allowed("read"));
  }
  auto short_export = shorter.Export();
  ASSERT_TRUE(short_export.ok());
  EXPECT_TRUE(AuditLog::VerifyAndDecrypt(*short_export, &tee, "audit", 4)
                  .status()
                  .IsIntegrityViolation());
}

TEST(AuditLogTest, InsiderResealReorderingDetected) {
  // The strongest adversary for the export format: an *insider holding the
  // AEAD key* who opens the sealed journal, swaps two records, and
  // re-seals under the original associated data. The AEAD accepts the
  // forgery (right key, right AAD) — the hash-chain walk against the
  // sealed-in anchors is what must catch it.
  tee::TrustedExecutionEnvironment tee("audit-cell4",
                                       tee::DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("audit").ok());
  AuditLog log(&tee, "audit");
  for (int i = 0; i < 3; ++i) {
    log.journal().Append(Allowed("a" + std::to_string(i)));
  }
  auto exported_or = log.Export();
  ASSERT_TRUE(exported_or.ok());

  // Open the sealed journal under the export's associated data, built by
  // hand: "tc.audit.v2" | count | chain head.
  ExportFields fields = SplitExport(*exported_or);
  ASSERT_EQ(fields.magic, "tc.audit.export.v3");
  BinaryWriter aad_writer;
  aad_writer.PutString("tc.audit.v2");
  aad_writer.PutU64(fields.count);
  aad_writer.PutBytes(fields.head);
  const Bytes aad = aad_writer.Take();
  auto stream = tee.Open("audit", aad, fields.sealed);
  ASSERT_TRUE(stream.ok());

  // Swap the first two journal items and re-seal under the same AAD.
  BinaryReader js(*stream);
  ASSERT_EQ(*js.GetString(), "tc.obs.journal.v1");
  uint64_t items = *js.GetVarint();
  ASSERT_GE(items, 2u);
  std::vector<std::pair<uint8_t, Bytes>> parsed;
  for (uint64_t i = 0; i < items; ++i) {
    uint8_t tag = *js.GetU8();
    parsed.emplace_back(tag, *js.GetBytes());
  }
  std::swap(parsed[0], parsed[1]);
  BinaryWriter spliced;
  spliced.PutString("tc.obs.journal.v1");
  spliced.PutVarint(items);
  for (const auto& [tag, payload] : parsed) {
    spliced.PutU8(tag);
    spliced.PutBytes(payload);
  }
  auto resealed = tee.Seal("audit", aad, spliced.Take());
  ASSERT_TRUE(resealed.ok());
  // The original quote still names the original head and count, so only
  // the chain walk can catch the splice.
  fields.sealed = *resealed;
  Status verdict =
      AuditLog::VerifyAndDecrypt(JoinExport(fields), &tee, "audit", 3)
          .status();
  EXPECT_TRUE(verdict.IsIntegrityViolation());
  EXPECT_NE(verdict.message().find("audit journal verify"), std::string::npos)
      << verdict.ToString();
}

}  // namespace
}  // namespace tc::policy
