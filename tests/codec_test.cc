// The one codec (tc/common/codec.h) and every record a cell stores, seals,
// signs or sends through it. Each record's fixture encodes to pinned bytes
// and decodes back to itself, and every record decoder survives truncation,
// byte flips and trailing bytes: it fails cleanly or returns a valid value,
// never crashing or over-reading (scripts/ci.sh runs this suite under
// ASan).
//
// The golden hex was generated by the hand-written encoders this codec
// replaced (commit 6b04ff6), from a one-off program built against that
// commit over these same fixtures; a sealed, signed or hashed record is
// pinned by the SHA-256 of its bytes. Matching it proves that every byte a
// cell stores or sends is unchanged.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tc/cell/cell.h"
#include "tc/common/codec.h"
#include "tc/compute/secure_aggregation.h"
#include "tc/crypto/sha256.h"
#include "tc/db/table.h"
#include "tc/net/outbox.h"
#include "tc/obs/audit_journal.h"
#include "tc/policy/audit.h"
#include "tc/policy/sticky_policy.h"
#include "tc/sensors/gps.h"
#include "tc/sensors/power_meter.h"
#include "tc/storage/page_transform.h"
#include "tc/tee/attestation.h"
#include "tc/tee/tee.h"

namespace tc {
namespace {

// ------------------------------------------------------------- fixtures

cell::DocumentMeta FixtureMeta() {
  cell::DocumentMeta m;
  m.doc_id = "d1";
  m.title = "Tax 2012";
  m.keywords = "tax bill";
  m.origin_owner = "alice";
  m.origin_cell = "";
  m.version = 3;
  m.size = 4096;
  m.created = 1364810400;
  m.policy_envelope = Bytes{1, 2, 3};
  m.blob_id = "space/alice/doc/d1";
  m.key_name = "dk/d1";
  m.pending_approval = true;
  return m;
}

crypto::SchnorrSignature FixtureSignature() {
  return crypto::SchnorrSignature{crypto::BigInt(0x1234),
                                  crypto::BigInt(0xbeef)};
}

cell::ShareGrant FixtureGrant() {
  cell::ShareGrant g;
  g.grant_id = "alice-phone/g0";
  g.doc_id = "d1";
  g.blob_id = "space/alice/doc/d1";
  g.origin_owner = "alice";
  g.version = 2;
  g.title = "Tax 2012";
  g.keywords = "tax";
  g.sender_cell = "alice-phone";
  g.recipient_cell = "bob-phone";
  g.policy_envelope = Bytes{7, 7};
  g.wrapped_key = Bytes{9, 8, 7};
  g.signature = FixtureSignature();
  return g;
}

net::OutboxRecord FixtureOutbox() {
  net::OutboxRecord r;
  r.seq = 7;
  r.token = "alice-phone|space/alice/doc/d1|v1|00ff";
  r.writes = {{"space/alice/doc/d1", Bytes{1, 2}},
              {"space/alice/manifest", Bytes{3}}};
  return r;
}

cell::ManifestRoot FixtureManifestRoot() {
  cell::ManifestRoot root;
  root.bits = 2;
  root.segments = {{1, Bytes(32, 0x11)}, {3, Bytes(32, 0x22)}};
  return root;
}

cell::ManifestSegment FixtureManifestSegment() {
  cell::DocumentMeta listed = FixtureMeta();
  listed.pending_approval = false;
  cell::ManifestSegment segment;
  segment.entries = {Encode(uint64_t{0}, listed), Bytes{7}};
  return segment;
}

obs::AuditRecord FixtureRecord() {
  return {.index = 42,
          .time = 1364810400,
          .kind = obs::AuditKind::kIncident,
          .subject = "alice-phone",
          .action = "payload_tampered",
          .object = "d1",
          .allowed = false,
          .detail = "AEAD failure",
          .trace_id = 7,
          .span_id = 9};
}

// Appended outside any trace span, so its trace ids are 0.
obs::AuditRecord JournalRecord(int i) {
  return {.time = 1000 + i,
          .kind = static_cast<obs::AuditKind>(1 + i % 5),
          .subject = "s" + std::to_string(i),
          .action = "read",
          .object = "o",
          .allowed = i % 2 == 0,
          .detail = ""};
}

Bytes FixtureJournalExport(const std::vector<obs::AuditRecord>& records) {
  obs::AuditJournal journal;
  for (const obs::AuditRecord& r : records) journal.Append(r);
  return journal.Export();
}

std::vector<obs::AuditRecord> JournalRecords() {
  return {JournalRecord(0), JournalRecord(1), JournalRecord(2)};
}

/// A TEE whose "audit-key" every audit-export fixture seals under.
std::unique_ptr<tee::TrustedExecutionEnvironment> AuditTee() {
  auto tee = std::make_unique<tee::TrustedExecutionEnvironment>(
      "pin-cell", tee::DeviceClass::kSmartPhone, 512);
  TC_CHECK(tee->keystore().ImportKey("audit-key", Bytes(32, 0x42)).ok());
  return tee;
}

Result<Bytes> FixtureAuditExport(const std::vector<obs::AuditRecord>& records) {
  auto tee = AuditTee();
  policy::AuditLog log(tee.get(), "audit-key");
  for (const obs::AuditRecord& r : records) log.journal().Append(r);
  return log.Export();
}

tee::Quote FixtureQuote() {
  tee::Quote q;
  q.device_id = "alice-phone";
  q.nonce = Bytes{1, 2, 3, 4};
  q.claims = "tc.audit.checkpoint.64";
  q.boot_counter = 5;
  q.signature = FixtureSignature();
  return q;
}

policy::Policy FixturePolicy() {
  policy::UsageRule rule;
  rule.id = "r1";
  rule.subjects = {"bob", "carol"};
  rule.rights = {policy::Right::kRead, policy::Right::kShare};
  rule.conditions = {
      {"home", policy::ConditionOp::kEq, policy::PolicyValue(true)},
      {"age", policy::ConditionOp::kGe, policy::PolicyValue(int64_t{18})},
      {"score", policy::ConditionOp::kLt, policy::PolicyValue(2.5)},
      {"city", policy::ConditionOp::kNe,
       policy::PolicyValue(std::string("paris"))}};
  rule.not_before = 100;
  rule.not_after = 200;
  rule.max_uses = 10;
  rule.obligations = {policy::ObligationType::kLogAccess,
                      policy::ObligationType::kNotifyOwner};
  policy::UsageRule open;
  open.id = "r2";
  policy::Policy p;
  p.id = "p1";
  p.owner = "alice";
  p.rules = {rule, open};
  return p;
}

Bytes FixtureMac(const Bytes& input) { return crypto::Sha256Hash(input); }

std::vector<db::Value> FixtureRow() {
  return {db::Value::Null(),        db::Value::Bool(true),
          db::Value::Int64(-5),     db::Value::Double(1.5),
          db::Value::String("kwh"), db::Value::Blob(Bytes{0xfe}),
          db::Value::TimestampVal(1364810400)};
}

db::Schema FixtureSchema() {
  return *db::Schema::Create({{"id", db::ValueType::kInt64, false},
                              {"label", db::ValueType::kString, true}});
}

std::string Digest(const Bytes& bytes) {
  return HexEncode(crypto::Sha256Hash(bytes));
}

// ---------------------------------------------------------------- cases

// One record: its bytes, the hex pinned for them (of the bytes, or of
// their SHA-256 when `digest`), and — where the record has a decoder —
// `round_trip`, which decodes and re-encodes.
struct RecordCase {
  std::string name;
  Bytes bytes;
  std::string golden_hex;
  std::function<Result<Bytes>(const Bytes&)> round_trip;
  bool digest = false;
};

// Decodes exactly `Fields` and encodes them again.
template <typename... Fields>
std::function<Result<Bytes>(const Bytes&)> FieldsRoundTrip() {
  return [](const Bytes& bytes) -> Result<Bytes> {
    std::tuple<Fields...> fields;
    TC_RETURN_IF_ERROR(std::apply(
        [&](auto&... f) { return Decode(bytes, &f...); }, fields));
    return std::apply([](const auto&... f) { return Encode(f...); }, fields);
  };
}

// Through a type's own Deserialize and Serialize.
template <typename T>
std::function<Result<Bytes>(const Bytes&)> SerializeRoundTrip() {
  return [](const Bytes& bytes) -> Result<Bytes> {
    TC_ASSIGN_OR_RETURN(T value, T::Deserialize(bytes));
    return value.Serialize();
  };
}

std::vector<RecordCase> EveryRecord() {
  const cell::ShareGrant grant = FixtureGrant();
  sensors::CertifiedAggregate meter;
  meter.meter_id = "linky-1";
  meter.day_index = 15800;
  meter.kwh = 12.25;
  sensors::PaydSummary payd;
  payd.tracker_id = "car-1";
  payd.day_index = 15800;
  payd.total_km = 42.5;
  payd.total_cost_cents = 315;
  payd.trip_count = 3;
  tee::Manufacturer maker("tc-silicon-vendor");
  const tee::Endorsement endorsement =
      maker.Endorse("alice-phone", crypto::BigInt(0x5eed));
  const auto signature_round_trip = [](const Bytes& bytes) -> Result<Bytes> {
    TC_ASSIGN_OR_RETURN(crypto::SchnorrSignature s,
                        crypto::SchnorrSignature::Deserialize(bytes));
    return s.Serialize(32);
  };

  std::vector<RecordCase> cases = {
      {"meta", Encode(uint64_t{7}, FixtureMeta()),
       "0700000000000000026431085461782032303132087461782062696c6c05616c"
       "6963650003000000000000000010000000000000a05a59510000000003010203"
       "1273706163652f616c6963652f646f632f643105646b2f643101",
       FieldsRoundTrip<uint64_t, cell::DocumentMeta>()},
      // The tc.manifest.v2 bodies, pinned from this codec when they were
      // introduced.
      {"manifest root body", Encode(FixtureManifestRoot()),
       "0200000002010000002011111111111111111111111111111111111111111111"
       "1111111111111111111103000000202222222222222222222222222222222222"
       "222222222222222222222222222222",
       FieldsRoundTrip<cell::ManifestRoot>()},
      {"manifest segment body", Encode(FixtureManifestSegment()),
       "025a000000000000000002643108546178203230313208746178206269"
       "6c6c05616c6963650003000000000000000010000000000000a05a5951"
       "00000000030102031273706163652f616c6963652f646f632f643105646b"
       "2f6431000107",
       FieldsRoundTrip<cell::ManifestSegment>()},
      {"grant signed payload", grant.SignedPayload(),
       "0b74632e6772616e742e76310e616c6963652d70686f6e652f67300264311273"
       "706163652f616c6963652f646f632f643105616c696365020000000000000008"
       "5461782032303132037461780b616c6963652d70686f6e6509626f622d70686f"
       "6e6502070703090807", nullptr},
      {"grant", grant.Serialize(),
       "690b74632e6772616e742e76310e616c6963652d70686f6e652f673002643112"
       "73706163652f616c6963652f646f632f643105616c6963650200000000000000"
       "085461782032303132037461780b616c6963652d70686f6e6509626f622d7068"
       "6f6e650207070309080742200000000000000000000000000000000000000000"
       "0000000000000000000012342000000000000000000000000000000000000000"
       "0000000000000000000000beef",
       SerializeRoundTrip<cell::ShareGrant>()},
      {"outbox record", FixtureOutbox().Serialize(),
       "1074632e6f7574626f782e74786e2e7631070000000000000026616c6963652d"
       "70686f6e657c73706163652f616c6963652f646f632f64317c76317c30306666"
       "021273706163652f616c6963652f646f632f64310201021473706163652f616c"
       "6963652f6d616e69666573740103",
       SerializeRoundTrip<net::OutboxRecord>()},
      {"audit record", FixtureRecord().Serialize(),
       "2a00000000000000a05a595100000000020b616c6963652d70686f6e65107061"
       "796c6f61645f74616d7065726564026431000c41454144206661696c75726507"
       "000000000000000900000000000000",
       SerializeRoundTrip<obs::AuditRecord>()},
      // The journal export pinned at 0e595a5 held a checkpoint item
      // (tag 0x02) after every second record: this is that hex with the
      // checkpoint item cut out and the item count changed from 4 to 3.
      {"journal export", FixtureJournalExport(JournalRecords()),
       "1174632e6f62732e6a6f75726e616c2e763103012d0000000000000000e80300"
       "0000000000010273300472656164016f01000000000000000000000000000000"
       "0000012d0100000000000000e903000000000000020273310472656164016f00"
       "0000000000000000000000000000000000012d0200000000000000ea03000000"
       "000000030273320472656164016f010000000000000000000000000000000000",
       [](const Bytes& bytes) -> Result<Bytes> {
         obs::AuditVerifyReport report = obs::AuditJournal::Verify(bytes);
         if (!report.ok) return Status::Corruption(report.error);
         return FixtureJournalExport(report.records);
       }},
      {"audit quote", policy::SerializeQuote(FixtureQuote()),
       "0b616c6963652d70686f6e6504010203041674632e61756469742e636865636b"
       "706f696e742e3634050000000000000042200000000000000000000000000000"
       "0000000000000000000000000000000012342000000000000000000000000000"
       "0000000000000000000000000000000000beef",
       [](const Bytes& bytes) -> Result<Bytes> {
         TC_ASSIGN_OR_RETURN(tee::Quote q, policy::DeserializeQuote(bytes));
         return policy::SerializeQuote(q);
       }},
      // Sealed before it is signed: every byte up to the quote is the
      // v2 export pinned at 0e595a5, but for the version digit of the
      // magic; the quote follows.
      {"audit export", *FixtureAuditExport(JournalRecords()),
       "1274632e61756469742e6578706f72742e76330300000000000000208fb42c82"
       "9995e0bddff6f2eb48898d73cd508752b0b0a6cc820b11513adb3b1ecc010a69"
       "498115c226c1ababeef1a20eae502569c72974ee2fd6bb7ff061fe785823f168"
       "4d46fc80b01bd04fd9b8a67538173f07df9b37b40722432052ab6602c86ef0fd"
       "21add15762500813cc8f4e9a7ef1d820248413359286314d7e6597b16f3fa853"
       "4de7e5c4a0358620c319ed5e5bccd242c395b6fcf2efb8f347e5ebc8df491986"
       "d60eb808a1150d6c5cb1ef3f503639b0c3b860358c96e00f6405bf809384902c"
       "9bc4dba8774c746dae816b48280d8e54a678e82dbf9c597a1432e2ac9d7da4c6"
       "d5757bf3610ee060be8c"
       // The quote: "pin-cell", nonce = the chain head, claims
       // "tc.audit.export.3", boot counter 0, signature.
       "87010870696e2d63656c6c208fb42c829995e0bddff6f2eb48898d73cd508752"
       "b0b0a6cc820b11513adb3b1e1174632e61756469742e6578706f72742e330000"
       "00000000000042203cb86f65032dda874a9b195bde71ecd22568f58a6fe07150"
       "74999c9f1b86d38e2038b13f8cfc4cbfdf09ac8ee6f714719f9911e9aabdf611"
       "41672d7e3179cc4a90",
       [](const Bytes& bytes) -> Result<Bytes> {
         // Opening draws nothing from the DRBG: one TEE opens every case.
         static const auto opener = AuditTee();
         TC_ASSIGN_OR_RETURN(
             std::vector<obs::AuditRecord> records,
             policy::AuditLog::VerifyAndDecrypt(bytes, opener.get(),
                                                "audit-key"));
         return FixtureAuditExport(records);
       }},
      {"policy", FixturePolicy().Serialize(),
       "0c74632e706f6c6963792e763102703105616c696365020272310203626f6205"
       "6361726f6c0201030404686f6d65000001036167650501120000000000000005"
       "73636f7265020200000000000004400463697479010305706172697364000000"
       "00000000c8000000000000000a00000000000000020102027232000000000000"
       "0000000000ffffffffffffff7f000000000000000000",
       SerializeRoundTrip<policy::Policy>()},
      {"sticky envelope",
       policy::StickyPolicy::BindWithMac(FixturePolicy(), "d1", FixtureMac),
       "0c74632e737469636b792e763196010c74632e706f6c6963792e763102703105"
       "616c696365020272310203626f62056361726f6c0201030404686f6d65000001"
       "03616765050112000000000000000573636f7265020200000000000004400463"
       "69747901030570617269736400000000000000c8000000000000000a00000000"
       "0000000201020272320000000000000000000000ffffffffffffff7f00000000"
       "000000000020a19ef5d4a76e425cb8a39e72fc126afa2db30c800d9b8f0d8ec6"
       "767d934735a1208fb4b027da4e29fb1175f44baa371d473d799bd357bccbb840"
       "f201c79c80a911",
       [](const Bytes& bytes) -> Result<Bytes> {
         TC_ASSIGN_OR_RETURN(policy::Policy p,
                             policy::StickyPolicy::VerifyAndExtractWithMac(
                                 bytes, "d1", FixtureMac));
         TC_RETURN_IF_ERROR(
             policy::StickyPolicy::PeekPolicyHash(bytes).status());
         return policy::StickyPolicy::BindWithMac(p, "d1", FixtureMac);
       }},
      {"tee quote payload", FixtureQuote().SignedPayload(),
       "0b74632e71756f74652e76310b616c6963652d70686f6e650401020304167463"
       "2e61756469742e636865636b706f696e742e36340500000000000000", nullptr},
      // Signed over the endorsement payload: equal signatures from one
      // deterministic manufacturer key pin the payload's bytes.
      {"endorsement signature", endorsement.signature.Serialize(32),
       "2083d348486971d2e71160706832974706bf537a3bd5ff0254326aea2f471f2e"
       "a420395a95b38debbe290c913495238d88a0dd0943ab5874bbb3523814626568"
       "5631", signature_round_trip},
      {"schnorr signature", FixtureSignature().Serialize(32),
       "2000000000000000000000000000000000000000000000000000000000000012"
       "3420000000000000000000000000000000000000000000000000000000000000"
       "beef", signature_round_trip},
      {"values", Encode(FixtureRow()[0], FixtureRow()[1], FixtureRow()[2],
                        FixtureRow()[3], FixtureRow()[4], FixtureRow()[5],
                        FixtureRow()[6]),
       "00010102fbffffffffffffff03000000000000f83f04036b77680501fe06a05a"
       "595100000000",
       FieldsRoundTrip<db::Value, db::Value, db::Value, db::Value, db::Value,
                       db::Value, db::Value>()},
      {"schema", Encode(FixtureSchema()), "020269640200056c6162656c0401",
       FieldsRoundTrip<db::Schema>()},
      {"row", db::Table::EncodeRowValues(FixtureRow()),
       "0700010102fbffffffffffffff03000000000000f83f04036b77680501fe06a0"
       "5a595100000000",
       [](const Bytes& bytes) -> Result<Bytes> {
         TC_ASSIGN_OR_RETURN(std::vector<db::Value> row,
                             db::Table::DecodeRowValues(bytes));
         return db::Table::EncodeRowValues(row);
       }},
      {"meter daily payload", meter.SignedPayload(),
       "1174632e6d657465722e6461696c792e7631076c696e6b792d31b83d00000000"
       "00000000000000802840",
       nullptr},
      {"payd daily payload", payd.SignedPayload(),
       "1074632e706179642e6461696c792e7631056361722d31b83d00000000000000"
       "000000004045403b0100000000000003000000",
       nullptr},
      {"aggregation channel seed",
       compute::SecureAggregation::PairwiseChannels::Setup(3, false, 99)
           .SeedFor(0, 2),
       "5c4908a2a0f7a1f8688126aae495c50897dbe12f4e94748844cae6ed007ebac4",
       nullptr},
  };

  // Sealed under the TEE's deterministic DRBG, each by a fresh TEE that
  // has sealed nothing yet: the page AAD and the guardian share's encoding
  // are bound into the AEAD tags.
  tee::TrustedExecutionEnvironment page_tee(
      "pin-cell", tee::DeviceClass::kSmartPhone, 512);
  TC_CHECK(
      page_tee.keystore().ImportKey("storage-root", Bytes(32, 0x33)).ok());
  storage::EncryptedPageTransform transform(&page_tee, "storage-root");
  cases.push_back({"sealed page", *transform.Encode(17, 3, Bytes(64, 0x5a)),
                   "c9609d08a6d7a800e18d16ab45eefb86"
                   "12fe7f3bafeffb734ed5db56e65e14c8",
                   nullptr, true});
  tee::TrustedExecutionEnvironment g1("pin-guardian-1",
                                      tee::DeviceClass::kSmartPhone, 512);
  tee::TrustedExecutionEnvironment g2("pin-guardian-2",
                                      tee::DeviceClass::kSmartPhone, 512);
  tee::TrustedExecutionEnvironment share_tee(
      "pin-cell", tee::DeviceClass::kSmartPhone, 512);
  TC_CHECK(share_tee.keystore().ImportKey("master", Bytes(32, 0x11)).ok());
  auto envelopes = share_tee.ShardKeyFor(
      "master", 2, {g1.dh_public_key(), g2.dh_public_key()}, ToBytes("ctx"));
  TC_CHECK(envelopes.ok());
  cases.push_back({"guardian envelope 0", (*envelopes)[0],
                   "9ab79a924f6307d2c198f91ce9709a9e"
                   "0aa47bdbc4c9e0d16dffaf1bbe2d455f",
                   nullptr, true});
  cases.push_back({"guardian envelope 1", (*envelopes)[1],
                   "b3a06814652e275c6827b1f4d8d6d924"
                   "6af4099f0892d4b36e968c26cd4f8f14",
                   nullptr, true});
  return cases;
}

TEST(RecordCodecTest, EveryRecordMatchesItsPinnedBytes) {
  for (const RecordCase& c : EveryRecord()) {
    EXPECT_EQ(c.digest ? Digest(c.bytes) : HexEncode(c.bytes), c.golden_hex)
        << c.name;
    if (c.round_trip) {
      auto again = c.round_trip(c.bytes);
      ASSERT_TRUE(again.ok()) << c.name << ": " << again.status().ToString();
      EXPECT_EQ(*again, c.bytes) << c.name << " does not decode to itself";
    }
  }
}

TEST(RecordCodecTest, TruncationFlipsAndTrailingBytesNeverCrashOrOverRead) {
  for (const RecordCase& c : EveryRecord()) {
    if (!c.round_trip) continue;
    // Every strict prefix is a record cut short: exact decoding refuses it.
    for (size_t n = 0; n < c.bytes.size(); ++n) {
      Bytes truncated(c.bytes.begin(), c.bytes.begin() + n);
      EXPECT_FALSE(c.round_trip(truncated).ok())
          << c.name << " decoded a " << n << "-byte prefix of "
          << c.bytes.size();
    }
    // A flipped byte may land in data (a valid, different record) or in
    // structure (a clean failure); never a crash, hang or over-read.
    for (size_t pos = 0; pos < c.bytes.size(); ++pos) {
      for (uint8_t delta : {0x01, 0x80, 0xff}) {
        Bytes flipped = c.bytes;
        flipped[pos] ^= delta;
        (void)c.round_trip(flipped);
      }
    }
    // Decoding is exact: a trailing byte is corrupt.
    Bytes padded = c.bytes;
    padded.push_back(0xab);
    EXPECT_FALSE(c.round_trip(padded).ok()) << c.name;
  }
}

TEST(RecordCodecTest, VectorCountBeyondTheBytesIsCorruptBeforeAnyReserve) {
  // 2^40 outbox writes claimed over a few bytes.
  BinaryWriter w;
  w.PutVarint(uint64_t{1} << 40);
  w.PutString("blob");
  std::vector<net::OutboxWrite> writes;
  EXPECT_EQ(Decode(w.Take(), &writes).code(), StatusCode::kCorruption);
  // A count the bytes could hold only at one byte per element, where each
  // rule takes at least kMinEncodedBytes<UsageRule>.
  const Bytes rules = Encode(std::vector<uint8_t>(40, 0));
  std::vector<policy::UsageRule> decoded;
  EXPECT_EQ(Decode(rules, &decoded).code(), StatusCode::kCorruption);
}

// --------------------------------------------------- the cell's records

// Drains `cell_id`'s inbox into `out` and queues it again, intact.
void Capture(cloud::CloudInfrastructure& cloud, const std::string& cell_id,
             std::vector<std::pair<std::string, std::string>>* out) {
  for (cloud::Message& m : cloud.Receive(cell_id)) {
    out->emplace_back("bus " + m.topic + " to " + cell_id, Digest(m.payload));
    cloud.Send(m.from, m.to, m.topic, m.payload);
  }
}

/// A phone-class cell on `cloud`: its TEE's DRBG is seeded from `id`.
std::unique_ptr<cell::TrustedCell> MakePhone(const std::string& id,
                                             const std::string& owner,
                                             cloud::CloudInfrastructure* cloud,
                                             cell::CellDirectory* directory,
                                             const Clock* clock) {
  cell::TrustedCell::Config config;
  config.cell_id = id;
  config.owner = owner;
  config.device_class = tee::DeviceClass::kSmartPhone;
  auto c = cell::TrustedCell::Create(config, cloud, directory, clock);
  TC_CHECK(c.ok());
  return std::move(*c);
}

// Three cells on one in-process provider, every step deterministic (each
// TEE's DRBG is seeded from its cell id, the clock is simulated): what the
// cells store at the provider and send on the bus. The document AAD and
// meta encoding are inside the sealed blobs, the manifest header and AAD in
// the manifest, the key-wrap contexts inside the grant's and the guardian
// shares' wrapped keys, the sticky envelope and policy inside the grant.
std::vector<std::pair<std::string, std::string>> CellRecords() {
  std::vector<std::pair<std::string, std::string>> out;
  SimulatedClock clock(MakeTimestamp(2013, 4, 1, 10, 0, 0));
  cloud::CloudInfrastructure cloud;
  cell::CellDirectory directory;
  auto alice = MakePhone("alice-phone", "alice", &cloud, &directory, &clock);
  auto bob = MakePhone("bob-phone", "bob", &cloud, &directory, &clock);
  auto guardian = MakePhone("guardian-1", "gw1", &cloud, &directory, &clock);

  auto doc = alice->StoreDocument("note", "alpha beta", ToBytes("first"),
                                  cell::MakeOwnerPolicy("alice"));
  TC_CHECK(doc.ok());
  TC_CHECK(alice->UpdateDocumentAtomic(*doc, ToBytes("second"), nullptr).ok());
  const std::string blob = alice->GetDocumentMeta(*doc)->blob_id;
  out.emplace_back("doc blob v1", Digest(*cloud.GetBlobVersion(blob, 1)));
  out.emplace_back("doc blob v2", Digest(*cloud.GetBlobVersion(blob, 2)));
  out.emplace_back("manifest v1",
                   Digest(*cloud.GetBlobVersion("space/alice/manifest", 1)));

  policy::Policy shared = cell::MakeOwnerPolicy("alice");
  policy::UsageRule bob_rule;
  bob_rule.id = "bob-read";
  bob_rule.subjects = {"bob"};
  bob_rule.rights = {policy::Right::kRead};
  bob_rule.obligations = {policy::ObligationType::kLogAccess,
                          policy::ObligationType::kNotifyOwner};
  shared.rules.push_back(bob_rule);
  TC_CHECK(alice->ShareDocument(*doc, "bob-phone", shared).ok());
  Capture(cloud, "bob-phone", &out);
  TC_CHECK(bob->ProcessInbox().ok());
  TC_CHECK(bob->ReadSharedDocument(*doc, "bob").ok());
  Capture(cloud, "alice-phone", &out);
  TC_CHECK(alice->ProcessInbox().ok());

  const Timestamp t0 = clock.Now();
  for (int i = 0; i < 3; ++i) {
    TC_CHECK(alice->IngestReading("power", t0 + 30 * i, 100 + i).ok());
  }
  TC_CHECK(
      alice->PublishAggregate("bob-phone", "power", t0, t0 + 120, 60).ok());
  Capture(cloud, "bob-phone", &out);
  TC_CHECK(bob->ProcessInbox().ok());

  TC_CHECK(alice->EnrollGuardians({"guardian-1"}, 1).ok());
  Capture(cloud, "guardian-1", &out);
  TC_CHECK(guardian->ProcessInbox().ok());
  TC_CHECK(guardian->ReleaseGuardianShare("alice", "alice-phone").ok());
  Capture(cloud, "alice-phone", &out);

  auto proof = alice->ProveDocumentInSpace(*doc);
  TC_CHECK(proof.ok());
  out.emplace_back("space leaf", HexEncode(proof->leaf));
  out.emplace_back("space root signature",
                   HexEncode(proof->root_signature.Serialize(32)));
  TC_CHECK(cell::TrustedCell::VerifySpaceProof(*proof, directory));
  // The leaf decodes exactly: a cut or padded leaf proves nothing.
  cell::TrustedCell::SpaceProof cut = *proof;
  cut.leaf.pop_back();
  TC_CHECK(!cell::TrustedCell::VerifySpaceProof(cut, directory));
  cell::TrustedCell::SpaceProof padded = *proof;
  padded.leaf.push_back(0);
  TC_CHECK(!cell::TrustedCell::VerifySpaceProof(padded, directory));

  // Last: the proposer now also stores which cell it asked, which moves
  // its TEE's DRBG on by a sealed flash page.
  auto photo = alice->ProposeDocumentReferencing(
      "bob-phone", "Group photo", "photo", ToBytes("jpeg"),
      cell::MakeOwnerPolicy("alice"));
  TC_CHECK(photo.ok());
  Capture(cloud, "bob-phone", &out);
  TC_CHECK(alice->incidents().empty() && bob->incidents().empty());
  return out;
}

TEST(RecordCodecTest, CellsStoreAndSendThePinnedBytes) {
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"doc blob v1",
       "e00787376685a80d9a332a4244884610525b27e4d62b97d42b44a1ea6d31fec7"},
      {"doc blob v2",
       "1f2ab4c2c4031535469777f6296d9dc2ffc0aaabd02348f30bd0e533ab79f4b4"},
      {"manifest v1",
       "a5f0926f4747195ef8de6552d7b641a5acd9715687f47973c022f126ec3ec3dc"},
      {"bus share to bob-phone",
       "c4f324c4a99cc2ec7bfb23b42bace6b738c7084aeab915e69f579833204e5f2e"},
      {"bus access-notification to alice-phone",
       "4c4534d0b4566a2d84bc8d035a1b59e93823fa2bcb27f953591c121bb07a3a33"},
      {"bus aggregate to bob-phone",
       "5bcfd7dc52258a0a9c76accd503790e61b39d3cc722b3c3779f37fb3191ef411"},
      {"bus guardian-share to guardian-1",
       "9d04902759df2aa84aefb6346449eb6e06c21cfba5f9f835c71d15601d02ac36"},
      {"bus recovery-share to alice-phone",
       "d3d6b9635f55072223ca258ac7e3e49249bf42db1343b986d4410e8847ad2e0c"},
      {"space leaf",
       "1074632e73706163652d6c6561662e7631106136643137396161646238376565"
       "34660200000000000000201f2ab4c2c4031535469777f6296d9dc2ffc0aaabd0"
       "2348f30bd0e533ab79f4b4"},
      {"space root signature",
       "20627d762c8b959add0911e65e2747d925b789e5d418cd2137bd671a80a6d29b"
       "632064130b2b150dda44a9f95c71853db06d4c0b41ac0abcb4b137cc08174320"
       "adcd"},
      {"bus approval-request to bob-phone",
       "cba979960ea7c99e5c329c68ff7a8ea5f2b7b9b2dead67b624782edc3d0d9299"},
  };
  EXPECT_EQ(CellRecords(), golden);
}

// Every version of one owner's manifest root, then every segment blob, over
// a script that reaches each way a document enters, changes in or leaves
// the manifest, in the same deterministic setting as CellRecords: five
// stores, an update of the middle document in doc-id order, a key
// rotation, two proposals (listed only once approved; the rejected one
// forgotten), a granted document from another owner (never listed), a
// delete-after-use read of an own document, then a sibling that pulls and
// publishes. A segment lists its slot's own entries in doc-id order, with
// an update's not-yet-saved meta in place; its id is the SHA-256 of its
// bytes, so the ids pin the segments. The v1 pins (one sealed body per
// version) were taken at 59ac005; these are tc.manifest.v2's.
std::vector<std::string> ManifestVersions() {
  SimulatedClock clock(MakeTimestamp(2013, 4, 1, 10, 0, 0));
  cloud::CloudInfrastructure cloud;
  cell::CellDirectory directory;
  auto gateway =
      MakePhone("alice-gateway", "alice", &cloud, &directory, &clock);
  auto phone = MakePhone("alice-phone", "alice", &cloud, &directory, &clock);
  auto bob = MakePhone("bob-phone", "bob", &cloud, &directory, &clock);

  const policy::Policy owner = cell::MakeOwnerPolicy("alice");
  policy::Policy burn = owner;
  burn.rules[0].obligations = {policy::ObligationType::kDeleteAfterUse};
  std::vector<std::string> docs;
  for (int i = 0; i < 5; ++i) {
    auto doc = gateway->StoreDocument(
        "doc " + std::to_string(i), "term" + std::to_string(i),
        ToBytes("first " + std::to_string(i)), i == 3 ? burn : owner);
    TC_CHECK(doc.ok());
    docs.push_back(*doc);
  }
  std::vector<std::string> by_id = docs;
  std::sort(by_id.begin(), by_id.end());
  TC_CHECK(gateway->UpdateDocumentAtomic(by_id[2], ToBytes("second")).ok());
  TC_CHECK(gateway->RotateDocumentKey(by_id[0]).ok());

  auto approved = gateway->ProposeDocumentReferencing(
      "bob-phone", "with bob", "photo", ToBytes("jpeg"), owner);
  auto rejected = gateway->ProposeDocumentReferencing(
      "bob-phone", "with bob again", "photo", ToBytes("png"), owner);
  TC_CHECK(approved.ok() && rejected.ok());
  TC_CHECK(gateway->SyncPush().ok());  // Both pending: neither listed.
  TC_CHECK(bob->ProcessInbox().ok());
  for (const cloud::Message& request : bob->TakeMessages("approval-request")) {
    std::string doc_id, title, proposer;
    TC_CHECK(Decode(request.payload, &doc_id, &title, &proposer).ok());
    TC_CHECK(bob->RespondToApproval(request, doc_id == *approved).ok());
  }
  TC_CHECK(gateway->ProcessInbox().ok());
  TC_CHECK(*gateway->ProcessApprovalResponses() == std::make_pair(1, 1));

  auto granted = bob->StoreDocument("bob's note", "note", ToBytes("hi"),
                                    cell::MakeOwnerPolicy("bob"));
  TC_CHECK(granted.ok());
  TC_CHECK(bob->ShareDocument(*granted, "alice-gateway",
                              cell::MakeOwnerPolicy("bob"))
               .ok());
  TC_CHECK(*gateway->ProcessInbox() == 1);
  TC_CHECK(gateway->FetchDocument(docs[3]).ok());
  TC_CHECK(gateway->GetDocumentMeta(docs[3]).status().IsNotFound());
  TC_CHECK(gateway->SyncPush().ok());

  TC_CHECK(phone->SyncPull().ok());
  TC_CHECK(phone->SyncPush().ok());
  TC_CHECK(gateway->incidents().empty() && phone->incidents().empty() &&
           bob->incidents().empty());

  std::vector<std::string> out;
  for (uint64_t v = 1;; ++v) {
    auto manifest = cloud.GetBlobVersion("space/alice/manifest", v);
    if (!manifest.ok()) break;
    out.push_back(Digest(*manifest));
  }
  for (const std::string& id : cloud.ListBlobs("space/alice/manifest/")) {
    TC_CHECK(*cloud.LatestBlobVersion(id) == 1);  // Never rewritten.
    TC_CHECK(Digest(*cloud.GetBlobVersion(id, 1)) ==
             id.substr(id.rfind('/') + 1));
    out.push_back("segment " + id.substr(id.rfind('/') + 1));
  }
  return out;
}

TEST(RecordCodecTest, EveryManifestVersionOfAScriptIsPinned) {
  const std::vector<std::string> golden = {
      "c3ec721b732c9c634e9e260d5f6f8228e0fcd888cddef1a2b2b989122f5ac88b",
      "5c9cb0f4879f54fc54e6d8fdf40d7451d08a2721282202b1b1882eafcf95cb75",
      "c96e7a54141d161c9ad6141d68e4bc8fb9146adf8c86f9cd206a7f2142cab774",
      "89ca794a655451f9efd532e168883b41e4e96f1eceb5505a38f941de4012cd8b",
      "802046c8e1eafc197c8aaada08c284206e7c4410f60253a38c29503679506798",
      "segment "
      "07781581a50167eeb5562704ca42e4a603dfc25e65657cc64480bd9247e2fd56",
      "segment "
      "42747e81e31e9e0d8807458c45fdb6c9f165bfe77d7eb5e08140d0f366b5bd74",
      "segment "
      "702a55318865d4b8120a7e6713476d89aa559ae1123a05432d96e7c8740f9be9",
      "segment "
      "7e6614a9dd51e1b1dbf90989ca2c044d15cc7cefb7b6e9a24ab7c71f4ba3c2da",
  };
  EXPECT_EQ(ManifestVersions(), golden);
}

}  // namespace
}  // namespace tc
