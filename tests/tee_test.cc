#include <gtest/gtest.h>

#include "tc/crypto/aead.h"
#include "tc/tee/attestation.h"
#include "tc/tee/device_profile.h"
#include "tc/tee/tee.h"

namespace tc::tee {
namespace {

using TEE = TrustedExecutionEnvironment;

TEST(DeviceProfileTest, ClassesAreOrderedByCapability) {
  const DeviceProfile& token = DeviceProfile::Get(DeviceClass::kSecureToken);
  const DeviceProfile& phone = DeviceProfile::Get(DeviceClass::kSmartPhone);
  const DeviceProfile& gateway = DeviceProfile::Get(DeviceClass::kHomeGateway);
  EXPECT_LT(token.ram_budget_bytes, phone.ram_budget_bytes);
  EXPECT_LT(phone.ram_budget_bytes, gateway.ram_budget_bytes);
  EXPECT_GT(token.cpu_slowdown, phone.cpu_slowdown);
  EXPECT_GT(phone.cpu_slowdown, gateway.cpu_slowdown);
}

TEST(KeyStoreTest, GenerateAndUseKeys) {
  TEE tee("device-1", DeviceClass::kHomeGateway);
  EXPECT_TRUE(tee.keystore().GenerateKey("vault").ok());
  EXPECT_TRUE(tee.keystore().HasKey("vault"));
  EXPECT_TRUE(tee.keystore().GenerateKey("vault").code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(tee.keystore().DestroyKey("vault").ok());
  EXPECT_FALSE(tee.keystore().HasKey("vault"));
  EXPECT_TRUE(tee.keystore().DestroyKey("vault").IsNotFound());
}

TEST(KeyStoreTest, DeriveChildKeyIsDeterministic) {
  TEE tee1("device-2", DeviceClass::kSmartPhone);
  TEE tee2("device-2", DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee1.keystore().GenerateKey("master").ok());
  ASSERT_TRUE(tee2.keystore().GenerateKey("master").ok());
  ASSERT_TRUE(
      tee1.keystore().DeriveChildKey("master", "child", "doc-17").ok());
  ASSERT_TRUE(
      tee2.keystore().DeriveChildKey("master", "child", "doc-17").ok());
  // Same device id => same DRBG => same master => same child: sealing on
  // one TEE opens on the other.
  Bytes sealed = *tee1.Seal("child", {}, ToBytes("hello"));
  EXPECT_EQ(*tee2.Open("child", {}, sealed), ToBytes("hello"));
}

TEST(TeeTest, SealOpenRoundTripWithAad) {
  TEE tee("device-3", DeviceClass::kSecureToken);
  ASSERT_TRUE(tee.keystore().GenerateKey("k").ok());
  Bytes aad = ToBytes("doc:1;v:2");
  Bytes sealed = *tee.Seal("k", aad, ToBytes("secret reading"));
  EXPECT_EQ(*tee.Open("k", aad, sealed), ToBytes("secret reading"));
  EXPECT_TRUE(tee.Open("k", ToBytes("doc:1;v:3"), sealed)
                  .status()
                  .IsIntegrityViolation());
  sealed[20] ^= 1;
  EXPECT_FALSE(tee.Open("k", aad, sealed).ok());
}

TEST(TeeTest, EveryTruncationOfASealedBlobIsAnIntegrityViolation) {
  TEE tee("device-3t", DeviceClass::kHomeGateway);
  ASSERT_TRUE(tee.keystore().GenerateKey("k").ok());
  Bytes aad = ToBytes("doc:1;v:2");
  Bytes sealed = *tee.Seal("k", aad, ToBytes("secret reading"));
  ASSERT_GT(sealed.size(), crypto::kAeadNonceSize + crypto::kAeadTagSize);
  // 0..11 bytes cut into the nonce, 12..43 leave less than a tag, and 44
  // is nonce || tag-sized body with the real tag cut off.
  for (size_t len = 0;
       len <= crypto::kAeadNonceSize + crypto::kAeadTagSize; ++len) {
    Bytes prefix(sealed.begin(), sealed.begin() + len);
    EXPECT_TRUE(tee.Open("k", aad, prefix).status().IsIntegrityViolation())
        << "prefix of " << len << " bytes";
  }
}

// The KeyStore expands each key's AEAD context when the key is installed;
// these pin that the context follows its key through every install path.
TEST(TeeTest, SealedBlobFailsAfterItsKeyIsReplaced) {
  TEE tee("device-3r", DeviceClass::kHomeGateway);
  ASSERT_TRUE(tee.keystore().GenerateKey("k").ok());
  ASSERT_TRUE(tee.keystore().GenerateKey("other").ok());
  Bytes sealed = *tee.Seal("k", {}, ToBytes("before"));
  Bytes sealed_by_other = *tee.Seal("other", {}, ToBytes("other's"));

  ASSERT_TRUE(tee.ReplaceKey("k", "other").ok());
  EXPECT_TRUE(tee.Open("k", {}, sealed).status().IsIntegrityViolation());
  EXPECT_EQ(tee.Open("k", {}, sealed_by_other).value_or({}),
            ToBytes("other's"));

  Bytes resealed = *tee.Seal("k", {}, ToBytes("after replace"));
  ASSERT_TRUE(tee.keystore().DestroyKey("k").ok());
  ASSERT_TRUE(tee.keystore().ImportKey("k", Bytes(32, 0x5a)).ok());
  EXPECT_TRUE(tee.Open("k", {}, resealed).status().IsIntegrityViolation());
  EXPECT_TRUE(
      tee.Open("k", {}, sealed_by_other).status().IsIntegrityViolation());
}

TEST(TeeTest, ChildKeySealsLikeTheOneShotAeadOverItsMaterial) {
  TEE tee("device-3c", DeviceClass::kHomeGateway);
  ASSERT_TRUE(tee.keystore().GenerateKey("master").ok());
  ASSERT_TRUE(tee.keystore().DeriveChildKey("master", "child", "doc-17").ok());
  Bytes aad = ToBytes("doc:17;v:1");
  Bytes plaintext(2004, 0x3c);
  Bytes sealed = *tee.Seal("child", aad, plaintext);

  Bytes child_material;
  for (const auto& [name, material] :
       tee.keystore().ExtractAllForPhysicalBreach()) {
    if (name == "child") child_material = material;
  }
  ASSERT_EQ(child_material.size(), 32u);
  Bytes nonce(sealed.begin(), sealed.begin() + crypto::kAeadNonceSize);
  Bytes body(sealed.begin() + crypto::kAeadNonceSize, sealed.end());
  EXPECT_EQ(
      crypto::AeadSeal(child_material, nonce, aad, plaintext).value_or({}),
      body);
}

TEST(TeeTest, SealWithMissingKeyFails) {
  TEE tee("device-4", DeviceClass::kSecureToken);
  EXPECT_TRUE(tee.Seal("nope", {}, ToBytes("x")).status().IsNotFound());
}

TEST(TeeTest, MacAndCheck) {
  TEE tee("device-5", DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("mac-key").ok());
  Bytes tag = *tee.Mac("mac-key", ToBytes("audit entry"));
  EXPECT_TRUE(tee.CheckMac("mac-key", ToBytes("audit entry"), tag).ok());
  EXPECT_TRUE(tee.CheckMac("mac-key", ToBytes("tampered"), tag)
                  .IsIntegrityViolation());
}

TEST(TeeTest, MonotonicCounters) {
  TEE tee("device-6", DeviceClass::kHomeGateway);
  EXPECT_EQ(tee.CounterValue("sync"), 0u);
  EXPECT_EQ(tee.IncrementCounter("sync"), 1u);
  EXPECT_EQ(tee.IncrementCounter("sync"), 2u);
  EXPECT_EQ(tee.IncrementCounter("other"), 1u);
  EXPECT_EQ(tee.CounterValue("sync"), 2u);
}

TEST(TeeTest, SignaturesVerifyAcrossCells) {
  TEE alice("alice-home", DeviceClass::kHomeGateway);
  TEE bob("bob-phone", DeviceClass::kSmartPhone);
  Bytes msg = ToBytes("share grant for doc 7");
  auto sig = alice.Sign(msg);
  EXPECT_TRUE(TEE::VerifySignature(alice.signing_public_key(), msg, sig));
  EXPECT_FALSE(TEE::VerifySignature(bob.signing_public_key(), msg, sig));
}

TEST(TeeTest, KeyWrappingBetweenCells) {
  TEE alice("alice-g", DeviceClass::kHomeGateway);
  TEE bob("bob-p", DeviceClass::kSmartPhone);
  ASSERT_TRUE(alice.keystore().GenerateKey("doc-key").ok());
  Bytes context = ToBytes("share:doc-9;policy:abcd");

  Bytes envelope =
      *alice.WrapKeyFor(bob.dh_public_key(), "doc-key", context);
  ASSERT_TRUE(bob.UnwrapKeyFrom(alice.dh_public_key(), envelope, context,
                                "doc-key-from-alice")
                  .ok());

  // Bob can now open what Alice sealed under that key.
  Bytes sealed = *alice.Seal("doc-key", {}, ToBytes("the document"));
  EXPECT_EQ(*bob.Open("doc-key-from-alice", {}, sealed),
            ToBytes("the document"));
}

TEST(TeeTest, KeyWrapRejectsWrongContextOrEavesdropper) {
  TEE alice("alice-g2", DeviceClass::kHomeGateway);
  TEE bob("bob-p2", DeviceClass::kSmartPhone);
  TEE eve("eve-x", DeviceClass::kSmartPhone);
  ASSERT_TRUE(alice.keystore().GenerateKey("doc-key").ok());
  Bytes context = ToBytes("ctx");
  Bytes envelope = *alice.WrapKeyFor(bob.dh_public_key(), "doc-key", context);

  EXPECT_FALSE(bob.UnwrapKeyFrom(alice.dh_public_key(), envelope,
                                 ToBytes("other-ctx"), "k1")
                   .ok());
  // Eve intercepts the envelope but has a different DH secret.
  EXPECT_FALSE(
      eve.UnwrapKeyFrom(alice.dh_public_key(), envelope, context, "k2").ok());
}

TEST(AttestationTest, QuoteVerifiesWithEndorsement) {
  Manufacturer maker("acme-silicon");
  TEE tee("meter-123", DeviceClass::kSensorNode);
  tee.InstallEndorsement(maker.Endorse("meter-123", tee.signing_public_key()));
  tee.IncrementCounter("boot");

  Bytes nonce = ToBytes("challenger-nonce-1");
  Quote quote = tee.GenerateQuote(nonce, "fw=1.2.0;state=sealed");
  EXPECT_TRUE(TEE::VerifyQuote(quote, tee.endorsement(), maker));
}

TEST(AttestationTest, ForgedQuoteRejected) {
  Manufacturer maker("acme-silicon");
  TEE genuine("meter-1", DeviceClass::kSensorNode);
  TEE impostor("meter-fake", DeviceClass::kSensorNode);
  genuine.InstallEndorsement(
      maker.Endorse("meter-1", genuine.signing_public_key()));

  // Impostor signs a quote claiming to be meter-1.
  Quote quote = impostor.GenerateQuote(ToBytes("n"), "fw=1.2.0");
  quote.device_id = "meter-1";
  quote.signature = impostor.Sign(quote.SignedPayload());
  EXPECT_FALSE(TEE::VerifyQuote(quote, genuine.endorsement(), maker));
}

TEST(AttestationTest, TamperedClaimsRejected) {
  Manufacturer maker("acme-silicon");
  TEE tee("meter-2", DeviceClass::kSensorNode);
  tee.InstallEndorsement(maker.Endorse("meter-2", tee.signing_public_key()));
  Quote quote = tee.GenerateQuote(ToBytes("n"), "fw=1.2.0");
  quote.claims = "fw=evil";
  EXPECT_FALSE(TEE::VerifyQuote(quote, tee.endorsement(), maker));
}

TEST(AttestationTest, EndorsementFromOtherManufacturerRejected) {
  Manufacturer maker("acme-silicon");
  Manufacturer rival("other-fab");
  TEE tee("meter-3", DeviceClass::kSensorNode);
  Endorsement endorsement =
      rival.Endorse("meter-3", tee.signing_public_key());
  tee.InstallEndorsement(endorsement);
  Quote quote = tee.GenerateQuote(ToBytes("n"), "fw");
  EXPECT_FALSE(TEE::VerifyQuote(quote, tee.endorsement(), maker));
  EXPECT_TRUE(TEE::VerifyQuote(quote, tee.endorsement(), rival));
}

TEST(TeeTest, PhysicalBreachExtractsKeysAndMarksDevice) {
  TEE tee("victim", DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("a").ok());
  ASSERT_TRUE(tee.keystore().GenerateKey("b").ok());
  EXPECT_FALSE(tee.keystore().breached());
  auto loot = tee.keystore().ExtractAllForPhysicalBreach();
  EXPECT_EQ(loot.size(), 2u);
  EXPECT_TRUE(tee.keystore().breached());
  // The loot actually decrypts data sealed by the victim (that is the
  // point of the E8 blast-radius experiment).
  EXPECT_FALSE(loot[0].second.empty());
}

TEST(TeeTest, PhysicalBreachYieldsRawMaterialsOnly) {
  TEE tee("victim-2", DeviceClass::kSmartPhone);
  ASSERT_TRUE(tee.keystore().GenerateKey("generated").ok());
  ASSERT_TRUE(tee.keystore().ImportKey("imported", Bytes(20, 0x11)).ok());
  ASSERT_TRUE(
      tee.keystore().DeriveChildKey("generated", "derived", "label").ok());
  Bytes sealed = *tee.Seal("derived", ToBytes("aad"), ToBytes("payload"));

  auto loot = tee.keystore().ExtractAllForPhysicalBreach();
  // One (name, material) pair per key, each exactly the key's material:
  // the expanded AEAD contexts the store also holds are not part of what
  // a breach yields, so E8's blast radius is what it was.
  ASSERT_EQ(loot.size(), 3u);
  EXPECT_EQ(loot[0].first, "derived");
  EXPECT_EQ(loot[0].second.size(), 32u);
  EXPECT_EQ(loot[1].first, "generated");
  EXPECT_EQ(loot[1].second.size(), 32u);
  EXPECT_EQ(loot[2].first, "imported");
  EXPECT_EQ(loot[2].second, Bytes(20, 0x11));
  Bytes nonce(sealed.begin(), sealed.begin() + crypto::kAeadNonceSize);
  Bytes body(sealed.begin() + crypto::kAeadNonceSize, sealed.end());
  EXPECT_EQ(crypto::AeadOpen(loot[0].second, nonce, ToBytes("aad"), body)
                .value_or({}),
            ToBytes("payload"));
}

}  // namespace
}  // namespace tc::tee
