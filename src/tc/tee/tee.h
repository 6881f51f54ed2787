#ifndef TC_TEE_TEE_H_
#define TC_TEE_TEE_H_

#include <map>
#include <string>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/crypto/dh.h"
#include "tc/crypto/schnorr.h"
#include "tc/tee/attestation.h"
#include "tc/tee/device_profile.h"
#include "tc/tee/keystore.h"

namespace tc::tee {

/// Simulated Trusted Execution Environment — the secure-hardware substrate
/// the paper assumes ("a Trusted Execution Environment, a tamper-resistant
/// memory where cryptographic secrets are stored").
///
/// Everything security-critical a trusted cell does funnels through this
/// class: key custody (KeyStore), sealing/unsealing data for the untrusted
/// world, signing (device identity certified by a Manufacturer), pairwise
/// key agreement with peer cells, monotonic counters (anti-rollback), and
/// attestation quotes. Code outside tc::tee never touches raw key bytes.
///
/// The TEE is deterministic: its DRBG is seeded from the device id, so a
/// full platform simulation is reproducible run-to-run.
class TrustedExecutionEnvironment {
 public:
  /// Creates a TEE for `device_id` of the given class. `group_bits` sizes
  /// the discrete-log group used for signatures and key agreement
  /// (512 for tests, larger for benchmarks).
  TrustedExecutionEnvironment(std::string device_id, DeviceClass device_class,
                              size_t group_bits = 512);

  TrustedExecutionEnvironment(const TrustedExecutionEnvironment&) = delete;
  TrustedExecutionEnvironment& operator=(const TrustedExecutionEnvironment&) =
      delete;

  const std::string& device_id() const { return device_id_; }
  const DeviceProfile& profile() const { return profile_; }
  KeyStore& keystore() { return keystore_; }
  const KeyStore& keystore() const { return keystore_; }
  crypto::SecureRandom& rng() { return rng_; }
  size_t group_bits() const { return group_bits_; }

  // ---- Monotonic counters (tamper-resistant, never decrease) ----

  /// Increments and returns the named counter (first call returns 1).
  uint64_t IncrementCounter(const std::string& name);
  /// Current value (0 if never incremented).
  uint64_t CounterValue(const std::string& name) const;

  // ---- Symmetric sealing by key handle ----

  /// AEAD-seals `plaintext` under the named key with a fresh nonce, using
  /// the key's AeadKey that the KeyStore built when the key was installed.
  /// Output layout, written into one buffer: nonce(12) || ciphertext ||
  /// tag(32).
  Result<Bytes> Seal(const std::string& key_name, const Bytes& aad,
                     const Bytes& plaintext);

  /// Reverses Seal, reading the nonce and body in place.
  /// kIntegrityViolation on tampering / truncation / wrong context.
  Result<Bytes> Open(const std::string& key_name, const Bytes& aad,
                     const Bytes& sealed) const;

  /// HMAC under the named key.
  Result<Bytes> Mac(const std::string& key_name, const Bytes& message) const;
  /// Verifies an HMAC tag; kIntegrityViolation on mismatch.
  Status CheckMac(const std::string& key_name, const Bytes& message,
                  const Bytes& tag) const;

  // ---- Device identity and signatures ----

  const crypto::BigInt& signing_public_key() const {
    return signing_keys_.public_key;
  }
  crypto::SchnorrSignature Sign(const Bytes& message);
  /// Verifies a peer signature made in the same group size.
  static bool VerifySignature(const crypto::BigInt& peer_public_key,
                              const Bytes& message,
                              const crypto::SchnorrSignature& signature,
                              size_t group_bits = 512);

  // ---- Pairwise key agreement & key wrapping (secure sharing) ----

  const crypto::BigInt& dh_public_key() const { return dh_keys_.public_key; }

  /// The 32-byte pairwise secret with a peer cell, derived via DH. Kept
  /// internal to TEE-level protocols; exposed to tc::compute for the
  /// pairwise-mask aggregation scheme.
  Result<Bytes> PairwiseSecret(const crypto::BigInt& peer_dh_public) const;

  /// Encrypts the named key under the DH secret shared with `peer`,
  /// binding `context` (e.g. document id + policy hash). The envelope can
  /// cross the untrusted infrastructure.
  Result<Bytes> WrapKeyFor(const crypto::BigInt& peer_dh_public,
                           const std::string& key_name, const Bytes& context);

  /// Opens a wrap envelope from `peer` and installs the key as
  /// `store_as`. The same `context` must be supplied.
  Status UnwrapKeyFrom(const crypto::BigInt& peer_dh_public,
                       const Bytes& envelope, const Bytes& context,
                       const std::string& store_as);

  // ---- Threshold key escrow (guardian recovery) ----

  /// Shamir-splits the named key inside the enclave and wraps share i to
  /// `guardian_dh_publics[i]`. Raw shares never leave the TEE; each
  /// guardian receives an envelope only it can open. `context` binds the
  /// escrow purpose (e.g. "guardian-share.alice").
  Result<std::vector<Bytes>> ShardKeyFor(
      const std::string& key_name, int threshold,
      const std::vector<crypto::BigInt>& guardian_dh_publics,
      const Bytes& context);

  /// Reconstructs a key from >= threshold share keys previously installed
  /// via UnwrapKeyFrom (share material = serialized ShamirShare) and
  /// stores it as `store_as`.
  Status ReconstructKeyFromShares(const std::vector<std::string>& share_keys,
                                  const std::string& store_as);

  /// Replaces an existing key's material (used when recovery supersedes a
  /// provisional key).
  Status ReplaceKey(const std::string& key_name, const std::string& from_key);

  // ---- Attestation ----

  /// Provisioning step: the manufacturer endorses this device's signing
  /// key. Stored and attached to quotes.
  void InstallEndorsement(Endorsement endorsement);
  const Endorsement& endorsement() const { return endorsement_; }

  /// Produces a quote over a challenger nonce plus firmware claims.
  Quote GenerateQuote(const Bytes& nonce, const std::string& claims);

  /// Verifies a quote against the quoted device's endorsement and the
  /// manufacturer that issued it.
  static bool VerifyQuote(const Quote& quote, const Endorsement& endorsement,
                          const Manufacturer& manufacturer);

 private:
  std::string device_id_;
  const DeviceProfile& profile_;
  size_t group_bits_;
  crypto::SecureRandom rng_;
  KeyStore keystore_;
  std::map<std::string, uint64_t> counters_;
  crypto::SchnorrKeyPair signing_keys_;
  crypto::DhKeyPair dh_keys_;
  Endorsement endorsement_;
};

}  // namespace tc::tee

#endif  // TC_TEE_TEE_H_
