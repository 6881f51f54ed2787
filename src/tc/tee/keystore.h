#ifndef TC_TEE_KEYSTORE_H_
#define TC_TEE_KEYSTORE_H_

#include <map>
#include <string>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/crypto/aead.h"
#include "tc/crypto/random.h"

namespace tc::tee {

/// Tamper-resistant key storage of a trusted cell.
///
/// The paper's security argument hinges on one invariant: "cryptographic
/// keys never leave the trusted cells' tamper-resistant memory". The
/// KeyStore encodes that invariant in the API — there is no method that
/// returns raw key material; callers get *handles* (names) and invoke
/// cryptographic operations through the owning TEE. The single deliberate
/// exception is `ExtractAllForPhysicalBreach()`, which models the paper's
/// admission that "even secure hardware can be breached, though at very
/// high cost" and exists only so the E8 experiment can measure the blast
/// radius of such a breach.
///
/// Each key is held twice: its raw material (what HMAC, wrapping, escrow
/// and a breach see) and its expanded AEAD context (crypto::AeadKey), built
/// once when the key is installed by GenerateKey, ImportKey or
/// DeriveChildKey. Seal and Open use the context, so they pay no key
/// derivation per call, and since installing is the only write, readers
/// share a key without a lock. Replacing a key (destroy + import) rebuilds
/// its context, so a context never outlives its material.
class KeyStore {
 public:
  explicit KeyStore(crypto::SecureRandom* rng);

  KeyStore(const KeyStore&) = delete;
  KeyStore& operator=(const KeyStore&) = delete;

  /// Generates a fresh 32-byte symmetric key under `name`.
  Status GenerateKey(const std::string& name);

  /// Installs externally supplied key material (e.g. a wrap key received
  /// through a sharing envelope). Fails if the name exists.
  Status ImportKey(const std::string& name, const Bytes& material);

  /// Derives a child key from `parent` with HKDF(label) and stores it
  /// under `child`. The derivation is deterministic, so re-deriving after
  /// a crash yields the same key.
  Status DeriveChildKey(const std::string& parent, const std::string& child,
                        const std::string& label);

  bool HasKey(const std::string& name) const;
  Status DestroyKey(const std::string& name);
  std::vector<std::string> ListKeyNames() const;
  size_t size() const { return keys_.size(); }

  /// Models a successful physical attack: every key leaves the enclave.
  /// Returns (name, material) pairs. Marks the store as breached.
  std::vector<std::pair<std::string, Bytes>> ExtractAllForPhysicalBreach();
  bool breached() const { return breached_; }

 private:
  friend class TrustedExecutionEnvironment;

  struct Key {
    explicit Key(Bytes m) : material(std::move(m)), aead(material) {}
    Bytes material;
    crypto::AeadKey aead;
  };

  /// Internal accessors for the owning TEE's crypto operations only.
  Result<Bytes> GetMaterial(const std::string& name) const;
  Result<const crypto::AeadKey*> GetAeadKey(const std::string& name) const;

  crypto::SecureRandom* rng_;
  std::map<std::string, Key> keys_;
  bool breached_ = false;
};

}  // namespace tc::tee

#endif  // TC_TEE_KEYSTORE_H_
