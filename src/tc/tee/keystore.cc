#include "tc/tee/keystore.h"

#include "tc/crypto/hkdf.h"

namespace tc::tee {

KeyStore::KeyStore(crypto::SecureRandom* rng) : rng_(rng) {}

Status KeyStore::GenerateKey(const std::string& name) {
  if (keys_.count(name) > 0) {
    return Status::AlreadyExists("key already exists: " + name);
  }
  keys_.emplace(name, Key(rng_->NextBytes(32)));
  return Status::OK();
}

Status KeyStore::ImportKey(const std::string& name, const Bytes& material) {
  if (material.empty()) {
    return Status::InvalidArgument("empty key material");
  }
  if (keys_.count(name) > 0) {
    return Status::AlreadyExists("key already exists: " + name);
  }
  keys_.emplace(name, Key(material));
  return Status::OK();
}

Status KeyStore::DeriveChildKey(const std::string& parent,
                                const std::string& child,
                                const std::string& label) {
  auto it = keys_.find(parent);
  if (it == keys_.end()) {
    return Status::NotFound("parent key not found: " + parent);
  }
  if (keys_.count(child) > 0) {
    return Status::AlreadyExists("key already exists: " + child);
  }
  keys_.emplace(child, Key(crypto::DeriveKey(it->second.material, label)));
  return Status::OK();
}

bool KeyStore::HasKey(const std::string& name) const {
  return keys_.count(name) > 0;
}

Status KeyStore::DestroyKey(const std::string& name) {
  if (keys_.erase(name) == 0) {
    return Status::NotFound("key not found: " + name);
  }
  return Status::OK();
}

std::vector<std::string> KeyStore::ListKeyNames() const {
  std::vector<std::string> names;
  names.reserve(keys_.size());
  for (const auto& [name, key] : keys_) names.push_back(name);
  return names;
}

Result<Bytes> KeyStore::GetMaterial(const std::string& name) const {
  auto it = keys_.find(name);
  if (it == keys_.end()) {
    return Status::NotFound("key not found: " + name);
  }
  return it->second.material;
}

Result<const crypto::AeadKey*> KeyStore::GetAeadKey(
    const std::string& name) const {
  auto it = keys_.find(name);
  if (it == keys_.end()) {
    return Status::NotFound("key not found: " + name);
  }
  return &it->second.aead;
}

std::vector<std::pair<std::string, Bytes>>
KeyStore::ExtractAllForPhysicalBreach() {
  breached_ = true;
  std::vector<std::pair<std::string, Bytes>> out;
  out.reserve(keys_.size());
  for (const auto& [name, key] : keys_) out.emplace_back(name, key.material);
  return out;
}

}  // namespace tc::tee
