#include "tc/storage/page_transform.h"

#include "tc/common/codec.h"
#include "tc/crypto/aead.h"

namespace tc::storage {

Result<Bytes> PlainPageTransform::Encode(uint64_t /*page_no*/,
                                         uint64_t /*incarnation*/,
                                         const Bytes& payload) {
  return payload;
}

Result<Bytes> PlainPageTransform::Decode(uint64_t /*page_no*/,
                                         uint64_t /*incarnation*/,
                                         const Bytes& page) {
  return page;
}

EncryptedPageTransform::EncryptedPageTransform(
    tee::TrustedExecutionEnvironment* tee, std::string key_name)
    : tee_(tee), key_name_(std::move(key_name)) {}

size_t EncryptedPageTransform::UsablePayload(size_t page_size) const {
  // nonce(12) + tag(32) of the TEE sealing format.
  return page_size - crypto::kAeadNonceSize - crypto::kAeadTagSize;
}

Bytes EncryptedPageTransform::MakeAad(uint64_t page_no, uint64_t incarnation) {
  // Qualified: this class's own Encode would hide the codec's.
  return tc::Encode(std::string("tc.storage.page"), page_no, incarnation);
}

Result<Bytes> EncryptedPageTransform::Encode(uint64_t page_no,
                                             uint64_t incarnation,
                                             const Bytes& payload) {
  return tee_->Seal(key_name_, MakeAad(page_no, incarnation), payload);
}

Result<Bytes> EncryptedPageTransform::Decode(uint64_t page_no,
                                             uint64_t incarnation,
                                             const Bytes& page) {
  return tee_->Open(key_name_, MakeAad(page_no, incarnation), page);
}

}  // namespace tc::storage
