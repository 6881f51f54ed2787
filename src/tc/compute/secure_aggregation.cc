#include "tc/compute/secure_aggregation.h"

#include "tc/common/codec.h"
#include "tc/crypto/dh.h"
#include "tc/crypto/group.h"
#include "tc/crypto/hkdf.h"
#include "tc/crypto/hmac.h"
#include "tc/crypto/paillier.h"
#include "tc/crypto/sha256.h"

namespace tc::compute {
namespace {

std::string CellName(int i) { return "cell-" + std::to_string(i); }

/// Pairwise mask for (i, j) in the given round; both ends derive the same
/// value from the symmetric seed.
uint64_t PairwiseMask(const Bytes& seed, uint64_t round) {
  Bytes mac =
      crypto::HmacSha256(seed, Encode(std::string("tc.agg.mask"), round));
  uint64_t v = 0;
  for (int k = 0; k < 8; ++k) v |= static_cast<uint64_t>(mac[k]) << (8 * k);
  return v;
}

Result<uint64_t> DecodeU64(const Bytes& b) {
  uint64_t v = 0;
  TC_RETURN_IF_ERROR(Decode(b, &v));
  return v;
}

struct TrafficCounter {
  explicit TrafficCounter(cloud::CloudInfrastructure& cloud)
      : cloud_(cloud), start_(cloud.stats()) {}
  void Fill(AggregationOutcome& outcome) const {
    const cloud::CloudStats& now = cloud_.stats();
    outcome.messages = now.messages_sent - start_.messages_sent;
    outcome.bytes = (now.bytes_in - start_.bytes_in);
  }
  cloud::CloudInfrastructure& cloud_;
  cloud::CloudStats start_;
};

}  // namespace

// ---------------------------------------------------------------- setup

SecureAggregation::PairwiseChannels
SecureAggregation::PairwiseChannels::Setup(int n, bool use_real_dh,
                                           uint64_t seed) {
  PairwiseChannels channels;
  channels.n_ = n;
  channels.seeds_.assign(static_cast<size_t>(n) * n, {});
  if (use_real_dh) {
    const crypto::GroupParams& group = crypto::GroupParams::Standard(512);
    crypto::DiffieHellman dh(group);
    std::vector<crypto::DhKeyPair> keys;
    keys.reserve(n);
    for (int i = 0; i < n; ++i) {
      Bytes s = ToBytes("tc.agg.cell." + std::to_string(seed) + "." +
                        std::to_string(i));
      crypto::SecureRandom rng(s);
      keys.push_back(dh.GenerateKeyPair(rng));
    }
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        auto shared = dh.ComputeSharedKey(keys[i].private_key,
                                          keys[j].public_key);
        TC_CHECK(shared.ok());
        channels.seeds_[i * n + j] = *shared;
        channels.seeds_[j * n + i] = *shared;
      }
    }
  } else {
    // Simulation shortcut for large N: hash-derived symmetric seeds
    // standing in for the (amortized, one-time) DH setup.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        Bytes s = crypto::Sha256Hash(
            Encode(std::string("tc.agg.simulated-channel"), seed,
                   static_cast<uint32_t>(i), static_cast<uint32_t>(j)));
        channels.seeds_[i * n + j] = s;
        channels.seeds_[j * n + i] = s;
      }
    }
  }
  return channels;
}

const Bytes& SecureAggregation::PairwiseChannels::SeedFor(int i, int j) const {
  TC_CHECK(i != j && i >= 0 && j >= 0 && i < n_ && j < n_);
  return seeds_[static_cast<size_t>(i) * n_ + j];
}

// ------------------------------------------------------------- cleartext

Result<AggregationOutcome> SecureAggregation::RunCleartext(
    cloud::CloudInfrastructure& cloud, const std::vector<int64_t>& values) {
  if (values.empty()) return Status::InvalidArgument("no participants");
  TrafficCounter traffic(cloud);
  for (size_t i = 0; i < values.size(); ++i) {
    cloud.Send(CellName(static_cast<int>(i)), "aggregator", "value",
               Encode(static_cast<uint64_t>(values[i])));
  }
  int64_t sum = 0;
  int contributors = 0;
  for (const cloud::Message& msg : cloud.Receive("aggregator")) {
    TC_ASSIGN_OR_RETURN(uint64_t v, DecodeU64(msg.payload));
    sum += static_cast<int64_t>(v);
    ++contributors;
  }
  AggregationOutcome outcome;
  outcome.sum = sum;
  outcome.contributors = contributors;
  outcome.privacy_preserving = false;
  traffic.Fill(outcome);
  return outcome;
}

// ------------------------------------------------------ additive masking

Result<AggregationOutcome> SecureAggregation::RunAdditiveMasking(
    cloud::CloudInfrastructure& cloud, const std::vector<int64_t>& values,
    const PairwiseChannels& channels, uint64_t round, double dropout_rate,
    Rng& rng) {
  const int n = static_cast<int>(values.size());
  if (n == 0) return Status::InvalidArgument("no participants");
  if (channels.size() < n) {
    return Status::InvalidArgument("pairwise channels smaller than roster");
  }
  TrafficCounter traffic(cloud);

  // Phase 1: every cell computes its masked contribution over the full
  // roster, then some cells drop out before (or while) sending.
  std::vector<bool> alive(n, true);
  for (int i = 0; i < n; ++i) {
    if (dropout_rate > 0 && rng.NextBernoulli(dropout_rate)) {
      alive[i] = false;
    }
  }
  for (int i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    uint64_t masked = static_cast<uint64_t>(values[i]);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      uint64_t mask = PairwiseMask(channels.SeedFor(i, j), round);
      if (j > i) {
        masked += mask;
      } else {
        masked -= mask;
      }
    }
    cloud.Send(CellName(i), "aggregator", "masked", Encode(masked));
  }

  // Aggregator: collect, identify dropouts by roster difference.
  uint64_t total = 0;
  std::vector<bool> contributed(n, false);
  int contributors = 0;
  for (const cloud::Message& msg : cloud.Receive("aggregator")) {
    if (msg.topic != "masked") continue;
    int i = std::stoi(msg.from.substr(5));
    if (i < 0 || i >= n || contributed[i]) continue;  // Replay-safe.
    TC_ASSIGN_OR_RETURN(uint64_t v, DecodeU64(msg.payload));
    total += v;
    contributed[i] = true;
    ++contributors;
  }
  if (contributors == 0) {
    return Status::Unavailable("all cells dropped out");
  }

  // Phase 2 (repair): residual masks of pairs (survivor, dropout) are
  // disclosed by survivors so the aggregator can cancel them. Masks
  // between two survivors stay secret; masks with dropped cells protect
  // nothing anymore (the dropped cell contributed no value).
  std::vector<int> dropped;
  for (int i = 0; i < n; ++i) {
    if (!contributed[i]) dropped.push_back(i);
  }
  if (!dropped.empty()) {
    for (int i = 0; i < n; ++i) {
      if (!contributed[i]) continue;
      uint64_t correction = 0;
      for (int j : dropped) {
        uint64_t mask = PairwiseMask(channels.SeedFor(i, j), round);
        if (j > i) {
          correction += mask;
        } else {
          correction -= mask;
        }
      }
      cloud.Send(CellName(i), "aggregator", "repair", Encode(correction));
    }
    for (const cloud::Message& msg : cloud.Receive("aggregator")) {
      if (msg.topic != "repair") continue;
      TC_ASSIGN_OR_RETURN(uint64_t c, DecodeU64(msg.payload));
      total -= c;
    }
  }

  AggregationOutcome outcome;
  outcome.sum = static_cast<int64_t>(total);
  outcome.contributors = contributors;
  outcome.dropouts = static_cast<int>(dropped.size());
  outcome.privacy_preserving = true;
  traffic.Fill(outcome);
  return outcome;
}

// --------------------------------------------------------------- paillier

Result<AggregationOutcome> SecureAggregation::RunPaillier(
    cloud::CloudInfrastructure& cloud, const std::vector<int64_t>& values,
    size_t modulus_bits, double dropout_rate, Rng& rng) {
  const int n = static_cast<int>(values.size());
  if (n == 0) return Status::InvalidArgument("no participants");
  for (int64_t v : values) {
    if (v < 0) {
      return Status::InvalidArgument(
          "Paillier aggregation expects non-negative values");
    }
  }
  TrafficCounter traffic(cloud);

  // Querier key pair (one-time; deterministic per run for reproducibility).
  crypto::SecureRandom key_rng(ToBytes("tc.agg.paillier-querier"));
  static crypto::PaillierKeyPair* cached_kp = nullptr;
  static size_t cached_bits = 0;
  if (cached_kp == nullptr || cached_bits != modulus_bits) {
    delete cached_kp;
    cached_kp = new crypto::PaillierKeyPair(
        crypto::Paillier::GenerateKeyPair(key_rng, modulus_bits));
    cached_bits = modulus_bits;
  }
  const crypto::PaillierKeyPair& kp = *cached_kp;

  crypto::SecureRandom enc_rng(ToBytes("tc.agg.paillier-encrypt"));
  int contributors = 0;
  int dropouts = 0;
  for (int i = 0; i < n; ++i) {
    if (dropout_rate > 0 && rng.NextBernoulli(dropout_rate)) {
      ++dropouts;
      continue;
    }
    TC_ASSIGN_OR_RETURN(
        crypto::BigInt ct,
        kp.pub.Encrypt(crypto::BigInt(static_cast<uint64_t>(values[i])),
                       enc_rng));
    cloud.Send(CellName(i), "cloud-folder", "enc",
               ct.ToBytesBE((modulus_bits * 2 + 7) / 8));
    ++contributors;
  }
  if (contributors == 0) {
    return Status::Unavailable("all cells dropped out");
  }

  // The *untrusted* infrastructure folds ciphertexts homomorphically —
  // it computes on data it cannot read.
  crypto::BigInt folded(1);
  for (const cloud::Message& msg : cloud.Receive("cloud-folder")) {
    folded = kp.pub.AddCiphertexts(folded,
                                   crypto::BigInt::FromBytesBE(msg.payload));
  }
  cloud.Send("cloud-folder", "querier", "sum",
             folded.ToBytesBE((modulus_bits * 2 + 7) / 8));

  int64_t sum = 0;
  for (const cloud::Message& msg : cloud.Receive("querier")) {
    TC_ASSIGN_OR_RETURN(
        crypto::BigInt plain,
        kp.priv.Decrypt(crypto::BigInt::FromBytesBE(msg.payload), kp.pub));
    sum = static_cast<int64_t>(plain.ToU64());
  }

  AggregationOutcome outcome;
  outcome.sum = sum;
  outcome.contributors = contributors;
  outcome.dropouts = dropouts;
  outcome.privacy_preserving = true;
  traffic.Fill(outcome);
  return outcome;
}

}  // namespace tc::compute
