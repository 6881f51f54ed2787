// E6 — the secure private store vs the plaintext centralized vault.
//
// Measures what the trusted-cell security machinery costs on the
// store/fetch/sync paths, and what metadata-first querying saves:
//   * document store/fetch throughput, cell (sealed) vs vault (plaintext),
//   * multi-device sync push/pull,
//   * local metadata search vs cloud round trips.

#include <chrono>
#include <cstdio>

#include "tc/cell/cell.h"
#include "tc/cell/vault_baseline.h"
#include "tc/obs/metrics.h"

using namespace tc;  // NOLINT — benchmark brevity.

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// p50/p95/p99 of a tc::obs histogram delta over a measured region.
void PrintPercentiles(const char* label, const obs::HistogramSnapshot& after,
                      const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot delta = after.Minus(before);
  std::printf("%-34s p50 %5.0f us  p95 %5.0f us  p99 %5.0f us  (n=%llu)\n",
              label, delta.Percentile(0.50), delta.Percentile(0.95),
              delta.Percentile(0.99),
              static_cast<unsigned long long>(delta.count));
}

}  // namespace

int main() {
  std::printf("=== E6: secure private store vs centralized vault ===\n");
  SimulatedClock clock(MakeTimestamp(2013, 3, 1));
  cloud::CloudInfrastructure cloud;
  cell::CellDirectory directory;

  cell::TrustedCell::Config config;
  config.cell_id = "bench-gateway";
  config.owner = "bench-user";
  config.device_class = tee::DeviceClass::kHomeGateway;
  auto cell = *cell::TrustedCell::Create(config, &cloud, &directory, &clock);
  cell::CentralizedVault vault(&cloud, &clock);
  policy::Policy owner_policy = cell::MakeOwnerPolicy("bench-user");

  std::printf("\n%-34s %12s %12s %9s\n", "operation (200 x 4 KiB docs)",
              "cell ms/op", "vault ms/op", "overhead");

  const int kDocs = 200;
  Rng rng(1);
  std::vector<Bytes> payloads;
  for (int i = 0; i < kDocs; ++i) payloads.push_back(rng.NextBytes(4096));

  obs::Histogram& seal_hist =
      obs::MetricRegistry::Global().GetHistogram("cell.seal_us");
  obs::Histogram& unseal_hist =
      obs::MetricRegistry::Global().GetHistogram("cell.unseal_us");

  // Store.
  std::vector<std::string> cell_ids, vault_ids;
  obs::HistogramSnapshot seal_before = seal_hist.Snapshot();
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kDocs; ++i) {
    cell_ids.push_back(*cell->StoreDocument(
        "doc " + std::to_string(i), "tag" + std::to_string(i % 10),
        payloads[i], owner_policy));
  }
  double cell_store = MsSince(t0) / kDocs;
  obs::HistogramSnapshot seal_after = seal_hist.Snapshot();
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kDocs; ++i) {
    vault_ids.push_back(*vault.StoreDocument(
        "bench-user", "doc " + std::to_string(i), payloads[i], owner_policy));
  }
  double vault_store = MsSince(t0) / kDocs;
  std::printf("%-34s %12.3f %12.3f %8.1fx\n", "store (seal+policy vs plain)",
              cell_store, vault_store, cell_store / vault_store);

  // Fetch.
  obs::HistogramSnapshot unseal_before = unseal_hist.Snapshot();
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kDocs; ++i) {
    TC_CHECK(cell->FetchDocument(cell_ids[i]).ok());
  }
  double cell_fetch = MsSince(t0) / kDocs;
  obs::HistogramSnapshot unseal_after = unseal_hist.Snapshot();
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kDocs; ++i) {
    TC_CHECK(vault.ReadDocument(vault_ids[i], "bench-user").ok());
  }
  double vault_fetch = MsSince(t0) / kDocs;
  std::printf("%-34s %12.3f %12.3f %8.1fx\n",
              "fetch (verify+unseal vs plain)", cell_fetch, vault_fetch,
              cell_fetch / vault_fetch);

  // Where the cell's absolute cost goes: the TEE sealing path, measured by
  // the tc::obs histograms inside the cell (not wall-clock around the API).
  std::printf("\nsealing-path distribution (tc::obs cell.seal_us / "
              "cell.unseal_us):\n");
  PrintPercentiles("  seal (AEAD encrypt, 4 KiB)", seal_after, seal_before);
  PrintPercentiles("  unseal (AEAD decrypt, 4 KiB)", unseal_after,
                   unseal_before);

  // Sync: a second cell of the same owner pulls everything.
  cell::TrustedCell::Config phone_cfg;
  phone_cfg.cell_id = "bench-phone";
  phone_cfg.owner = "bench-user";
  phone_cfg.device_class = tee::DeviceClass::kSmartPhone;
  auto phone = *cell::TrustedCell::Create(phone_cfg, &cloud, &directory,
                                          &clock);
  t0 = std::chrono::steady_clock::now();
  TC_CHECK(cell->SyncPush().ok());
  double push_ms = MsSince(t0);
  t0 = std::chrono::steady_clock::now();
  TC_CHECK(phone->SyncPull().ok());
  double pull_ms = MsSince(t0);
  std::printf("\nsync of %d-doc manifest: push %.1f ms, pull %.1f ms "
              "(metadata only — no payload transfer)\n",
              kDocs, push_ms, pull_ms);

  // Metadata-first query vs naive fetch-all filter.
  uint64_t gets_before = cloud.stats().blob_gets;
  t0 = std::chrono::steady_clock::now();
  auto hits = phone->SearchDocuments("tag3");
  TC_CHECK(hits.ok());
  double search_ms = MsSince(t0);
  uint64_t search_gets = cloud.stats().blob_gets - gets_before;
  t0 = std::chrono::steady_clock::now();
  for (const auto& meta : *hits) {
    TC_CHECK(phone->FetchDocument(meta.doc_id).ok());
  }
  double fetch_hits_ms = MsSince(t0);
  uint64_t fetch_gets = cloud.stats().blob_gets - gets_before - search_gets;
  std::printf(
      "metadata-first query 'tag3': %zu hits in %.2f ms with %llu cloud "
      "reads;\nfetching the %zu matching payloads afterwards: %.2f ms, "
      "%llu cloud reads\n",
      hits->size(), search_ms, static_cast<unsigned long long>(search_gets),
      hits->size(), fetch_hits_ms,
      static_cast<unsigned long long>(fetch_gets));

  // Ciphertext expansion.
  auto meta = *cell->GetDocumentMeta(cell_ids[0]);
  auto blob = *cloud.blob_store().Get(meta.blob_id);
  std::printf(
      "\nciphertext expansion: %zu B plaintext -> %zu B sealed (+%zu B "
      "nonce+tag)\n",
      payloads[0].size(), blob.size(), blob.size() - payloads[0].size());
  std::printf(
      "expected shape: the cell's absolute cost (fractions of a ms per\n"
      "document) is dominated by the software AEAD of the sealing path —\n"
      "the vault does no crypto at all, so the ratio measures crypto, not\n"
      "protocol. The functional gap is zero; the security gap is total\n"
      "(vault: provider reads everything, cell: provider reads nothing).\n");
  return 0;
}
