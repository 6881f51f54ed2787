// Proves the benchmark's output check is live: a transport that flips one
// byte of every fifth GetBlob reply must make exactly those fetches count
// as failed and the run incorrect, while the same pass without flips
// stays correct. Exits non-zero on any violation.

#include <atomic>
#include <cstdio>
#include <memory>

#include "cellbench/src/harness.h"

namespace cellbench {
namespace {

using tc::Bytes;
using tc::Result;

/// Forwards every call; corrupts one byte of every `period`-th GetBlob
/// reply (counted across all cells) and counts the corruptions.
class FlippingTransport final : public tc::net::CloudTransport {
 public:
  FlippingTransport(tc::net::CloudTransport* inner, int period,
                    std::atomic<int>* calls, std::atomic<int>* flips)
      : inner_(inner), period_(period), calls_(calls), flips_(flips) {}

  BatchPutOutcome PutBlobBatch(
      const std::vector<std::pair<std::string, Bytes>>& items,
      const std::vector<std::string>& tokens) override {
    return inner_->PutBlobBatch(items, tokens);
  }
  Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) override {
    Result<Bytes> reply = inner_->GetBlob(id, delay_us);
    if (period_ > 0 && reply.ok() && !reply->empty() &&
        calls_->fetch_add(1) % period_ == 0) {
      Bytes corrupted = *reply;
      corrupted[corrupted.size() / 2] ^= 0x01;
      flips_->fetch_add(1);
      return corrupted;
    }
    return reply;
  }
  Result<tc::cloud::SnapshotDescriptor> GetSnapshot(
      uint32_t* delay_us) override {
    return inner_->GetSnapshot(delay_us);
  }
  Result<tc::cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const tc::cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override {
    return inner_->GetAtSnapshot(id, snap, delay_us);
  }
  tc::cloud::TxnOutcome CommitTxn(const tc::cloud::TxnRequest& req) override {
    return inner_->CommitTxn(req);
  }
  tc::obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) override {
    return inner_->ReportTelemetry(frame, delay_us);
  }
  Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override {
    return inner_->ScrapeTelemetry(delay_us);
  }
  std::string name() const override { return "flipping"; }

 private:
  tc::net::CloudTransport* inner_;
  int period_;
  std::atomic<int>* calls_;
  std::atomic<int>* flips_;
};

/// One short vault_local pass through a FlippingTransport.
RoundResult RunVault(int period, std::atomic<int>* flips) {
  std::atomic<int> calls{0};
  RoundOptions options;
  options.spec = FindWorkload("vault_local");
  options.wrap = [&](tc::net::CloudTransport* inner) {
    return std::make_unique<FlippingTransport>(inner, period, &calls, flips);
  };
  return RunRound(options, MakePlans(*options.spec, /*seed=*/7,
                                     /*ops_per_cell=*/300),
                  nullptr);
}

int Main() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  std::atomic<int> no_flips{0};
  RoundResult clean = RunVault(/*period=*/0, &no_flips);
  expect(clean.ran, "clean pass ran");
  expect(clean.correct() && clean.failed() == 0,
         "clean pass: every fetch matches, every output check passes");

  std::atomic<int> flips{0};
  RoundResult flipped = RunVault(/*period=*/5, &flips);
  std::printf("flipped replies=%d failed=%zu check_failures=%zu\n",
              flips.load(), flipped.failed(), flipped.check_failures.size());
  expect(flipped.ran, "flipping pass ran");
  expect(flips.load() > 0, "some GetBlob replies were corrupted");
  expect(flipped.failed() == static_cast<size_t>(flips.load()),
         "every corrupted fetch, and nothing else, counts as failed");
  expect(!flipped.correct(), "the run is reported incorrect");
  expect(!flipped.check_failures.empty(),
         "the incident check reports the tampered payloads");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cellbench

int main() { return cellbench::Main(); }
