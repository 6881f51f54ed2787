// E14 — partition-tolerant sync: goodput and availability under injected
// network faults, byte-identical convergence of weakly connected cells, and
// time-to-converge after a provider outage.
//
// The paper's cells are "weakly connected" by design (Section: secure
// communication / durability against a provider that can fail): a cell must
// keep accepting writes while partitioned and converge to the same
// externalized state as an always-connected one. This harness drives the
// tc::fleet workload through tc::net resilient channels against a
// NetworkFaultInjector and reports:
//
//   * goodput / first-try availability vs message-fault rate (0–50%),
//   * byte-identical final cloud state: lossy run vs clean run over the
//     same workload stream,
//   * time from a forced provider outage healing (default 10 s, override
//     with --outage_ms=N) to the whole fleet drained and converged.
//
// Each cell writes as a TrustedCell stores: one blind single-write commit
// per write, re-sent unchanged until acked, so exactly-once rests on the
// provider's txn-token table. The `dup` column counts versions whose bytes
// repeat an earlier version of the same blob (a re-delivery applied
// twice); payloads are random, so any repeat is a duplicate.
//
// It is also a gate: the exit status is non-zero unless every sweep row and
// the outage leg converge every cell with no failed cell, and the lossy run
// ends byte-identical to the clean one.
//
// Op-count columns are deterministic per seed; wall-clock columns are host
// measurements. Retry timing itself is virtual (channel clocks), so fault
// sweeps run at CPU speed.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/fleet/fleet.h"

using namespace tc;         // NOLINT — benchmark brevity.
using namespace tc::fleet;  // NOLINT
using cloud::CloudInfrastructure;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;

namespace {

FleetOptions BaseOptions() {
  FleetOptions options;
  options.cells = 64;
  options.threads = 8;
  options.rounds_per_cell = 16;
  options.writes_per_round = 4;
  options.gets_per_round = 4;
  options.docs_per_cell = 16;
  options.payload_bytes = 256;
  options.send_prob = 0.25;
  options.seed = 14;
  return options;
}

struct RunOutcome {
  FleetReport report;
  bool ok = false;
};

RunOutcome RunOnce(CloudInfrastructure* cloud, const FleetOptions& options) {
  FleetRunner runner(cloud, options);
  auto report = runner.Run();
  RunOutcome outcome;
  if (!report.ok()) {
    std::printf("  RUN FAILED: %s\n", report.status().ToString().c_str());
    return outcome;
  }
  outcome.report = *report;
  outcome.ok = report->cells_failed == 0;
  if (!outcome.ok) {
    std::printf("  %zu cells failed, first error: %s\n", report->cells_failed,
                [&] {
                  for (const auto& c : report->cells) {
                    if (!c.status.ok()) return c.status.ToString();
                  }
                  return std::string("?");
                }().c_str());
  }
  return outcome;
}

std::string BlobId(size_t cell, size_t doc) {
  return "fleet/cell" + std::to_string(cell) + "/doc" + std::to_string(doc);
}

/// Versions of the fleet's blobs whose bytes repeat an earlier version of
/// the same blob.
uint64_t DuplicateVersions(CloudInfrastructure& cloud,
                           const FleetOptions& options) {
  uint64_t duplicates = 0;
  for (size_t cell = 0; cell < options.cells; ++cell) {
    for (size_t doc = 0; doc < options.docs_per_cell; ++doc) {
      const std::string id = BlobId(cell, doc);
      auto latest = cloud.blob_store().LatestVersion(id);
      if (!latest.ok()) continue;
      std::set<std::string> seen;
      for (uint64_t v = 1; v <= *latest; ++v) {
        auto data = cloud.blob_store().GetVersion(id, v);
        if (data.ok() && !seen.insert(ToString(*data)).second) ++duplicates;
      }
    }
  }
  return duplicates;
}

/// True when the run had no failed cell and every cell converged.
bool AllConverged(const RunOutcome& outcome, const FleetOptions& options) {
  return outcome.ok && outcome.report.cells_converged == options.cells;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t outage_ms = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--outage_ms=", 12) == 0) {
      outage_ms = std::strtoull(argv[i] + 12, nullptr, 10);
    }
  }

  std::printf("=== E14: partition-tolerant cell<->cloud sync ===\n");
  bool gate = true;

  // ---- Goodput / availability vs fault rate ----
  std::printf("\ngoodput and availability vs message-fault rate (64 cells, "
              "8 threads, Lossy schedule; avail = ops answered within "
              "their round):\n");
  std::printf("  fault%%     puts     gets deferred  drained  retries "
              "get-unav   goodput/s  avail%%  converged  dup\n");
  for (double rate : {0.0, 0.01, 0.05, 0.10, 0.25, 0.50}) {
    FleetOptions options = BaseOptions();
    CloudInfrastructure cloud;
    NetworkFaultConfig config = NetworkFaultConfig::Lossy(rate, 14);
    config.delay_prob = rate;
    NetworkFaultInjector injector(config);
    if (rate > 0) cloud.set_fault_injector(&injector);
    RunOutcome outcome = RunOnce(&cloud, options);
    gate = gate && AllConverged(outcome, options);
    if (!outcome.ok) continue;
    const FleetReport& r = outcome.report;
    const uint64_t ops = r.puts + r.gets;
    const uint64_t answered =
        (r.puts - r.deferred) + (r.gets - r.gets_unavailable);
    std::printf("  %5.0f%% %8llu %8llu %8llu %8llu %8llu %8llu  %10.0f  "
                "%5.1f%%  %5zu/%zu %4llu\n",
                rate * 100, static_cast<unsigned long long>(r.puts),
                static_cast<unsigned long long>(r.gets),
                static_cast<unsigned long long>(r.deferred),
                static_cast<unsigned long long>(r.drained),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.gets_unavailable),
                r.put_get_per_second,
                ops > 0 ? 100.0 * static_cast<double>(answered) /
                              static_cast<double>(ops)
                        : 0.0,
                r.cells_converged, options.cells,
                static_cast<unsigned long long>(
                    DuplicateVersions(cloud, options)));
  }

  // ---- Byte-identical convergence: lossy vs clean ----
  std::printf("\nconvergence check: 25%%-lossy run vs clean run, same "
              "workload stream — final cloud state must be "
              "byte-identical:\n");
  {
    FleetOptions options = BaseOptions();

    CloudInfrastructure clean_cloud;
    RunOutcome clean = RunOnce(&clean_cloud, options);

    CloudInfrastructure lossy_cloud;
    NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.25, 14);
    NetworkFaultInjector injector(config);
    lossy_cloud.set_fault_injector(&injector);
    RunOutcome lossy = RunOnce(&lossy_cloud, options);

    bool identical = false;
    if (clean.ok && lossy.ok) {
      size_t compared = 0;
      size_t mismatched = 0;
      for (size_t cell = 0; cell < options.cells; ++cell) {
        for (size_t doc = 0; doc < options.docs_per_cell; ++doc) {
          const std::string blob_id = BlobId(cell, doc);
          auto a = clean_cloud.blob_store().Get(blob_id);
          auto b = lossy_cloud.blob_store().Get(blob_id);
          ++compared;
          if (!a.ok() || !b.ok() || *a != *b) ++mismatched;
        }
      }
      std::printf("  %zu docs compared, %zu mismatched (%s), lossy run "
                  "converged %zu/%zu cells, %llu writes drained "
                  "post-round\n",
                  compared, mismatched,
                  mismatched == 0 ? "byte-identical" : "DIVERGED",
                  lossy.report.cells_converged, options.cells,
                  static_cast<unsigned long long>(lossy.report.drained));
      identical = mismatched == 0;
    }
    gate = gate && identical && AllConverged(lossy, options);
  }

  // ---- Forced provider outage: degrade, heal, converge ----
  std::printf("\nforced provider outage (%llu ms wall): cells keep "
              "accepting writes (deferred to pending slots), then drain "
              "and converge after the heal:\n",
              static_cast<unsigned long long>(outage_ms));
  {
    FleetOptions options = BaseOptions();
    options.cells = 8;  // One worker per cell: post-heal time is pure drain.
    options.threads = 8;
    options.rounds_per_cell = 12;

    CloudInfrastructure cloud;
    NetworkFaultInjector injector{NetworkFaultConfig{}};
    cloud.set_fault_injector(&injector);

    injector.ForceOutage(true);
    std::chrono::steady_clock::time_point healed_at;
    std::thread healer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(outage_ms));
      injector.ForceOutage(false);
      healed_at = std::chrono::steady_clock::now();
    });
    RunOutcome outcome = RunOnce(&cloud, options);
    auto done_at = std::chrono::steady_clock::now();
    healer.join();
    gate = gate && AllConverged(outcome, options);

    if (outcome.ok) {
      const FleetReport& r = outcome.report;
      const double converge_s =
          std::chrono::duration<double>(done_at - healed_at).count();
      std::printf("  %llu writes deferred during the outage, %llu drained "
                  "after the heal, %zu/%zu cells converged\n",
                  static_cast<unsigned long long>(r.deferred),
                  static_cast<unsigned long long>(r.drained),
                  r.cells_converged, options.cells);
      std::printf("  breaker opened %llu times; heal -> all cells "
                  "converged in %.3f s\n",
                  static_cast<unsigned long long>(r.breaker_opens),
                  converge_s);
    }
  }

  std::printf("\nacked writes are never lost: every cell re-verifies its "
              "acked state against the store after the drain (convergence "
              "column). retry timing is virtual (channel clocks), outage "
              "timing is wall-clock.\n");
  std::printf("\nE14 gate: %s\n",
              gate ? "PASS (every run converged, lossy == clean)"
                   : "FAILED (a cell failed or did not converge, or the "
                     "lossy run diverged from the clean one)");
  return gate ? 0 : 1;
}
