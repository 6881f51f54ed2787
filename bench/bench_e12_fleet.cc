// E12 — fleet-scale concurrency against the sharded cloud.
//
// The paper's cloud serves "35M households"; the ROADMAP north star is heavy
// traffic from millions of users. This harness drives K simulated cells
// concurrently (tc::fleet worker pool; each sealed-blob write is one blind
// single-write commit, as a TrustedCell's store is) against one shared
// CloudInfrastructure and reports:
//
//   * thread scaling in the WAN regime (200 us simulated provider RTT —
//     the regime a real cloud lives in; concurrency overlaps round-trips),
//   * shard-count sweep in the in-process regime (lock striping vs a single
//     global lock; contention counters, which count readers and writers
//     that wait for a stripe — every commit also takes its token's stripe,
//     and no commit takes a store-wide lock),
//   * fleet-size sweep (cells >> threads through the bounded work queue).
//
// Latency percentiles (p50/p95/p99) are sourced from the tc::obs registry
// histograms (`fleet.write_us` / `fleet.get_us`), delta-scoped to each
// run — not ad-hoc wall-clock vectors. Op-count columns are deterministic;
// wall-clock / ops/s / latency columns vary run to run (host measurement).

#include <cstdio>

#include "tc/cloud/infrastructure.h"
#include "tc/fleet/fleet.h"

using namespace tc;         // NOLINT — benchmark brevity.
using namespace tc::fleet;  // NOLINT

namespace {

FleetOptions BaseOptions() {
  FleetOptions options;
  options.cells = 64;
  options.threads = 4;
  options.rounds_per_cell = 16;
  options.writes_per_round = 4;
  options.gets_per_round = 4;
  options.docs_per_cell = 16;
  options.payload_bytes = 256;
  options.send_prob = 0.25;
  options.seed = 12;
  return options;
}

struct RunOutcome {
  FleetReport report;
  bool ok = false;
};

RunOutcome RunOnce(const FleetOptions& options,
                   const cloud::CloudInfrastructure::Options& cloud_options) {
  cloud::CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(),
                                   cloud_options);
  FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  RunOutcome outcome;
  if (!report.ok()) {
    std::printf("  RUN FAILED: %s\n", report.status().ToString().c_str());
    return outcome;
  }
  outcome.report = *report;
  outcome.ok = report->cells_failed == 0;
  if (!outcome.ok) {
    std::printf("  %zu cells failed, first error: %s\n",
                report->cells_failed, [&] {
                  for (const auto& c : report->cells) {
                    if (!c.status.ok()) return c.status.ToString();
                  }
                  return std::string("?");
                }().c_str());
  }
  return outcome;
}

void PrintRow(const char* label, const FleetReport& r, double baseline_ops) {
  std::printf("%8s %8llu %8llu %8llu %10.0f %8.2fx "
              "%7.0f %7.0f %7.0f %7.0f %7.0f %7.0f %7llu %7llu\n",
              label, static_cast<unsigned long long>(r.puts),
              static_cast<unsigned long long>(r.gets),
              static_cast<unsigned long long>(r.sends), r.put_get_per_second,
              baseline_ops > 0 ? r.put_get_per_second / baseline_ops : 1.0,
              r.put_latency.p50_us, r.put_latency.p95_us, r.put_latency.p99_us,
              r.get_latency.p50_us, r.get_latency.p95_us, r.get_latency.p99_us,
              static_cast<unsigned long long>(r.blob_lock_contention),
              static_cast<unsigned long long>(r.queue_lock_contention));
}

const char* kHeader =
    "  config     puts     gets    sends   putget/s  speedup "
    " putp50  putp95  putp99  getp50  getp95  getp99  b-cont  q-cont\n";

}  // namespace

int main() {
  std::printf("=== E12: fleet-scale concurrency on the sharded cloud ===\n");

  // ---- Thread scaling, WAN regime (16 shards, 200 us provider RTT) ----
  std::printf("\nthread scaling: 64 cells, 16 shards, 200 us simulated "
              "round-trip per provider op:\n");
  std::printf("%s", kHeader);
  {
    cloud::CloudInfrastructure::Options cloud_options;
    cloud_options.op_latency_us = 200;
    double baseline = 0;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      FleetOptions options = BaseOptions();
      options.threads = threads;
      RunOutcome outcome = RunOnce(options, cloud_options);
      if (!outcome.ok) continue;
      if (threads == 1) baseline = outcome.report.put_get_per_second;
      char label[16];
      std::snprintf(label, sizeof(label), "%zuthr", threads);
      PrintRow(label, outcome.report, baseline);
    }
  }

  // ---- Shard sweep, in-process regime (8 threads, zero latency) ----
  std::printf("\nshard sweep: 64 cells, 8 threads, in-process (lock striping "
              "vs one global lock; contention = blocked acquisitions):\n");
  std::printf("%s", kHeader);
  {
    double baseline = 0;
    for (size_t shards : {1u, 2u, 4u, 16u, 64u}) {
      cloud::CloudInfrastructure::Options cloud_options;
      cloud_options.blob_shards = shards;
      cloud_options.queue_shards = shards;
      FleetOptions options = BaseOptions();
      options.threads = 8;
      options.rounds_per_cell = 32;
      RunOutcome outcome = RunOnce(options, cloud_options);
      if (!outcome.ok) continue;
      if (shards == 1) baseline = outcome.report.put_get_per_second;
      char label[16];
      std::snprintf(label, sizeof(label), "%zush", shards);
      PrintRow(label, outcome.report, baseline);
    }
  }

  // ---- Fleet-size sweep (bounded queue feeds 8 threads) ----
  std::printf("\nfleet size: 8 threads, 16 shards, 200 us round-trip, "
              "cells >> threads via the bounded work queue:\n");
  std::printf("%s", kHeader);
  {
    cloud::CloudInfrastructure::Options cloud_options;
    cloud_options.op_latency_us = 200;
    for (size_t cells : {16u, 64u, 256u}) {
      FleetOptions options = BaseOptions();
      options.threads = 8;
      options.cells = cells;
      options.rounds_per_cell = 8;
      RunOutcome outcome = RunOnce(options, cloud_options);
      if (!outcome.ok) continue;
      char label[16];
      std::snprintf(label, sizeof(label), "%zuc", cells);
      PrintRow(label, outcome.report, 0);
    }
  }

  std::printf("\nall cells verified every read against their own acked "
              "writes; timing columns are host measurements.\n"
              "latency percentiles come from the tc::obs registry histograms "
              "(fleet.write_us / fleet.get_us), p50/p95/p99 in us,\n"
              "put = one write's blind commit. bucket resolution bounds "
              "percentile error at 25%% of the value.\n");
  return 0;
}
