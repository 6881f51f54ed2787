// Chaos suite for the partition-tolerant sync stack: randomized network
// fault schedules over a concurrent fleet, with three invariants that must
// hold at ANY fault rate:
//   1. zero acked-write loss      — an acknowledged write is durable and
//                                   readable as the provider's latest state
//   2. no version anomalies       — acked versions per doc strictly increase
//   3. no duplicate side-effects  — versions created == txn writes applied
//                                   (every write is a tokened commit),
//                                   however often the network re-delivered
//                                   anything
// plus serializability of the contended multi-key transaction workload
// (HistoryChecker over a fault-rate x seed sweep) and the CI
// reproducibility gate: every chaos seed must replay exactly from its
// printed fault schedule.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "tc/cell/cell.h"
#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/clock.h"
#include "tc/fleet/fleet.h"
#include "wire_harness.h"
#include "tc/testing/history_checker.h"

namespace tc {
namespace {

using cloud::CloudInfrastructure;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;
using fleet::FleetOptions;
using fleet::FleetReport;

// TC_TRANSPORT=socket (the chaos_test_wire ctest leg) reruns this entire
// suite with every channel crossing a real loopback TCP connection to an
// RpcServer in front of the same CloudInfrastructure — the fault injector
// and every invariant below are unchanged. Skip the wire leg loudly where
// the sandbox forbids loopback sockets.
#define SKIP_IF_WIRE_LEG_IMPOSSIBLE()                           \
  do {                                                          \
    if (const char* reason = rpc::WireHarness::SkipReason()) {  \
      GTEST_SKIP() << reason;                                   \
    }                                                           \
  } while (false)

FleetOptions ChaosFleet() {
  FleetOptions options;
  options.cells = 16;
  options.threads = 8;
  options.rounds_per_cell = 12;
  options.writes_per_round = 4;
  options.gets_per_round = 4;
  options.docs_per_cell = 16;
  options.payload_bytes = 64;
  return options;
}

void ExpectInvariantsHold(const FleetReport& report,
                          CloudInfrastructure& cloud,
                          const NetworkFaultInjector& injector,
                          const std::string& label) {
  // Cell-level: no cell died (version anomalies, acked-write loss and
  // read-mismatch all fail the cell with a descriptive status).
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.status.ok())
        << label << " " << cell.cell_id << ": " << cell.status.ToString()
        << "\nfault schedule:\n" << injector.FormatSchedule();
  }
  EXPECT_EQ(report.cells_failed, 0u) << label;
  // Convergence: nothing left pending, every acked write is the latest
  // provider state.
  EXPECT_TRUE(report.converged) << label;
  EXPECT_EQ(report.cells_converged, report.cells.size()) << label;
  // Exactly-once: however many times the network re-delivered writes
  // (lost acks, duplicates), each logical write created at most one
  // version. Every version is a committed txn write, and no version
  // repeats an earlier version's bytes: the payloads are random, so a
  // repeat is a re-delivery applied twice.
  EXPECT_EQ(cloud.blob_store().versions_created(),
            cloud.blob_store().txn_writes_applied())
      << label << ": duplicate side-effects ("
      << cloud.blob_store().txn_replays() << " txn replays)";
  for (const std::string& id : cloud.blob_store().List("fleet/")) {
    std::set<std::string> seen;
    const uint64_t latest = cloud.blob_store().LatestVersion(id).value_or(0);
    for (uint64_t v = 1; v <= latest; ++v) {
      auto data = cloud.blob_store().GetVersion(id, v);
      ASSERT_TRUE(data.ok()) << label << ": " << id << " v" << v;
      EXPECT_TRUE(seen.insert(ToString(*data)).second)
          << label << ": " << id << " v" << v
          << " repeats an earlier version (a write applied twice)";
    }
  }
}

// Deep-sweep width is env-tunable: the CI default keeps the lane cheap,
// `TC_CHAOS_SEEDS=25 ctest -L chaos` runs the wide sweep.
uint64_t ChaosSeedCount(uint64_t fallback) {
  const char* env = std::getenv("TC_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return fallback;
  const long parsed = std::atol(env);
  return parsed > 0 ? static_cast<uint64_t>(parsed) : fallback;
}

TEST(ChaosTest, FaultRateSweepHoldsInvariants) {
  // 1%, 10% and 50% per-attempt fault rates, several seeds each, over an
  // 8-thread fleet. All virtual-time: no wall sleeps anywhere.
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  const uint64_t seeds = ChaosSeedCount(3);
  for (double rate : {0.01, 0.10, 0.50}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      CloudInfrastructure cloud;
      NetworkFaultConfig config = NetworkFaultConfig::Lossy(rate, seed);
      config.delay_prob = rate;
      config.throttle_prob = rate / 10;
      NetworkFaultInjector injector(config);
      cloud.set_fault_injector(&injector);
      rpc::WireHarness wire(&cloud);

      FleetOptions options = ChaosFleet();
      options.seed = seed;
      options.transport = wire.transport();
      fleet::FleetRunner runner(&cloud, options);
      auto report = runner.Run();
      std::string label =
          "rate=" + std::to_string(rate) + " seed=" + std::to_string(seed);
      ASSERT_TRUE(report.ok()) << label << ": " << report.status().ToString();
      ExpectInvariantsHold(*report, cloud, injector, label);
      if (rate >= 0.10) {
        // The network really was hostile; the fleet really did retry.
        EXPECT_GT(injector.stats().faults(), 0u) << label;
        EXPECT_GT(report->retries, 0u) << label;
      }
    }
  }
}

TEST(ChaosTest, TxnSweepIsSerializableUnderFaults) {
  // Contended multi-key read-modify-write transactions from a 16-cell /
  // 8-thread fleet over 4 shared keys, swept over fault rates x seeds.
  // At EVERY point: zero serializability violations (HistoryChecker),
  // every transaction resolves, and the commit-exactness audit holds
  // (counter == version per key; versions == commits x keys).
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  const uint64_t seeds = ChaosSeedCount(5);
  for (double rate : {0.01, 0.10, 0.30}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      CloudInfrastructure cloud;
      NetworkFaultConfig config = NetworkFaultConfig::Lossy(rate, seed);
      config.delay_prob = rate;
      NetworkFaultInjector injector(config);
      cloud.set_fault_injector(&injector);
      rpc::WireHarness wire(&cloud);

      tc::testing::HistoryChecker checker;
      FleetOptions options = ChaosFleet();
      options.cells = 16;
      options.threads = 8;
      options.rounds_per_cell = 6;
      options.txn_workload = true;
      options.txn_shared_docs = 4;
      options.txn_keys = 2;
      options.seed = seed;
      options.history = &checker;
      options.transport = wire.transport();

      fleet::FleetRunner runner(&cloud, options);
      auto report = runner.Run();
      std::string label =
          "rate=" + std::to_string(rate) + " seed=" + std::to_string(seed);
      ASSERT_TRUE(report.ok()) << label << ": " << report.status().ToString()
                               << "\nfault schedule:\n"
                               << injector.FormatSchedule();
      for (const auto& cell : report->cells) {
        EXPECT_TRUE(cell.status.ok())
            << label << " " << cell.cell_id << ": " << cell.status.ToString();
      }
      EXPECT_TRUE(report->converged) << label;
      // Every logical transaction resolved: commit or definitive abort.
      EXPECT_EQ(report->txns_committed,
                options.cells * options.rounds_per_cell)
          << label;
      EXPECT_EQ(checker.commits(), report->txns_committed) << label;
      // The serializability verdict.
      auto violations = checker.Verify();
      EXPECT_TRUE(violations.empty()) << label << ": first violation: "
                                      << (violations.empty()
                                              ? ""
                                              : violations.front());
      // Shared keys really were contended under faults.
      if (rate >= 0.10) {
        EXPECT_GT(report->txn_aborts + report->retries, 0u) << label;
      }
      // Token-table replays and duplicate deliveries never double-applied.
      EXPECT_EQ(cloud.blob_store().versions_created(),
                cloud.blob_store().txn_writes_applied())
          << label;
    }
  }
}

TEST(ChaosTest, ForcedOutageDefersThenConverges) {
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  CloudInfrastructure cloud;
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.05, 77);
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  rpc::WireHarness wire(&cloud);

  FleetOptions options = ChaosFleet();
  options.cells = 8;  // Outage heal is an all-cells barrier: cells<=threads.
  options.outage_first_rounds = 6;
  options.seed = 77;
  options.transport = wire.transport();
  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectInvariantsHold(*report, cloud, injector, "outage");
  // The partition phase really deferred writes, and the drain (plus the
  // post-heal rounds) pushed every one of them through.
  EXPECT_GT(report->deferred, 0u);
  EXPECT_GT(report->breaker_opens, 0u);
  EXPECT_GT(report->heal_to_converge_seconds, 0.0);
  EXPECT_FALSE(injector.forced_outage());
}

TEST(ChaosTest, ChaosSeedReproducesFromPrintedSchedule) {
  // The CI gate: a single-threaded chaos run must replay EXACTLY from its
  // recorded fault schedule — same fleet outcome, same provider state,
  // same schedule. (Multi-threaded runs are deterministic per ordinal;
  // single-threaded the whole run is, which is what makes a printed
  // schedule a complete repro recipe.)
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  FleetOptions options = ChaosFleet();
  options.cells = 2;
  options.threads = 1;
  options.seed = 1234;

  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.25, 1234);
  config.delay_prob = 0.25;

  CloudInfrastructure original_cloud;
  NetworkFaultInjector original(config);
  original_cloud.set_fault_injector(&original);
  rpc::WireHarness original_wire(&original_cloud);
  options.transport = original_wire.transport();
  fleet::FleetRunner original_runner(&original_cloud, options);
  auto original_report = original_runner.Run();
  ASSERT_TRUE(original_report.ok());
  ASSERT_GT(original.stats().faults(), 0u);

  CloudInfrastructure replay_cloud;
  auto replay =
      NetworkFaultInjector::FromSchedule(original.Schedule(), config.seed);
  replay_cloud.set_fault_injector(replay.get());
  rpc::WireHarness replay_wire(&replay_cloud);
  options.transport = replay_wire.transport();
  fleet::FleetRunner replay_runner(&replay_cloud, options);
  auto replay_report = replay_runner.Run();
  ASSERT_TRUE(replay_report.ok());

  // Identical fault history...
  EXPECT_EQ(replay->FormatSchedule(), original.FormatSchedule());
  EXPECT_EQ(replay->stats().faults(), original.stats().faults());
  // ...identical fleet outcome...
  EXPECT_EQ(replay_report->puts, original_report->puts);
  EXPECT_EQ(replay_report->gets, original_report->gets);
  EXPECT_EQ(replay_report->retries, original_report->retries);
  EXPECT_EQ(replay_report->deferred, original_report->deferred);
  EXPECT_EQ(replay_report->drained, original_report->drained);
  EXPECT_EQ(replay_report->gets_unavailable,
            original_report->gets_unavailable);
  // ...identical provider state.
  EXPECT_EQ(replay_cloud.blob_store().versions_created(),
            original_cloud.blob_store().versions_created());
  EXPECT_EQ(replay_cloud.blob_store().txn_writes_applied(),
            original_cloud.blob_store().txn_writes_applied());
  EXPECT_EQ(replay_cloud.stats().bytes_in, original_cloud.stats().bytes_in);
}

// ---- TrustedCell end-to-end: degraded mode and anti-entropy catch-up ----

class CellChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SKIP_IF_WIRE_LEG_IMPOSSIBLE();
    clock_.Set(MakeTimestamp(2013, 1, 7, 9, 0, 0));
    cloud_.set_fault_injector(&injector_);
    wire_ = std::make_unique<rpc::WireHarness>(&cloud_);
  }

  std::unique_ptr<cell::TrustedCell> MakeCell(const std::string& id,
                                              bool resilient) {
    cell::TrustedCell::Config config;
    config.cell_id = id;
    config.owner = "alice";
    config.flash.emplace();
    config.flash->page_size = 2048;
    config.flash->pages_per_block = 16;
    config.flash->block_count = 256;
    config.resilient_sync = resilient;
    config.channel.op_deadline_us = 30000;  // Fail over to the outbox fast.
    config.transport = wire_->transport();  // nullptr => in-process.
    auto cell = cell::TrustedCell::Create(config, &cloud_, &directory_,
                                          &clock_);
    TC_CHECK(cell.ok());
    return std::move(*cell);
  }

  /// Runs `write` with the provider down for its whole deadline, then
  /// heals. The write is journaled but one give-up leaves the circuit
  /// closed, so only the outbox tells the cell's next write that an older
  /// write is still queued.
  template <typename WriteFn>
  void DeferOneWrite(cell::TrustedCell& cell, WriteFn write) {
    injector_.ForceOutage(true);
    Status deferred = write();
    injector_.ForceOutage(false);
    ASSERT_TRUE(deferred.ok()) << deferred.ToString();
    ASSERT_EQ(cell.outbox_pending(), 1u);
    ASSERT_FALSE(cell.net_channel()->degraded());
  }

  /// An honest provider must never be convicted.
  static void ExpectNoIncidents(const cell::TrustedCell& cell) {
    for (const cell::SecurityIncident& incident : cell.incidents()) {
      ADD_FAILURE() << cell.id() << " recorded an incident on "
                    << incident.object_id << ": " << incident.detail;
    }
  }

  /// Reads `doc_id` on `cell` and expects `bytes`.
  static void ExpectReads(cell::TrustedCell& cell, const std::string& doc_id,
                          const std::string& bytes) {
    auto fetched = cell.FetchDocument(doc_id);
    ASSERT_TRUE(fetched.ok())
        << cell.id() << ": " << fetched.status().ToString();
    EXPECT_EQ(*fetched, ToBytes(bytes)) << cell.id();
  }

  /// The writer reads its newest bytes before and after CatchUp, and a
  /// sibling that syncs after it reads them too; nobody records an
  /// incident and no write applied twice.
  void ExpectCatchUpConverges(cell::TrustedCell& writer,
                              const std::string& doc_id,
                              const std::string& newest) {
    ExpectReads(writer, doc_id, newest);
    ASSERT_TRUE(writer.CatchUp().ok());
    EXPECT_EQ(writer.outbox_pending(), 0u);
    ExpectReads(writer, doc_id, newest);
    auto tablet = MakeCell("alice-tablet", /*resilient=*/false);
    ASSERT_TRUE(tablet->SyncPull().ok());
    ExpectReads(*tablet, doc_id, newest);
    ExpectNoIncidents(writer);
    ExpectNoIncidents(*tablet);
    EXPECT_EQ(cloud_.blob_store().versions_created(),
              cloud_.blob_store().txn_writes_applied());
  }

  SimulatedClock clock_;
  NetworkFaultInjector injector_{NetworkFaultConfig{}};  // Clean by default.
  cloud::CloudInfrastructure cloud_;
  cell::CellDirectory directory_;
  // Declared last: the harness's server must stop dispatching onto cloud_
  // before cloud_ is destroyed.
  std::unique_ptr<rpc::WireHarness> wire_;
};

TEST_F(CellChaosTest, PartitionedCellKeepsWorkingAndCatchesUp) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/true);
  policy::Policy policy = cell::MakeOwnerPolicy("alice");

  // Pull the WAN cable, then store: the push cannot reach the provider.
  injector_.ForceOutage(true);
  auto doc_id = gateway->StoreDocument("tax return", "tax 2012",
                                       ToBytes("the document body"), policy);
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  EXPECT_TRUE(gateway->degraded());
  EXPECT_GE(gateway->outbox_pending(), 1u);
  EXPECT_GE(gateway->stats().writes_deferred, 1u);

  // Degraded reads: the queued sealed payload serves read-your-writes.
  auto fetched = gateway->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, ToBytes("the document body"));

  // An update while partitioned queues behind the store: every journaled
  // record drains as its own commit.
  ASSERT_TRUE(
      gateway->UpdateDocumentAtomic(*doc_id, ToBytes("amended body")).ok());
  EXPECT_EQ(*gateway->FetchDocument(*doc_id), ToBytes("amended body"));

  // Sync while partitioned queues the manifest too.
  ASSERT_TRUE(gateway->SyncPush().ok());
  const size_t pending_before = gateway->outbox_pending();
  EXPECT_EQ(pending_before, 3u);  // The store, the update and the push.

  // Catch-up against a dead provider reports kUnavailable and keeps the
  // queue intact.
  auto stalled = gateway->CatchUp();
  EXPECT_EQ(stalled.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(gateway->degraded());
  EXPECT_EQ(gateway->outbox_pending(), pending_before);

  // Plug the cable back in: catch-up drains, read-back-verifies and exits
  // degraded mode.
  injector_.ForceOutage(false);
  ASSERT_TRUE(gateway->CatchUp().ok());
  EXPECT_FALSE(gateway->degraded());
  EXPECT_EQ(gateway->outbox_pending(), 0u);
  EXPECT_EQ(gateway->stats().catchup_drained, 3u);
  EXPECT_EQ(*gateway->FetchDocument(*doc_id), ToBytes("amended body"));

  // The drained state is real provider state: a sibling cell of the same
  // owner syncs it down and opens the payload.
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  ASSERT_TRUE(phone->SyncPull().ok());
  auto on_phone = phone->FetchDocument(*doc_id);
  ASSERT_TRUE(on_phone.ok()) << on_phone.status().ToString();
  EXPECT_EQ(*on_phone, ToBytes("amended body"));

  // No duplicate side-effects despite the deferred/replayed pushes.
  EXPECT_EQ(cloud_.blob_store().versions_created(),
            cloud_.blob_store().txn_writes_applied());
}

TEST_F(CellChaosTest, OutboxSurvivesLossyNetwork) {
  // A flaky (not dead) provider: pushes retry through and the cell never
  // needs its outbox, or defers and later catches up — either way the
  // document is durable and exactly-once.
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.3, 4242);
  NetworkFaultInjector lossy(config);
  cloud_.set_fault_injector(&lossy);

  auto gateway = MakeCell("alice-lossy", /*resilient=*/true);
  policy::Policy policy = cell::MakeOwnerPolicy("alice");
  std::vector<std::string> doc_ids;
  for (int i = 0; i < 10; ++i) {
    auto doc_id = gateway->StoreDocument(
        "doc" + std::to_string(i), "chaos",
        ToBytes("body" + std::to_string(i)), policy);
    ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
    doc_ids.push_back(*doc_id);
  }
  // Drain whatever the lossy network deferred.
  for (int attempt = 0; attempt < 50 && gateway->outbox_pending() > 0;
       ++attempt) {
    (void)gateway->CatchUp();
  }
  EXPECT_EQ(gateway->outbox_pending(), 0u);
  EXPECT_FALSE(gateway->degraded());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*gateway->FetchDocument(doc_ids[i]),
              ToBytes("body" + std::to_string(i)));
  }
  EXPECT_EQ(cloud_.blob_store().versions_created(),
            cloud_.blob_store().txn_writes_applied());
}

// Ordinal `lost` reaches the provider and applies, but its ack is lost;
// every later attempt meets a dead provider. The op that draws `lost`
// therefore fails on its deadline after its write landed.
std::unique_ptr<NetworkFaultInjector> AckLostThenOutage(uint64_t lost) {
  std::vector<cloud::FaultDecision> schedule;
  cloud::FaultDecision ack_lost;
  ack_lost.ordinal = lost;
  ack_lost.drop_ack = true;
  schedule.push_back(ack_lost);
  for (uint64_t ordinal = lost + 1; ordinal < lost + 1000; ++ordinal) {
    cloud::FaultDecision down;
    down.ordinal = ordinal;
    down.outage = true;
    schedule.push_back(down);
  }
  return NetworkFaultInjector::FromSchedule(schedule);
}

TEST_F(CellChaosTest, StoreRetriedAfterAnUnackedCommitStoresTheNewContent) {
  // A cell without an outbox fails a store whose commit landed with its
  // ack lost. Its document counter does not move, so the retried store
  // re-seals the same blob at version 1. Its commit must store the new
  // bytes, not be answered from the provider's token table with the old
  // ones.
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto faults = AckLostThenOutage(1);  // The store's only RPC: its commit.
  cloud_.set_fault_injector(faults.get());
  EXPECT_FALSE(phone->StoreDocument("note", "memo", ToBytes("acked late"),
                                    cell::MakeOwnerPolicy("alice"))
                   .ok());
  cloud_.set_fault_injector(&injector_);
  EXPECT_EQ(faults->stats().drops_ack, 1u);

  auto doc_id = phone->StoreDocument("note", "memo", ToBytes("second"),
                                     cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  const std::string blob_id = phone->GetDocumentMeta(*doc_id)->blob_id;
  EXPECT_EQ(*cloud_.LatestBlobVersion(blob_id), 2u);  // Both landed.
  EXPECT_EQ(*phone->FetchDocument(*doc_id), ToBytes("second"));
  EXPECT_EQ(cloud_.blob_store().versions_created(),
            cloud_.blob_store().txn_writes_applied());
}

TEST_F(CellChaosTest, AtomicUpdateAfterAnUnresolvedCommitStoresTheNewContent) {
  // The transaction form of the case above: the commit applied, its ack
  // was lost and the retries ran into an outage, so the update failed and
  // the next one reuses the version. Its commit must apply, not be
  // answered from the provider's txn-token table.
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto doc_id = phone->StoreDocument("note", "memo", ToBytes("first"),
                                     cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  const std::string blob_id = phone->GetDocumentMeta(*doc_id)->blob_id;
  const uint64_t before = *cloud_.LatestBlobVersion(blob_id);

  // Ordinals 1-3 are the snapshot and its two base reads; 4 is the commit.
  auto faults = AckLostThenOutage(4);
  cloud_.set_fault_injector(faults.get());
  EXPECT_FALSE(
      phone->UpdateDocumentAtomic(*doc_id, ToBytes("acked late")).ok());
  cloud_.set_fault_injector(&injector_);
  EXPECT_EQ(faults->stats().drops_ack, 1u);
  EXPECT_EQ(*cloud_.LatestBlobVersion(blob_id), before + 1);  // Committed.

  ASSERT_TRUE(phone->UpdateDocumentAtomic(*doc_id, ToBytes("second")).ok());
  EXPECT_EQ(*phone->FetchDocument(*doc_id), ToBytes("second"));
  EXPECT_EQ(*cloud_.LatestBlobVersion(blob_id), before + 2);
  // The sibling follows the manifest the second commit published.
  auto tablet = MakeCell("alice-tablet", /*resilient=*/false);
  ASSERT_TRUE(tablet->SyncPull().ok());
  EXPECT_EQ(*tablet->FetchDocument(*doc_id), ToBytes("second"));
  EXPECT_EQ(cloud_.blob_store().versions_created(),
            cloud_.blob_store().txn_writes_applied());
}

// No write overtakes a queued one. Each case defers one write and heals
// the provider before the circuit opens, so the next write finds it
// reachable. Committed directly, that write would sit under the older
// queued one — served from the outbox now, drained on top later — and the
// cells would read the older bytes as a rollback.

TEST_F(CellChaosTest, AtomicUpdateQueuesBehindAJournaledAtomicUpdate) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/true);
  auto doc_id = gateway->StoreDocument("note", "memo", ToBytes("first"),
                                       cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_NO_FATAL_FAILURE(DeferOneWrite(*gateway, [&] {
    return gateway->UpdateDocumentAtomic(*doc_id, ToBytes("second"));
  }));

  ASSERT_TRUE(gateway->UpdateDocumentAtomic(*doc_id, ToBytes("third")).ok());
  ExpectCatchUpConverges(*gateway, *doc_id, "third");
}

TEST_F(CellChaosTest, PartitionedCellJournalsAnUpdateAndAStoreOfAnySize) {
  // A journaled record spans as many store values as it needs: an atomic
  // update's document, segment and root at 64 documents, and a store of a
  // document larger than one flash page.
  auto gateway = MakeCell("alice-gateway", /*resilient=*/true);
  const policy::Policy policy = cell::MakeOwnerPolicy("alice");
  std::vector<std::string> docs;
  for (int i = 0; i < 64; ++i) {
    auto doc = gateway->StoreDocument("doc " + std::to_string(i), "memo",
                                      Bytes(1024, static_cast<uint8_t>(i)),
                                      policy);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    docs.push_back(*doc);
  }
  ASSERT_TRUE(gateway->SyncPush().ok());

  const std::string updated(1024, 'u');
  const std::string scanned(4096, 's');
  injector_.ForceOutage(true);
  ASSERT_TRUE(gateway->UpdateDocumentAtomic(docs[7], ToBytes(updated)).ok());
  auto scan = gateway->StoreDocument("scan", "scan", ToBytes(scanned), policy);
  injector_.ForceOutage(false);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(gateway->outbox_pending(), 2u);
  ExpectReads(*gateway, *scan, scanned);

  ExpectCatchUpConverges(*gateway, docs[7], updated);
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  ASSERT_TRUE(phone->SyncPull().ok());
  ExpectReads(*phone, *scan, scanned);
  ExpectNoIncidents(*phone);
}

TEST_F(CellChaosTest, SyncPushQueuesBehindADeferredUpdate) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/true);
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto doc_id = gateway->StoreDocument("note", "memo", ToBytes("first"),
                                       cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(phone->SyncPull().ok());
  ASSERT_NO_FATAL_FAILURE(DeferOneWrite(*gateway, [&] {
    return gateway->UpdateDocumentAtomic(*doc_id, ToBytes("second"));
  }));

  // A manifest naming the queued version must not reach the provider
  // before that version does: the sibling still reads the newest bytes
  // the provider holds.
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(phone->SyncPull().ok());
  ExpectReads(*phone, *doc_id, "first");

  ExpectCatchUpConverges(*gateway, *doc_id, "second");
  ASSERT_TRUE(phone->SyncPull().ok());
  ExpectReads(*phone, *doc_id, "second");
  ExpectNoIncidents(*phone);
}

TEST_F(CellChaosTest, CellWithoutOutboxServesAgainOnceTheProviderIsBack) {
  // Failing the call is the whole outage contract of a cell without an
  // outbox: nothing may keep failing its calls once the provider is back.
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto doc_id = phone->StoreDocument("note", "memo", ToBytes("first"),
                                     cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();

  injector_.ForceOutage(true);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(phone->FetchDocument(*doc_id).ok());
  }
  EXPECT_FALSE(phone->UpdateDocumentAtomic(*doc_id, ToBytes("lost")).ok());
  injector_.ForceOutage(false);

  EXPECT_FALSE(phone->net_channel()->degraded());
  auto fetched = phone->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, ToBytes("first"));
  ASSERT_TRUE(phone->UpdateDocumentAtomic(*doc_id, ToBytes("second")).ok());
  EXPECT_EQ(*phone->FetchDocument(*doc_id), ToBytes("second"));
}

TEST_F(CellChaosTest, ReadOnlyCellRecoversOnceTheProviderIsBack) {
  // Fetches that fail during an outage open the circuit but queue nothing.
  // Catch-up with an empty outbox must still wait the open circuit out, or
  // every later fetch fails fast against a provider that is back.
  auto gateway = MakeCell("alice-gateway", /*resilient=*/true);
  auto doc_id = gateway->StoreDocument("note", "memo", ToBytes("first"),
                                       cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();

  injector_.ForceOutage(true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(gateway->FetchDocument(*doc_id).ok());
  }
  EXPECT_TRUE(gateway->net_channel()->degraded());
  injector_.ForceOutage(false);

  EXPECT_EQ(gateway->outbox_pending(), 0u);
  ASSERT_TRUE(gateway->CatchUp().ok());
  auto fetched = gateway->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, ToBytes("first"));
  EXPECT_FALSE(gateway->net_channel()->degraded());
}

// Every update and key rotation commits with the owner's manifest, so a
// sibling whose meta is behind pulls once and reads the new version. Only
// a payload the manifest cannot explain convicts the provider.

TEST_F(CellChaosTest, SiblingReadsAnAtomicUpdateBeforeItsNextPull) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/false);
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto doc_id = gateway->StoreDocument("note", "memo", ToBytes("first"),
                                       cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(phone->SyncPull().ok());

  ASSERT_TRUE(gateway->UpdateDocumentAtomic(*doc_id, ToBytes("second")).ok());
  ExpectReads(*phone, *doc_id, "second");
  ExpectNoIncidents(*phone);
}

TEST_F(CellChaosTest, SiblingReadsARotatedKeyBeforeAndAfterItsNextPull) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/false);
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto doc_id = gateway->StoreDocument("note", "memo", ToBytes("first"),
                                       cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(phone->SyncPull().ok());

  ASSERT_TRUE(gateway->RotateDocumentKey(*doc_id).ok());
  ExpectReads(*phone, *doc_id, "first");
  ASSERT_TRUE(phone->SyncPull().ok());
  ExpectReads(*phone, *doc_id, "first");
  ExpectNoIncidents(*phone);
}

TEST_F(CellChaosTest, SiblingDecidesAReadUnderThePolicyOfTheVersionItOpens) {
  // The owner rebinds the policy in an update: bob loses access, carol
  // gains a one-shot read. Lagging siblings open the new version, so they
  // must decide under its policy and discharge its obligations.
  auto gateway = MakeCell("alice-gateway", /*resilient=*/false);
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto tablet = MakeCell("alice-tablet", /*resilient=*/false);
  policy::UsageRule bob_reads;
  bob_reads.id = "bob-read";
  bob_reads.subjects = {"bob"};
  bob_reads.rights = {policy::Right::kRead};
  policy::UsageRule carol_reads_once;
  carol_reads_once.id = "carol-once";
  carol_reads_once.subjects = {"carol"};
  carol_reads_once.rights = {policy::Right::kRead};
  carol_reads_once.obligations = {policy::ObligationType::kDeleteAfterUse};
  const policy::Policy before{"household", "alice", {bob_reads}};
  const policy::Policy after{"household", "alice", {carol_reads_once}};

  auto doc_id = gateway->StoreDocument("note", "memo", ToBytes("first"),
                                       before);
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(phone->SyncPull().ok());
  ASSERT_TRUE(tablet->SyncPull().ok());
  ASSERT_TRUE(
      gateway->UpdateDocumentAtomic(*doc_id, ToBytes("second"), &after).ok());

  EXPECT_TRUE(
      phone->ReadSharedDocument(*doc_id, "bob").status().IsPermissionDenied());
  auto carol = tablet->ReadSharedDocument(*doc_id, "carol");
  ASSERT_TRUE(carol.ok()) << carol.status().ToString();
  EXPECT_EQ(*carol, ToBytes("second"));
  EXPECT_TRUE(
      tablet->ReadSharedDocument(*doc_id, "carol").status().IsNotFound());
  ExpectNoIncidents(*phone);
  ExpectNoIncidents(*tablet);
}

TEST_F(CellChaosTest, SiblingWhosePullFailsConvictsNobody) {
  // The sibling's payload read succeeds, but the manifest read it makes
  // before convicting cannot reach the provider: the fetch fails without
  // an incident and succeeds once the provider is back.
  auto gateway = MakeCell("alice-gateway", /*resilient=*/false);
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto doc_id = gateway->StoreDocument("note", "memo", ToBytes("first"),
                                       cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(phone->SyncPull().ok());
  ASSERT_TRUE(gateway->UpdateDocumentAtomic(*doc_id, ToBytes("second")).ok());

  NetworkFaultConfig down_after_one;
  down_after_one.outage_ops = {{2, 1000}};
  NetworkFaultInjector injector(down_after_one);
  cloud_.set_fault_injector(&injector);
  const uint64_t gets_before = cloud_.stats().blob_gets;
  Status fetched = phone->FetchDocument(*doc_id).status();
  cloud_.set_fault_injector(&injector_);
  EXPECT_EQ(cloud_.stats().blob_gets, gets_before + 1);
  EXPECT_TRUE(fetched.IsUnavailable() || fetched.IsDeadlineExceeded())
      << fetched.ToString();
  ExpectNoIncidents(*phone);

  ASSERT_TRUE(phone->CatchUp().ok());
  ExpectReads(*phone, *doc_id, "second");
  ExpectNoIncidents(*phone);
}

TEST_F(CellChaosTest, SiblingConvictsEachAttackedReadOnce) {
  // A payload that fails to open makes the sibling read the manifest too,
  // so an attacked fetch is two attacked reads: each is one incident.
  auto gateway = MakeCell("alice-gateway", /*resilient=*/false);
  auto phone = MakeCell("alice-phone", /*resilient=*/false);
  auto doc_id = gateway->StoreDocument("note", "memo", ToBytes("first"),
                                       cell::MakeOwnerPolicy("alice"));
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  // Two versions of the payload and of the manifest, so both can be
  // rolled back.
  ASSERT_TRUE(gateway->UpdateDocumentAtomic(*doc_id, ToBytes("second")).ok());
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(phone->SyncPull().ok());

  constexpr int kFetches = 3;
  for (bool rollback : {false, true}) {
    cloud::AdversaryConfig adversary;
    (rollback ? adversary.rollback_read_prob : adversary.tamper_read_prob) =
        1.0;
    cloud_.set_adversary(adversary);
    for (int i = 0; i < kFetches; ++i) {
      EXPECT_TRUE(
          phone->FetchDocument(*doc_id).status().IsIntegrityViolation());
    }
    cloud_.set_adversary(cloud::AdversaryConfig::Honest());
  }
  const cloud::AdversaryStats attacks = cloud_.adversary_stats();
  EXPECT_EQ(attacks.reads_tampered, 2u * kFetches);
  EXPECT_EQ(attacks.reads_rolled_back, 2u * kFetches);
  EXPECT_EQ(phone->incidents().size(),
            attacks.reads_tampered + attacks.reads_rolled_back);
  ExpectReads(*phone, *doc_id, "second");
}

}  // namespace
}  // namespace tc
