#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "tc/cell/cell.h"
#include "tc/cell/directory.h"
#include "tc/cloud/infrastructure.h"
#include "tc/cloud/txn.h"
#include "tc/common/clock.h"
#include "tc/common/rng.h"
#include "tc/fleet/fleet.h"
#include "tc/fleet/worker_pool.h"
#include "tc/net/transport.h"
#include "tc/obs/metrics.h"

namespace tc::fleet {
namespace {

using cloud::CloudInfrastructure;
using cloud::Message;

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool::Options options;
  options.threads = 4;
  options.queue_capacity = 8;  // Far below task count: exercises blocking.
  WorkerPool pool(options);
  std::atomic<int> sum{0};
  const int n = 500;
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  pool.Shutdown();
}

TEST(WorkerPoolTest, ShutdownDrainsQueueAndRejectsNewWork) {
  WorkerPool::Options options;
  options.threads = 2;
  options.queue_capacity = 64;
  auto pool = std::make_unique<WorkerPool>(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pool->Submit([&ran] { ran.fetch_add(1); }));
  }
  pool->Shutdown();  // Graceful: everything queued still runs.
  EXPECT_EQ(ran.load(), 32);
  EXPECT_FALSE(pool->Submit([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 32);
}

TEST(WorkerPoolTest, ThrowingTasksAreContainedCountedAndLatched) {
  // Regression: a task that throws used to escape WorkerLoop and take the
  // whole process down via std::terminate. The pool must survive, keep
  // running later tasks, count the failures, and latch the FIRST error.
  uint64_t metric_before = obs::MetricRegistry::Global()
                               .GetCounter("worker_pool.tasks_failed")
                               .Value();
  WorkerPool::Options options;
  options.threads = 2;
  options.queue_capacity = 16;
  WorkerPool pool(options);
  EXPECT_EQ(pool.tasks_failed(), 0u);
  EXPECT_TRUE(pool.first_error().ok());

  ASSERT_TRUE(pool.Submit([] { throw std::runtime_error("first boom"); }));
  pool.Wait();  // Order the two throwing tasks: "first boom" wins the latch.
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([] { throw std::string("not std::exception"); }));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Wait();

  EXPECT_EQ(ran.load(), 8);  // The pool outlived both throws.
  EXPECT_EQ(pool.tasks_failed(), 2u);
  Status first = pool.first_error();
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  EXPECT_NE(first.ToString().find("first boom"), std::string::npos)
      << first.ToString();
  EXPECT_EQ(obs::MetricRegistry::Global()
                    .GetCounter("worker_pool.tasks_failed")
                    .Value() -
                metric_before,
            2u);
  pool.Shutdown();
  EXPECT_EQ(pool.tasks_failed(), 2u);  // Shutdown doesn't reset the record.
}

TEST(WorkerPoolTest, ShutdownSemanticsUnderConcurrentSubmitters) {
  // Pins the Submit/Shutdown contract: every Submit that returned true runs
  // exactly once; every Submit after shutdown returns false and never runs.
  // Submitters race Shutdown from four threads to make the window real.
  WorkerPool::Options options;
  options.threads = 3;
  options.queue_capacity = 4;  // Small: submitters block, racing shutdown.
  WorkerPool pool(options);
  std::atomic<uint64_t> accepted{0}, rejected{0}, executed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      // Submit until the pool turns us away: every submitter is
      // guaranteed to observe the shutdown rejection, without depending
      // on who wins the Submit/Shutdown race (which a loaded machine
      // decides differently every run).
      while (pool.Submit([&executed] { executed.fetch_add(1); })) {
        accepted.fetch_add(1);
      }
      rejected.fetch_add(1);
    });
  }
  // Let some work through, then close the pool under the submitters.
  while (executed.load() < 20) std::this_thread::yield();
  pool.Shutdown();
  for (std::thread& thread : submitters) thread.join();

  EXPECT_EQ(executed.load(), accepted.load());  // true => ran, exactly once.
  EXPECT_EQ(rejected.load(), 4u);  // Every submitter saw the door close.
  // Shutdown is idempotent and still rejects.
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

// ---------------------------------------------------------------------------
// Tentpole stress: 8 threads x 1k mixed ops against one shared cloud.
// ---------------------------------------------------------------------------

struct AckedPut {
  std::string key;
  uint64_t version;
  Bytes payload;
};

struct ThreadTrace {
  std::vector<AckedPut> puts;
  uint64_t gets = 0;
  uint64_t sends = 0;
  uint64_t receives_drained = 0;
  uint64_t bytes_in = 0;
};

TEST(CloudConcurrencyTest, MixedOpsKeepVersionsMonotonicAndStatsExact) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 1000;
  constexpr int kSharedKeys = 32;

  CloudInfrastructure cloud;  // Honest, 16 blob + 16 queue shards.
  std::vector<ThreadTrace> traces(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cloud, &traces] {
      Rng rng(1000 + t);  // Deterministic per-thread op stream.
      ThreadTrace& trace = traces[t];
      // Versions this thread has acked per key (program order).
      std::map<std::string, uint64_t> my_latest;
      for (int op = 0; op < kOpsPerThread; ++op) {
        double dice = rng.NextDouble();
        std::string key = "k" + std::to_string(rng.NextBelow(kSharedKeys));
        if (dice < 0.40) {
          // Payload is unique per (thread, op): lost or misfiled writes are
          // detectable by exact content comparison afterwards.
          const std::string write_id =
              "t" + std::to_string(t) + "/op" + std::to_string(op);
          Bytes payload = ToBytes(write_id);
          cloud::TxnRequest req;
          req.token = write_id;
          req.writes.push_back({key, payload, cloud::kBaseVersionAny});
          auto put = cloud.CommitTxnRpc(req);
          ASSERT_TRUE(put.committed) << put.status.ToString();
          uint64_t version = put.versions[0];
          // Per-key monotonicity, observed from one thread: every ack this
          // thread receives for a key must exceed its previous ack.
          auto [it, inserted] = my_latest.try_emplace(key, version);
          if (!inserted) {
            ASSERT_GT(version, it->second) << key;
            it->second = version;
          }
          trace.bytes_in += payload.size();
          trace.puts.push_back({key, version, std::move(payload)});
        } else if (dice < 0.70) {
          auto data = cloud.GetBlobRpc(key);  // May be NotFound early on.
          ++trace.gets;
          if (!data.ok()) {
            ASSERT_EQ(data.status().code(), StatusCode::kNotFound);
          }
        } else if (dice < 0.85) {
          std::string to = "cell" + std::to_string(rng.NextBelow(kThreads));
          Bytes payload = rng.NextBytes(16);
          trace.bytes_in += payload.size();
          cloud.Send("cell" + std::to_string(t), to, "stress", payload);
          ++trace.sends;
        } else {
          trace.receives_drained +=
              cloud.Receive("cell" + std::to_string(t)).size();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // ---- Exact stats totals (snapshot before the verification reads). ----
  uint64_t want_puts = 0, want_gets = 0, want_sends = 0, want_bytes_in = 0;
  uint64_t drained = 0;
  for (const ThreadTrace& trace : traces) {
    want_puts += trace.puts.size();
    want_gets += trace.gets;
    want_sends += trace.sends;
    want_bytes_in += trace.bytes_in;
    drained += trace.receives_drained;
  }
  cloud::CloudStats stats = cloud.stats();
  EXPECT_EQ(stats.blob_puts, want_puts);
  EXPECT_EQ(stats.blob_gets, want_gets);
  EXPECT_EQ(stats.messages_sent, want_sends);
  EXPECT_EQ(stats.bytes_in, want_bytes_in);

  // Honest cloud: nothing dropped — what was not yet delivered is pending.
  cloud::AdversaryStats adversary = cloud.adversary_stats();
  EXPECT_EQ(adversary.messages_dropped, 0u);
  EXPECT_EQ(adversary.reads_tampered, 0u);
  for (int t = 0; t < kThreads; ++t) {
    drained += cloud.Receive("cell" + std::to_string(t)).size();
    EXPECT_EQ(cloud.PendingCount("cell" + std::to_string(t)), 0u);
  }
  EXPECT_EQ(drained, want_sends);
  EXPECT_EQ(cloud.stats().messages_delivered, want_sends);

  // ---- No lost acknowledged puts; global per-key version consistency. ----
  std::map<std::string, std::set<uint64_t>> versions_by_key;
  for (const ThreadTrace& trace : traces) {
    for (const AckedPut& put : trace.puts) {
      // The acked version must hold exactly the acked payload, forever.
      auto stored = cloud.GetBlobVersion(put.key, put.version);
      ASSERT_TRUE(stored.ok()) << put.key << " v" << put.version;
      EXPECT_EQ(*stored, put.payload) << put.key << " v" << put.version;
      // No two acks may share a version.
      EXPECT_TRUE(versions_by_key[put.key].insert(put.version).second)
          << "duplicate ack " << put.key << " v" << put.version;
    }
  }
  // Versions per key are dense: exactly 1..N with no gaps.
  for (const auto& [key, versions] : versions_by_key) {
    EXPECT_EQ(*versions.begin(), 1u) << key;
    EXPECT_EQ(*versions.rbegin(), versions.size()) << key;
    auto latest = cloud.LatestBlobVersion(key);
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(*latest, versions.size()) << key;
  }
}

// ---------------------------------------------------------------------------
// Byte accounting under concurrent churn (PR 8 satellite)
// ---------------------------------------------------------------------------

// The sharded atomic byte counters are updated by puts, deletes, mutations
// and GC-style retirement racing each other. The counters may transiently
// disagree with a concurrent walk, but at quiescence the fast path
// (total_bytes()) must agree EXACTLY with a ground-truth walk of every
// live version chain (AuditTotalBytes()) — any drift means an increment
// and its matching decrement disagreed about a node's size.
TEST(CloudConcurrencyTest, ByteAccountingExactAtQuiescence) {
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 1500;
  constexpr int kSharedKeys = 24;

  CloudInfrastructure cloud;
  cloud::BlobStore& blobs = cloud.blob_store();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &blobs] {
      Rng rng(7100 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::string id = "acct/k" + std::to_string(rng.NextBelow(kSharedKeys));
        double dice = rng.NextDouble();
        if (dice < 0.60) {
          blobs.Put(id, rng.NextBytes(1 + rng.NextBelow(64)));
        } else if (dice < 0.80) {
          Status s = blobs.Delete(id);  // NotFound races are fine.
          (void)s;
        } else {
          Status s = blobs.MutateLatest(id, [](Bytes& data) {
            data.resize(1 + (data.size() * 7) % 96, 0xcd);
          });
          (void)s;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(blobs.AuditTotalBytes(), blobs.total_bytes());
  EXPECT_GT(blobs.blob_count(), 0u);
}

// ---------------------------------------------------------------------------
// FleetRunner
// ---------------------------------------------------------------------------

TEST(FleetRunnerTest, HonestFleetCompletesWithExactTotals) {
  CloudInfrastructure cloud;
  FleetOptions options;
  options.cells = 16;
  options.threads = 4;
  options.rounds_per_cell = 8;
  options.writes_per_round = 4;
  options.gets_per_round = 3;
  options.docs_per_cell = 8;
  options.payload_bytes = 64;
  options.seed = 42;
  FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->cells_ok, options.cells);
  EXPECT_EQ(report->cells_failed, 0u);
  for (const FleetCellResult& cell : report->cells) {
    EXPECT_TRUE(cell.status.ok()) << cell.cell_id << ": "
                                  << cell.status.ToString();
  }
  // The fleet was alone on this cloud: its totals are the cloud's totals.
  EXPECT_EQ(report->puts,
            options.cells * options.rounds_per_cell * options.writes_per_round);
  EXPECT_EQ(report->gets,
            options.cells * options.rounds_per_cell * options.gets_per_round);
  cloud::CloudStats stats = cloud.stats();
  EXPECT_EQ(stats.blob_puts, report->puts);
  EXPECT_EQ(stats.blob_gets, report->gets);
  // Every write is one blind commit: one txn write, one version each.
  EXPECT_EQ(cloud.blob_store().txns_committed(), report->puts);
  EXPECT_EQ(cloud.blob_store().versions_created(),
            cloud.blob_store().txn_writes_applied());
  EXPECT_EQ(cloud.blob_store().versions_created(), report->puts);
  EXPECT_EQ(stats.messages_sent, report->sends);
  EXPECT_EQ(stats.messages_delivered, report->messages_received);
  EXPECT_GT(report->put_get_per_second, 0.0);

  // Latency percentiles come from the tc::obs histograms, delta-scoped to
  // this run: exactly one write sample per write, one get sample per get,
  // even though the registry is global and cumulative.
  EXPECT_EQ(report->put_latency.count, report->puts);
  EXPECT_EQ(report->get_latency.count, report->gets);
  EXPECT_GT(report->put_latency.p50_us, 0.0);
  EXPECT_LE(report->put_latency.p50_us, report->put_latency.p95_us);
  EXPECT_LE(report->put_latency.p95_us, report->put_latency.p99_us);
  EXPECT_LE(report->put_latency.p99_us, report->put_latency.max_us);
  EXPECT_LE(report->get_latency.p50_us, report->get_latency.max_us);
}

TEST(FleetRunnerTest, SameSeedSameWorkload) {
  // The *operation counts* of a fleet run are a pure function of the
  // options (thread interleaving affects timing only).
  FleetOptions options;
  options.cells = 8;
  options.threads = 4;
  options.rounds_per_cell = 4;
  options.seed = 7;
  uint64_t sends[2];
  for (int run = 0; run < 2; ++run) {
    CloudInfrastructure cloud;
    auto report = FleetRunner(&cloud, options).Run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->cells_failed, 0u);
    sends[run] = report->sends;
  }
  EXPECT_EQ(sends[0], sends[1]);
}

TEST(FleetRunnerTest, RejectsEmptyWorkload) {
  CloudInfrastructure cloud;
  FleetOptions options;
  options.cells = 0;
  EXPECT_FALSE(FleetRunner(&cloud, options).Run().ok());
  options.cells = 4;
  options.writes_per_round = 100;
  options.docs_per_cell = 10;
  EXPECT_FALSE(FleetRunner(&cloud, options).Run().ok());
}

TEST(FleetRunnerTest, TamperingAdversaryPropagatesPerCellErrors) {
  cloud::AdversaryConfig adversary;
  adversary.tamper_read_prob = 1.0;  // Every read corrupted.
  CloudInfrastructure cloud(adversary);
  FleetOptions options;
  options.cells = 4;
  options.threads = 2;
  options.rounds_per_cell = 2;
  FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok());  // Run() itself succeeds...
  EXPECT_EQ(report->cells_failed, options.cells);  // ...every cell convicts.
  for (const FleetCellResult& cell : report->cells) {
    EXPECT_EQ(cell.status.code(), StatusCode::kIntegrityViolation)
        << cell.cell_id;
  }
}

TEST(FleetRunnerTest, CleanRunAcksMustBeExactlyTheNextVersion) {
  // Only a cell writes its own blob-id range, so on a run where every
  // write is acked each ack is exactly the previous ack + 1. A foreign
  // version slipped into one cell's range must convict that cell alone.
  CloudInfrastructure cloud;
  cloud.blob_store().Put("fleet/cell1/doc0", ToBytes("not from cell1"));
  FleetOptions options;
  options.cells = 4;
  options.threads = 2;
  options.rounds_per_cell = 2;
  auto report = FleetRunner(&cloud, options).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->cells_failed, 1u);
  for (const FleetCellResult& cell : report->cells) {
    if (cell.cell_id == "fleet/cell1") {
      EXPECT_EQ(cell.status.code(), StatusCode::kInternal);
      EXPECT_NE(cell.status.message().find("non-monotonic version for doc0"),
                std::string::npos)
          << cell.status.ToString();
    } else {
      EXPECT_TRUE(cell.status.ok())
          << cell.cell_id << ": " << cell.status.ToString();
    }
  }
}

TEST(FleetRunnerTest, TxnAuditReadsTheStoreNotTheAdversary) {
  // The cells' snapshot reads are never tampered and the stored counters
  // are honest, so the commit-exactness audit must pass even when every
  // latest-blob read the provider serves is corrupted in flight.
  cloud::AdversaryConfig adversary;
  adversary.tamper_read_prob = 1.0;
  CloudInfrastructure cloud(adversary);
  FleetOptions options;
  options.cells = 4;
  options.threads = 2;
  options.rounds_per_cell = 4;
  options.txn_workload = true;
  options.txn_shared_docs = 4;
  options.txn_keys = 2;
  auto report = FleetRunner(&cloud, options).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->cells_failed, 0u);
  EXPECT_EQ(report->txns_committed, options.cells * options.rounds_per_cell);
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(cloud.adversary_stats().reads_tampered, 0u);
}

// ---------------------------------------------------------------------------
// The fleet speaks the cell's protocol
// ---------------------------------------------------------------------------

/// Records each call that crosses it as "op", or for a commit as
/// "commit <writes> <blind|based>" (blind = every write skips validation),
/// then hands the call to the provider in-process.
class RecordingTransport final : public net::CloudTransport {
 public:
  explicit RecordingTransport(CloudInfrastructure* cloud) : inner_(cloud) {}

  Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) override {
    Record("get_blob");
    return inner_.GetBlob(id, delay_us);
  }
  Result<cloud::SnapshotDescriptor> GetSnapshot(uint32_t* delay_us) override {
    Record("get_snapshot");
    return inner_.GetSnapshot(delay_us);
  }
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override {
    Record("get_at_snapshot");
    return inner_.GetAtSnapshot(id, snap, delay_us);
  }
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req) override {
    bool blind = true;
    for (const cloud::TxnWrite& w : req.writes) {
      blind = blind && w.base_version == cloud::kBaseVersionAny;
    }
    Record("commit " + std::to_string(req.writes.size()) +
           (blind ? " blind" : " based"));
    return inner_.CommitTxn(req);
  }
  obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) override {
    Record("report_telemetry");
    return inner_.ReportTelemetry(frame, delay_us);
  }
  Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override {
    Record("scrape_telemetry");
    return inner_.ScrapeTelemetry(delay_us);
  }
  std::string name() const override { return "recording"; }

  std::vector<std::string> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.clear();
  }

 private:
  void Record(std::string call) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(std::move(call));
  }

  mutable std::mutex mu_;
  std::vector<std::string> calls_;
  net::InProcessTransport inner_;
};

/// What one FleetRunner cell sends in one round of `options`.
std::vector<std::string> OneFleetCellRound(FleetOptions options) {
  CloudInfrastructure cloud;
  RecordingTransport transport(&cloud);
  options.cells = 1;
  options.threads = 1;
  options.rounds_per_cell = 1;
  options.transport = &transport;
  auto report = FleetRunner(&cloud, options).Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    EXPECT_EQ(report->cells_failed, 0u);
  }
  return transport.calls();
}

TEST(FleetProtocolTest, FleetCellsSendWhatTrustedCellsSend) {
  // A real cell's store + fetch, then its atomic update.
  std::vector<std::string> cell_store_fetch;
  std::vector<std::string> cell_update;
  {
    SimulatedClock clock(MakeTimestamp(2013, 1, 7, 9, 0, 0));
    CloudInfrastructure cloud;
    cell::CellDirectory directory;
    RecordingTransport transport(&cloud);
    cell::TrustedCell::Config config;
    config.cell_id = "alice-gateway";
    config.owner = "alice";
    config.flash.emplace();
    config.flash->page_size = 2048;
    config.flash->pages_per_block = 16;
    config.flash->block_count = 256;
    config.transport = &transport;
    auto created =
        cell::TrustedCell::Create(config, &cloud, &directory, &clock);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    cell::TrustedCell& cell = **created;
    transport.Clear();

    auto doc_id = cell.StoreDocument("note", "memo", ToBytes("first"),
                                     cell::MakeOwnerPolicy("alice"));
    ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
    ASSERT_TRUE(cell.FetchDocument(*doc_id).ok());
    cell_store_fetch = transport.calls();
    transport.Clear();
    ASSERT_TRUE(cell.UpdateDocumentAtomic(*doc_id, ToBytes("second")).ok());
    cell_update = transport.calls();
  }
  EXPECT_EQ(cell_store_fetch,
            (std::vector<std::string>{"commit 1 blind", "get_blob"}));
  // The update commits its document, one fresh manifest segment (a blind
  // create) and the manifest root.
  EXPECT_EQ(cell_update,
            (std::vector<std::string>{"get_snapshot", "get_at_snapshot",
                                      "get_at_snapshot", "commit 3 based"}));

  // A fleet cell's blob round with one write and one get is a store and a
  // fetch; its txn round at the default two keys is an update.
  FleetOptions blobs;
  blobs.writes_per_round = 1;
  blobs.gets_per_round = 1;
  blobs.send_prob = 0;
  blobs.telemetry = false;
  EXPECT_EQ(OneFleetCellRound(blobs), cell_store_fetch);

  FleetOptions txn;
  txn.txn_workload = true;
  txn.txn_keys = 2;
  EXPECT_EQ(OneFleetCellRound(txn), cell_update);
}

}  // namespace
}  // namespace tc::fleet
