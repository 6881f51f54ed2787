// E17 — put/get scaling of LogStore's append path and BlobStore's
// striped read path.
//
//   Part 1  LogStore puts: every put takes the store's one mutex (a cell
//           drives its store from one thread; the wider rows measure
//           what a second thread would cost). Thread sweep 1/2/4/8;
//           p50/p95/p99 come from the obs storage.append_us histogram,
//           scoped to each run by snapshot deltas.
//
//   Part 2  BlobStore gets under write load: every get takes its key's
//           stripe mutex while one writer churns every key. Same thread
//           sweep; the read-latency histograms are local obs::Histogram
//           instances (BlobStore itself is deliberately uninstrumented — it
//           sits under CloudInfrastructure's cloud.* timers).
//
// Both stores were lock-free for a while; those rows, measured against
// the mutex versions, are frozen in EXPERIMENTS.md (E17).
//
// Ops counts are deterministic per seed; wall-clock and percentile columns
// are host measurements.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tc/cloud/blob_store.h"
#include "tc/common/rng.h"
#include "tc/obs/metrics.h"
#include "tc/storage/flash_device.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"

using namespace tc;  // NOLINT — benchmark brevity.
using cloud::BlobStore;
using storage::FlashDevice;
using storage::FlashGeometry;
using storage::LogStore;
using storage::LogStoreOptions;

namespace {

struct RunStats {
  double ops_per_sec = 0;
  double p50 = 0, p95 = 0, p99 = 0;
};

void PrintRow(int threads, const RunStats& s) {
  std::printf("  %7d %12.0f %8.0f %8.0f %8.0f\n", threads, s.ops_per_sec,
              s.p50, s.p95, s.p99);
}

// ---- Part 1: LogStore put scaling --------------------------------------

RunStats RunLogStorePuts(int threads, int puts_per_thread) {
  FlashGeometry geo;
  geo.page_size = 4096;
  geo.pages_per_block = 16;
  geo.block_count = 256;
  FlashDevice device(geo);
  storage::PlainPageTransform plain;
  auto opened = LogStore::Open(&device, &plain, LogStoreOptions{});
  if (!opened.ok()) {
    std::printf("  OPEN FAILED: %s\n", opened.status().ToString().c_str());
    return {};
  }
  LogStore& store = **opened;

  obs::Histogram& append_us =
      obs::MetricRegistry::Global().GetHistogram("storage.append_us");
  obs::HistogramSnapshot before = append_us.Snapshot();

  obs::Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([t, &store, puts_per_thread] {
      Rng rng(1700 + t);
      // Per-thread key space: the sweep measures structural contention on
      // the append path, not semantic write-write conflicts on one key.
      for (int i = 0; i < puts_per_thread; ++i) {
        std::string key =
            "t" + std::to_string(t) + "/k" + std::to_string(i % 64);
        Status s = store.Put(key, rng.NextBytes(32 + rng.NextBelow(96)));
        if (!s.ok()) {
          std::printf("  PUT FAILED: %s\n", s.ToString().c_str());
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  double seconds = static_cast<double>(wall.ElapsedUs()) / 1e6;

  obs::HistogramSnapshot delta = append_us.Snapshot().Minus(before);
  RunStats stats;
  stats.ops_per_sec =
      seconds > 0 ? static_cast<double>(threads) * puts_per_thread / seconds
                  : 0;
  stats.p50 = delta.Percentile(0.50);
  stats.p95 = delta.Percentile(0.95);
  stats.p99 = delta.Percentile(0.99);
  return stats;
}

// ---- Part 2: BlobStore get scaling under write load --------------------

RunStats RunBlobGets(int reader_threads, int gets_per_thread) {
  BlobStore store(/*shard_count=*/16, /*token_history=*/1 << 16);
  constexpr int kKeys = 64;
  for (int k = 0; k < kKeys; ++k) {
    store.Put("doc/" + std::to_string(k), Bytes(128, 0x5a));
  }

  // One writer churns all keys for the whole run; a read of a key in the
  // stripe it holds waits for it.
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    Rng rng(9917);
    while (!stop.load(std::memory_order_acquire)) {
      store.Put("doc/" + std::to_string(rng.NextBelow(kKeys)),
                rng.NextBytes(64 + rng.NextBelow(128)));
    }
  });

  obs::Histogram get_us;  // Local, obs bucket layout, shared by readers.
  obs::Stopwatch wall;
  std::vector<std::thread> readers;
  readers.reserve(reader_threads);
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([t, &store, &get_us, gets_per_thread] {
      Rng rng(3300 + t);
      for (int i = 0; i < gets_per_thread; ++i) {
        std::string id = "doc/" + std::to_string(rng.NextBelow(kKeys));
        obs::Stopwatch op;
        auto got = store.Get(id);
        get_us.RecordAlways(op.ElapsedUs());
        if (!got.ok()) {
          std::printf("  GET FAILED: %s\n", got.status().ToString().c_str());
          return;
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  double seconds = static_cast<double>(wall.ElapsedUs()) / 1e6;
  stop.store(true, std::memory_order_release);
  writer.join();

  obs::HistogramSnapshot snap = get_us.Snapshot();
  RunStats stats;
  stats.ops_per_sec =
      seconds > 0
          ? static_cast<double>(reader_threads) * gets_per_thread / seconds
          : 0;
  stats.p50 = snap.Percentile(0.50);
  stats.p95 = snap.Percentile(0.95);
  stats.p99 = snap.Percentile(0.99);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== E17: store put/get scaling ===\n");
  std::printf("(baselines: frozen rows in EXPERIMENTS.md, E17)\n");

  const int kThreadSweep[] = {1, 2, 4, 8};

  // ---- Part 1 ----
  const int kPuts = quick ? 2000 : 20000;
  std::printf("\nLogStore one-mutex put path (%d puts/thread, 32-128 B values; "
              "p50/p95/p99 from storage.append_us, microseconds):\n",
              kPuts);
  std::printf("  %7s %12s %8s %8s %8s\n", "threads", "puts/s", "p50",
              "p95", "p99");
  for (int threads : kThreadSweep) {
    PrintRow(threads, RunLogStorePuts(threads, kPuts));
  }

  // ---- Part 2 ----
  const int kGets = quick ? 5000 : 50000;
  std::printf("\nBlobStore striped get path under one-writer churn "
              "(%d gets/thread over 64 keys; p50/p95/p99 in microseconds):\n",
              kGets);
  std::printf("  %7s %12s %8s %8s %8s\n", "threads", "gets/s", "p50",
              "p95", "p99");
  for (int threads : kThreadSweep) {
    PrintRow(threads, RunBlobGets(threads, kGets));
  }

  std::printf("\nE17 done.\n");
  return 0;
}
