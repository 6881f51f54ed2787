// The concurrency suite: the one-mutex LogStore under concurrent
// put/get/GC, and the BlobStore's striped reads and commits with their
// latest-visible => snapshot-visible invariant. (The binary and its ctest
// lane keep the `lockfree` name of the lock-free stores they first tested.)
//
// These tests run under BOTH sanitizer presets: ASan proves no payload is
// read after a flush, GC, Delete or vector growth moved or freed it; TSan
// proves the shared paths are data-race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tc/cloud/blob_store.h"
#include "tc/cloud/txn.h"
#include "tc/common/rng.h"
#include "tc/storage/flash_device.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"

namespace tc {
namespace {

using cloud::BlobStore;
using cloud::SnapshotDescriptor;
using cloud::SnapshotRead;
using cloud::TxnOutcome;
using cloud::TxnRequest;
using cloud::TxnWrite;
using storage::FlashDevice;
using storage::FlashGeometry;
using storage::LogStore;
using storage::LogStoreOptions;
using storage::PlainPageTransform;

// ---------------------------------------------------------------------------
// LogStore under concurrency
// ---------------------------------------------------------------------------

FlashGeometry TinyGeometry() {
  FlashGeometry geo;
  geo.page_size = 512;
  geo.pages_per_block = 8;
  geo.block_count = 32;
  return geo;
}

// Writers and readers race while flushes and GC move records between the
// RAM buffer and flash underneath. Each key's value is a pure function of
// the key, so ANY successful Get has exactly one correct answer regardless
// of write interleaving.
TEST(LogStoreLockFreeTest, ConcurrentPutGetWithGcStaysExact) {
  FlashDevice device(TinyGeometry());
  PlainPageTransform plain;
  auto opened = LogStore::Open(&device, &plain, LogStoreOptions{});
  ASSERT_TRUE(opened.ok());
  LogStore& store = **opened;

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kKeysPerWriter = 8;
  constexpr int kRounds = 120;  // Rewrites per key: forces GC repeatedly.

  auto key_of = [](int w, int k) {
    return "w" + std::to_string(w) + "/k" + std::to_string(k);
  };
  auto value_of = [](const std::string& key) {
    Bytes v(48, 0);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<uint8_t>(key[i % key.size()] + i);
    }
    return v;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> good_gets{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeysPerWriter; ++k) {
          std::string key = key_of(w, k);
          Status put = store.Put(key, value_of(key));
          ASSERT_TRUE(put.ok()) << put.ToString();
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(7000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        std::string key = key_of(static_cast<int>(rng.NextBelow(kWriters)),
                                 static_cast<int>(rng.NextBelow(kKeysPerWriter)));
        auto got = store.Get(key);
        if (got.ok()) {
          ASSERT_EQ(*got, value_of(key)) << key;
          good_gets.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Only "not written yet" is acceptable.
          ASSERT_EQ(got.status().code(), StatusCode::kNotFound)
              << got.status().ToString();
        }
      }
      // Quiescent tail reads: every writer has finished by the time stop
      // is set, so these must all hit. They also make good_gets>0
      // deterministic on loaded single-core hosts where a reader can be
      // starved for the entire concurrent phase.
      for (int i = 0; i < 3; ++i) {
        std::string key = key_of(static_cast<int>(rng.NextBelow(kWriters)),
                                 static_cast<int>(rng.NextBelow(kKeysPerWriter)));
        auto got = store.Get(key);
        ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
        ASSERT_EQ(*got, value_of(key)) << key;
        good_gets.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // The workload must actually have exercised GC + the index hot path.
  EXPECT_GT(store.stats().gc_runs.load(), 0u);
  EXPECT_GT(good_gets.load(), 0u);

  // Quiescent exactness: every key readable with its one correct value.
  ASSERT_TRUE(store.Flush().ok());
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      std::string key = key_of(w, k);
      auto got = store.Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(*got, value_of(key)) << key;
    }
  }
  auto live = store.CountLive();
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, static_cast<uint64_t>(kWriters) * kKeysPerWriter);
}

// 8 reader threads hammer Get (buffered and durable records) while
// writers force flush after flush, so the RAM buffer drains to flash and
// GC relocates records continuously under the readers' feet.
TEST(LogStoreLockFreeTest, EightReadersSurvivePageRetirementChurn) {
  FlashDevice device(TinyGeometry());
  PlainPageTransform plain;
  auto opened = LogStore::Open(&device, &plain, LogStoreOptions{});
  ASSERT_TRUE(opened.ok());
  LogStore& store = **opened;

  constexpr int kKeys = 16;
  auto key_of = [](int k) { return "key" + std::to_string(k); };
  auto value_of = [](const std::string& key) {
    Bytes v(96, 0);  // Big enough that a page holds only a few records.
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<uint8_t>(key.back() ^ i);
    }
    return v;
  };
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(store.Put(key_of(k), value_of(key_of(k))).ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(9000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        std::string key = key_of(static_cast<int>(rng.NextBelow(kKeys)));
        auto got = store.Get(key);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(*got, value_of(key)) << key;
      }
    });
  }
  // Two writer threads rewriting every key: each round moves ~kKeys
  // records through the buffer and onto flash, superseding the durable
  // versions GC then reclaims.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < 150; ++round) {
        for (int k = w; k < kKeys; k += 2) {
          ASSERT_TRUE(store.Put(key_of(k), value_of(key_of(k))).ok());
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(store.stats().gc_runs.load(), 0u);
}

// ---------------------------------------------------------------------------
// BlobStore reads and commits across threads
// ---------------------------------------------------------------------------

TEST(BlobStoreLockFreeTest, DeleteThenPutRestartsVersioning) {
  BlobStore store(4);
  EXPECT_EQ(store.Put("doc", Bytes{1}), 1u);
  EXPECT_EQ(store.Put("doc", Bytes{2}), 2u);
  EXPECT_EQ(store.Put("doc", Bytes{3}), 3u);
  EXPECT_EQ(store.blob_count(), 1u);
  ASSERT_TRUE(store.Delete("doc").ok());
  EXPECT_FALSE(store.Exists("doc"));
  EXPECT_EQ(store.blob_count(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_EQ(store.Put("doc", Bytes{4, 5}), 1u);  // History restarts.
  EXPECT_EQ(*store.Get("doc"), (Bytes{4, 5}));
  EXPECT_FALSE(store.GetVersion("doc", 2).ok());
  EXPECT_EQ(store.total_bytes(), 2u);
}

// The store's invariant, hammered: any blob a reader observes as latest
// must already be visible in a snapshot taken afterwards. Publishing a
// write's sequence before its stripe is released is what closes the
// window; a regression here shows up as a version observed via
// LatestVersion but absent from the immediately-following snapshot.
TEST(BlobStoreLockFreeTest, LatestVisibleImpliesSnapshotVisible) {
  BlobStore store(8);
  constexpr int kKeys = 4;
  constexpr int kWriters = 4;
  constexpr int kRounds = 1500;
  auto key_of = [](int k) { return "blob" + std::to_string(k); };

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) {
        store.Put(key_of((w + i) % kKeys),
                  Bytes(16, static_cast<uint8_t>(i)));
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(4000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        std::string id = key_of(static_cast<int>(rng.NextBelow(kKeys)));
        auto latest = store.LatestVersion(id);
        if (!latest.ok()) continue;  // Not created yet.
        SnapshotDescriptor snap = store.Snapshot();
        auto read = store.GetAtSnapshot(id, snap);
        ASSERT_TRUE(read.ok())
            << id << " latest v" << *latest
            << " invisible in a snapshot taken afterwards";
        ASSERT_GE(read->version, *latest)
            << id << ": snapshot rolled back behind an observed latest";
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
}

// Multi-key commits must never be seen torn by snapshot readers, which
// take one stripe per read while the commit holds both.
TEST(BlobStoreLockFreeTest, TxnCommitsNeverTornUnderLockFreeReads) {
  BlobStore store(8);
  const std::string kLeft = "pair/left";
  const std::string kRight = "pair/right";
  {
    TxnRequest init;
    init.token = "init";
    init.writes.push_back(TxnWrite{kLeft, Bytes{0}, cloud::kBaseVersionAny});
    init.writes.push_back(TxnWrite{kRight, Bytes{0}, cloud::kBaseVersionAny});
    ASSERT_TRUE(store.CommitTxn(init).committed);
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 1; !stop.load(std::memory_order_acquire); ++i) {
      // Both halves always carry the same byte; kBaseVersionAny keeps the
      // writer from aborting against itself.
      uint8_t byte = static_cast<uint8_t>(i % 251);
      TxnRequest req;
      req.token = "pair/" + std::to_string(i);
      req.writes.push_back(
          TxnWrite{kLeft, Bytes{byte}, cloud::kBaseVersionAny});
      req.writes.push_back(
          TxnWrite{kRight, Bytes{byte}, cloud::kBaseVersionAny});
      TxnOutcome out = store.CommitTxn(req);
      ASSERT_TRUE(out.committed) << out.status.ToString();
    }
  });

  for (int checks = 0; checks < 4000; ++checks) {
    SnapshotDescriptor snap = store.Snapshot();
    auto left = store.GetAtSnapshot(kLeft, snap);
    auto right = store.GetAtSnapshot(kRight, snap);
    ASSERT_TRUE(left.ok());
    ASSERT_TRUE(right.ok());
    ASSERT_EQ(left->data, right->data)
        << "torn commit: snapshot saw half a transaction";
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

// Per-stripe byte accounting must not drift under concurrent puts,
// deletes and in-place mutations.
TEST(BlobStoreLockFreeTest, ByteAccountingExactAtQuiescence) {
  BlobStore store(8);
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + t);
      for (int op = 0; op < 1500; ++op) {
        std::string id = "b" + std::to_string(rng.NextBelow(64));
        double dice = rng.NextDouble();
        if (dice < 0.6) {
          store.Put(id, rng.NextBytes(1 + rng.NextBelow(64)));
        } else if (dice < 0.8) {
          Status s = store.Delete(id);  // NotFound races are fine.
          (void)s;
        } else {
          Status s = store.MutateLatest(id, [&](Bytes& data) {
            data.resize(1 + (data.size() * 7) % 96, 0xee);
          });
          (void)s;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.AuditTotalBytes(), store.total_bytes())
      << "byte accounting drifted from the live data";
}

}  // namespace
}  // namespace tc
