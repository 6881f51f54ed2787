#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "tc/cloud/infrastructure.h"
#include "tc/common/overload.h"
#include "tc/crypto/sha256.h"
#include "tc/obs/telemetry.h"

namespace tc::cloud {
namespace {

TEST(BlobStoreTest, VersionedPuts) {
  BlobStore store;
  EXPECT_EQ(store.Put("a", ToBytes("v1")), 1u);
  EXPECT_EQ(store.Put("a", ToBytes("v2")), 2u);
  EXPECT_EQ(*store.Get("a"), ToBytes("v2"));
  EXPECT_EQ(*store.GetVersion("a", 1), ToBytes("v1"));
  EXPECT_EQ(*store.LatestVersion("a"), 2u);
  EXPECT_FALSE(store.GetVersion("a", 3).ok());
  EXPECT_FALSE(store.Get("missing").ok());
}

TEST(BlobStoreTest, ListByPrefix) {
  BlobStore store;
  store.Put("space/alice/doc/1", {1});
  store.Put("space/alice/doc/2", {2});
  store.Put("space/bob/doc/1", {3});
  auto alice = store.List("space/alice/");
  EXPECT_EQ(alice.size(), 2u);
  EXPECT_EQ(store.List("space/").size(), 3u);
  EXPECT_TRUE(store.List("nope/").empty());
}

TEST(BlobStoreTest, DeleteAndAccounting) {
  BlobStore store;
  store.Put("a", Bytes(100));
  store.Put("a", Bytes(50));
  EXPECT_EQ(store.total_bytes(), 150u);
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_FALSE(store.Delete("a").ok());
}

TEST(BlobStoreTest, TotalBytesPinnedThroughPutPutDelete) {
  // Pins the byte accounting through a full Put/Put/Delete cycle, with an
  // unrelated blob alive to catch over-subtraction: deleting a blob must
  // remove the bytes of *all* its versions, and only those.
  BlobStore store;
  store.Put("other", Bytes(7));
  EXPECT_EQ(store.total_bytes(), 7u);
  store.Put("a", Bytes(100));
  EXPECT_EQ(store.total_bytes(), 107u);
  store.Put("a", Bytes(50));
  EXPECT_EQ(store.total_bytes(), 157u);
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.total_bytes(), 7u);
  EXPECT_EQ(store.blob_count(), 1u);
}

TEST(BlobStoreTest, MutateLatestKeepsAccountingInSync) {
  // The old raw-pointer accessor (MutableLatest) let the adversary resize a
  // payload behind the store's back, silently corrupting total_bytes().
  BlobStore store;
  store.Put("a", Bytes(100, 0xAA));
  store.Put("a", Bytes(60, 0xBB));
  ASSERT_EQ(store.total_bytes(), 160u);
  // In-place flip: size unchanged.
  ASSERT_TRUE(store.MutateLatest("a", [](Bytes& b) { b[0] ^= 0xFF; }).ok());
  EXPECT_EQ(store.total_bytes(), 160u);
  // Truncation: accounting follows.
  ASSERT_TRUE(store.MutateLatest("a", [](Bytes& b) { b.resize(10); }).ok());
  EXPECT_EQ(store.total_bytes(), 110u);
  // Growth: accounting follows.
  ASSERT_TRUE(
      store.MutateLatest("a", [](Bytes& b) { b.resize(200, 0xCC); }).ok());
  EXPECT_EQ(store.total_bytes(), 300u);
  // Only the latest version is touched.
  EXPECT_EQ(store.GetVersion("a", 1)->size(), 100u);
  // Delete after mutation subtracts the *current* sizes exactly.
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_FALSE(store.MutateLatest("missing", [](Bytes&) {}).ok());
}

TEST(BlobStoreTest, ShardedStoreBehavesLikeOneStore) {
  // Same operation sequence against 1 shard and 13 shards (coprime with
  // nothing in particular) must be observationally identical.
  BlobStore one(1);
  BlobStore many(13);
  for (int i = 0; i < 200; ++i) {
    std::string id = "space/cell" + std::to_string(i % 17) + "/doc" +
                     std::to_string(i);
    for (BlobStore* store : {&one, &many}) store->Put(id, Bytes(i % 32, 1));
  }
  EXPECT_EQ(one.blob_count(), many.blob_count());
  EXPECT_EQ(one.total_bytes(), many.total_bytes());
  EXPECT_EQ(one.List("space/cell7/"), many.List("space/cell7/"));
  EXPECT_EQ(one.List(""), many.List(""));
}

TEST(BlobStoreTest, TokenEvictionReDeliveryStaysConvergent) {
  // Regression for the FIFO txn-token window: a blind re-delivery whose
  // token was evicted is applied again, and the DOCUMENTED bound is that
  // this appends one duplicate version with identical bytes — the
  // convergence audit (latest payload per blob) must be unaffected, and a
  // within-window re-delivery must still be a replay.
  BlobStore store(/*shard_count=*/1, /*token_history=*/4);
  const Bytes payload = ToBytes("sealed, attempt-stable bytes");
  auto blind = [](const std::string& token, const std::string& id,
                  const Bytes& data) {
    TxnRequest req;
    req.token = token;
    req.writes.push_back({id, data, kBaseVersionAny});
    return req;
  };
  const TxnRequest store_doc = blind("cell|doc|v1", "doc", payload);

  TxnOutcome first = store.CommitTxn(store_doc);
  ASSERT_TRUE(first.committed) << first.status.ToString();
  EXPECT_FALSE(first.replayed);
  EXPECT_EQ(first.versions, std::vector<uint64_t>{1});

  // Within the window: the re-delivery is answered from the table — same
  // version, same commit, no new state.
  TxnOutcome duped = store.CommitTxn(store_doc);
  EXPECT_TRUE(duped.committed);
  EXPECT_TRUE(duped.replayed);
  EXPECT_EQ(duped.versions, first.versions);
  EXPECT_EQ(duped.commit_seq, first.commit_seq);
  EXPECT_EQ(store.txn_replays(), 1u);
  EXPECT_EQ(*store.LatestVersion("doc"), 1u);

  // Four unrelated commits: the table holds 4 tokens, so "cell|doc|v1" is
  // evicted.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store
                    .CommitTxn(blind("cell|other|v" + std::to_string(i + 1),
                                     "other", ToBytes("x")))
                    .committed);
  }

  // Post-eviction re-delivery: applied as a fresh blind write. The bound
  // we document — and must not silently widen — is ONE duplicate version,
  // byte-identical to the acked one, leaving the latest payload (what the
  // convergence audit compares) unchanged.
  TxnOutcome late = store.CommitTxn(store_doc);
  EXPECT_TRUE(late.committed);
  EXPECT_FALSE(late.replayed);
  EXPECT_EQ(late.versions, std::vector<uint64_t>{2});
  EXPECT_EQ(store.txn_replays(), 1u);  // Not a table hit.
  EXPECT_EQ(*store.LatestVersion("doc"), 2u);
  EXPECT_EQ(*store.GetVersion("doc", 1), payload);
  EXPECT_EQ(*store.GetVersion("doc", 2), payload);  // Identical bytes.
  EXPECT_EQ(*store.Get("doc"), payload);  // Convergence audit unaffected.

  // Accounting: the evicted re-delivery is a fresh txn write, so the
  // versions == txn-writes invariant still balances.
  EXPECT_EQ(store.versions_created(), store.txn_writes_applied());
}

// Transcript lines for the provider pin below: every payload, status,
// outcome and descriptor the script observes, rendered byte-exactly.
std::string Render(const Result<Bytes>& r) {
  return r.ok() ? HexEncode(*r) : r.status().ToString();
}

std::string Render(const TxnOutcome& out) {
  std::ostringstream s;
  s << out.status.ToString() << " committed=" << out.committed
    << " replayed=" << out.replayed << " seq=" << out.commit_seq
    << " conflict=" << out.conflict_id << " versions=";
  for (uint64_t v : out.versions) s << v << ",";
  return s.str();
}

std::string Render(const SnapshotDescriptor& snap) {
  return std::to_string(snap.base_seq);
}

// One deterministic single-threaded script over every BlobStore operation,
// hashed into one SHA-256: puts across shards, commits that commit, abort
// and are rejected, token replays inside and after the window, reads at
// three snapshots and at every version, Delete, MutateLatest and every
// counter. Any change to a byte, version, sequence, status or count
// changes the hash.
TEST(BlobStorePinTest, ScriptedProviderTranscriptIsPinned) {
  BlobStore store(/*shard_count=*/4, /*token_history=*/16);
  std::ostringstream log;
  auto payload = [](int op, size_t size) {
    Bytes v(size);
    for (size_t i = 0; i < size; ++i) v[i] = static_cast<uint8_t>(op * 29 + i);
    return v;
  };
  auto txn = [](const std::string& token, std::vector<TxnRead> reads,
                std::vector<TxnWrite> writes) {
    TxnRequest req;
    req.token = token;
    req.reads = std::move(reads);
    req.writes = std::move(writes);
    return req;
  };
  auto commit = [&](const TxnRequest& req) {
    TxnOutcome out = store.CommitTxn(req);
    log << "commit " << req.token << ": " << Render(out) << "\n";
    return out;
  };
  const std::vector<std::string> ids = {
      "space/alice/doc/0", "space/alice/doc/1", "space/alice/doc/2",
      "space/bob/doc/0",   "space/bob/doc/1",   "meta/registry"};

  // Puts across every shard, most ids several versions deep.
  for (int op = 0; op < 16; ++op) {
    const std::string& id = ids[op % ids.size()];
    log << "put " << id << " shard=" << store.ShardIndex(id)
        << " v=" << store.Put(id, payload(op, 1 + (op * 13) % 40)) << "\n";
  }
  const SnapshotDescriptor snap1 = store.Snapshot();

  // A based commit and a blind one (creating a new id) commit; a stale
  // read and a stale base abort; three requests are rejected outright.
  const uint64_t doc0 = *store.LatestVersion(ids[0]);
  const uint64_t bob0 = *store.LatestVersion(ids[3]);
  const TxnRequest based =
      txn("based", {{ids[0], doc0}},
          {{ids[1], payload(100, 12), *store.LatestVersion(ids[1])},
           {ids[3], payload(101, 7), bob0}});
  ASSERT_TRUE(commit(based).committed);
  const TxnRequest blind =
      txn("blind", {},
          {{ids[2], payload(102, 9), kBaseVersionAny},
           {"space/carol/doc/0", payload(103, 30), kBaseVersionAny}});
  ASSERT_TRUE(commit(blind).committed);
  EXPECT_FALSE(commit(txn("stale-read", {{ids[1], 1}},
                          {{ids[4], payload(104, 5), kBaseVersionAny}}))
                   .committed);
  const TxnRequest stale_base =
      txn("stale-base", {}, {{ids[3], payload(105, 11), bob0}});
  EXPECT_FALSE(commit(stale_base).committed);
  EXPECT_FALSE(commit(txn("", {}, {{ids[4], payload(106, 3), 0}})).committed);
  EXPECT_FALSE(commit(txn("no-writes", {{ids[0], doc0}}, {})).committed);
  EXPECT_FALSE(commit(txn("dup", {},
                          {{ids[5], payload(107, 4), kBaseVersionAny},
                           {ids[5], payload(108, 4), kBaseVersionAny}}))
                   .committed);
  const SnapshotDescriptor snap2 = store.Snapshot();

  // Inside its window a token is answered from the table; after four more
  // tokens land in its stripe (4 per stripe here) it is evicted, and its
  // re-delivery applies again. An aborted token may commit on retry.
  EXPECT_TRUE(commit(based).replayed);
  int filler = 0;
  for (int landed = 0; landed < 4; ++filler) {
    std::string token = "filler-" + std::to_string(filler);
    if (store.ShardIndex(token) != store.ShardIndex(blind.token)) continue;
    commit(txn(token, {},
               {{ids[5], payload(200 + filler, 6), kBaseVersionAny}}));
    ++landed;
  }
  EXPECT_FALSE(commit(blind).replayed);
  const TxnRequest retried =
      txn(stale_base.token, {},
          {{ids[3], payload(105, 11), *store.LatestVersion(ids[3])}});
  EXPECT_TRUE(commit(retried).committed);
  const SnapshotDescriptor snap3 = store.Snapshot();
  log << "snapshots " << Render(snap1) << " " << Render(snap2) << " "
      << Render(snap3) << "\n";

  // Reads of every id at every snapshot, at every version and one past,
  // and as latest.
  std::vector<std::string> read_ids = ids;
  read_ids.push_back("space/carol/doc/0");
  read_ids.push_back("missing");
  for (const std::string& id : read_ids) {
    for (const SnapshotDescriptor* snap : {&snap1, &snap2, &snap3}) {
      auto read = store.GetAtSnapshot(id, *snap);
      log << "at-snapshot " << id << ": ";
      if (read.ok()) {
        log << HexEncode(read->data) << " v=" << read->version
            << " seq=" << read->commit_seq << "\n";
      } else {
        log << read.status().ToString() << "\n";
      }
    }
    auto latest = store.LatestVersion(id);
    log << "latest " << id << ": "
        << (latest.ok() ? std::to_string(*latest) : latest.status().ToString())
        << " exists=" << store.Exists(id) << " get=" << Render(store.Get(id))
        << "\n";
    const uint64_t top = latest.ok() ? *latest : 0;
    for (uint64_t v = 0; v <= top + 1; ++v) {
      log << "version " << id << "@" << v << ": "
          << Render(store.GetVersion(id, v)) << "\n";
    }
  }
  for (const char* prefix : {"space/alice/", "space/"}) {
    log << "list " << prefix << ":";
    for (const std::string& id : store.List(prefix)) log << " " << id;
    log << "\n";
  }

  // Delete drops every version's bytes; a later Put restarts at version 1.
  log << "delete " << store.Delete(ids[3]).ToString()
      << " bytes=" << store.total_bytes() << " blobs=" << store.blob_count()
      << " exists=" << store.Exists(ids[3]) << " again="
      << store.Delete(ids[3]).ToString() << " at-snapshot="
      << store.GetAtSnapshot(ids[3], snap3).status().ToString() << "\n";
  log << "put-after-delete v=" << store.Put(ids[3], payload(300, 17))
      << " versions=" << Render(store.GetVersion(ids[3], 2)) << "\n";

  // The adversary's in-place tamper: grow, then shrink, the latest payload.
  const std::string& tampered = ids[0];
  log << "mutate-grow "
      << store.MutateLatest(tampered,
                            [](Bytes& b) { b.resize(b.size() + 50, 0xAB); })
             .ToString()
      << " bytes=" << store.total_bytes() << "\n";
  log << "mutate-shrink "
      << store.MutateLatest(tampered, [](Bytes& b) { b.resize(3); })
             .ToString()
      << " bytes=" << store.total_bytes()
      << " get=" << Render(store.Get(tampered))
      << " older=" << Render(store.GetVersion(tampered, 1)) << "\n";
  log << "mutate-missing "
      << store.MutateLatest("missing", [](Bytes&) {}).ToString() << "\n";

  log << "counters versions=" << store.versions_created()
      << " committed=" << store.txns_committed()
      << " aborted=" << store.txns_aborted()
      << " replays=" << store.txn_replays()
      << " txn_writes=" << store.txn_writes_applied()
      << " blobs=" << store.blob_count() << " bytes=" << store.total_bytes()
      << " audit=" << store.AuditTotalBytes()
      << " contention=" << store.lock_contention()
      << " shards=" << store.shard_count() << "\n";
  EXPECT_EQ(store.total_bytes(), store.AuditTotalBytes());

  const std::string transcript = log.str();
  EXPECT_EQ(HexEncode(crypto::Sha256Hash(ToBytes(transcript))),
            "e47c2a211f7078011b0c82b36568c477a5e3296d8a8f9edafb30a11fd170ea42")
      << transcript;
}

TEST(CloudTest, HonestMessaging) {
  CloudInfrastructure cloud;
  cloud.Send("alice", "bob", "greeting", ToBytes("hi"));
  cloud.Send("alice", "bob", "greeting", ToBytes("again"));
  cloud.Send("alice", "carol", "greeting", ToBytes("yo"));
  EXPECT_EQ(cloud.PendingCount("bob"), 2u);
  auto messages = cloud.Receive("bob");
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].from, "alice");
  EXPECT_EQ(messages[0].topic, "greeting");
  EXPECT_EQ(ToString(messages[0].payload), "hi");
  EXPECT_TRUE(cloud.Receive("bob").empty());
  EXPECT_EQ(cloud.Receive("carol").size(), 1u);
  EXPECT_EQ(cloud.stats().messages_sent, 3u);
  EXPECT_EQ(cloud.stats().messages_delivered, 3u);
}

TEST(CloudTest, HonestBlobsAreFaithful) {
  CloudInfrastructure cloud;
  Bytes data = ToBytes("sealed payload");
  cloud.blob_store().Put("x", data);
  EXPECT_EQ(*cloud.GetBlobRpc("x"), data);
  EXPECT_TRUE(cloud.BlobExists("x"));
  EXPECT_EQ(cloud.adversary_stats().reads_tampered, 0u);
}

TEST(CloudTest, TamperingAdversaryCorruptsReads) {
  AdversaryConfig adversary;
  adversary.tamper_read_prob = 1.0;
  CloudInfrastructure cloud(adversary);
  Bytes data(100, 0x55);
  cloud.blob_store().Put("x", data);
  Bytes read = *cloud.GetBlobRpc("x");
  EXPECT_NE(read, data);
  EXPECT_EQ(cloud.adversary_stats().reads_tampered, 1u);
  // The stored blob itself is intact; only reads are corrupted.
  adversary.tamper_read_prob = 0;
  cloud.set_adversary(adversary);
  EXPECT_EQ(*cloud.GetBlobRpc("x"), data);
}

TEST(CloudTest, RollbackAdversaryServesStaleVersions) {
  AdversaryConfig adversary;
  adversary.rollback_read_prob = 1.0;
  CloudInfrastructure cloud(adversary);
  cloud.blob_store().Put("x", ToBytes("v1"));
  cloud.blob_store().Put("x", ToBytes("v2"));
  cloud.blob_store().Put("x", ToBytes("v3"));
  Bytes read = *cloud.GetBlobRpc("x");
  EXPECT_NE(read, ToBytes("v3"));
  EXPECT_GE(cloud.adversary_stats().reads_rolled_back, 1u);
  // Single-version blobs cannot be rolled back.
  cloud.blob_store().Put("y", ToBytes("only"));
  EXPECT_EQ(*cloud.GetBlobRpc("y"), ToBytes("only"));
}

TEST(CloudTest, DroppingAdversaryLosesMessages) {
  AdversaryConfig adversary;
  adversary.drop_message_prob = 1.0;
  CloudInfrastructure cloud(adversary);
  cloud.Send("a", "b", "t", ToBytes("gone"));
  EXPECT_TRUE(cloud.Receive("b").empty());
  EXPECT_EQ(cloud.adversary_stats().messages_dropped, 1u);
}

TEST(CloudTest, ReplayAdversaryRedeliversOldMessages) {
  AdversaryConfig adversary;
  adversary.replay_message_prob = 1.0;
  adversary.seed = 3;
  CloudInfrastructure cloud(adversary);
  cloud.Send("a", "b", "t", ToBytes("m1"));
  auto first = cloud.Receive("b");
  ASSERT_EQ(first.size(), 1u);
  // Next receive has nothing pending but the adversary replays m1.
  auto replayed = cloud.Receive("b");
  ASSERT_GE(replayed.size(), 1u);
  EXPECT_EQ(ToString(replayed[0].payload), "m1");
  EXPECT_GE(cloud.adversary_stats().messages_replayed, 1u);
}

TEST(CloudTest, AdversaryIsDeterministicForAFixedSeed) {
  // Regression: the same AdversaryConfig::seed must yield bit-identical
  // AdversaryStats across two single-threaded runs of the same workload.
  // (Multi-threaded runs are deterministic *per shard*: each shard owns an
  // RNG stream keyed by seed+shard, so only the operation order within one
  // shard — never cross-shard interleaving — affects its draws.)
  auto run = [] {
    AdversaryConfig adversary;
    adversary.tamper_read_prob = 0.3;
    adversary.rollback_read_prob = 0.3;
    adversary.drop_message_prob = 0.25;
    adversary.replay_message_prob = 0.25;
    adversary.seed = 99;
    CloudInfrastructure cloud(adversary);
    Rng workload(5);
    for (int i = 0; i < 500; ++i) {
      std::string key = "k" + std::to_string(workload.NextBelow(8));
      cloud.blob_store().Put(key, workload.NextBytes(24));
      (void)cloud.GetBlobRpc(key);
      std::string to = "cell" + std::to_string(workload.NextBelow(4));
      cloud.Send("sender", to, "t", workload.NextBytes(8));
      (void)cloud.Receive(to);
    }
    return cloud.adversary_stats();
  };
  AdversaryStats first = run();
  AdversaryStats second = run();
  EXPECT_GT(first.reads_tampered, 0u);
  EXPECT_GT(first.reads_rolled_back, 0u);
  EXPECT_GT(first.messages_dropped, 0u);
  EXPECT_GT(first.messages_replayed, 0u);
  EXPECT_EQ(first.reads_tampered, second.reads_tampered);
  EXPECT_EQ(first.reads_rolled_back, second.reads_rolled_back);
  EXPECT_EQ(first.messages_dropped, second.messages_dropped);
  EXPECT_EQ(first.messages_replayed, second.messages_replayed);
}

TEST(CloudTest, ProbabilisticAdversaryRatesRoughlyMatch) {
  AdversaryConfig adversary;
  adversary.tamper_read_prob = 0.2;
  adversary.seed = 11;
  CloudInfrastructure cloud(adversary);
  cloud.blob_store().Put("x", Bytes(64, 1));
  const int n = 2000;
  for (int i = 0; i < n; ++i) (void)cloud.GetBlobRpc("x");
  double rate =
      static_cast<double>(cloud.adversary_stats().reads_tampered) / n;
  EXPECT_NEAR(rate, 0.2, 0.04);
}

// ---------------------------------------------------------------------------
// The RPC endpoints' shared front half: one table pins, per endpoint and per
// fault class, the status returned, the provider-side effect and the single
// injector draw. A refused request never reaches the store; a lost ack on a
// write still applies; a duplicate applies once; a torn decision tears a
// batch, loses an atomic write and is ignored by a read.
// ---------------------------------------------------------------------------

enum class Fault {
  kClean,
  kOutage,
  kThrottle,
  kDropRequest,
  kDropAck,
  kDuplicate,
};
constexpr Fault kFaults[] = {Fault::kClean,    Fault::kOutage,
                             Fault::kThrottle, Fault::kDropRequest,
                             Fault::kDropAck,  Fault::kDuplicate};

FaultDecision MakeFault(Fault fault) {
  FaultDecision d;
  d.ordinal = 1;
  switch (fault) {
    case Fault::kClean:
      break;
    case Fault::kOutage:
      d.outage = true;
      break;
    case Fault::kThrottle:
      d.throttled = true;
      break;
    case Fault::kDropRequest:
      d.drop_request = true;
      break;
    case Fault::kDropAck:
      d.drop_ack = true;
      break;
    case Fault::kDuplicate:
      d.duplicate = true;
      break;
  }
  return d;
}

struct EndpointCase {
  const char* name;
  /// One call of the endpoint against `cloud`; returns its status.
  std::function<Status(CloudInfrastructure&)> call;
  /// The provider-side effect the call left behind.
  std::function<uint64_t(CloudInfrastructure&)> effect;
  /// Per Fault (kFaults order): expected OK-ness and effect.
  bool ok[6];
  uint64_t effects[6];
};

Bytes TelemetryFrameBytes() {
  obs::TelemetryFrame frame;
  frame.source = "cell-a";
  frame.seq = 1;
  frame.delta.counters["tcell.puts"] = 3;
  return obs::EncodeTelemetryFrame(frame);
}

std::vector<EndpointCase> EndpointCases() {
  auto blob_gets = [](CloudInfrastructure& c) { return c.stats().blob_gets; };
  auto none = [](CloudInfrastructure&) { return uint64_t{0}; };
  return {
      {"get",
       [](CloudInfrastructure& c) { return c.GetBlobRpc("g/x").status(); },
       blob_gets,
       {true, false, false, false, false, true},
       {1, 0, 0, 0, 0, 1}},
      {"snapshot",
       [](CloudInfrastructure& c) { return c.GetSnapshotRpc().status(); }, none,
       {true, false, false, false, false, true},
       {0, 0, 0, 0, 0, 0}},
      {"snapshot_get",
       [](CloudInfrastructure& c) {
         return c.GetBlobAtSnapshotRpc("g/x", c.blob_store().Snapshot())
             .status();
       },
       blob_gets,
       {true, false, false, false, false, true},
       {1, 0, 0, 0, 0, 1}},
      {"txn_commit",
       [](CloudInfrastructure& c) {
         TxnRequest req;
         req.token = "txn/1";
         req.writes.push_back({"t/x", ToBytes("v"), kBaseVersionAny});
         return c.CommitTxnRpc(req).status;
       },
       [](CloudInfrastructure& c) {
         EXPECT_EQ(c.stats().txn_commits, c.blob_store().txns_committed());
         return c.blob_store().txn_writes_applied();
       },
       {true, false, false, false, false, true},
       {1, 0, 0, 0, 1, 1}},
      {"telemetry_report",
       [](CloudInfrastructure& c) {
         return c.ReportTelemetryRpc(TelemetryFrameBytes()).status;
       },
       [](CloudInfrastructure& c) {
         return c.telemetry_hub().stats().applied;
       },
       {true, false, false, false, false, true},
       {1, 0, 0, 0, 1, 1}},
      {"telemetry_scrape",
       [](CloudInfrastructure& c) { return c.ScrapeTelemetryRpc().status(); },
       none,
       {true, false, false, false, false, true},
       {0, 0, 0, 0, 0, 0}},
  };
}

TEST(CloudRpcTest, EveryEndpointMapsEachFaultClass) {
  for (const EndpointCase& endpoint : EndpointCases()) {
    for (size_t f = 0; f < std::size(kFaults); ++f) {
      SCOPED_TRACE(std::string(endpoint.name) + " fault #" +
                   std::to_string(f));
      CloudInfrastructure cloud;
      cloud.blob_store().Put("g/x", ToBytes("seeded"));
      std::vector<FaultDecision> schedule;
      if (kFaults[f] != Fault::kClean) {
        schedule.push_back(MakeFault(kFaults[f]));
      }
      auto injector = NetworkFaultInjector::FromSchedule(schedule);
      cloud.set_fault_injector(injector.get());

      Status status = endpoint.call(cloud);
      EXPECT_EQ(status.ok(), endpoint.ok[f]) << status.ToString();
      if (!status.ok()) {
        EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
      }
      EXPECT_EQ(endpoint.effect(cloud), endpoint.effects[f]);
      EXPECT_EQ(injector->ordinals_issued(), 1u);  // One draw per attempt.
    }
  }
}

TEST(CloudRpcTest, DeadlineShedFollowsTheFaultDraw) {
  // The overload gate opens after the fault draw: an expired deadline is
  // shed kDeadlineExceeded (scrapes included — a dead scrape is dead), yet
  // the injector's ordinal stream advanced exactly as without the shed.
  OverloadContext expired;
  expired.budget_us = 1;
  expired.armed_at_us = 1;
  for (const EndpointCase& endpoint : EndpointCases()) {
    SCOPED_TRACE(endpoint.name);
    CloudInfrastructure cloud;
    auto injector = NetworkFaultInjector::FromSchedule({});
    cloud.set_fault_injector(injector.get());
    Status status;
    {
      ScopedOverloadContext scope(expired);
      status = endpoint.call(cloud);
    }
    EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
    EXPECT_EQ(injector->ordinals_issued(), 1u);
    EXPECT_EQ(cloud.blob_store().versions_created(), 0u);
  }
}

}  // namespace
}  // namespace tc::cloud
