// Provider transactions (E15): MVCC snapshots, multi-key first-committer-
// wins commits, whole-transaction idempotency tokens, the serializability
// history checker (including its own self-test against known-bad
// histories), the cell's atomic policy+data+manifest update, and the
// outbox's crash-atomic whole-transaction journal.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tc/cell/cell.h"
#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/cloud/txn.h"
#include "tc/common/clock.h"
#include "tc/common/codec.h"
#include "tc/fleet/fleet.h"
#include "tc/net/channel.h"
#include "tc/net/outbox.h"
#include "wire_harness.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"
#include "tc/testing/fault_injection.h"
#include "tc/testing/history_checker.h"

namespace tc {
namespace {

using cloud::BlobStore;
using cloud::kBaseVersionAny;
using cloud::SnapshotDescriptor;
using cloud::TxnOutcome;
using cloud::TxnRequest;

TxnRequest MakeTxn(const std::string& token, const SnapshotDescriptor& snap) {
  TxnRequest req;
  req.token = token;
  req.snapshot = snap;
  return req;
}

// TC_TRANSPORT=socket (the txn_test_wire ctest leg) reruns the channel,
// cell and fleet transaction suites with every channel attempt crossing a
// real loopback TCP connection — same provider, same injector, same
// serializability assertions. The BlobStore/HistoryChecker/outbox unit
// tests below exercise provider- or cell-local state and have no network
// leg to put behind a socket.
#define SKIP_IF_WIRE_LEG_IMPOSSIBLE()                           \
  do {                                                          \
    if (const char* reason = rpc::WireHarness::SkipReason()) {  \
      GTEST_SKIP() << reason;                                   \
    }                                                           \
  } while (false)

/// A channel on the harness's socket transport when the wire leg is
/// active, on an in-process transport otherwise.
struct TestChannel {
  TestChannel(cloud::CloudInfrastructure* cloud, rpc::WireHarness& wire,
              const std::string& peer,
              const net::ChannelOptions& options = {})
      : in_process(cloud),
        channel(wire.transport() != nullptr ? wire.transport() : &in_process,
                peer, options) {}
  net::InProcessTransport in_process;
  net::ResilientChannel channel;
};

// ---------------------------------------------------------------------------
// BlobStore MVCC unit tests.
// ---------------------------------------------------------------------------

TEST(BlobStoreTxnTest, SnapshotIsStableAcrossLaterPuts) {
  BlobStore store;
  EXPECT_EQ(store.Put("a", ToBytes("v1")), 1u);
  SnapshotDescriptor snap = store.Snapshot();
  EXPECT_EQ(store.Put("a", ToBytes("v2")), 2u);

  auto read = store.GetAtSnapshot("a", snap);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->data, ToBytes("v1"));
  EXPECT_EQ(read->version, 1u);
  EXPECT_EQ(*store.Get("a"), ToBytes("v2"));

  // A fresh snapshot observes the new version.
  auto fresh = store.GetAtSnapshot("a", store.Snapshot());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->version, 2u);
}

TEST(BlobStoreTxnTest, BlobBornAfterSnapshotIsInvisible) {
  BlobStore store;
  SnapshotDescriptor snap = store.Snapshot();
  store.Put("late", ToBytes("x"));
  EXPECT_TRUE(store.GetAtSnapshot("late", snap).status().IsNotFound());
  EXPECT_TRUE(store.GetAtSnapshot("late", store.Snapshot()).ok());
}

TEST(BlobStoreTxnTest, MultiKeyCommitIsAtomicUnderOneSequence) {
  BlobStore store;
  SnapshotDescriptor before = store.Snapshot();

  TxnRequest req = MakeTxn("cell-a|txn|1", before);
  req.writes.push_back({"x", ToBytes("x1"), 0});
  req.writes.push_back({"y", ToBytes("y1"), 0});
  TxnOutcome outcome = store.CommitTxn(req);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  ASSERT_TRUE(outcome.committed);
  EXPECT_FALSE(outcome.replayed);
  EXPECT_GT(outcome.commit_seq, 0u);
  ASSERT_EQ(outcome.versions.size(), 2u);
  EXPECT_EQ(outcome.versions[0], 1u);
  EXPECT_EQ(outcome.versions[1], 1u);

  // The pre-commit snapshot sees neither write; a fresh one sees both at
  // the SAME commit sequence (never torn).
  EXPECT_TRUE(store.GetAtSnapshot("x", before).status().IsNotFound());
  EXPECT_TRUE(store.GetAtSnapshot("y", before).status().IsNotFound());
  SnapshotDescriptor after = store.Snapshot();
  auto x = store.GetAtSnapshot("x", after);
  auto y = store.GetAtSnapshot("y", after);
  ASSERT_TRUE(x.ok() && y.ok());
  EXPECT_EQ(x->commit_seq, outcome.commit_seq);
  EXPECT_EQ(y->commit_seq, outcome.commit_seq);

  EXPECT_EQ(store.txns_committed(), 1u);
  EXPECT_EQ(store.txn_writes_applied(), 2u);
  EXPECT_EQ(store.versions_created(), store.txn_writes_applied());
}

TEST(BlobStoreTxnTest, FirstCommitterWinsAndAbortedTokenMayCommitLater) {
  BlobStore store;
  store.Put("k", ToBytes("base"));

  SnapshotDescriptor snap = store.Snapshot();
  TxnRequest a = MakeTxn("token-a", snap);
  a.reads.push_back({"k", 1});
  a.writes.push_back({"k", ToBytes("from-a"), 1});
  TxnRequest b = MakeTxn("token-b", snap);
  b.reads.push_back({"k", 1});
  b.writes.push_back({"k", ToBytes("from-b"), 1});

  TxnOutcome oa = store.CommitTxn(a);
  ASSERT_TRUE(oa.committed);
  EXPECT_EQ(oa.versions[0], 2u);

  // Second committer loses: definitive abort naming the conflicting key.
  TxnOutcome ob = store.CommitTxn(b);
  EXPECT_FALSE(ob.committed);
  EXPECT_TRUE(ob.status.IsAborted()) << ob.status.ToString();
  EXPECT_EQ(ob.conflict_id, "k");
  EXPECT_EQ(store.txns_aborted(), 1u);
  EXPECT_EQ(*store.Get("k"), ToBytes("from-a"));

  // Aborts leave nothing in the token table: the SAME token, rebuilt
  // against a fresh snapshot, validates again and commits (not a replay).
  SnapshotDescriptor fresh = store.Snapshot();
  TxnRequest retry = MakeTxn("token-b", fresh);
  retry.reads.push_back({"k", 2});
  retry.writes.push_back({"k", ToBytes("from-b-retry"), 2});
  TxnOutcome oretry = store.CommitTxn(retry);
  ASSERT_TRUE(oretry.committed);
  EXPECT_FALSE(oretry.replayed);
  EXPECT_EQ(oretry.versions[0], 3u);
  EXPECT_EQ(*store.Get("k"), ToBytes("from-b-retry"));
}

TEST(BlobStoreTxnTest, ReadSetValidationCatchesConcurrentWriter) {
  BlobStore store;
  store.Put("watched", ToBytes("w1"));

  // The txn READS "watched" (no write) and writes elsewhere; a concurrent
  // writer moving "watched" must abort it (validation covers the read set,
  // not just write bases).
  SnapshotDescriptor snap = store.Snapshot();
  TxnRequest req = MakeTxn("reader-txn", snap);
  req.reads.push_back({"watched", 1});
  req.writes.push_back({"derived", ToBytes("d1"), 0});

  store.Put("watched", ToBytes("w2"));  // Concurrent writer wins.

  TxnOutcome outcome = store.CommitTxn(req);
  EXPECT_FALSE(outcome.committed);
  EXPECT_TRUE(outcome.status.IsAborted());
  EXPECT_EQ(outcome.conflict_id, "watched");
  EXPECT_FALSE(store.Exists("derived"));
}

TEST(BlobStoreTxnTest, TokenReplayReturnsOriginalOutcomeWithoutReapplying) {
  BlobStore store;
  TxnRequest req = MakeTxn("redelivered", store.Snapshot());
  req.writes.push_back({"x", ToBytes("x1"), 0});
  req.writes.push_back({"y", ToBytes("y1"), 0});

  TxnOutcome first = store.CommitTxn(req);
  ASSERT_TRUE(first.committed);
  const uint64_t writes_after_first = store.txn_writes_applied();
  const uint64_t versions_after_first = store.versions_created();

  // Identical re-delivery (lost ack): answered from the txn-token table.
  TxnOutcome replay = store.CommitTxn(req);
  ASSERT_TRUE(replay.committed);
  EXPECT_TRUE(replay.replayed);
  EXPECT_EQ(replay.commit_seq, first.commit_seq);
  EXPECT_EQ(replay.versions, first.versions);
  EXPECT_EQ(store.txn_writes_applied(), writes_after_first);
  EXPECT_EQ(store.versions_created(), versions_after_first);
  EXPECT_EQ(store.txn_replays(), 1u);
  EXPECT_EQ(*store.LatestVersion("x"), 1u);
  EXPECT_EQ(*store.LatestVersion("y"), 1u);
}

TEST(BlobStoreTxnTest, BlindWritesSkipValidation) {
  BlobStore store;
  store.Put("k", ToBytes("v1"));
  SnapshotDescriptor stale = store.Snapshot();
  store.Put("k", ToBytes("v2"));

  // kBaseVersionAny is the outbox-drain mode: last-writer-wins on top of
  // whatever is latest, never an abort, still atomic across the set.
  TxnRequest req = MakeTxn("drain-token", stale);
  req.writes.push_back({"k", ToBytes("drained"), kBaseVersionAny});
  req.writes.push_back({"m", ToBytes("m1"), kBaseVersionAny});
  TxnOutcome outcome = store.CommitTxn(req);
  ASSERT_TRUE(outcome.committed) << outcome.status.ToString();
  EXPECT_EQ(outcome.versions[0], 3u);
  EXPECT_EQ(outcome.versions[1], 1u);
  EXPECT_EQ(*store.Get("k"), ToBytes("drained"));
}

TEST(BlobStoreTxnTest, RejectsMalformedRequests) {
  BlobStore store;
  SnapshotDescriptor snap = store.Snapshot();

  TxnRequest no_token = MakeTxn("", snap);
  no_token.writes.push_back({"x", ToBytes("x"), 0});
  EXPECT_EQ(store.CommitTxn(no_token).status.code(),
            StatusCode::kInvalidArgument);

  TxnRequest no_writes = MakeTxn("t", snap);
  EXPECT_EQ(store.CommitTxn(no_writes).status.code(),
            StatusCode::kInvalidArgument);

  TxnRequest dup = MakeTxn("t", snap);
  dup.writes.push_back({"x", ToBytes("a"), 0});
  dup.writes.push_back({"x", ToBytes("b"), 0});
  EXPECT_EQ(store.CommitTxn(dup).status.code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(store.txns_committed(), 0u);
  EXPECT_EQ(store.versions_created(), 0u);
}

TEST(BlobStoreTxnTest, ACommitWaitingForAStripeIsInNoSnapshot) {
  // The one ordering rule a snapshot rests on: a commit draws its sequence
  // while it holds every stripe it writes. Here the commit waits for
  // stripe 0, which a holder keeps, so it holds no stripe and must hold no
  // sequence yet: a snapshot taken meanwhile must not include it, and a
  // read at that snapshot must answer the same after the commit lands.
  // Drawn before the stripes, the sequence would be in the snapshot while
  // the write to the other blob is still to come.
  BlobStore store;
  std::string held_id;
  std::string other_id;
  for (int i = 0; held_id.empty() || other_id.empty(); ++i) {
    const std::string id = "blob/" + std::to_string(i);
    std::string& slot = store.ShardIndex(id) == 0 ? held_id : other_id;
    if (slot.empty()) slot = id;
  }
  store.Put(held_id, ToBytes("held v1"));
  store.Put(other_id, ToBytes("other v1"));

  // The mutator runs under the shard lock, so the parked holder keeps
  // stripe 0 until it is released.
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  std::thread holder([&] {
    ASSERT_TRUE(store
                    .MutateLatest(held_id,
                                  [&](Bytes&) {
                                    std::unique_lock<std::mutex> lock(mu);
                                    parked = true;
                                    cv.notify_all();
                                    cv.wait(lock, [&] { return released; });
                                  })
                    .ok());
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }

  // Stripes are taken in ascending order, so the committer waits on
  // stripe 0 holding none.
  TxnOutcome outcome;
  std::thread committer([&] {
    TxnRequest req = MakeTxn("committer", store.Snapshot());
    req.writes.push_back({held_id, ToBytes("held v2"), kBaseVersionAny});
    req.writes.push_back({other_id, ToBytes("other v2"), kBaseVersionAny});
    outcome = store.CommitTxn(req);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const SnapshotDescriptor snap = store.Snapshot();
  auto before = store.GetAtSnapshot(other_id, snap);
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  holder.join();
  committer.join();

  ASSERT_TRUE(outcome.committed) << outcome.status.ToString();
  EXPECT_FALSE(snap.Visible(outcome.commit_seq));
  auto after = store.GetAtSnapshot(other_id, snap);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->version, before->version);
  EXPECT_EQ(after->data, before->data);
  EXPECT_EQ(store.GetAtSnapshot(other_id, store.Snapshot())->version, 2u);
}

// ---------------------------------------------------------------------------
// HistoryChecker self-test: accepts a good history, rejects every class of
// injected-bad history it exists to catch.
// ---------------------------------------------------------------------------

SnapshotDescriptor Snap(uint64_t base_seq) {
  SnapshotDescriptor snap;
  snap.base_seq = base_seq;
  return snap;
}

bool AnyViolationContains(const std::vector<std::string>& violations,
                          const std::string& needle) {
  for (const auto& v : violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(HistoryCheckerTest, AcceptsSerialHistory) {
  tc::testing::HistoryChecker checker;
  checker.OnBegin("t1", Snap(0));
  checker.OnRead("t1", "k", 0);
  checker.OnCommit("t1", 1, {{"k", 1}});
  checker.OnBegin("t2", Snap(1));
  checker.OnRead("t2", "k", 1);
  checker.OnCommit("t2", 2, {{"k", 2}});
  // An aborted attempt that read consistently is fine.
  checker.OnBegin("t3", Snap(1));
  checker.OnRead("t3", "k", 1);
  checker.OnAbort("t3");

  auto violations = checker.Verify();
  EXPECT_TRUE(violations.empty())
      << "unexpected violation: " << violations.front();
  EXPECT_EQ(checker.recorded_txns(), 3u);
  EXPECT_EQ(checker.commits(), 2u);
  EXPECT_EQ(checker.aborts(), 1u);
}

TEST(HistoryCheckerTest, RejectsLostUpdate) {
  tc::testing::HistoryChecker checker;
  checker.OnBegin("t1", Snap(0));
  checker.OnRead("t1", "k", 0);
  checker.OnCommit("t1", 1, {{"k", 1}});
  // t2 read the SAME version 0 yet was allowed to commit on top of t1:
  // classic lost update — its write is not read_version + 1.
  checker.OnBegin("t2", Snap(0));
  checker.OnRead("t2", "k", 0);
  checker.OnCommit("t2", 2, {{"k", 2}});
  EXPECT_TRUE(AnyViolationContains(checker.Verify(), "lost update"));
}

TEST(HistoryCheckerTest, RejectsTornSnapshot) {
  tc::testing::HistoryChecker checker;
  // One commit wrote k1 and k2 together...
  checker.OnBegin("writer", Snap(0));
  checker.OnCommit("writer", 1, {{"k1", 1}, {"k2", 1}});
  // ...but a reader claiming to run at base 1 saw only half of it.
  checker.OnBegin("reader", Snap(1));
  checker.OnRead("reader", "k1", 1);
  checker.OnRead("reader", "k2", 0);  // Torn: should be 1.
  checker.OnAbort("reader");
  EXPECT_TRUE(AnyViolationContains(checker.Verify(), "newest visible"));
}

TEST(HistoryCheckerTest, RejectsDuplicateVersion) {
  tc::testing::HistoryChecker checker;
  checker.OnBegin("t1", Snap(0));
  checker.OnCommit("t1", 1, {{"k", 1}});
  checker.OnBegin("t2", Snap(1));
  checker.OnCommit("t2", 2, {{"k", 1}});  // Same version, two writers.
  EXPECT_TRUE(AnyViolationContains(checker.Verify(), "both committed"));
}

TEST(HistoryCheckerTest, RejectsVersionGap) {
  tc::testing::HistoryChecker checker;
  checker.OnBegin("t1", Snap(0));
  checker.OnCommit("t1", 1, {{"k", 1}});
  checker.OnBegin("t2", Snap(1));
  checker.OnCommit("t2", 2, {{"k", 3}});  // Version 2 never committed.
  EXPECT_TRUE(AnyViolationContains(checker.Verify(), "version gap"));
}

TEST(HistoryCheckerTest, RejectsVersionSequenceOrderInversion) {
  tc::testing::HistoryChecker checker;
  // k's version 1 committed at sequence 5 but version 2 at sequence 3:
  // version order and serialization order disagree.
  checker.OnBegin("t1", Snap(0));
  checker.OnCommit("t1", 5, {{"k", 1}});
  checker.OnBegin("t2", Snap(0));
  checker.OnCommit("t2", 3, {{"k", 2}});
  EXPECT_TRUE(
      AnyViolationContains(checker.Verify(), "not after its predecessor"));
}

TEST(HistoryCheckerTest, RejectsFutureRead) {
  tc::testing::HistoryChecker checker;
  checker.OnBegin("writer", Snap(0));
  checker.OnCommit("writer", 1, {{"k", 1}});
  // Reader's snapshot (base 0) predates the commit, yet it saw version 1.
  checker.OnBegin("reader", Snap(0));
  checker.OnRead("reader", "k", 1);
  checker.OnAbort("reader");
  EXPECT_TRUE(AnyViolationContains(checker.Verify(), "newest visible"));
}

TEST(HistoryCheckerTest, RejectsSelfVisibleCommit) {
  tc::testing::HistoryChecker checker;
  // Commit sequence 3 is inside the snapshot (base 5) it claims to have
  // run against — the snapshot cannot predate the commit.
  checker.OnBegin("t1", Snap(5));
  checker.OnCommit("t1", 3, {{"k", 1}});
  EXPECT_TRUE(
      AnyViolationContains(checker.Verify(), "visible in its own snapshot"));
}

TEST(HistoryCheckerTest, RejectsSharedCommitSequence) {
  tc::testing::HistoryChecker checker;
  checker.OnBegin("t1", Snap(0));
  checker.OnCommit("t1", 7, {{"a", 1}});
  checker.OnBegin("t2", Snap(0));
  checker.OnCommit("t2", 7, {{"b", 1}});
  EXPECT_TRUE(
      AnyViolationContains(checker.Verify(), "share commit sequence"));
}

TEST(HistoryCheckerTest, RejectsProtocolErrors) {
  tc::testing::HistoryChecker checker;
  checker.OnBegin("t1", Snap(0));
  checker.OnBegin("t1", Snap(0));  // Began twice.
  checker.OnRead("orphan", "k", 0);  // Read before begin.
  checker.OnBegin("t2", Snap(0));
  checker.OnCommit("t2", 1, {{"k", 1}});
  checker.OnAbort("t2");  // Resolved twice.
  auto violations = checker.Verify();
  EXPECT_TRUE(AnyViolationContains(violations, "began twice"));
  EXPECT_TRUE(AnyViolationContains(violations, "before begin"));
  EXPECT_TRUE(AnyViolationContains(violations, "resolved twice"));
}

// ---------------------------------------------------------------------------
// Channel-level commit protocol under injected faults.
// ---------------------------------------------------------------------------

TEST(ChannelTxnTest, LossyNetworkCommitsExactlyOncePerToken) {
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  cloud::CloudInfrastructure cloud;
  cloud::NetworkFaultConfig config;
  config.drop_ack_prob = 0.3;   // Lost acks force same-request re-sends.
  config.duplicate_prob = 0.4;  // Duplicated deliveries hit the token table.
  config.drop_request_prob = 0.1;
  config.seed = 42;
  cloud::NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  rpc::WireHarness wire(&cloud);

  net::ChannelOptions options;
  options.op_deadline_us = 2000000;  // Generous: resolve every commit.
  TestChannel test_channel(&cloud, wire, "cell-1", options);
  net::ResilientChannel& channel = test_channel.channel;

  const int kRounds = 20;
  int committed = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string token = "cell-1/txn" + std::to_string(round);
    bool done = false;
    for (int attempt = 0; attempt < 64 && !done; ++attempt) {
      channel.WaitOutBreaker();
      auto snap = channel.GetSnapshot();
      if (!snap.ok()) continue;
      uint64_t version = 0;
      auto read = channel.GetAtSnapshot("counter", *snap);
      if (read.ok()) {
        version = read->version;
      } else if (!read.status().IsNotFound()) {
        continue;
      }
      TxnRequest req = MakeTxn(token, *snap);
      req.reads.push_back({"counter", version});
      req.writes.push_back(
          {"counter", ToBytes("round" + std::to_string(round)), version});
      // Single-client workload: no contention, so every answer the channel
      // labels definitive must be a commit, and an unresolved outcome is
      // resolved by re-sending the identical request (the token table turns
      // the re-send into a replay if it had applied).
      TxnOutcome outcome = channel.CommitTxn(req);
      if (outcome.committed) {
        ++committed;
        done = true;
      } else {
        ASSERT_FALSE(outcome.status.IsAborted())
            << "single-writer txn aborted: " << outcome.status.ToString();
      }
    }
    ASSERT_TRUE(done) << "round " << round << " never resolved";
  }

  // Exactly one version per round despite drops, duplicates and re-sends.
  EXPECT_EQ(committed, kRounds);
  EXPECT_EQ(*cloud.LatestBlobVersion("counter"),
            static_cast<uint64_t>(kRounds));
  EXPECT_EQ(channel.stats().txns_committed, static_cast<uint64_t>(kRounds));
  const BlobStore& store = cloud.blob_store();
  EXPECT_EQ(store.versions_created(), store.txn_writes_applied());
  EXPECT_GT(injector.stats().faults(), 0u);
}

TEST(ChannelTxnTest, AbortIsDefinitiveAndDoesNotTripBreaker) {
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  cloud::CloudInfrastructure cloud;
  cloud.blob_store().Put("k", ToBytes("v1"));
  rpc::WireHarness wire(&cloud);
  TestChannel test_channel(&cloud, wire, "cell-1");
  net::ResilientChannel& channel = test_channel.channel;

  auto snap = channel.GetSnapshot();
  ASSERT_TRUE(snap.ok());
  cloud.blob_store().Put("k", ToBytes("v2"));  // Concurrent writer wins.

  TxnRequest req = MakeTxn("stale-txn", *snap);
  req.reads.push_back({"k", 1});
  req.writes.push_back({"k", ToBytes("mine"), 1});
  TxnOutcome outcome = channel.CommitTxn(req);
  EXPECT_FALSE(outcome.committed);
  EXPECT_TRUE(outcome.status.IsAborted());

  // The abort is the provider ANSWERING, not the network failing: one
  // attempt, no retries, breaker untouched.
  EXPECT_EQ(channel.stats().txns_aborted, 1u);
  EXPECT_EQ(channel.stats().retries, 0u);
  EXPECT_EQ(channel.stats().breaker_opens, 0u);
  EXPECT_FALSE(channel.degraded());
}

// ---------------------------------------------------------------------------
// Cell-level atomic policy+data+manifest update.
// ---------------------------------------------------------------------------

class CellTxnTest : public ::testing::Test {
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
    auto cell =
        cell::TrustedCell::Create(config, &cloud_, &directory_, &clock_);
    TC_CHECK(cell.ok());
    return std::move(*cell);
  }

  /// Token-accounting invariant: every cell push carries an idempotency
  /// token and every transaction write is counted by the txn engine.
  void ExpectStoreInvariant() {
    const BlobStore& store = cloud_.blob_store();
    EXPECT_EQ(store.versions_created(), store.txn_writes_applied());
  }

  SimulatedClock clock_;
  cloud::NetworkFaultInjector injector_{cloud::NetworkFaultConfig{}};
  cloud::CloudInfrastructure cloud_;
  cell::CellDirectory directory_;
  // Declared last: the harness's server must stop dispatching onto cloud_
  // before cloud_ is destroyed.
  std::unique_ptr<rpc::WireHarness> wire_;
};

TEST_F(CellTxnTest, AtomicUpdatePublishesDataAndManifestTogether) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/false);
  auto tablet = MakeCell("alice-tablet", /*resilient=*/false);
  policy::Policy policy = cell::MakeOwnerPolicy("alice");

  auto doc_id = gateway->StoreDocument("will", "estate legal",
                                       ToBytes("first draft"), policy);
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(tablet->SyncPull().ok());
  ASSERT_EQ(*tablet->FetchDocument(*doc_id), ToBytes("first draft"));

  // One transaction: new sealed payload + refreshed manifest.
  ASSERT_TRUE(
      gateway->UpdateDocumentAtomic(*doc_id, ToBytes("second draft")).ok());
  EXPECT_EQ(gateway->stats().atomic_updates, 1u);
  EXPECT_EQ(*gateway->FetchDocument(*doc_id), ToBytes("second draft"));

  // The sibling's next pull adopts BOTH: fresh manifest names the fresh
  // payload version, so the fetch unseals cleanly.
  ASSERT_TRUE(tablet->SyncPull().ok());
  auto fetched = tablet->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, ToBytes("second draft"));
  EXPECT_EQ(tablet->GetDocumentMeta(*doc_id)->version, 2u);
  ExpectStoreInvariant();
}

TEST_F(CellTxnTest, AtomicUpdateCanRebindThePolicy) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/false);
  policy::Policy open_policy = cell::MakeOwnerPolicy("alice");
  auto doc_id = gateway->StoreDocument("photo", "vacation",
                                       ToBytes("jpeg bytes"), open_policy);
  ASSERT_TRUE(doc_id.ok());

  policy::Policy strict = cell::MakeOwnerPolicy("alice");
  ASSERT_TRUE(gateway
                  ->UpdateDocumentAtomic(*doc_id, ToBytes("jpeg bytes v2"),
                                         &strict)
                  .ok());
  // The rebound sticky policy still verifies: the owner read path checks
  // the policy MAC before unsealing.
  EXPECT_EQ(*gateway->FetchDocument(*doc_id), ToBytes("jpeg bytes v2"));
  ExpectStoreInvariant();
}

TEST_F(CellTxnTest, PartitionedAtomicUpdateJournalsWholeTxnAndDrains) {
  auto gateway = MakeCell("alice-gateway", /*resilient=*/true);
  auto tablet = MakeCell("alice-tablet", /*resilient=*/false);
  policy::Policy policy = cell::MakeOwnerPolicy("alice");

  auto doc_id = gateway->StoreDocument("ledger", "finance",
                                       ToBytes("opening balance"), policy);
  ASSERT_TRUE(doc_id.ok()) << doc_id.status().ToString();
  ASSERT_TRUE(gateway->SyncPush().ok());
  ASSERT_TRUE(tablet->SyncPull().ok());

  // Pull the WAN cable: the atomic update must journal the WHOLE
  // transaction (payload + manifest) as one outbox record.
  injector_.ForceOutage(true);
  ASSERT_TRUE(
      gateway->UpdateDocumentAtomic(*doc_id, ToBytes("amended balance")).ok());
  EXPECT_TRUE(gateway->degraded());
  EXPECT_EQ(gateway->stats().writes_deferred, 1u);
  EXPECT_GE(gateway->outbox_pending(), 1u);

  // Read-your-writes while partitioned: the queued txn payload serves the
  // local fetch.
  EXPECT_EQ(*gateway->FetchDocument(*doc_id), ToBytes("amended balance"));

  // The provider still holds the OLD state — the sibling sees version 1.
  injector_.ForceOutage(false);
  ASSERT_TRUE(tablet->SyncPull().ok());
  EXPECT_EQ(tablet->GetDocumentMeta(*doc_id)->version, 1u);

  // Heal: catch-up drains the journaled transaction atomically under its
  // original token.
  ASSERT_TRUE(gateway->CatchUp().ok());
  EXPECT_EQ(gateway->outbox_pending(), 0u);
  EXPECT_FALSE(gateway->degraded());
  EXPECT_GE(gateway->stats().catchup_drained, 1u);

  // Now the sibling converges to the new payload AND the new manifest.
  ASSERT_TRUE(tablet->SyncPull().ok());
  auto fetched = tablet->FetchDocument(*doc_id);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, ToBytes("amended balance"));
  EXPECT_EQ(tablet->GetDocumentMeta(*doc_id)->version, 2u);
  ExpectStoreInvariant();
}

// ---------------------------------------------------------------------------
// Fleet read-modify-write contention workload feeding the checker.
// ---------------------------------------------------------------------------

TEST(FleetTxnTest, ContendedCountersCommitExactlyAndSerializably) {
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  cloud::CloudInfrastructure cloud;
  rpc::WireHarness wire(&cloud);
  tc::testing::HistoryChecker checker;

  fleet::FleetOptions options;
  options.cells = 8;
  options.threads = 4;
  options.rounds_per_cell = 8;
  options.txn_workload = true;
  options.txn_shared_docs = 4;
  options.txn_keys = 2;
  options.seed = 7;
  options.history = &checker;
  options.transport = wire.transport();

  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const auto& cell : report->cells) {
    EXPECT_TRUE(cell.status.ok())
        << cell.cell_id << ": " << cell.status.ToString();
  }
  EXPECT_TRUE(report->converged);

  // Every logical transaction ran to commit exactly once (Run() already
  // audited Σ final versions == commits × keys against the provider).
  const uint64_t expected = options.cells * options.rounds_per_cell;
  EXPECT_EQ(report->txns_committed, expected);
  EXPECT_EQ(checker.commits(), expected);

  auto violations = checker.Verify();
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: " << violations.front();

  const BlobStore& store = cloud.blob_store();
  EXPECT_EQ(store.versions_created(), store.txn_writes_applied());
}

// ---------------------------------------------------------------------------
// Outbox whole-transaction journal: crash-atomic across power loss
// (satellite: crash between prepare and commit, reopen, all-or-nothing).
// ---------------------------------------------------------------------------

storage::FlashGeometry OutboxGeometry() {
  storage::FlashGeometry geo;
  geo.page_size = 512;
  geo.pages_per_block = 8;
  geo.block_count = 32;
  return geo;
}

/// Sweeps the power-loss point across every flash write one Enqueue of a
/// two-write transaction performs (torn last page): after reopen the
/// journal must hold the whole transaction or none of it — never half.
void SweepEnqueueCrashes(const Bytes& manifest_payload) {
  const Bytes doc_payload = ToBytes("sealed document payload");
  const std::string token = "alice-gateway|txn/space/alice/doc/1|v2";
  storage::PlainPageTransform plain;

  int saw_absent = 0;
  int saw_present = 0;
  for (uint64_t crash_at = 1; crash_at <= 64; ++crash_at) {
    auto dev = std::make_unique<tc::testing::FaultyFlashDevice>(
        OutboxGeometry(), tc::testing::FaultPlan{});
    // Prepare: a formatted store with an unrelated record already durable,
    // so recovery always has a valid tail to rebuild.
    {
      auto store =
          storage::LogStore::Open(dev.get(), &plain, storage::LogStoreOptions{});
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE((*store)->Put("meta/doc/1", ToBytes("local meta")).ok());
    }

    // Arm the power loss relative to the writes already performed (the
    // device ordinal counter is cumulative) and journal the transaction.
    tc::testing::FaultPlan plan;
    plan.seed = crash_at;
    plan.power_loss_after_write_ops = dev->write_ops_seen() + crash_at;
    plan.torn = tc::testing::TornWriteMode::kPrefix;
    dev->SetPlan(plan);
    bool crashed = false;
    {
      auto store =
          storage::LogStore::Open(dev.get(), &plain, storage::LogStoreOptions{});
      if (store.ok()) {
        net::Outbox outbox(store->get());
        ASSERT_TRUE(outbox.Load().ok());
        Status enq = outbox.Enqueue(
            token, {{"space/alice/doc/1", doc_payload},
                    {"space/alice/manifest", manifest_payload}});
        crashed = dev->powered_off();
        if (!crashed) {
          ASSERT_TRUE(enq.ok()) << enq.ToString();
        }
      } else {
        crashed = dev->powered_off();
        ASSERT_TRUE(crashed) << store.status().ToString();
      }
    }

    // Reopen after the crash (tolerating the torn tail page).
    dev->PowerOn();
    dev->SetPlan(tc::testing::FaultPlan{});
    storage::LogStoreOptions tolerant;
    tolerant.max_recovery_skips = 4;
    auto reopened = storage::LogStore::Open(dev.get(), &plain, tolerant);
    ASSERT_TRUE(reopened.ok()) << "crash_at=" << crash_at << ": "
                               << reopened.status().ToString();
    net::Outbox outbox(reopened->get());
    ASSERT_TRUE(outbox.Load().ok());

    // All-or-nothing: the txn record is either intact or absent.
    cloud::CloudInfrastructure cloud;
    if (outbox.empty()) {
      ++saw_absent;
    } else {
      ASSERT_EQ(outbox.size(), 1u) << "crash_at=" << crash_at;
      const net::OutboxRecord& record = outbox.pending().begin()->second;
      EXPECT_EQ(record.token, token);
      ASSERT_EQ(record.writes.size(), 2u);
      EXPECT_EQ(record.writes[0].blob_id, "space/alice/doc/1");
      EXPECT_EQ(record.writes[0].payload, doc_payload);
      EXPECT_EQ(record.writes[1].blob_id, "space/alice/manifest");
      EXPECT_EQ(record.writes[1].payload, manifest_payload);
      ++saw_present;

      // Drain it: both writes land atomically under the original token.
      TxnRequest req = MakeTxn(record.token, cloud.blob_store().Snapshot());
      for (const auto& write : record.writes) {
        req.writes.push_back({write.blob_id, write.payload, kBaseVersionAny});
      }
      TxnOutcome outcome = cloud.CommitTxnRpc(req);
      ASSERT_TRUE(outcome.committed) << outcome.status.ToString();
      EXPECT_EQ(*cloud.blob_store().Get("space/alice/doc/1"), doc_payload);
      EXPECT_EQ(*cloud.blob_store().Get("space/alice/manifest"),
                manifest_payload);
    }
    if (outbox.empty()) {
      // Nothing journaled → nothing drains → the provider never sees a
      // partial transaction.
      EXPECT_FALSE(cloud.blob_store().Exists("space/alice/doc/1"));
      EXPECT_FALSE(cloud.blob_store().Exists("space/alice/manifest"));
    }

    if (!crashed) break;  // Power loss landed past the whole enqueue.
  }
  EXPECT_GE(saw_absent, 1) << "sweep never hit the pre-durability window";
  EXPECT_GE(saw_present, 1) << "sweep never completed an enqueue";
}

TEST(OutboxTxnCrashTest, JournaledTxnFullyAppliesOrFullyAbortsAfterCrash) {
  SweepEnqueueCrashes(ToBytes("sealed manifest payload"));
}

TEST(OutboxTxnCrashTest, MultiValueTxnFullyAppliesOrFullyAbortsAfterCrash) {
  // Three pages of payload: the record spans several values, written
  // piece by piece with its head last.
  SweepEnqueueCrashes(Bytes(3 * OutboxGeometry().page_size, 0x4d));
}

TEST(OutboxTxnCrashTest, RedrainAfterCrashBeforeMarkDoneReplaysNotReapplies) {
  storage::FlashDevice dev(OutboxGeometry());
  storage::PlainPageTransform plain;
  auto store =
      storage::LogStore::Open(&dev, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(store.ok());

  const std::string token = "alice-gateway|txn/space/alice/doc/7|v3";
  net::Outbox outbox(store->get());
  ASSERT_TRUE(outbox.Load().ok());
  ASSERT_TRUE(outbox
                  .Enqueue(token, {{"doc", ToBytes("payload")},
                                   {"manifest", ToBytes("manifest")}})
                  .ok());

  // First drain reaches the provider and commits...
  cloud::CloudInfrastructure cloud;
  const net::OutboxRecord& record = outbox.pending().begin()->second;
  TxnRequest req = MakeTxn(record.token, cloud.blob_store().Snapshot());
  for (const auto& write : record.writes) {
    req.writes.push_back({write.blob_id, write.payload, kBaseVersionAny});
  }
  TxnOutcome first = cloud.CommitTxnRpc(req);
  ASSERT_TRUE(first.committed);
  EXPECT_FALSE(first.replayed);

  // ...but the cell "crashes" before MarkDone: a fresh Outbox over the
  // same store still sees the record pending.
  net::Outbox reopened(store->get());
  ASSERT_TRUE(reopened.Load().ok());
  ASSERT_EQ(reopened.size(), 1u);

  // The re-drain re-sends the identical request under the original token:
  // the provider replays the original outcome instead of re-applying.
  TxnOutcome second = cloud.CommitTxnRpc(req);
  ASSERT_TRUE(second.committed);
  EXPECT_TRUE(second.replayed);
  EXPECT_EQ(second.commit_seq, first.commit_seq);
  EXPECT_EQ(second.versions, first.versions);
  EXPECT_EQ(*cloud.LatestBlobVersion("doc"), 1u);
  EXPECT_EQ(*cloud.LatestBlobVersion("manifest"), 1u);
  ASSERT_TRUE(reopened.MarkDone(reopened.pending().begin()->first).ok());
  EXPECT_TRUE(reopened.empty());

  const BlobStore& blob_store = cloud.blob_store();
  EXPECT_EQ(blob_store.txn_replays(), 1u);
  EXPECT_EQ(blob_store.versions_created(), blob_store.txn_writes_applied());
}

}  // namespace
}  // namespace tc
