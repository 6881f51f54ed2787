#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/codec.h"
#include "tc/common/rng.h"
#include "tc/net/backoff.h"
#include "tc/net/channel.h"
#include "tc/net/circuit_breaker.h"
#include "tc/net/outbox.h"
#include "tc/storage/page_transform.h"

namespace tc::net {
namespace {

using cloud::CloudInfrastructure;
using cloud::FaultDecision;
using cloud::NetOp;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;

// ---- Backoff ----

TEST(BackoffTest, DeterministicForSeedAndBounded) {
  BackoffPolicy policy;
  policy.initial_us = 100;
  policy.max_us = 10000;
  Backoff a(policy, 42), b(policy, 42), c(policy, 43);
  bool seeds_differ = false;
  for (int i = 0; i < 200; ++i) {
    uint64_t da = a.NextDelayUs();
    EXPECT_EQ(da, b.NextDelayUs());
    if (da != c.NextDelayUs()) seeds_differ = true;
    // Decorrelated jitter never goes below the floor or above the cap.
    EXPECT_GE(da, policy.initial_us);
    EXPECT_LE(da, policy.max_us);
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(BackoffTest, DecorrelatedDelaysSpreadAcrossTheWindow) {
  BackoffPolicy policy;
  policy.initial_us = 100;
  policy.max_us = 100000;
  Backoff backoff(policy, 7);
  std::vector<uint64_t> delays;
  for (int i = 0; i < 300; ++i) delays.push_back(backoff.NextDelayUs());
  auto [min_it, max_it] = std::minmax_element(delays.begin(), delays.end());
  // Jitter, not a fixed ladder: the draws cover a wide range.
  EXPECT_LT(*min_it, 1000u);
  EXPECT_GT(*max_it, 50000u);
}

TEST(BackoffTest, ResetRewindsGrowthButNotTheStream) {
  BackoffPolicy policy;
  Backoff backoff(policy, 5);
  for (int i = 0; i < 10; ++i) backoff.NextDelayUs();
  backoff.Reset();
  // Post-reset the first delay is bounded by the decorrelated window of a
  // fresh sequence: [initial, 3 * initial).
  uint64_t first = backoff.NextDelayUs();
  EXPECT_GE(first, policy.initial_us);
  EXPECT_LT(first, 3 * policy.initial_us);
}

TEST(DeadlineBudgetTest, ChargesUntilExhaustion) {
  DeadlineBudget budget(1000);
  EXPECT_TRUE(budget.Charge(400));
  EXPECT_EQ(budget.spent_us(), 400u);
  EXPECT_EQ(budget.remaining_us(), 600u);
  EXPECT_FALSE(budget.Charge(600));  // Exactly drains it.
  EXPECT_TRUE(budget.exhausted());
  EXPECT_FALSE(budget.Charge(1));
  EXPECT_EQ(budget.spent_us(), 1001u);
}

// ---- Circuit breaker ----

TEST(CircuitBreakerTest, OpensAfterThresholdRejectsThenRecovers) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_cooldown_us = 1000;
  CircuitBreaker breaker(policy);

  uint64_t now = 0;
  EXPECT_TRUE(breaker.AllowRequest(now));
  breaker.RecordFailure(now);
  breaker.RecordFailure(now);
  EXPECT_FALSE(breaker.open());
  breaker.RecordFailure(now);  // Third consecutive failure.
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.opens(), 1u);

  // While open and inside the cooldown: rejected in O(1).
  EXPECT_FALSE(breaker.AllowRequest(now + 500));
  EXPECT_EQ(breaker.rejections(), 1u);

  // Past the cooldown: exactly one half-open probe is admitted.
  EXPECT_TRUE(breaker.AllowRequest(now + 1500));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(now + 1500);
  EXPECT_FALSE(breaker.open());
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_cooldown_us = 1000;
  CircuitBreaker breaker(policy);
  breaker.RecordFailure(0);
  EXPECT_TRUE(breaker.open());
  EXPECT_TRUE(breaker.AllowRequest(2000));  // Half-open probe.
  breaker.RecordFailure(2000);              // Probe failed.
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.AllowRequest(2500));  // Cooldown restarted.
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 3;
  CircuitBreaker breaker(policy);
  for (int i = 0; i < 10; ++i) {
    breaker.RecordFailure(0);
    breaker.RecordFailure(0);
    breaker.RecordSuccess(0);  // Never three in a row.
  }
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.opens(), 0u);
}

// ---- Fault injector ----

constexpr NetOp kOps[] = {NetOp::kGet, NetOp::kTxnCommit, NetOp::kTelemetry};

TEST(FaultInjectorTest, DecisionsArePureFunctionOfSeed) {
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.3, 99);
  config.delay_prob = 0.2;
  NetworkFaultInjector a(config), b(config);
  Rng ops(123);
  for (int i = 0; i < 500; ++i) {
    NetOp op = kOps[ops.NextBelow(std::size(kOps))];
    FaultDecision da = a.Next(op);
    FaultDecision db = b.Next(op);
    EXPECT_EQ(da.ToString(), db.ToString()) << "ordinal " << da.ordinal;
  }
  EXPECT_EQ(a.FormatSchedule(), b.FormatSchedule());
  EXPECT_GT(a.stats().faults(), 0u);
}

TEST(FaultInjectorTest, ScheduleReplaysExactly) {
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.25, 7);
  config.delay_prob = 0.3;
  NetworkFaultInjector original(config);
  std::vector<NetOp> op_sequence;
  Rng ops(5);
  for (int i = 0; i < 400; ++i) {
    op_sequence.push_back(kOps[ops.NextBelow(std::size(kOps))]);
    original.Next(op_sequence.back());
  }
  auto replay =
      NetworkFaultInjector::FromSchedule(original.Schedule(), config.seed);
  for (NetOp op : op_sequence) replay->Next(op);
  EXPECT_EQ(replay->FormatSchedule(), original.FormatSchedule());
  EXPECT_EQ(replay->stats().faults(), original.stats().faults());
}

TEST(FaultInjectorTest, OutageWindowsAndForcedOutage) {
  NetworkFaultConfig config;
  config.outage_ops = {{3, 6}};  // Ordinals 3, 4, 5.
  NetworkFaultInjector injector(config);
  for (uint64_t ordinal = 1; ordinal <= 8; ++ordinal) {
    FaultDecision d = injector.Next(NetOp::kGet);
    EXPECT_EQ(d.outage, ordinal >= 3 && ordinal < 6) << "ordinal " << ordinal;
  }
  EXPECT_EQ(injector.stats().outage_rejections, 3u);

  injector.ForceOutage(true);
  EXPECT_TRUE(injector.Next(NetOp::kGet).outage);
  injector.ForceOutage(false);
  EXPECT_FALSE(injector.Next(NetOp::kGet).outage);
}

// ---- Resilient channel against an injected network ----

std::unique_ptr<NetworkFaultInjector> ReplayOf(
    std::vector<FaultDecision> decisions) {
  return NetworkFaultInjector::FromSchedule(decisions);
}

FaultDecision At(uint64_t ordinal, NetOp op) {
  FaultDecision d;
  d.ordinal = ordinal;
  d.op = op;
  return d;
}

/// A cell's store: one blind single-write commit under `token`.
cloud::TxnRequest Blind(const std::string& token, const std::string& id,
                        const Bytes& data) {
  cloud::TxnRequest req;
  req.token = token;
  req.writes.push_back({id, data, cloud::kBaseVersionAny});
  return req;
}

TEST(ChannelTest, RetriesThroughDroppedRequests) {
  CloudInfrastructure cloud;
  FaultDecision drop1 = At(1, NetOp::kTxnCommit);
  drop1.drop_request = true;
  FaultDecision drop2 = At(2, NetOp::kTxnCommit);
  drop2.drop_request = true;
  auto injector = ReplayOf({drop1, drop2});
  cloud.set_fault_injector(injector.get());

  InProcessTransport transport(&cloud);
  ResilientChannel channel(&transport, "alice", ChannelOptions{});
  auto outcome =
      channel.CommitTxn(Blind("alice|blob|v1", "blob", ToBytes("payload")));
  ASSERT_TRUE(outcome.committed) << outcome.status.ToString();
  EXPECT_EQ(outcome.versions, std::vector<uint64_t>{1});
  EXPECT_EQ(channel.stats().attempts, 3u);
  EXPECT_EQ(channel.stats().retries, 2u);
  EXPECT_EQ(*cloud.blob_store().Get("blob"), ToBytes("payload"));
}

TEST(ChannelTest, LostAckRetriesDedupeUnderTheSameToken) {
  CloudInfrastructure cloud;
  FaultDecision lost_ack = At(1, NetOp::kTxnCommit);
  lost_ack.drop_ack = true;
  auto injector = ReplayOf({lost_ack});
  cloud.set_fault_injector(injector.get());

  InProcessTransport transport(&cloud);
  ResilientChannel channel(&transport, "alice", ChannelOptions{});
  auto outcome =
      channel.CommitTxn(Blind("alice|blob|v1", "blob", ToBytes("once")));
  ASSERT_TRUE(outcome.committed) << outcome.status.ToString();
  // First attempt stored it (ack lost); the retry was answered from the
  // token table: ONE version, not two.
  EXPECT_TRUE(outcome.replayed);
  EXPECT_EQ(outcome.versions, std::vector<uint64_t>{1});
  EXPECT_EQ(*cloud.LatestBlobVersion("blob"), 1u);
  EXPECT_EQ(cloud.blob_store().txn_replays(), 1u);
  EXPECT_EQ(cloud.blob_store().versions_created(),
            cloud.blob_store().txn_writes_applied());
}

TEST(ChannelTest, NetworkDuplicateAppliesOnce) {
  CloudInfrastructure cloud;
  FaultDecision duplicate = At(1, NetOp::kTxnCommit);
  duplicate.duplicate = true;
  auto injector = ReplayOf({duplicate});
  cloud.set_fault_injector(injector.get());

  InProcessTransport transport(&cloud);
  ResilientChannel channel(&transport, "alice", ChannelOptions{});
  auto outcome =
      channel.CommitTxn(Blind("alice|blob|v1", "blob", ToBytes("payload")));
  ASSERT_TRUE(outcome.committed) << outcome.status.ToString();
  EXPECT_EQ(outcome.versions, std::vector<uint64_t>{1});
  EXPECT_EQ(*cloud.LatestBlobVersion("blob"), 1u);
  EXPECT_EQ(cloud.blob_store().txn_replays(), 1u);
}

TEST(ChannelTest, NonTransientErrorsAreAnswersNotNetworkFailures) {
  CloudInfrastructure cloud;
  InProcessTransport transport(&cloud);
  ResilientChannel channel(&transport, "alice", ChannelOptions{});
  auto missing = channel.Get("never-stored");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(channel.stats().attempts, 1u);  // No retry on kNotFound.
  EXPECT_FALSE(channel.degraded());
}

TEST(ChannelTest, DeadGoesDegradedThenRecovers) {
  CloudInfrastructure cloud;
  NetworkFaultConfig config;  // Clean network; outage forced by hand.
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  injector.ForceOutage(true);

  ChannelOptions options;
  options.op_deadline_us = 20000;
  InProcessTransport transport(&cloud);
  ResilientChannel channel(&transport, "alice", options);

  // Every operation burns its deadline budget until the breaker trips
  // (3 consecutive op failures by default), then ops fail FAST.
  for (int i = 0; i < 3; ++i) {
    auto r = channel.CommitTxn(
        Blind("alice|blob|x" + std::to_string(i), "blob", ToBytes("x")));
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
        << r.status.ToString();
  }
  EXPECT_TRUE(channel.degraded());
  EXPECT_EQ(channel.stats().breaker_opens, 1u);
  EXPECT_EQ(channel.stats().give_ups, 1u);

  const uint64_t attempts_before = channel.stats().attempts;
  auto rejected =
      channel.CommitTxn(Blind("alice|blob|x3", "blob", ToBytes("x")));
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(channel.stats().attempts, attempts_before);  // O(1) fast fail.
  EXPECT_EQ(channel.stats().breaker_rejections, 1u);

  // Network heals; waiting out the cooldown on the virtual clock admits a
  // half-open probe, which succeeds and closes the circuit.
  injector.ForceOutage(false);
  channel.WaitOutBreaker();
  auto recovered =
      channel.CommitTxn(Blind("alice|blob|back", "blob", ToBytes("back")));
  ASSERT_TRUE(recovered.committed) << recovered.status.ToString();
  EXPECT_FALSE(channel.degraded());
  EXPECT_EQ(*cloud.blob_store().Get("blob"), ToBytes("back"));
}

// ---- One retry engine: every op against every attempt outcome ----

// Answers each call with the next scripted status code (the last one
// repeats), shaped as the calling op's outcome; OK is a full success.
// While `down`, every call answers kUnavailable without consuming the
// script.
class ScriptedTransport final : public CloudTransport {
 public:
  explicit ScriptedTransport(std::vector<StatusCode> script)
      : script_(std::move(script)) {}

  bool down = false;
  /// Shape of an OK commit reply: honest (committed, one version per
  /// write), or one of the two malformed shapes.
  enum class CommitShape { kHonest, kOkButUncommitted, kShortVersions };
  CommitShape commit_shape = CommitShape::kHonest;
  /// Shape of OK snapshot replies: honest (a snapshot with base_seq 1,
  /// and reads of version 1 committed at seq 1), or one of the malformed
  /// shapes.
  enum class SnapshotShape {
    kHonest,
    kVersionZero,     ///< An OK read of version 0.
    kInvisibleCommit  ///< A read committed after the snapshot.
  };
  SnapshotShape snapshot_shape = SnapshotShape::kHonest;
  std::vector<std::string> commit_tokens;  ///< Token of every CommitTxn.

  Result<Bytes> GetBlob(const std::string& /*id*/,
                        uint32_t* /*delay_us*/) override {
    return Answer(Bytes{1});
  }
  Result<cloud::SnapshotDescriptor> GetSnapshot(
      uint32_t* /*delay_us*/) override {
    cloud::SnapshotDescriptor snap;
    snap.base_seq = 1;
    return Answer(snap);
  }
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& /*id*/, const cloud::SnapshotDescriptor& /*snap*/,
      uint32_t* /*delay_us*/) override {
    cloud::SnapshotRead read;
    read.data = Bytes{1};
    read.version = snapshot_shape == SnapshotShape::kVersionZero ? 0 : 1;
    read.commit_seq =
        snapshot_shape == SnapshotShape::kInvisibleCommit ? 2 : 1;
    return Answer(read);
  }
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req) override {
    commit_tokens.push_back(req.token);
    cloud::TxnOutcome out;
    out.status = Next();
    out.committed =
        out.status.ok() && commit_shape != CommitShape::kOkButUncommitted;
    if (out.committed) {
      out.versions.assign(req.writes.size(), 1);
      if (commit_shape == CommitShape::kShortVersions &&
          !out.versions.empty()) {
        out.versions.pop_back();
      }
    }
    return out;
  }
  obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& /*frame*/, uint32_t* /*delay_us*/) override {
    obs::TelemetryHub::ReportOutcome out;
    out.status = Next();
    out.applied = out.status.ok();
    return out;
  }
  Result<std::string> ScrapeTelemetry(uint32_t* /*delay_us*/) override {
    return Answer(std::string());
  }
  std::string name() const override { return "scripted"; }

 private:
  Status Next() {
    if (down) return Status::Unavailable("down");
    const StatusCode code = script_[std::min(calls_++, script_.size() - 1)];
    return code == StatusCode::kOk ? Status::OK() : Status(code, "scripted");
  }
  template <typename T>
  Result<T> Answer(T value) {
    Status status = Next();
    if (!status.ok()) return status;
    return value;
  }

  std::vector<StatusCode> script_;
  size_t calls_ = 0;
};

TEST(ChannelTest, OneClassificationRuleForEveryOp) {
  struct Op {
    const char* name;
    Status (*run)(ResilientChannel& channel);
  };
  const Op kOps[] = {
      {"Get", [](ResilientChannel& c) { return c.Get("b").status(); }},
      {"GetSnapshot",
       [](ResilientChannel& c) { return c.GetSnapshot().status(); }},
      {"GetAtSnapshot",
       [](ResilientChannel& c) {
         cloud::SnapshotDescriptor snap;
         snap.base_seq = 1;
         return c.GetAtSnapshot("b", snap).status();
       }},
      {"CommitTxn",
       [](ResilientChannel& c) {
         return c.CommitTxn(cloud::TxnRequest()).status;
       }},
      {"ReportTelemetry",
       [](ResilientChannel& c) { return c.ReportTelemetry(Bytes{1}).status; }},
  };

  enum class Breaker { kClosed, kOpen, kHalfOpen };
  struct Row {
    const char* outcome;
    Breaker start;
    double retry_capacity;
    std::vector<StatusCode> script;
    // Pinned over the op alone.
    uint64_t attempts;
    uint64_t retries;
    StatusCode code;
    bool degraded;
    uint64_t denied;
  };
  using C = StatusCode;
  const Row kRows[] = {
      {"clean", Breaker::kClosed, 10, {C::kOk}, 1, 0, C::kOk, false, 0},
      {"transient, then OK", Breaker::kClosed, 10,
       {C::kResourceExhausted, C::kOk}, 2, 1, C::kOk, false, 0},
      {"transient until the deadline", Breaker::kClosed, 10,
       {C::kUnavailable}, 3, 2, C::kDeadlineExceeded, true, 0},
      {"retry budget dry", Breaker::kClosed, 0, {C::kUnavailable}, 1, 0,
       C::kDeadlineExceeded, true, 1},
      {"transport deadline", Breaker::kClosed, 10, {C::kDeadlineExceeded}, 1,
       0, C::kDeadlineExceeded, true, 0},
      {"definitive answer", Breaker::kClosed, 10, {C::kInvalidArgument}, 1, 0,
       C::kInvalidArgument, false, 0},
      {"circuit open", Breaker::kOpen, 10, {C::kOk}, 0, 0, C::kUnavailable,
       true, 0},
      {"definitive answer to the half-open probe", Breaker::kHalfOpen, 10,
       {C::kNotFound}, 1, 0, C::kNotFound, false, 0},
  };

  for (const Row& row : kRows) {
    for (const Op& op : kOps) {
      SCOPED_TRACE(std::string(row.outcome) + " / " + op.name);
      ChannelOptions options;
      options.breaker.failure_threshold = 1;  // Each op failure shows.
      options.attempt_cost_us = 1000;
      options.backoff.initial_us = 1000;      // Every backoff is 1000us.
      options.backoff.max_us = 1000;
      options.op_deadline_us = 5500;          // Room for three attempts.
      options.retry_budget.capacity = row.retry_capacity;
      ScriptedTransport transport(row.script);
      ResilientChannel channel(&transport, "alice", options);
      if (row.start != Breaker::kClosed) {
        transport.down = true;
        EXPECT_FALSE(op.run(channel).ok());
        transport.down = false;
        ASSERT_TRUE(channel.degraded());
        if (row.start == Breaker::kHalfOpen) channel.WaitOutBreaker();
      }

      const ChannelStats before = channel.stats();
      const Status status = op.run(channel);
      const ChannelStats& after = channel.stats();
      EXPECT_EQ(after.attempts - before.attempts, row.attempts);
      EXPECT_EQ(after.retries - before.retries, row.retries);
      EXPECT_EQ(status.code(), row.code) << status.ToString();
      EXPECT_EQ(channel.degraded(), row.degraded);
      EXPECT_EQ(after.retry_budget_denied - before.retry_budget_denied,
                row.denied);
    }
  }
}

TEST(ChannelTest, MalformedCommitReplyIsRetriedNotTakenAsCommit) {
  // An untrusted provider answers OK without committing, or commits with
  // fewer versions than the request has writes. Neither reply is a
  // commit: each attempt fails as kUnavailable and is retried under the
  // same token until the deadline, and the caller never sees `committed`.
  cloud::TxnRequest req;
  req.token = "alice/txn-1";
  req.writes.push_back({"a", Bytes{1}, cloud::kBaseVersionAny});
  req.writes.push_back({"b", Bytes{2}, cloud::kBaseVersionAny});
  for (auto shape : {ScriptedTransport::CommitShape::kOkButUncommitted,
                     ScriptedTransport::CommitShape::kShortVersions}) {
    ScriptedTransport transport({StatusCode::kOk});
    transport.commit_shape = shape;
    ChannelOptions options;
    options.op_deadline_us = 20000;
    ResilientChannel channel(&transport, "alice", options);
    cloud::TxnOutcome outcome = channel.CommitTxn(req);
    EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded)
        << outcome.status.ToString();
    EXPECT_FALSE(outcome.committed);
    EXPECT_EQ(channel.stats().txns_committed, 0u);
    EXPECT_GT(channel.stats().retries, 0u);
    EXPECT_EQ(transport.commit_tokens,
              std::vector<std::string>(transport.commit_tokens.size(),
                                       req.token));
  }
}

TEST(ChannelTest, MalformedSnapshotRepliesAreRetriedNotUsed) {
  // An untrusted provider answers OK with a read the snapshot that was
  // sent could not have returned: version 0, or a commit the snapshot does
  // not see. Each attempt fails as kUnavailable and is retried until the
  // deadline; the caller never sees the reply.
  using Shape = ScriptedTransport::SnapshotShape;
  cloud::SnapshotDescriptor sent;
  sent.base_seq = 1;
  for (Shape shape : {Shape::kVersionZero, Shape::kInvisibleCommit}) {
    SCOPED_TRACE(static_cast<int>(shape));
    ScriptedTransport transport({StatusCode::kOk});
    transport.snapshot_shape = shape;
    ChannelOptions options;
    options.op_deadline_us = 20000;
    ResilientChannel channel(&transport, "alice", options);
    Status status = channel.GetAtSnapshot("a", sent).status();
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
        << status.ToString();
    EXPECT_GT(channel.stats().retries, 0u);
  }
  // The honest shapes pass.
  ScriptedTransport honest({StatusCode::kOk});
  ResilientChannel channel(&honest, "alice", ChannelOptions());
  auto snap = channel.GetSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->base_seq, 1u);
  auto read = channel.GetAtSnapshot("a", sent);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->version, 1u);
  EXPECT_EQ(channel.stats().retries, 0u);
}

// ---- Exactly-once property: 0–3 deliveries in any order ----

TEST(IdempotencyPropertyTest, RandomRedeliveryHasExactlyOnceEffects) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    cloud::BlobStore store;
    Rng rng(seed);
    constexpr int kWrites = 24;

    // Each logical write: unique token, its own blob, delivered 0–3 times.
    struct Write {
      std::string blob;
      std::string token;
      Bytes payload;
      int deliveries;
    };
    std::vector<Write> writes;
    std::vector<int> delivery_order;
    for (int w = 0; w < kWrites; ++w) {
      Write write;
      write.blob = "blob" + std::to_string(w % 6);  // Blobs shared.
      write.token = "w" + std::to_string(w);
      write.payload = rng.NextBytes(16);
      write.deliveries = static_cast<int>(rng.NextBelow(4));  // 0..3
      for (int d = 0; d < write.deliveries; ++d) delivery_order.push_back(w);
      writes.push_back(std::move(write));
    }
    // Random delivery order (reordering across writes and duplicates).
    for (size_t i = delivery_order.size(); i > 1; --i) {
      std::swap(delivery_order[i - 1], delivery_order[rng.NextBelow(i)]);
    }

    uint64_t delivered_total = 0;
    std::map<std::string, uint64_t> version_of_token;
    for (int w : delivery_order) {
      // Each delivery is the cell's store: a blind single-write commit.
      cloud::TxnOutcome outcome = store.CommitTxn(
          Blind(writes[w].token, writes[w].blob, writes[w].payload));
      ++delivered_total;
      ASSERT_TRUE(outcome.committed) << "seed " << seed;
      ASSERT_EQ(outcome.versions.size(), 1u) << "seed " << seed;
      auto seen = version_of_token.find(writes[w].token);
      if (seen == version_of_token.end()) {
        EXPECT_FALSE(outcome.replayed) << "seed " << seed;
        version_of_token[writes[w].token] = outcome.versions[0];
      } else {
        // Re-delivery: answered with the original version, no new effect.
        EXPECT_TRUE(outcome.replayed) << "seed " << seed;
        EXPECT_EQ(outcome.versions[0], seen->second) << "seed " << seed;
      }
    }

    uint64_t unique_delivered = version_of_token.size();
    EXPECT_EQ(store.txn_writes_applied(), unique_delivered)
        << "seed " << seed;
    EXPECT_EQ(store.versions_created(), unique_delivered) << "seed " << seed;
    EXPECT_EQ(store.txn_replays(), delivered_total - unique_delivered)
        << "seed " << seed;
  }
}

// ---- Durable outbox ----

storage::FlashGeometry OutboxGeometry() {
  storage::FlashGeometry geo;
  geo.page_size = 512;
  geo.pages_per_block = 8;
  geo.block_count = 64;
  return geo;
}

/// Pending tokens in drain order.
std::vector<std::string> Tokens(const Outbox& outbox) {
  std::vector<std::string> tokens;
  for (const auto& [seq, record] : outbox.pending()) {
    tokens.push_back(record.token);
  }
  return tokens;
}

TEST(OutboxTest, RecordRejectsWriteCountBeyondBytes) {
  // A journaled record claiming 2^40 writes over a few bytes.
  BinaryWriter w;
  w.PutString("tc.outbox.txn.v1");
  w.PutU64(7);
  w.PutString("tok");
  w.PutVarint(uint64_t{1} << 40);
  w.PutString("blob");
  EXPECT_EQ(OutboxRecord::Deserialize(w.Take()).status().code(),
            StatusCode::kCorruption);
}

TEST(OutboxTest, UnknownMagicIsCorruption) {
  // The single-blob form is not a record kind any more.
  BinaryWriter w;
  w.PutString("tc.outbox.v1");
  w.PutU64(7);
  w.PutString("blob");
  w.PutString("tok");
  w.PutBytes(ToBytes("payload"));
  EXPECT_EQ(OutboxRecord::Deserialize(w.Take()).status().code(),
            StatusCode::kCorruption);
}

TEST(OutboxTest, EveryRecordDrainsInSeqOrderAndSurvivesReopen) {
  storage::FlashDevice device(OutboxGeometry());
  storage::PlainPageTransform plain;
  auto store =
      storage::LogStore::Open(&device, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(store.ok());

  Outbox outbox(store->get());
  ASSERT_TRUE(outbox.Load().ok());
  EXPECT_TRUE(outbox.empty());

  ASSERT_TRUE(outbox.Enqueue("a|v1", {{"blob-a", ToBytes("a1")}}).ok());
  ASSERT_TRUE(outbox.Enqueue("b|v1", {{"blob-b", ToBytes("b1")}}).ok());
  ASSERT_TRUE(outbox.Enqueue("a|v2", {{"blob-a", ToBytes("a2")}}).ok());
  // A rewrite of blob-a drops nothing: all three stay pending, in the
  // order they were made, and reads see the newer payload.
  const std::vector<std::string> all = {"a|v1", "b|v1", "a|v2"};
  EXPECT_EQ(Tokens(outbox), all);
  ASSERT_NE(outbox.FindPayload("blob-a"), nullptr);
  EXPECT_EQ(*outbox.FindPayload("blob-a"), ToBytes("a2"));

  // Power-cycle: the queue is journaled through the store.
  store->reset();
  auto reopened =
      storage::LogStore::Open(&device, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(reopened.ok());
  Outbox revived(reopened->get());
  ASSERT_TRUE(revived.Load().ok());
  EXPECT_EQ(Tokens(revived), all);
  ASSERT_NE(revived.FindPayload("blob-a"), nullptr);
  EXPECT_EQ(*revived.FindPayload("blob-a"), ToBytes("a2"));
  // New sequence numbers continue above the revived ones.
  const uint64_t last_seq = revived.pending().rbegin()->first;
  ASSERT_TRUE(revived.Enqueue("c|v1", {{"blob-c", ToBytes("c1")}}).ok());
  EXPECT_GT(revived.pending().rbegin()->first, last_seq);

  // Each record drains in seq order, one MarkDone at a time.
  std::vector<std::string> drained;
  while (!revived.empty()) {
    drained.push_back(revived.pending().begin()->second.token);
    ASSERT_TRUE(revived.MarkDone(revived.pending().begin()->first).ok());
  }
  EXPECT_EQ(drained,
            (std::vector<std::string>{"a|v1", "b|v1", "a|v2", "c|v1"}));
  EXPECT_EQ(revived.FindPayload("blob-a"), nullptr);
}

TEST(OutboxTest, FindPayloadReturnsTheNewestQueuedPayloadAcrossRecords) {
  storage::FlashDevice device(OutboxGeometry());
  storage::PlainPageTransform plain;
  auto store =
      storage::LogStore::Open(&device, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(store.ok());
  Outbox outbox(store->get());
  ASSERT_TRUE(outbox.Load().ok());

  ASSERT_TRUE(outbox
                  .Enqueue("update", {{"doc", ToBytes("d1")},
                                      {"manifest", ToBytes("m1")}})
                  .ok());
  ASSERT_TRUE(outbox.Enqueue("push", {{"manifest", ToBytes("m2")}}).ok());
  EXPECT_EQ(*outbox.FindPayload("doc"), ToBytes("d1"));
  EXPECT_EQ(*outbox.FindPayload("manifest"), ToBytes("m2"));
  EXPECT_EQ(outbox.FindPayload("other"), nullptr);

  // Draining the older record leaves the newer manifest queued.
  ASSERT_TRUE(outbox.MarkDone(outbox.pending().begin()->first).ok());
  EXPECT_EQ(outbox.FindPayload("doc"), nullptr);
  EXPECT_EQ(*outbox.FindPayload("manifest"), ToBytes("m2"));
}

TEST(OutboxTest, RecordSpanningPagesSurvivesReopenAndLeavesNoKeyWhenDone) {
  // A record three pages long is cut into values that each fit a page.
  storage::FlashDevice device(OutboxGeometry());
  storage::PlainPageTransform plain;
  auto store =
      storage::LogStore::Open(&device, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(store.ok());
  const Bytes big(3 * OutboxGeometry().page_size, 0x6b);
  {
    Outbox outbox(store->get());
    ASSERT_TRUE(outbox.Load().ok());
    ASSERT_TRUE(outbox
                    .Enqueue("update", {{"doc", ToBytes("d1")},
                                        {"segment", big},
                                        {"manifest", ToBytes("m1")}})
                    .ok());
  }
  auto outbox_keys = [](storage::LogStore& s) {
    size_t keys = 0;
    EXPECT_TRUE(s.ScanAll([&](const std::string& key, const Bytes&) {
                   if (key.rfind("outbox/", 0) == 0) ++keys;
                 }).ok());
    return keys;
  };
  EXPECT_GE(outbox_keys(**store), 4u);

  store->reset();
  auto reopened =
      storage::LogStore::Open(&device, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(reopened.ok());
  Outbox revived(reopened->get());
  ASSERT_TRUE(revived.Load().ok());
  EXPECT_EQ(Tokens(revived), std::vector<std::string>{"update"});
  ASSERT_NE(revived.FindPayload("segment"), nullptr);
  EXPECT_EQ(*revived.FindPayload("segment"), big);
  EXPECT_EQ(*revived.FindPayload("doc"), ToBytes("d1"));

  ASSERT_TRUE(revived.MarkDone(revived.pending().begin()->first).ok());
  EXPECT_EQ(outbox_keys(**reopened), 0u);
}

TEST(OutboxTest, HeadlessPiecesAreDroppedAndAHeadMissingAPieceIsDataLoss) {
  storage::FlashDevice device(OutboxGeometry());
  storage::PlainPageTransform plain;
  auto store =
      storage::LogStore::Open(&device, &plain, storage::LogStoreOptions{});
  ASSERT_TRUE(store.ok());
  const Bytes big(2 * OutboxGeometry().page_size, 0x2c);
  {
    Outbox outbox(store->get());
    ASSERT_TRUE(outbox.Load().ok());
    ASSERT_TRUE(outbox.Enqueue("kept", {{"a", big}}).ok());
  }
  // An enqueue that crashed before its head: pieces only.
  ASSERT_TRUE((*store)->Put("outbox/0000000000000009/1", ToBytes("x")).ok());
  {
    Outbox outbox(store->get());
    ASSERT_TRUE(outbox.Load().ok());
    EXPECT_EQ(Tokens(outbox), std::vector<std::string>{"kept"});
  }
  auto piece = (*store)->Get("outbox/0000000000000009/1");
  EXPECT_TRUE(piece.status().IsNotFound());

  // A head whose piece is gone cannot be rebuilt.
  ASSERT_TRUE((*store)->Delete("outbox/0000000000000001/1").ok());
  Outbox outbox(store->get());
  EXPECT_TRUE(outbox.Load().IsDataLoss());
}

}  // namespace
}  // namespace tc::net
