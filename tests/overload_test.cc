// Overload control plane suite: deadline propagation ("never work on dead
// requests"), the gradient admission controller, criticality-banded
// scheduling, retry budgets, and the wire framing that carries all of it.
// Plus the metastable-failure chaos lane: a fleet hammering a faulty,
// CPU-burning provider through the full plane must still satisfy every
// exactly-once / convergence invariant, and the system must recover once
// the spike passes.
//
// TC_TRANSPORT=socket (the overload_test_wire ctest leg) reruns the
// harness-based tests over real loopback TCP, proving the pushback
// headers, deadline budgets and criticality bits survive the wire.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/overload.h"
#include "tc/fleet/fleet.h"
#include "tc/fleet/worker_pool.h"
#include "tc/net/backoff.h"
#include "tc/net/channel.h"
#include "tc/obs/metrics.h"
#include "tc/rpc/client.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"
#include "tc/rpc/wire.h"
#include "wire_harness.h"

namespace tc {
namespace {

using cloud::CloudInfrastructure;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;
using fleet::FleetOptions;
using fleet::FleetReport;

/// A cell's store: one blind single-write commit under `token`.
cloud::TxnRequest Blind(const std::string& token, const std::string& id,
                        const Bytes& data) {
  cloud::TxnRequest req;
  req.token = token;
  req.writes.push_back({id, data, cloud::kBaseVersionAny});
  return req;
}

#define SKIP_IF_WIRE_LEG_IMPOSSIBLE()                           \
  do {                                                          \
    if (const char* reason = rpc::WireHarness::SkipReason()) {  \
      GTEST_SKIP() << reason;                                   \
    }                                                           \
  } while (false)

// ---------------------------------------------------------------------------
// Criticality classes and the thread-local overload context
// ---------------------------------------------------------------------------

TEST(CriticalityTest, BandOrderServesCriticalFirst) {
  // Wire encoding: kNormal MUST be 0 so a zeroed legacy flags field never
  // grants admission bypass; scheduling bands invert that to serve
  // critical first.
  EXPECT_EQ(static_cast<uint8_t>(Criticality::kNormal), 0);
  EXPECT_EQ(CriticalityBand(Criticality::kCritical), 0u);
  EXPECT_EQ(CriticalityBand(Criticality::kNormal), 1u);
  EXPECT_EQ(CriticalityBand(Criticality::kBackground), 2u);
  EXPECT_STREQ(CriticalityName(Criticality::kCritical), "critical");
  EXPECT_STREQ(CriticalityName(Criticality::kNormal), "normal");
  EXPECT_STREQ(CriticalityName(Criticality::kBackground), "background");
}

TEST(OverloadContextTest, BudgetDecaysWithRealTimeAndExpires) {
  OverloadContext ctx;
  ctx.budget_us = 100;
  ctx.armed_at_us = 1000;
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_EQ(ctx.RemainingUs(1000), 100u);
  EXPECT_EQ(ctx.RemainingUs(1050), 50u);
  EXPECT_EQ(ctx.RemainingUs(1100), 0u);
  EXPECT_EQ(ctx.RemainingUs(99999), 0u);  // Saturates, never wraps.
  EXPECT_FALSE(ctx.ExpiredAt(1099));
  EXPECT_TRUE(ctx.ExpiredAt(1100));

  OverloadContext no_deadline;
  EXPECT_FALSE(no_deadline.has_deadline());
  EXPECT_EQ(no_deadline.RemainingUs(123456), UINT64_MAX);
  EXPECT_FALSE(no_deadline.ExpiredAt(UINT64_MAX - 1));
}

TEST(OverloadContextTest, ScopedContextArmsAndRestores) {
  EXPECT_FALSE(CurrentOverloadContext().has_deadline());
  EXPECT_EQ(OverloadRemainingUs(), UINT64_MAX);
  {
    OverloadContext outer;
    outer.budget_us = 5'000'000;  // Generous: stays unexpired in-test.
    outer.criticality = Criticality::kBackground;
    ScopedOverloadContext outer_scope(outer);
    EXPECT_TRUE(CurrentOverloadContext().has_deadline());
    EXPECT_EQ(CurrentOverloadContext().criticality, Criticality::kBackground);
    EXPECT_NE(CurrentOverloadContext().armed_at_us, 0u);  // Stamped at arm.
    EXPECT_LE(OverloadRemainingUs(), 5'000'000u);
    EXPECT_FALSE(OverloadDeadlineExpired());
    {
      OverloadContext inner;  // No deadline, normal class.
      ScopedOverloadContext inner_scope(inner);
      EXPECT_FALSE(CurrentOverloadContext().has_deadline());
      EXPECT_EQ(CurrentOverloadContext().criticality, Criticality::kNormal);
    }
    EXPECT_EQ(CurrentOverloadContext().criticality, Criticality::kBackground);
  }
  EXPECT_FALSE(CurrentOverloadContext().has_deadline());
}

TEST(OverloadContextTest, ExpiredContextReportsExpired) {
  OverloadContext ctx;
  ctx.budget_us = 1;
  ctx.armed_at_us = 1;  // Armed in the distant monotonic past.
  ScopedOverloadContext scope(ctx);
  EXPECT_TRUE(OverloadDeadlineExpired());
  EXPECT_EQ(OverloadRemainingUs(), 0u);
}

TEST(RetryAfterHintTest, HintIsTakeOnce) {
  EXPECT_EQ(TakeRetryAfterHint(), 0u);
  SetRetryAfterHint(750);
  EXPECT_EQ(TakeRetryAfterHint(), 750u);
  EXPECT_EQ(TakeRetryAfterHint(), 0u);  // Cleared by the take.
}

// ---------------------------------------------------------------------------
// Adaptive admission (gradient limiter)
// ---------------------------------------------------------------------------

AdmissionConfig TinyLimit() {
  AdmissionConfig config;
  config.initial_limit = 2.0;
  config.min_limit = 1.0;
  config.max_limit = 2.0;
  config.background_fraction = 0.5;
  return config;
}

TEST(AdmissionControllerTest, CriticalAlwaysAdmittedNormalRejectedAtLimit) {
  AdmissionController admission(TinyLimit());
  EXPECT_TRUE(admission.TryAcquire(Criticality::kNormal));
  EXPECT_TRUE(admission.TryAcquire(Criticality::kNormal));
  uint32_t retry_after_us = 0;
  EXPECT_FALSE(admission.TryAcquire(Criticality::kNormal, &retry_after_us));
  EXPECT_GE(retry_after_us, TinyLimit().min_retry_after_us);
  EXPECT_LE(retry_after_us, TinyLimit().max_retry_after_us);
  // Health probes / telemetry scrapes are never turned away, even past the
  // limit — a saturated server that drops its own health checks converts a
  // brownout into a blackout.
  EXPECT_TRUE(admission.TryAcquire(Criticality::kCritical));
  EXPECT_EQ(admission.stats().rejected, 1u);
  admission.Release(0);
  admission.Release(0);
  admission.Release(0);
  EXPECT_EQ(admission.in_flight(), 0);
}

TEST(AdmissionControllerTest, BackgroundShedsBeforeNormal) {
  AdmissionConfig config = TinyLimit();
  config.initial_limit = 4.0;
  config.max_limit = 4.0;
  AdmissionController admission(config);
  // Two in flight = limit * background_fraction: background is already
  // over its threshold while normal still has headroom.
  EXPECT_TRUE(admission.TryAcquire(Criticality::kNormal));
  EXPECT_TRUE(admission.TryAcquire(Criticality::kNormal));
  EXPECT_FALSE(admission.TryAcquire(Criticality::kBackground));
  EXPECT_TRUE(admission.TryAcquire(Criticality::kNormal));
  EXPECT_EQ(admission.stats().rejected_background, 1u);
  admission.Release(0);
  admission.Release(0);
  admission.Release(0);
}

TEST(AdmissionControllerTest, LimitGrowsWhenFlatAndTightensUnderQueueing) {
  AdmissionConfig config;
  config.initial_limit = 8.0;
  config.min_limit = 1.0;
  config.max_limit = 64.0;
  // Huge window: the long-term min stays pinned at the fast-path latency
  // for the whole test, so the gradient purely reflects the EWMA.
  config.min_window_samples = 1u << 20;
  AdmissionController admission(config);

  // Flat latency at the floor: gradient ~1, the sqrt headroom grows the
  // limit above its initial value.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(admission.TryAcquire(Criticality::kNormal));
    admission.Release(100);
  }
  const double grown = admission.limit();
  EXPECT_GT(grown, config.initial_limit);

  // Queueing inflates the EWMA 50x over the min: the gradient collapses
  // and the limit decays toward measured capacity.
  for (int i = 0; i < 200; ++i) {
    admission.TryAcquire(Criticality::kCritical);  // Always admitted.
    admission.Release(5000);
  }
  EXPECT_LT(admission.limit(), grown);
}

TEST(AdmissionControllerTest, ZeroLatencyReleaseDoesNotSample) {
  AdmissionController admission;
  ASSERT_TRUE(admission.TryAcquire(Criticality::kNormal));
  admission.Release(200);
  const uint64_t ewma_before = admission.stats().ewma_latency_us;
  // Critical probes release without sampling — their ~0us latencies would
  // poison the min/EWMA estimates and pin the gradient.
  ASSERT_TRUE(admission.TryAcquire(Criticality::kCritical));
  admission.Release(0);
  EXPECT_EQ(admission.stats().ewma_latency_us, ewma_before);
}

// ---------------------------------------------------------------------------
// Retry budget (token bucket)
// ---------------------------------------------------------------------------

TEST(RetryBudgetTest, DrainsDeniesAndRefillsOnSuccess) {
  net::RetryBudgetPolicy policy;
  policy.capacity = 2.0;
  policy.refill_per_success = 0.5;
  net::RetryBudget budget(policy);
  EXPECT_TRUE(budget.TryRetry());
  EXPECT_TRUE(budget.TryRetry());
  EXPECT_FALSE(budget.TryRetry());  // Dry: caller must give up, not retry.
  EXPECT_EQ(budget.denied(), 1u);
  budget.RecordSuccess();
  budget.RecordSuccess();
  EXPECT_TRUE(budget.TryRetry());  // Two successes bought one token back.
  // An infinite bucket never runs dry, before or after a refill.
  net::RetryBudgetPolicy off;
  off.capacity = std::numeric_limits<double>::infinity();
  net::RetryBudget unlimited(off);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.TryRetry());
  unlimited.RecordSuccess();
  EXPECT_TRUE(unlimited.TryRetry());
  EXPECT_EQ(unlimited.denied(), 0u);
}

TEST(RetryBudgetTest, ChannelCapsOutageAmplification) {
  // Full outage: every attempt fails. Without a budget each op would burn
  // its whole deadline in retries; with one, TOTAL retries across the
  // channel's lifetime are capped by the bucket (no successes = no refill)
  // — this is the fleet-wide amplification bound.
  CloudInfrastructure cloud;
  NetworkFaultConfig config;
  config.seed = 11;
  NetworkFaultInjector injector(config);
  injector.ForceOutage(true);
  cloud.set_fault_injector(&injector);

  net::ChannelOptions options;
  options.retry_budget.capacity = 3.0;
  options.retry_budget.refill_per_success = 0.1;
  options.breaker.failure_threshold = 1000;  // Isolate the budget's effect.
  net::InProcessTransport transport(&cloud);
  net::ResilientChannel channel(&transport, "budget-cell", options);

  const size_t kOps = 20;
  for (size_t i = 0; i < kOps; ++i) {
    auto put = channel.CommitTxn(
        Blind("budget/w" + std::to_string(i), "budget/doc", Bytes{1, 2, 3}));
    EXPECT_FALSE(put.committed);
  }
  const auto& stats = channel.stats();
  EXPECT_LE(stats.retries, 3u);
  EXPECT_GT(stats.retry_budget_denied, 0u);
  // Amplification = attempts / ops, bounded by 1 + capacity/ops << 2x.
  EXPECT_LE(stats.attempts, kOps + 3);
}

// ---------------------------------------------------------------------------
// WorkerPool: criticality bands
// ---------------------------------------------------------------------------

TEST(WorkerPoolOverloadTest, StrictBandPriorityCriticalFirst) {
  fleet::WorkerPool::Options options;
  options.threads = 1;
  fleet::WorkerPool pool(options);

  std::atomic<bool> go{false};
  ASSERT_TRUE(pool.Submit([&] {
    while (!go.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }));

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&](const char* label) {
    return [&, label] {
      std::lock_guard<std::mutex> lock(mu);
      order.emplace_back(label);
    };
  };
  ASSERT_TRUE(pool.Submit(record("background"), Criticality::kBackground));
  ASSERT_TRUE(pool.Submit(record("normal"), Criticality::kNormal));
  ASSERT_TRUE(pool.Submit(record("critical"), Criticality::kCritical));

  go.store(true);
  pool.Wait();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "critical");
  EXPECT_EQ(order[1], "normal");
  EXPECT_EQ(order[2], "background");
}

// ---------------------------------------------------------------------------
// Wire framing: budget, criticality bits, pushback, kResourceExhausted
// ---------------------------------------------------------------------------

TEST(OverloadWireTest, HeaderCarriesBudgetCriticalityAndPushback) {
  for (Criticality criticality : {Criticality::kNormal, Criticality::kCritical,
                                  Criticality::kBackground}) {
    rpc::FrameHeader h;
    h.op = rpc::RpcOp::kCommitTxn;
    h.request_id = 42;
    h.budget_us = 125'000;
    h.set_criticality(criticality);
    Bytes buf = rpc::EncodeFrameHeader(h);
    ASSERT_EQ(buf.size(), rpc::kFrameHeaderBytes);
    auto decoded = rpc::DecodeFrameHeader(buf.data(), buf.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->budget_us, 125'000u);
    EXPECT_EQ(decoded->criticality(), criticality);
    EXPECT_FALSE(decoded->pushback());
  }
  // Pushback response: budget_us is the retry-after hint.
  rpc::FrameHeader pushback;
  pushback.op = rpc::RpcOp::kGetBlob;
  pushback.flags = rpc::kFlagResponse | rpc::kFlagPushback;
  pushback.budget_us = 2500;
  Bytes buf = rpc::EncodeFrameHeader(pushback);
  auto decoded = rpc::DecodeFrameHeader(buf.data(), buf.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->response());
  EXPECT_TRUE(decoded->pushback());
  EXPECT_EQ(decoded->budget_us, 2500u);
}

TEST(OverloadWireTest, RejectsCorruptCriticalityBits) {
  rpc::FrameHeader h;
  h.op = rpc::RpcOp::kGetBlob;
  h.flags = rpc::kFlagCriticalityMask;  // Bit pattern 3: no such class.
  Bytes buf = rpc::EncodeFrameHeader(h);
  auto decoded = rpc::DecodeFrameHeader(buf.data(), buf.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(OverloadWireTest, ResourceExhaustedStatusRoundTripsEveryCodec) {
  // Satellite (a): the new code must survive every response codec and
  // still classify as transient (retryable) on the far side.
  const Status pushback = Status::ResourceExhausted("server shed this");
  ASSERT_TRUE(pushback.IsResourceExhausted());
  ASSERT_TRUE(pushback.IsTransient());

  auto expect_round_trip = [&](const Status& decoded_status) {
    EXPECT_TRUE(decoded_status.IsResourceExhausted());
    EXPECT_TRUE(decoded_status.IsTransient());
    EXPECT_NE(decoded_status.message().find("server shed this"),
              std::string::npos);
  };

  // Reads the op's status-only reply as its reply fields (rpc/wire.h's op
  // table);
  // `reply` is the field that carries the status.
  auto check = [&](rpc::RpcOp op, auto reply, auto... rest) {
    SCOPED_TRACE(rpc::RpcOpName(op));
    Status decoded = Decode(rpc::EncodeStatusOnlyResponse(op, pushback),
                            &reply, &rest...);
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    if constexpr (requires { reply.status(); }) {
      expect_round_trip(reply.status());
    } else {
      expect_round_trip(reply.status);
    }
  };
  const uint32_t delay_us = 0;
  check(rpc::RpcOp::kGetBlob, Result<Bytes>(Bytes()), delay_us);
  check(rpc::RpcOp::kGetSnapshot,
        Result<cloud::SnapshotDescriptor>(cloud::SnapshotDescriptor()),
        delay_us);
  check(rpc::RpcOp::kGetAtSnapshot,
        Result<cloud::SnapshotRead>(cloud::SnapshotRead()), delay_us);
  check(rpc::RpcOp::kCommitTxn, cloud::TxnOutcome());
  check(rpc::RpcOp::kReportTelemetry, obs::TelemetryHub::ReportOutcome(),
        delay_us);
  check(rpc::RpcOp::kScrapeTelemetry, Result<std::string>(std::string()),
        delay_us);

  cloud::TxnOutcome txn;
  ASSERT_TRUE(Decode(rpc::EncodeStatusOnlyResponse(rpc::RpcOp::kCommitTxn,
                                                    pushback),
                     &txn)
                  .ok());
  EXPECT_FALSE(txn.committed);
}

// ---------------------------------------------------------------------------
// Shed-before-execute at the provider (satellite c)
// ---------------------------------------------------------------------------

OverloadContext ExpiredContext() {
  OverloadContext ctx;
  ctx.budget_us = 1;
  ctx.armed_at_us = 1;  // Monotonic epoch: expired long ago.
  return ctx;
}

TEST(ShedBeforeExecuteTest, ExpiredGetIsShedBeforeTheStore) {
  CloudInfrastructure cloud;
  ASSERT_TRUE(cloud.CommitTxnRpc(Blind("tok/x", "doc/x", Bytes{7})).committed);
  ScopedOverloadContext scope(ExpiredContext());
  auto got = cloud.GetBlobRpc("doc/x");
  EXPECT_TRUE(got.status().IsDeadlineExceeded()) << got.status().ToString();
}

TEST(ShedBeforeExecuteTest, ShedCommitLeavesTokenTableUntouched) {
  CloudInfrastructure cloud;
  cloud::TxnRequest req;
  req.token = "txn/replay-safety";
  req.writes.push_back({"txn/key", Bytes{42}, cloud::kBaseVersionAny});
  {
    ScopedOverloadContext scope(ExpiredContext());
    auto outcome = cloud.CommitTxnRpc(req);
    EXPECT_FALSE(outcome.committed);
    EXPECT_TRUE(outcome.status.IsDeadlineExceeded())
        << outcome.status.ToString();
  }
  // Replay safety: the shed attempt never reached the token table, so the
  // client's re-send of the SAME token executes fresh (not as a replay) —
  // a shed that recorded its token would answer the retry with a phantom
  // "already committed".
  auto retried = cloud.CommitTxnRpc(req);
  EXPECT_TRUE(retried.committed) << retried.status.ToString();
  EXPECT_FALSE(retried.replayed);
  EXPECT_EQ(cloud.blob_store().txn_replays(), 0u);
}

TEST(ShedBeforeExecuteTest, AdmissionRejectionCarriesHintAndSparesScrapes) {
  CloudInfrastructure cloud;
  AdmissionController admission(TinyLimit());
  cloud.set_admission_controller(&admission);
  // Simulate two requests mid-execution: the limit (2) is spoken for.
  ASSERT_TRUE(admission.TryAcquire(Criticality::kNormal));
  ASSERT_TRUE(admission.TryAcquire(Criticality::kNormal));

  (void)TakeRetryAfterHint();  // Clear any stale hint.
  auto outcome = cloud.CommitTxnRpc(Blind("tok/full", "full/doc", Bytes{1}));
  EXPECT_TRUE(outcome.status.IsResourceExhausted())
      << outcome.status.ToString();
  EXPECT_TRUE(outcome.status.IsTransient());  // Retryable upstream.
  EXPECT_GT(TakeRetryAfterHint(), 0u);        // Backoff guidance rode along.
  EXPECT_TRUE(cloud.blob_store().Get("full/doc").status().IsNotFound());

  // The telemetry scrape is critical-class: the controller it reports on
  // can never turn it away.
  auto scrape = cloud.ScrapeTelemetryRpc();
  EXPECT_TRUE(scrape.ok()) << scrape.status().ToString();

  admission.Release(0);
  admission.Release(0);
  cloud.set_admission_controller(nullptr);
}

// ---------------------------------------------------------------------------
// Provider-gate pushback + deadline shed over a real wire
// ---------------------------------------------------------------------------

class RpcOverloadSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!rpc::RpcServer::LoopbackAvailable()) {
      GTEST_SKIP() << "loopback TCP sockets unavailable in this "
                      "environment; socket-path test skipped";
    }
  }
};

TEST_F(RpcOverloadSocketTest, ProviderGateRejectionPushesBackAndPingBypasses) {
  CloudInfrastructure cloud;
  // Every admitted op burns 200ms of real CPU after passing the gate: one
  // in-flight request holds the provider's single admission slot long
  // enough for the main thread to probe it over the wire, even on a
  // loaded host where each thread hop on the probe's way to the gate can
  // take tens of milliseconds.
  NetworkFaultConfig config;
  config.slow_op_prob = 1.0;
  config.slow_op_cpu_us = 200'000;
  config.seed = 3;
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  AdmissionConfig admission_config;
  admission_config.initial_limit = 1.0;
  admission_config.min_limit = 1.0;
  admission_config.max_limit = 1.0;
  AdmissionController admission(admission_config);
  cloud.set_admission_controller(&admission);

  // Two workers: the probe is dispatched while the hog still runs, so it
  // reaches the gate instead of waiting behind the hog in the queue.
  rpc::RpcServer::Options server_options;
  server_options.worker_threads = 2;
  rpc::RpcServer server(&cloud, server_options);
  ASSERT_TRUE(server.Start().ok());

  rpc::SocketTransport saturator("127.0.0.1", server.port());
  rpc::SocketTransport probe("127.0.0.1", server.port());
  ASSERT_GE(saturator.pool().Warmup(), 1u);
  ASSERT_GE(probe.pool().Warmup(), 1u);

  std::thread hog([&] {
    // Holds the single admission slot for ~200ms of real execution.
    (void)saturator.CommitTxn(Blind("tok/hog", "hog/doc", Bytes{1}));
  });
  // Probe only once the hog holds the slot, over a connection already
  // open. On a loaded host the hog's request can otherwise reach the gate
  // after the first probe's, or release the slot before a probe reaches
  // the gate, and then the probes take the slot in turn and none is
  // refused.
  for (int i = 0; i < 2000 && admission.in_flight() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(admission.in_flight(), 1);

  // Normal traffic is refused by the provider gate: kResourceExhausted,
  // with the gate's retry-after hint carried back in the response header
  // and deposited on this thread by the client transport.
  (void)TakeRetryAfterHint();
  bool saw_rejection = false;
  for (int i = 0; i < 20 && !saw_rejection; ++i) {
    auto got = probe.GetBlob("hog/doc", nullptr);
    if (!got.ok() && got.status().IsResourceExhausted()) {
      saw_rejection = true;
      EXPECT_GT(TakeRetryAfterHint(), 0u);
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(admission.stats().rejected, 1u);

  // kPing is answered by the server without crossing the gate: connection
  // health-checks keep working while the provider is saturated, so pools
  // can warm up and reconnect.
  EXPECT_GE(probe.pool().Warmup(), 1u);

  hog.join();
  server.Shutdown();
  cloud.set_admission_controller(nullptr);
}

TEST_F(RpcOverloadSocketTest, QueuedRequestPastDeadlineIsShedNotExecuted) {
  CloudInfrastructure cloud;
  NetworkFaultConfig config;
  config.slow_op_prob = 1.0;
  config.slow_op_cpu_us = 60'000;  // Each admitted op busy-runs 60ms.
  config.seed = 5;
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);

  rpc::RpcServer::Options server_options;
  server_options.worker_threads = 1;  // Everything queues behind the hog.
  rpc::RpcServer server(&cloud, server_options);
  ASSERT_TRUE(server.Start().ok());

  rpc::SocketTransport hog_transport("127.0.0.1", server.port());
  rpc::SocketTransport victim("127.0.0.1", server.port());
  // Connect before arming the tiny budget: a lazy TCP connect inside the
  // overload context would burn the whole 5ms before the frame is even
  // stamped, and the victim would die before it reached the queue.
  ASSERT_GE(victim.pool().Warmup(), 1u);
  ASSERT_GE(hog_transport.pool().Warmup(), 1u);

  std::thread hog([&] {
    (void)hog_transport.CommitTxn(Blind("tok/hog", "hog/doc", Bytes{1}));
  });
  // Send the victim only once the hog holds the one worker (pings never
  // reach the provider, so the hog's commit draws its first fault
  // ordinal): on a loaded host its request could otherwise queue second.
  for (int i = 0; i < 2000 && injector.ordinals_issued() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(injector.ordinals_issued(), 1u);

  // 5ms of budget, ~50ms of queue ahead: the server runs the request once
  // the hog is done, arming its budget as of its arrival, and the provider
  // gate reads it as expired and refuses it before the store.
  obs::Counter& gate_shed =
      obs::MetricRegistry::Global().GetCounter("cloud.overload.shed_expired");
  const uint64_t gate_shed_before = gate_shed.Value();
  (void)TakeRetryAfterHint();
  Status victim_status;
  {
    OverloadContext ctx;
    ctx.budget_us = 5000;
    ScopedOverloadContext scope(ctx);
    auto outcome =
        victim.CommitTxn(Blind("tok/victim", "victim/doc", Bytes{9}));
    victim_status = outcome.status;
  }
  EXPECT_TRUE(victim_status.IsDeadlineExceeded()) << victim_status.ToString();
  // A dead request is refused, not pushed back: retrying cannot help it.
  EXPECT_EQ(TakeRetryAfterHint(), 0u);

  hog.join();
  EXPECT_GE(gate_shed.Value() - gate_shed_before, 1u);
  // Shed before execute: the victim's write never reached the store.
  EXPECT_TRUE(cloud.blob_store().Get("victim/doc").status().IsNotFound());
  server.Shutdown();
}

TEST_F(RpcOverloadSocketTest, BudgetSpentBeforeSendingIsRefusedNotServed) {
  CloudInfrastructure cloud;
  ASSERT_TRUE(cloud.CommitTxnRpc(Blind("tok/x", "doc/x", Bytes{7})).committed);
  rpc::RpcServer server(&cloud, rpc::RpcServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  rpc::SocketTransport transport("127.0.0.1", server.port());
  ASSERT_GE(transport.pool().Warmup(), 1u);

  const uint64_t gets_before = cloud.stats().blob_gets;
  Status status;
  {
    ScopedOverloadContext scope(ExpiredContext());
    status = transport.GetBlob("doc/x", nullptr).status();
  }
  // The frame carries the spent budget as 1µs, not as 0 ("no deadline"),
  // so the provider gate refuses the get instead of serving it.
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(cloud.stats().blob_gets, gets_before);
  server.Shutdown();
}

TEST_F(RpcOverloadSocketTest, QueuedGetsPastDeadlineAreShedWithNoFaultInjector) {
  // No fault injector, as in a deployment: nothing on a get's way from the
  // server's dispatch to the provider gate takes measurable time, so the
  // gate can only see the queue wait through the armed budget. Every op
  // the gate admits sleeps 200ms.
  CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = 200'000;
  CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(), cloud_options);
  // A fixed limit of 4 never turns a request away here; its in-flight
  // count shows when the hog has passed the gate.
  AdmissionConfig admission_config;
  admission_config.initial_limit = 4.0;
  admission_config.min_limit = 4.0;
  admission_config.max_limit = 4.0;
  AdmissionController admission(admission_config);
  cloud.set_admission_controller(&admission);

  rpc::RpcServer::Options server_options;
  server_options.worker_threads = 1;  // The victim queues behind the hog.
  rpc::RpcServer server(&cloud, server_options);
  ASSERT_TRUE(server.Start().ok());

  rpc::SocketTransport hog_transport("127.0.0.1", server.port());
  rpc::SocketTransport victim("127.0.0.1", server.port());
  ASSERT_GE(victim.pool().Warmup(), 1u);
  ASSERT_GE(hog_transport.pool().Warmup(), 1u);

  std::thread hog([&] {
    (void)hog_transport.CommitTxn(Blind("tok/hog", "hog/doc", Bytes{1}));
  });
  for (int i = 0; i < 2000 && admission.in_flight() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(admission.in_flight(), 1);

  obs::Counter& gate_shed =
      obs::MetricRegistry::Global().GetCounter("cloud.overload.shed_expired");
  const uint64_t gate_shed_before = gate_shed.Value();
  const uint64_t gets_before = cloud.stats().blob_gets;
  // 16 gets with 5ms of budget each queue behind the hog. Once it is done
  // the worker runs them back to back on warm caches, so most reach the
  // gate within the microsecond their dispatch started: only a budget
  // that counts from each get's arrival reads as expired there.
  constexpr int kVictims = 16;
  std::vector<Status> statuses(kVictims);
  std::vector<std::thread> victims;
  for (int v = 0; v < kVictims; ++v) {
    victims.emplace_back([&, v] {
      OverloadContext ctx;
      ctx.budget_us = 5000;
      ScopedOverloadContext scope(ctx);
      statuses[v] = victim.GetBlob("hog/doc", nullptr).status();
    });
  }
  for (std::thread& t : victims) t.join();
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  }

  hog.join();
  EXPECT_GE(gate_shed.Value() - gate_shed_before, uint64_t{kVictims});
  // Shed before execute: no victim's read was served.
  EXPECT_EQ(cloud.stats().blob_gets, gets_before);
  server.Shutdown();
  cloud.set_admission_controller(nullptr);
}

// ---------------------------------------------------------------------------
// Metastable-failure chaos lane
// ---------------------------------------------------------------------------

TEST(OverloadChaosTest, FleetSurvivesOverloadWithFullPlaneOn) {
  // The spike: a 16-cell fleet pushes through 25% network faults against a
  // provider whose every op burns real CPU, with the FULL overload plane
  // engaged — adaptive admission at the provider, deadline propagation,
  // retry budgets in every channel. The invariants that must survive the
  // shedding: zero acked-write loss, exactly-once tokens (versions ==
  // txn writes applied), full convergence after the drain.
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  CloudInfrastructure cloud;
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(0.25, 42);
  config.slow_op_prob = 1.0;
  config.slow_op_cpu_us = 20;  // Real contention, sized for CI.
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  AdmissionController admission;  // Default gradient config.
  cloud.set_admission_controller(&admission);
  rpc::WireHarness wire(&cloud);

  FleetOptions options;
  options.cells = 16;
  options.threads = 8;
  options.rounds_per_cell = 8;
  options.writes_per_round = 4;
  options.gets_per_round = 2;
  options.docs_per_cell = 8;
  options.payload_bytes = 64;
  options.seed = 42;
  // 25% faults on top of admission shedding: the end-of-run drain needs
  // real headroom (it is background class until escalation kicks in).
  // Attempts are virtual-clock cheap; the budget is sized so that even a
  // loaded CI host — where wall-clock gate latencies tighten the limiter
  // to its floor and serialize all 16 cells' drains — cannot starve a
  // cell out of its drain.
  options.drain_attempts = 10000;
  options.transport = wire.transport();
  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  for (const auto& cell : report->cells) {
    EXPECT_TRUE(cell.status.ok())
        << cell.cell_id << ": " << cell.status.ToString();
  }
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(cloud.blob_store().versions_created(),
            cloud.blob_store().txn_writes_applied())
      << "duplicate side-effects under shedding";

  // Bounded recovery: the spike is over; a fresh client's first op clears
  // immediately (no metastable retry storm keeps the provider pinned).
  cloud.set_fault_injector(nullptr);
  net::InProcessTransport after_transport(&cloud);
  net::ResilientChannel after(&after_transport, "after-spike",
                              net::ChannelOptions{});
  auto put = after.CommitTxn(
      Blind("after-spike/w1", "recovery/doc", Bytes{1, 2, 3}));
  EXPECT_TRUE(put.committed) << put.status.ToString();
  EXPECT_EQ(after.stats().retries, 0u);
  cloud.set_admission_controller(nullptr);
}

TEST(OverloadChaosTest, ShedTxnsStayExactlyOnceUnderAdmissionPressure) {
  // Contended multi-key transactions with a deliberately tiny admission
  // limit: a large fraction of commits are shed with kResourceExhausted and
  // retried under their ORIGINAL tokens. The provider is sized BELOW the
  // offered load on purpose, so a cell giving up with a bounded
  // kUnavailable after its drain budget is acceptable (that is graceful
  // degradation, the opposite of metastable collapse); what must survive
  // without exception: the commit-exactness audit (shedding never
  // duplicates or loses an effect), no other failure class, and instant
  // recovery once the pressure is gone.
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  CloudInfrastructure cloud;
  // Slow-op burn (no drops): every commit holds real CPU, so the 8 threads
  // genuinely overlap and the tiny limit actually rejects.
  NetworkFaultConfig config;
  config.slow_op_prob = 1.0;
  config.slow_op_cpu_us = 300;
  config.seed = 9;
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  AdmissionConfig tight;
  tight.initial_limit = 1.0;
  tight.min_limit = 1.0;
  tight.max_limit = 2.0;
  AdmissionController admission(tight);
  cloud.set_admission_controller(&admission);
  rpc::WireHarness wire(&cloud);

  FleetOptions options;
  options.cells = 8;
  options.threads = 8;
  options.rounds_per_cell = 6;
  options.txn_workload = true;
  options.txn_shared_docs = 4;
  options.txn_keys = 2;
  options.seed = 7;
  // The drain leg is background class: while other cells are still in
  // their foreground rounds it is deliberately starved by admission, so
  // give it headroom to finish once the storm passes.
  options.drain_attempts = 5000;
  options.transport = wire.transport();
  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const auto& cell : report->cells) {
    // Bounded give-up (kUnavailable after the drain budget) is the
    // designed outcome for load the provider cannot carry; anything else
    // (integrity violation, serializability break, internal error) fails.
    EXPECT_TRUE(cell.status.ok() || cell.status.IsUnavailable())
        << cell.cell_id << ": " << cell.status.ToString();
  }
  // The plane actually engaged (this is a pressure test, not a formality).
  // In-process leg only: on the socket leg the wire's own latency
  // serializes requests through the server's worker pool, so provider-side
  // overlap — and with it a guaranteed rejection — is nondeterministic.
  if (wire.transport() == nullptr) {
    EXPECT_GT(admission.stats().rejected, 0u);
  }
  // Exactly-once through the shedding.
  EXPECT_EQ(cloud.blob_store().versions_created(),
            cloud.blob_store().txn_writes_applied());

  // Bounded recovery: pressure off, a fresh commit clears on the first
  // attempt — shedding left no retry storm or poisoned limiter behind.
  cloud.set_fault_injector(nullptr);
  net::InProcessTransport after_transport(&cloud);
  net::ResilientChannel after(&after_transport, "after-pressure",
                              net::ChannelOptions{});
  cloud::TxnRequest req;
  req.token = "after-pressure/txn";
  req.writes.push_back({"after/key", Bytes{1}, cloud::kBaseVersionAny});
  auto outcome = after.CommitTxn(req);
  EXPECT_TRUE(outcome.committed) << outcome.status.ToString();
  EXPECT_EQ(after.stats().retries, 0u);
  cloud.set_admission_controller(nullptr);
}

}  // namespace
}  // namespace tc
