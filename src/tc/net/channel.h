#ifndef TC_NET_CHANNEL_H_
#define TC_NET_CHANNEL_H_

#include <cstdint>
#include <string>

#include "tc/cloud/infrastructure.h"
#include "tc/common/overload.h"
#include "tc/common/result.h"
#include "tc/net/backoff.h"
#include "tc/net/circuit_breaker.h"
#include "tc/net/transport.h"
#include "tc/obs/metrics.h"

namespace tc::net {

struct ChannelOptions {
  BackoffPolicy backoff;
  CircuitBreakerPolicy breaker;
  /// Virtual retry budget of one operation (attempts + backoff delays).
  /// Exhaustion maps to kDeadlineExceeded.
  uint64_t op_deadline_us = 250000;
  /// Virtual cost charged per network attempt (models the WAN round-trip
  /// on the simulated clock; independent of the cloud's wall-clock
  /// op_latency_us knob).
  uint64_t attempt_cost_us = 2000;
  uint64_t seed = 1;
  /// Token-bucket cap on retries (see RetryBudgetPolicy): a dry bucket
  /// fails the op kResourceExhausted instead of amplifying an outage.
  RetryBudgetPolicy retry_budget;
  /// Criticality class every attempt is tagged with (rides the wire flags
  /// and decides the provider's shed order). Mutable per-leg via
  /// set_criticality: fleet drains mark themselves kBackground.
  Criticality criticality = Criticality::kNormal;
};

struct ChannelStats {
  uint64_t attempts = 0;       ///< Network attempts sent.
  uint64_t retries = 0;        ///< Attempts beyond the first of each op.
  uint64_t breaker_rejections = 0;  ///< Ops answered kUnavailable in O(1).
  uint64_t breaker_opens = 0;
  uint64_t give_ups = 0;  ///< kDeadlineExceeded give-ups that opened it.
  uint64_t txns_committed = 0;  ///< Commit answers (incl. replayed).
  uint64_t txns_aborted = 0;    ///< Definitive abort answers.
  uint64_t retry_budget_denied = 0;  ///< Retries refused by the dry bucket.
};

/// Client-side resilient channel to the untrusted provider: exponential
/// backoff with decorrelated jitter, per-operation deadline budgets,
/// tokened commits re-sent unchanged, and a circuit breaker that converts
/// a dead provider into fast-failing kUnavailable (degraded mode) instead
/// of a deadline burn per call.
///
/// Every operation runs through one retry engine (the private Retry loop,
/// the client twin of the provider's CloudInfrastructure::Serve), which
/// classifies each attempt by one rule for all five operations:
///   - OK (including a committed transaction): success;
///   - kUnavailable / kResourceExhausted: retried within the retry budget
///     and the deadline budget;
///   - kDeadlineExceeded from the transport or the provider (socket
///     request timeout, deadline shed): the op gives up, charged to the
///     breaker exactly like an exhausted budget;
///   - any other code (kNotFound, kAborted, kIntegrityViolation, ...): the
///     provider's answer, returned at once and counted as a reachable
///     provider by both the breaker and the retry budget.
///
/// All timing is virtual: a channel-private microsecond clock advanced by
/// attempt costs, injected delays, backoff waits and WaitOutBreaker.
/// Nothing sleeps, so retry storms run at CPU speed and replay
/// deterministically.
///
/// One channel per cell, used from one thread at a time (a cell's
/// operations are serial); the class is not thread-safe.
///
/// Observability: `cloud.retries` counts retry attempts fleet-wide;
/// `net.breaker_opens` / `net.deadline_exceeded` count give-up events.
/// When an operation gives up with kDeadlineExceeded *and* that failure
/// flips the breaker open, the flight recorder captures a
/// "net:sync_giveup" dump with the active trace context — the moment a
/// cell abandons the sync path and falls back to its outbox.
class ResilientChannel {
 public:
  /// Every attempt goes through `transport` (not owned; must outlive the
  /// channel): an InProcessTransport for a provider in this process, a
  /// socket transport for one in another — same retry engine, same token
  /// semantics, different wire.
  ResilientChannel(CloudTransport* transport, std::string peer_id,
                   const ChannelOptions& options);

  Result<Bytes> Get(const std::string& id);

  // ---- Provider transactions ----

  /// Snapshot of the provider's committed horizon, with the usual
  /// breaker/deadline/backoff treatment of the network leg.
  Result<cloud::SnapshotDescriptor> GetSnapshot();

  /// Snapshot read: newest version of `id` visible in `snap`. kNotFound is
  /// an answer (no retry); network losses are retried within the budget.
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap);

  /// Multi-key atomic commit. Transient network failures are retried with
  /// the SAME request (same token, same read/write sets) — a lost-ack
  /// retry is answered from the provider's txn-token table, so the caller
  /// always learns the transaction's true fate. An abort is a definitive
  /// answer, NOT a network failure: it is returned to the caller, who
  /// refreshes its snapshot and rebuilds the transaction under the same
  /// token. Giving up (the deadline or retry budget ran out, or the
  /// transport timed out) leaves the outcome unresolved (`status` =
  /// kDeadlineExceeded, `committed` false): the commit may or may not have
  /// applied, and only a later re-send of the identical request can
  /// resolve it. `committed` true guarantees one version per write.
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req);

  // ---- Fleet telemetry ----

  /// Ships one already-encoded obs::TelemetryFrame with the usual
  /// breaker/deadline/backoff treatment. The frame's (source, seq) is the
  /// idempotency key: every retry sends the identical bytes, so a lost ack
  /// is answered from the hub's dedup table (as a duplicate outcome, which
  /// counts as delivered). A non-transient outcome (bad frame) is
  /// definitive and not retried.
  obs::TelemetryHub::ReportOutcome ReportTelemetry(const Bytes& frame);

  /// True while the circuit is open: operations fail fast with
  /// kUnavailable and the owner should queue work locally.
  bool degraded() const { return breaker_.open(); }

  /// Criticality every subsequent attempt is tagged with. Fleet drains and
  /// anti-entropy catch-up set kBackground around their legs (and restore
  /// after), so the provider sheds them first under overload.
  void set_criticality(Criticality criticality) {
    options_.criticality = criticality;
  }
  Criticality criticality() const { return options_.criticality; }

  /// Waits out an open circuit's cooldown on the virtual clock (never on
  /// the wall clock), so the next operation goes out as the half-open
  /// probe. No-op while the circuit is closed or already half-open. An
  /// open circuit closes only after someone calls this: TrustedCell's
  /// catch-up and the fleet's drain and txn loops do.
  void WaitOutBreaker();

  const ChannelStats& stats() const { return stats_; }

 private:
  struct Metrics {
    Metrics();
    obs::Counter& retries;            // cloud.retries
    obs::Counter& breaker_opens;      // net.breaker_opens
    obs::Counter& deadline_exceeded;  // net.deadline_exceeded
    obs::Counter& retry_budget_denied;  // net.retry_budget_denied
    obs::Counter& pushbacks;            // net.pushbacks
  };

  /// The one retry loop behind every operation. `attempt(&delay_us)` makes
  /// one transport call, keeps its outcome in the caller's frame, stores
  /// the attempt's injected delay and returns the status the loop
  /// classifies (see the class comment). The loop owns the breaker gate,
  /// the deadline budget, the armed OverloadContext, the retry-after hint,
  /// the virtual-time charge and the retry budget. Returns OK on success,
  /// the provider's status for a definitive answer, or the status the op
  /// gave up with (circuit open, budget dry, deadline). Defined in
  /// channel.cc, the only place it is instantiated.
  template <typename AttemptFn>
  Status Retry(const char* what, AttemptFn&& attempt);
  /// Charges an op-level failure to the breaker; fires the give-up dump if
  /// this failure is a kDeadlineExceeded give-up that opened the circuit.
  void RecordOpFailure(const Status& status, const char* what);
  /// Counts the attempt's pushback hint, spends one retry-budget token and
  /// computes the next delay (backoff stretched to honor the server's
  /// retry-after). Returns false when the bucket is dry — the op must fail
  /// with `*denied` instead of retrying (this is what caps fleet-wide
  /// retry amplification).
  bool AllowRetry(uint32_t hint_us, const char* what, uint64_t* delay_us,
                  Status* denied);

  CloudTransport* transport_;
  std::string peer_;
  ChannelOptions options_;
  Backoff backoff_;
  CircuitBreaker breaker_;
  RetryBudget retry_budget_;
  Metrics metrics_;
  ChannelStats stats_;
  uint64_t virtual_now_us_ = 0;
};

}  // namespace tc::net

#endif  // TC_NET_CHANNEL_H_
