#ifndef TC_NET_TRANSPORT_H_
#define TC_NET_TRANSPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "tc/cloud/infrastructure.h"
#include "tc/common/bytes.h"
#include "tc/common/result.h"

namespace tc::net {

/// The cell-side view of the provider's RPC surface: the operations
/// ResilientChannel retries over (latest-blob gets, snapshot acquisition,
/// snapshot reads, multi-key commits and telemetry reports) plus the
/// telemetry scrape. A commit is the only write: every cell write, blind or
/// based, is one CommitTxn under a token. Everything above this interface
/// (retry/backoff, deadline budgets, circuit breaker, outbox, fleet, cell)
/// is transport-agnostic: the same channel code runs over an in-process
/// function call or a real TCP connection to a standalone provider
/// process.
///
/// Semantics every implementation must preserve:
///   - One call = one network attempt. The attempt may fail kUnavailable
///     with the effect applied (lost ack) or not applied (lost request);
///     commit tokens make re-attempts exactly-once either way.
///   - `delay_us` out-params / fields carry the *injected* (virtual)
///     network delay of the attempt, charged to the caller's virtual
///     clock — never slept.
///   - A transport-level failure (dead socket, pool exhausted, request
///     timeout) surfaces as kUnavailable or kDeadlineExceeded, which the
///     channel already treats as retry-or-defer; it must never invent a
///     definitive answer (kAborted, kNotFound) the provider did not give.
///   - Overload pushback: a provider that sheds the attempt answers
///     kResourceExhausted (transient — retryable within budget) and may
///     leave a retry-after hint on the calling thread via
///     tc::SetRetryAfterHint; implementations propagate the hint (the
///     in-process gate sets it directly, the socket client re-deposits it
///     from the response header) and the channel's retry loop honors it.
///     The attempt executes under the caller's tc::OverloadContext
///     (remaining deadline + criticality) armed by the channel.
///
/// Implementations must be safe for concurrent calls from many cells; the
/// in-process transport inherits this from CloudInfrastructure, the socket
/// transport from its connection pool.
class CloudTransport {
 public:
  virtual ~CloudTransport() = default;

  /// Retired: the provider has no put-batch operation any more, no
  /// transport overrides this stub and nothing calls it. It stays only
  /// because the benchmark (cellbench/) overrides it in two forwarding
  /// transports; the next change to the benchmark deletes it along with
  /// those overrides.
  struct BatchPutOutcome {
    Status status;
  };
  virtual BatchPutOutcome PutBlobBatch(
      const std::vector<std::pair<std::string, Bytes>>& /*items*/,
      const std::vector<std::string>& /*tokens*/) {
    return {Status::Unimplemented("put batch is retired; commit instead")};
  }

  /// Latest blob; `delay_us` (when non-null) receives the injected delay.
  virtual Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) = 0;

  /// Committed-horizon snapshot.
  virtual Result<cloud::SnapshotDescriptor> GetSnapshot(
      uint32_t* delay_us) = 0;

  /// Newest version of `id` visible in `snap`.
  virtual Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) = 0;

  /// Multi-key atomic commit; one attempt.
  virtual cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req) = 0;

  /// Reports one encoded obs::TelemetryFrame; one attempt. The frame's
  /// (source, seq) is the idempotency token: re-attempts must reship
  /// identical bytes, and the hub's dedup table answers redeliveries.
  virtual obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) = 0;

  /// Fleet telemetry JSON scrape (TelemetryHub::ScrapeJson); one attempt.
  virtual Result<std::string> ScrapeTelemetry(uint32_t* delay_us) = 0;

  /// Short label for logs/benches ("in-process", "socket").
  virtual std::string name() const = 0;
};

/// The in-process transport: every "RPC" is a direct call into the shared
/// CloudInfrastructure's RPC surface (which consults the attached
/// NetworkFaultInjector and admission controller). Deterministic,
/// allocation-free, and what a cell gets when no transport is configured.
class InProcessTransport final : public CloudTransport {
 public:
  explicit InProcessTransport(cloud::CloudInfrastructure* cloud)
      : cloud_(cloud) {}

  Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) override {
    return cloud_->GetBlobRpc(id, delay_us);
  }
  Result<cloud::SnapshotDescriptor> GetSnapshot(uint32_t* delay_us) override {
    return cloud_->GetSnapshotRpc(delay_us);
  }
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override {
    return cloud_->GetBlobAtSnapshotRpc(id, snap, delay_us);
  }
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req) override {
    return cloud_->CommitTxnRpc(req);
  }
  obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) override {
    return cloud_->ReportTelemetryRpc(frame, delay_us);
  }
  Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override {
    return cloud_->ScrapeTelemetryRpc(delay_us);
  }
  std::string name() const override { return "in-process"; }

 private:
  cloud::CloudInfrastructure* cloud_;
};

}  // namespace tc::net

#endif  // TC_NET_TRANSPORT_H_
