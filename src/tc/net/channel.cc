#include "tc/net/channel.h"

#include <utility>

#include "tc/obs/flight_recorder.h"

namespace tc::net {

ResilientChannel::Metrics::Metrics()
    : retries(obs::MetricRegistry::Global().GetCounter("cloud.retries")),
      breaker_opens(
          obs::MetricRegistry::Global().GetCounter("net.breaker_opens")),
      deadline_exceeded(
          obs::MetricRegistry::Global().GetCounter("net.deadline_exceeded")),
      retry_budget_denied(obs::MetricRegistry::Global().GetCounter(
          "net.retry_budget_denied")),
      pushbacks(obs::MetricRegistry::Global().GetCounter("net.pushbacks")) {}

ResilientChannel::ResilientChannel(CloudTransport* transport,
                                   std::string peer_id,
                                   const ChannelOptions& options)
    : transport_(transport),
      peer_(std::move(peer_id)),
      options_(options),
      backoff_(options.backoff, options.seed),
      breaker_(options.breaker),
      retry_budget_(options.retry_budget) {}

void ResilientChannel::WaitOutBreaker() {
  if (breaker_.state() != CircuitBreaker::State::kOpen) return;
  const uint64_t probe_at_us =
      breaker_.opened_at_us() + options_.breaker.open_cooldown_us;
  if (virtual_now_us_ < probe_at_us) virtual_now_us_ = probe_at_us;
}

bool ResilientChannel::AllowRetry(uint32_t hint_us, const char* what,
                                  uint64_t* delay_us, Status* denied) {
  if (hint_us != 0) metrics_.pushbacks.Increment();
  if (!retry_budget_.TryRetry()) {
    ++stats_.retry_budget_denied;
    metrics_.retry_budget_denied.Increment();
    // A denied retry ends the op exactly like an exhausted deadline
    // budget: the channel is done retrying a transient failure. Keeping
    // the one canonical give-up status (kDeadlineExceeded) preserves the
    // degraded-mode contract up the stack; kResourceExhausted stays
    // reserved for the SERVER's admission pushback.
    *denied = Status::DeadlineExceeded(
        std::string(what) + " to " + peer_ +
        "'s provider: retry budget exhausted (amplification capped)");
    return false;
  }
  uint64_t delay = backoff_.NextDelayUs();
  // Honor the server's retry-after: never come back sooner than it asked.
  if (hint_us > delay) delay = hint_us;
  *delay_us = delay;
  return true;
}

void ResilientChannel::RecordOpFailure(const Status& status,
                                       const char* what) {
  const bool was_open = breaker_.open();
  breaker_.RecordFailure(virtual_now_us_);
  const bool opened = !was_open && breaker_.open();
  if (opened) {
    ++stats_.breaker_opens;
    metrics_.breaker_opens.Increment();
  }
  if (status.IsDeadlineExceeded()) {
    metrics_.deadline_exceeded.Increment();
    if (opened) {
      // The channel just gave up on the provider entirely: deadline burnt
      // AND the circuit flipped open. Capture the moment (the active trace
      // context ties the dump to the cell operation that was abandoned).
      ++stats_.give_ups;
      obs::FlightRecorder::Global().Trigger(
          "net:sync_giveup",
          peer_ + " " + what + ": " + status.ToString() + " after " +
              std::to_string(virtual_now_us_) + "us virtual");
    }
  }
}

template <typename AttemptFn>
Status ResilientChannel::Retry(const char* what, AttemptFn&& attempt) {
  if (!breaker_.AllowRequest(virtual_now_us_)) {
    ++stats_.breaker_rejections;
    return Status::Unavailable("circuit open to " + peer_ +
                               "'s provider (degraded mode)");
  }
  DeadlineBudget budget(options_.op_deadline_us);
  backoff_.Reset();
  for (bool first = true;; first = false) {
    ++stats_.attempts;
    if (!first) {
      ++stats_.retries;
      metrics_.retries.Increment();
    }
    uint32_t delay_us = 0;
    Status status;
    {
      // The provider (in-process gate or wire header) sheds the attempt
      // once the op's remaining budget is gone.
      ScopedOverloadContext attempt_scope(
          OverloadContext{.budget_us = budget.remaining_us(),
                          .criticality = options_.criticality});
      status = attempt(&delay_us);
    }
    const uint32_t hint_us = TakeRetryAfterHint();
    const uint64_t charged = options_.attempt_cost_us + delay_us;
    virtual_now_us_ += charged;
    bool in_budget = budget.Charge(charged);

    if (status.IsDeadlineExceeded()) {
      RecordOpFailure(status, what);
      return status;
    }
    if (!status.IsTransient()) {
      // Success, or the provider's answer (kNotFound, kAborted, ...):
      // either way the provider was reachable.
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      return status;
    }
    uint64_t delay = 0;
    Status denied;
    if (!AllowRetry(hint_us, what, &delay, &denied)) {
      RecordOpFailure(denied, what);
      return denied;
    }
    virtual_now_us_ += delay;
    in_budget = budget.Charge(delay) && in_budget;
    if (!in_budget) {
      Status deadline = Status::DeadlineExceeded(
          std::string(what) + " to " + peer_ +
          "'s provider: still failing after " +
          std::to_string(budget.spent_us()) + "us (last: " +
          status.ToString() + ")");
      RecordOpFailure(deadline, what);
      return deadline;
    }
  }
}

Result<Bytes> ResilientChannel::Get(const std::string& id) {
  Result<Bytes> data = Bytes();
  Status status = Retry("get", [&](uint32_t* delay_us) {
    data = transport_->GetBlob(id, delay_us);
    return data.status();
  });
  if (!status.ok()) return status;
  return data;
}

Result<cloud::SnapshotDescriptor> ResilientChannel::GetSnapshot() {
  Result<cloud::SnapshotDescriptor> snap = cloud::SnapshotDescriptor();
  Status status = Retry("snapshot", [&](uint32_t* delay_us) {
    snap = transport_->GetSnapshot(delay_us);
    return snap.status();
  });
  if (!status.ok()) return status;
  return snap;
}

Result<cloud::SnapshotRead> ResilientChannel::GetAtSnapshot(
    const std::string& id, const cloud::SnapshotDescriptor& snap) {
  Result<cloud::SnapshotRead> read = cloud::SnapshotRead();
  Status status = Retry("snapshot_get", [&](uint32_t* delay_us) {
    read = transport_->GetAtSnapshot(id, snap, delay_us);
    if (!read.ok()) return read.status();
    // An OK read names a version (1-based) committed at a sequence the
    // snapshot that was sent can see; any other reply is malformed and
    // retried.
    if (read->version == 0 || !snap.Visible(read->commit_seq)) {
      return Status::Unavailable(
          "snapshot read of version " + std::to_string(read->version) +
          " at commit " + std::to_string(read->commit_seq) +
          ", which the snapshot cannot see");
    }
    return Status::OK();
  });
  if (!status.ok()) return status;
  return read;
}

cloud::TxnOutcome ResilientChannel::CommitTxn(const cloud::TxnRequest& req) {
  cloud::TxnOutcome outcome;
  Status status = Retry("txn_commit", [&](uint32_t* delay_us) {
    outcome = transport_->CommitTxn(req);
    *delay_us = outcome.delay_us;
    // A reply that says OK without committing, or commits without one
    // version per write, is malformed (the provider is untrusted): it
    // commits nothing and is retried under the same token.
    if (!outcome.committed) {
      return outcome.status.ok()
                 ? Status::Unavailable("txn reply OK but not committed")
                 : outcome.status;
    }
    if (outcome.versions.size() != req.writes.size()) {
      return Status::Unavailable(
          "txn reply with " + std::to_string(outcome.versions.size()) +
          " versions for " + std::to_string(req.writes.size()) + " writes");
    }
    return Status::OK();
  });
  if (status.ok()) {
    ++stats_.txns_committed;
  } else {
    // An abort is a definitive provider answer, not a network failure: the
    // caller refreshes its snapshot and rebuilds under the same token.
    if (status.IsAborted()) ++stats_.txns_aborted;
    outcome.committed = false;
    outcome.status = std::move(status);
  }
  return outcome;
}

obs::TelemetryHub::ReportOutcome ResilientChannel::ReportTelemetry(
    const Bytes& frame) {
  obs::TelemetryHub::ReportOutcome outcome;
  Status status = Retry("telemetry", [&](uint32_t* delay_us) {
    outcome = transport_->ReportTelemetry(frame, delay_us);
    return outcome.status;
  });
  outcome.status = std::move(status);
  return outcome;
}

}  // namespace tc::net
