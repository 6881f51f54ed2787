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

std::string ResilientChannel::MintToken() {
  return peer_ + "/op" + std::to_string(next_token_seq_++);
}

OverloadContext ResilientChannel::AttemptContext(
    const DeadlineBudget& budget) const {
  OverloadContext ctx;
  ctx.criticality = options_.criticality;
  if (options_.propagate_deadline) ctx.budget_us = budget.remaining_us();
  return ctx;
}

bool ResilientChannel::AllowRetry(uint32_t hint_us, const char* what,
                                  uint64_t* delay_us, Status* denied) {
  if (hint_us != 0) {
    ++stats_.pushbacks;
    metrics_.pushbacks.Increment();
  }
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
                                       const std::string& what) {
  ++stats_.ops_failed;
  const bool was_open = breaker_.open();
  breaker_.RecordFailure(virtual_now_us_);
  if (!was_open && breaker_.open()) {
    ++stats_.breaker_opens;
    metrics_.breaker_opens.Increment();
  }
  if (status.IsDeadlineExceeded()) {
    ++stats_.deadline_exceeded;
    metrics_.deadline_exceeded.Increment();
    if (!was_open && breaker_.open()) {
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

ResilientChannel::PutBatchResult ResilientChannel::PutBatch(
    const std::vector<std::pair<std::string, Bytes>>& items,
    std::vector<std::string> tokens) {
  PutBatchResult result;
  result.versions.assign(items.size(), 0);
  result.acked.assign(items.size(), 0);
  if (items.empty()) return result;
  if (tokens.empty()) {
    tokens.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) tokens.push_back(MintToken());
  }
  if (tokens.size() != items.size()) {
    result.status =
        Status::InvalidArgument("channel put: one token per item required");
    return result;
  }

  if (!breaker_.AllowRequest(virtual_now_us_)) {
    ++stats_.breaker_rejections;
    result.status = Status::Unavailable("circuit open to " + peer_ +
                                        "'s provider (degraded mode)");
    return result;
  }

  DeadlineBudget budget(options_.op_deadline_us);
  backoff_.Reset();
  size_t unacked = items.size();
  // First attempt sends the caller's vectors untouched; retry attempts
  // materialize the still-unacked subset.
  std::vector<std::pair<std::string, Bytes>> sub_items;
  std::vector<std::string> sub_tokens;
  std::vector<size_t> sub_index;
  bool first = true;
  Status last_error;

  for (;;) {
    ++stats_.attempts;
    ++result.attempts;
    if (!first) {
      ++stats_.retries;
      metrics_.retries.Increment();
    }
    cloud::CloudInfrastructure::BatchPutOutcome outcome;
    {
      ScopedOverloadContext attempt_scope(AttemptContext(budget));
      outcome = first ? transport_->PutBlobBatch(items, tokens)
                      : transport_->PutBlobBatch(sub_items, sub_tokens);
    }
    const uint32_t hint_us = TakeRetryAfterHint();
    const uint64_t charged = options_.attempt_cost_us + outcome.delay_us;
    virtual_now_us_ += charged;
    bool in_budget = budget.Charge(charged);

    // Merge acked items back into caller coordinates.
    for (size_t j = 0; j < outcome.acked.size(); ++j) {
      if (!outcome.acked[j]) continue;
      size_t i = first ? j : sub_index[j];
      if (!result.acked[i]) {
        result.acked[i] = 1;
        result.versions[i] = outcome.versions[j];
        --unacked;
      }
    }
    if (unacked == 0) {
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      ++stats_.ops_ok;
      result.status = Status::OK();
      return result;
    }
    if (!outcome.status.ok() && !outcome.status.IsTransient()) {
      result.status = outcome.status;
      RecordOpFailure(result.status, "put_batch");
      return result;
    }
    last_error = outcome.status;

    uint64_t delay = 0;
    Status denied;
    if (!AllowRetry(hint_us, "put_batch", &delay, &denied)) {
      result.status = denied;
      RecordOpFailure(result.status, "put_batch");
      return result;
    }
    virtual_now_us_ += delay;
    in_budget = budget.Charge(delay) && in_budget;
    if (!in_budget) {
      result.status = Status::DeadlineExceeded(
          "put batch to " + peer_ + "'s space: " +
          std::to_string(unacked) + " of " + std::to_string(items.size()) +
          " items unacked after " + std::to_string(budget.spent_us()) +
          "us (last: " + last_error.ToString() + ")");
      RecordOpFailure(result.status, "put_batch");
      return result;
    }

    // Rebuild the unacked subset for the retry.
    sub_items.clear();
    sub_tokens.clear();
    sub_index.clear();
    for (size_t i = 0; i < items.size(); ++i) {
      if (result.acked[i]) continue;
      sub_items.push_back(items[i]);
      sub_tokens.push_back(tokens[i]);
      sub_index.push_back(i);
    }
    first = false;
  }
}

Result<uint64_t> ResilientChannel::Put(const std::string& id,
                                       const Bytes& data,
                                       const std::string* token) {
  std::vector<std::pair<std::string, Bytes>> items;
  items.emplace_back(id, data);
  std::vector<std::string> tokens;
  if (token != nullptr) tokens.push_back(*token);
  PutBatchResult result = PutBatch(items, std::move(tokens));
  if (!result.status.ok()) return result.status;
  return result.versions[0];
}

Result<cloud::SnapshotDescriptor> ResilientChannel::GetSnapshot() {
  if (!breaker_.AllowRequest(virtual_now_us_)) {
    ++stats_.breaker_rejections;
    return Status::Unavailable("circuit open to " + peer_ +
                               "'s provider (degraded mode)");
  }
  DeadlineBudget budget(options_.op_deadline_us);
  backoff_.Reset();
  bool first = true;
  for (;;) {
    ++stats_.attempts;
    if (!first) {
      ++stats_.retries;
      metrics_.retries.Increment();
    }
    first = false;
    uint32_t delay_us = 0;
    Result<cloud::SnapshotDescriptor> snap = [&] {
      ScopedOverloadContext attempt_scope(AttemptContext(budget));
      return transport_->GetSnapshot(&delay_us);
    }();
    const uint32_t hint_us = TakeRetryAfterHint();
    const uint64_t charged = options_.attempt_cost_us + delay_us;
    virtual_now_us_ += charged;
    bool in_budget = budget.Charge(charged);
    if (snap.ok()) {
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      ++stats_.ops_ok;
      return snap;
    }
    if (!snap.status().IsTransient()) {
      ++stats_.ops_failed;
      return snap.status();
    }
    uint64_t delay = 0;
    Status denied;
    if (!AllowRetry(hint_us, "snapshot", &delay, &denied)) {
      RecordOpFailure(denied, "snapshot");
      return denied;
    }
    virtual_now_us_ += delay;
    in_budget = budget.Charge(delay) && in_budget;
    if (!in_budget) {
      Status deadline = Status::DeadlineExceeded(
          "snapshot: still unavailable after " +
          std::to_string(budget.spent_us()) + "us (last: " +
          snap.status().ToString() + ")");
      RecordOpFailure(deadline, "snapshot");
      return deadline;
    }
  }
}

Result<cloud::SnapshotRead> ResilientChannel::GetAtSnapshot(
    const std::string& id, const cloud::SnapshotDescriptor& snap) {
  if (!breaker_.AllowRequest(virtual_now_us_)) {
    ++stats_.breaker_rejections;
    return Status::Unavailable("circuit open to " + peer_ +
                               "'s provider (degraded mode)");
  }
  DeadlineBudget budget(options_.op_deadline_us);
  backoff_.Reset();
  bool first = true;
  for (;;) {
    ++stats_.attempts;
    if (!first) {
      ++stats_.retries;
      metrics_.retries.Increment();
    }
    first = false;
    uint32_t delay_us = 0;
    Result<cloud::SnapshotRead> read = [&] {
      ScopedOverloadContext attempt_scope(AttemptContext(budget));
      return transport_->GetAtSnapshot(id, snap, &delay_us);
    }();
    const uint32_t hint_us = TakeRetryAfterHint();
    const uint64_t charged = options_.attempt_cost_us + delay_us;
    virtual_now_us_ += charged;
    bool in_budget = budget.Charge(charged);
    if (read.ok()) {
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      ++stats_.ops_ok;
      return read;
    }
    if (!read.status().IsTransient()) {
      // kNotFound is an answer: the blob has no visible version.
      ++stats_.ops_failed;
      return read.status();
    }
    uint64_t delay = 0;
    Status denied;
    if (!AllowRetry(hint_us, "snapshot_get", &delay, &denied)) {
      RecordOpFailure(denied, "snapshot_get");
      return denied;
    }
    virtual_now_us_ += delay;
    in_budget = budget.Charge(delay) && in_budget;
    if (!in_budget) {
      Status deadline = Status::DeadlineExceeded(
          "snapshot get " + id + ": still unavailable after " +
          std::to_string(budget.spent_us()) + "us (last: " +
          read.status().ToString() + ")");
      RecordOpFailure(deadline, "snapshot_get");
      return deadline;
    }
  }
}

cloud::TxnOutcome ResilientChannel::CommitTxn(const cloud::TxnRequest& req) {
  cloud::TxnOutcome out;
  if (!breaker_.AllowRequest(virtual_now_us_)) {
    ++stats_.breaker_rejections;
    out.status = Status::Unavailable("circuit open to " + peer_ +
                                     "'s provider (degraded mode)");
    return out;
  }
  DeadlineBudget budget(options_.op_deadline_us);
  backoff_.Reset();
  bool first = true;
  Status last_error;
  for (;;) {
    ++stats_.attempts;
    if (!first) {
      ++stats_.retries;
      metrics_.retries.Increment();
    }
    first = false;
    cloud::TxnOutcome outcome;
    {
      ScopedOverloadContext attempt_scope(AttemptContext(budget));
      outcome = transport_->CommitTxn(req);
    }
    const uint32_t hint_us = TakeRetryAfterHint();
    const uint64_t charged = options_.attempt_cost_us + outcome.delay_us;
    virtual_now_us_ += charged;
    bool in_budget = budget.Charge(charged);
    if (outcome.committed) {
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      ++stats_.ops_ok;
      ++stats_.txns_committed;
      return outcome;
    }
    if (outcome.status.IsAborted()) {
      // A definitive provider answer, not a network failure: the caller
      // refreshes its snapshot and rebuilds under the same token.
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      ++stats_.txns_aborted;
      return outcome;
    }
    if (!outcome.status.IsTransient()) {
      RecordOpFailure(outcome.status, "txn_commit");
      return outcome;
    }
    last_error = outcome.status;
    uint64_t delay = 0;
    Status denied;
    if (!AllowRetry(hint_us, "txn_commit", &delay, &denied)) {
      out.status = denied;
      RecordOpFailure(out.status, "txn_commit");
      return out;
    }
    virtual_now_us_ += delay;
    in_budget = budget.Charge(delay) && in_budget;
    if (!in_budget) {
      out.status = Status::DeadlineExceeded(
          "txn " + req.token + ": unresolved after " +
          std::to_string(budget.spent_us()) + "us (last: " +
          last_error.ToString() + ")");
      RecordOpFailure(out.status, "txn_commit");
      return out;
    }
  }
}

obs::TelemetryHub::ReportOutcome ResilientChannel::ReportTelemetry(
    const Bytes& frame) {
  obs::TelemetryHub::ReportOutcome outcome;
  if (!breaker_.AllowRequest(virtual_now_us_)) {
    ++stats_.breaker_rejections;
    outcome.status = Status::Unavailable("circuit open to " + peer_ +
                                         "'s provider (degraded mode)");
    return outcome;
  }
  DeadlineBudget budget(options_.op_deadline_us);
  backoff_.Reset();
  bool first = true;
  for (;;) {
    ++stats_.attempts;
    if (!first) {
      ++stats_.retries;
      metrics_.retries.Increment();
    }
    first = false;
    uint32_t delay_us = 0;
    {
      ScopedOverloadContext attempt_scope(AttemptContext(budget));
      outcome = transport_->ReportTelemetry(frame, &delay_us);
    }
    const uint32_t hint_us = TakeRetryAfterHint();
    const uint64_t charged = options_.attempt_cost_us + delay_us;
    virtual_now_us_ += charged;
    bool in_budget = budget.Charge(charged);
    if (outcome.status.ok()) {
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      ++stats_.ops_ok;
      return outcome;
    }
    if (!outcome.status.IsTransient()) {
      // A frame the hub rejects (corrupt, missing source) is an answer:
      // resending identical bytes cannot change it.
      ++stats_.ops_failed;
      return outcome;
    }
    uint64_t delay = 0;
    Status denied;
    if (!AllowRetry(hint_us, "telemetry", &delay, &denied)) {
      RecordOpFailure(denied, "telemetry");
      outcome = obs::TelemetryHub::ReportOutcome{};
      outcome.status = denied;
      return outcome;
    }
    virtual_now_us_ += delay;
    in_budget = budget.Charge(delay) && in_budget;
    if (!in_budget) {
      Status deadline = Status::DeadlineExceeded(
          "telemetry report: still unavailable after " +
          std::to_string(budget.spent_us()) + "us (last: " +
          outcome.status.ToString() + ")");
      RecordOpFailure(deadline, "telemetry");
      outcome = obs::TelemetryHub::ReportOutcome{};
      outcome.status = deadline;
      return outcome;
    }
  }
}

Result<Bytes> ResilientChannel::Get(const std::string& id) {
  if (!breaker_.AllowRequest(virtual_now_us_)) {
    ++stats_.breaker_rejections;
    return Status::Unavailable("circuit open to " + peer_ +
                               "'s provider (degraded mode)");
  }
  DeadlineBudget budget(options_.op_deadline_us);
  backoff_.Reset();
  bool first = true;
  for (;;) {
    ++stats_.attempts;
    if (!first) {
      ++stats_.retries;
      metrics_.retries.Increment();
    }
    first = false;
    uint32_t delay_us = 0;
    Result<Bytes> data = [&] {
      ScopedOverloadContext attempt_scope(AttemptContext(budget));
      return transport_->GetBlob(id, &delay_us);
    }();
    const uint32_t hint_us = TakeRetryAfterHint();
    const uint64_t charged = options_.attempt_cost_us + delay_us;
    virtual_now_us_ += charged;
    bool in_budget = budget.Charge(charged);
    if (data.ok()) {
      breaker_.RecordSuccess(virtual_now_us_);
      retry_budget_.RecordSuccess();
      ++stats_.ops_ok;
      return data;
    }
    if (!data.status().IsTransient()) {
      // kNotFound, kIntegrityViolation, ... are answers, not network
      // failures: they do not trip the breaker.
      ++stats_.ops_failed;
      return data.status();
    }
    uint64_t delay = 0;
    Status denied;
    if (!AllowRetry(hint_us, "get", &delay, &denied)) {
      RecordOpFailure(denied, "get");
      return denied;
    }
    virtual_now_us_ += delay;
    in_budget = budget.Charge(delay) && in_budget;
    if (!in_budget) {
      Status deadline = Status::DeadlineExceeded(
          "get " + id + ": still unavailable after " +
          std::to_string(budget.spent_us()) + "us (last: " +
          data.status().ToString() + ")");
      RecordOpFailure(deadline, "get");
      return deadline;
    }
  }
}

}  // namespace tc::net
