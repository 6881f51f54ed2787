#include "tc/rpc/socket_transport.h"

namespace tc::rpc {

SocketTransport::SocketTransport(const std::string& host, uint16_t port,
                                 RpcClientPool::Options pool_options)
    : pool_([&] {
        pool_options.host = host;
        pool_options.port = port;
        return pool_options;
      }()) {}

template <typename... Reply>
Status SocketTransport::Exchange(RpcOp op, const Bytes& request,
                                 Reply*... reply) {
  TC_ASSIGN_OR_RETURN(Bytes wire, pool_.Call(op, request));
  Status decoded = Decode(wire, reply...);
  if (!decoded.ok()) {
    // A well-formed frame whose payload fails to decode means the
    // transport scrambled bytes, not that the provider answered: degrade
    // to the retryable code instead of inventing a definitive outcome.
    return Status::Unavailable("rpc response undecodable: " +
                               decoded.ToString());
  }
  return Status::OK();
}

Result<Bytes> SocketTransport::GetBlob(const std::string& id,
                                       uint32_t* delay_us) {
  Result<Bytes> blob = Bytes();
  uint32_t delay = 0;
  TC_RETURN_IF_ERROR(Exchange(RpcOp::kGetBlob, Encode(id), &blob, &delay));
  if (delay_us != nullptr) *delay_us = delay;
  return blob;
}

Result<cloud::SnapshotDescriptor> SocketTransport::GetSnapshot(
    uint32_t* delay_us) {
  Result<cloud::SnapshotDescriptor> snap = cloud::SnapshotDescriptor();
  uint32_t delay = 0;
  TC_RETURN_IF_ERROR(Exchange(RpcOp::kGetSnapshot, Bytes(), &snap, &delay));
  if (delay_us != nullptr) *delay_us = delay;
  return snap;
}

Result<cloud::SnapshotRead> SocketTransport::GetAtSnapshot(
    const std::string& id, const cloud::SnapshotDescriptor& snap,
    uint32_t* delay_us) {
  Result<cloud::SnapshotRead> read = cloud::SnapshotRead();
  uint32_t delay = 0;
  TC_RETURN_IF_ERROR(
      Exchange(RpcOp::kGetAtSnapshot, Encode(id, snap), &read, &delay));
  if (delay_us != nullptr) *delay_us = delay;
  return read;
}

cloud::TxnOutcome SocketTransport::CommitTxn(const cloud::TxnRequest& req) {
  cloud::TxnOutcome outcome;
  Status status = Exchange(RpcOp::kCommitTxn, Encode(req), &outcome);
  if (!status.ok()) return StatusOnly<cloud::TxnOutcome>(status);
  return outcome;
}

obs::TelemetryHub::ReportOutcome SocketTransport::ReportTelemetry(
    const Bytes& frame, uint32_t* delay_us) {
  obs::TelemetryHub::ReportOutcome outcome;
  uint32_t delay = 0;
  Status status = Exchange(RpcOp::kReportTelemetry, frame, &outcome, &delay);
  if (!status.ok()) {
    return StatusOnly<obs::TelemetryHub::ReportOutcome>(status);
  }
  if (delay_us != nullptr) *delay_us = delay;
  return outcome;
}

Result<std::string> SocketTransport::ScrapeTelemetry(uint32_t* delay_us) {
  Result<std::string> json = std::string();
  uint32_t delay = 0;
  TC_RETURN_IF_ERROR(
      Exchange(RpcOp::kScrapeTelemetry, Bytes(), &json, &delay));
  if (delay_us != nullptr) *delay_us = delay;
  return json;
}

}  // namespace tc::rpc
