#ifndef TC_RPC_SOCKET_TRANSPORT_H_
#define TC_RPC_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tc/net/transport.h"
#include "tc/rpc/client.h"
#include "tc/rpc/wire.h"

namespace tc::rpc {

/// net::CloudTransport over a real TCP connection pool: every channel
/// attempt becomes one framed request/response exchange with an RpcServer.
///
/// Failure mapping (the transport contract): a connection failure, pool
/// exhaustion or response-decode failure surfaces as kUnavailable, a
/// client-side deadline as kDeadlineExceeded — the two codes the retry
/// engine treats as retry-or-defer. The transport never converts garbage
/// into a definitive provider answer.
class SocketTransport final : public net::CloudTransport {
 public:
  SocketTransport(const std::string& host, uint16_t port,
                  RpcClientPool::Options pool_options = {});

  Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) override;
  Result<cloud::SnapshotDescriptor> GetSnapshot(uint32_t* delay_us) override;
  Result<cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override;
  cloud::TxnOutcome CommitTxn(const cloud::TxnRequest& req) override;
  obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) override;
  Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override;
  std::string name() const override { return "socket"; }

  RpcClientPool& pool() { return pool_; }

 private:
  /// One exchange: sends `request` under `op` and decodes the reply into
  /// `reply...` (the op's reply fields, wire.h). A reply that does not
  /// decode is kUnavailable.
  template <typename... Reply>
  Status Exchange(RpcOp op, const Bytes& request, Reply*... reply);

  RpcClientPool pool_;
};

}  // namespace tc::rpc

#endif  // TC_RPC_SOCKET_TRANSPORT_H_
