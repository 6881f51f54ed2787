#ifndef TC_TESTS_WIRE_HARNESS_H_
#define TC_TESTS_WIRE_HARNESS_H_

#include <cstdlib>
#include <cstring>
#include <memory>

#include "tc/cloud/infrastructure.h"
#include "tc/common/macros.h"
#include "tc/net/transport.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"

namespace tc::rpc {

/// Per-fixture switch that reruns an existing test suite over real
/// loopback sockets (test-only; the suites include it directly).
///
/// Usage in a test body (declare AFTER the cloud + injector so it is torn
/// down first):
///
///   cloud::CloudInfrastructure cloud(opts);
///   rpc::WireHarness wire(&cloud);
///   options.transport = wire.transport();   // nullptr => in-process
///
/// When TC_TRANSPORT=socket is set in the environment (the *_wire ctest
/// legs), the harness spins up an RpcServer on an ephemeral loopback port
/// in front of `cloud` and hands out a SocketTransport; every channel the
/// fleet/cell builds then crosses a real TCP connection. Otherwise
/// transport() returns nullptr and the suite runs exactly as before —
/// the deterministic in-process default costs nothing.
///
/// The NetworkFaultInjector attached to `cloud` keeps working on the
/// socket path unchanged: it lives inside the *Rpc endpoints the server
/// dispatches onto, so fault decisions remain a pure function of
/// (seed, ordinal, op) regardless of transport.
class WireHarness {
 public:
  static constexpr size_t kServerThreads = 4;
  static constexpr size_t kClientConnections = 2;
  static constexpr uint64_t kRequestTimeoutMs = 20000;

  explicit WireHarness(cloud::CloudInfrastructure* cloud) {
    if (!SocketRequested() || !RpcServer::LoopbackAvailable()) return;
    RpcServer::Options server_options;
    server_options.worker_threads = kServerThreads;
    server_ = std::make_unique<RpcServer>(cloud, server_options);
    Status started = server_->Start();
    TC_CHECK(started.ok());  // LoopbackAvailable() was probed above.
    RpcClientPool::Options pool_options;
    pool_options.connections = kClientConnections;
    pool_options.request_timeout_ms = kRequestTimeoutMs;
    transport_ = std::make_unique<SocketTransport>("127.0.0.1",
                                                   server_->port(),
                                                   pool_options);
  }
  ~WireHarness() {
    // Client first (fail outstanding calls), then the server.
    transport_.reset();
    server_.reset();
  }

  WireHarness(const WireHarness&) = delete;
  WireHarness& operator=(const WireHarness&) = delete;

  /// SocketTransport when TC_TRANSPORT=socket and loopback works;
  /// nullptr otherwise (callers pass it straight through — nullptr means
  /// "default in-process path").
  net::CloudTransport* transport() { return transport_.get(); }

  /// True when the environment asked for the socket leg.
  static bool SocketRequested() {
    const char* v = std::getenv("TC_TRANSPORT");
    return v != nullptr && std::strcmp(v, "socket") == 0;
  }
  /// Non-null reason string when the socket leg was requested but cannot
  /// run here (no loopback). Tests GTEST_SKIP() with it.
  static const char* SkipReason() {
    if (!SocketRequested()) return nullptr;
    if (!RpcServer::LoopbackAvailable()) {
      return "TC_TRANSPORT=socket requested but loopback TCP sockets are "
             "unavailable in this environment";
    }
    return nullptr;
  }

 private:
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<SocketTransport> transport_;
};

}  // namespace tc::rpc

#endif  // TC_TESTS_WIRE_HARNESS_H_
