#ifndef TC_RPC_SERVER_H_
#define TC_RPC_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tc/cloud/infrastructure.h"
#include "tc/common/status.h"
#include "tc/fleet/worker_pool.h"
#include "tc/obs/metrics.h"
#include "tc/rpc/wire.h"

namespace tc::rpc {

/// Standalone multi-threaded TCP front end for a CloudInfrastructure.
///
/// Runtime shape (tellstore/jubilant-db style listener/worker split):
///
///   accept thread ──► per-connection reader thread ──► WorkerPool
///        │                    │  frames the byte stream      │ dispatch
///        │                    │  (header validate, payload   │ onto the
///        │                    │   bounded-read)              ▼ RPC surface
///        │                    └──► malformed frame: close    CloudInfra
///        │                         the connection cleanly    (fault
///        └── port 0 = ephemeral, SO_REUSEADDR, TCP_NODELAY   injector
///                                                            lives HERE)
///
/// Responses are written back under a per-connection write mutex and may
/// interleave out of request order — the echoed request_id is the match
/// key, which is what makes client-side pipelining work.
///
/// The NetworkFaultInjector stays attached to the CloudInfrastructure
/// behind this server, so a socket deployment experiences exactly the
/// same (seed, ordinal, op)-deterministic fault schedule as the
/// in-process path: the wire adds a real transport without perturbing
/// the chaos model.
///
/// Graceful shutdown: stop accepting, half-close every connection's read
/// side (in-flight requests keep draining through the pool and their
/// responses are still written), drain the pool, then close and join.
/// Every request that was fully read is answered or the connection is
/// gone; none are silently dropped mid-dispatch.
///
/// Overload control: the server is not an admission point. The one
/// admission point is the provider's OverloadGate, inside
/// CloudInfrastructure; a request it turns away comes back with
/// kResourceExhausted, and Dispatch forwards the gate's retry-after hint
/// in the response header as explicit pushback. kPing and
/// kScrapeTelemetry are forced kCritical: they are served first from the
/// pool's queue, kPing never reaches the provider and the gate never turns
/// a scrape away, so client pools keep probing and operators keep
/// observing a saturated server. A request enters the WorkerPool's band
/// for its wire criticality, and the pool runs every request it accepts.
/// Dispatch arms the frame's budget_us as of the request's arrival, so the
/// queue wait counts against it: a request that died in the queue reads
/// as expired at the provider gate and is refused kDeadlineExceeded before
/// it touches the store, exactly as on the in-process path. The gate is
/// the only place a request is refused for its deadline.
///
/// Metrics (tc::obs global registry, resolved at construction):
///   rpc.server.accepted        counter  connections accepted
///   rpc.server.connections     gauge    connections open
///   rpc.server.requests        counter  frames dispatched
///   rpc.server.malformed       counter  frames rejected (conn closed)
///   rpc.server.bytes_in/out    counter  payload+header bytes
///   rpc.server.in_flight       gauge    requests inside the pool
///   rpc.server.dispatch_us     histogram  read-to-response-written
///   rpc.server.<op>_us         histogram  the same, per RpcOp
class RpcServer {
 public:
  struct Options {
    uint16_t port = 0;  ///< 0 = OS-assigned ephemeral port.
    size_t worker_threads = 4;
  };

  struct Stats {
    uint64_t accepted = 0;
    uint64_t requests = 0;
    uint64_t malformed = 0;   ///< Bad frames (each closed its connection).
    uint64_t version_mismatch = 0;
  };

  RpcServer(cloud::CloudInfrastructure* cloud, const Options& options);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and spawns the accept loop. Fails (kUnavailable) when
  /// loopback sockets are unavailable in the environment.
  Status Start();

  /// Graceful shutdown; idempotent. See class comment for ordering.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (valid after Start; stable across the server's life).
  uint16_t port() const { return port_; }
  Stats stats() const;

  /// True when the environment supports binding a loopback TCP socket
  /// (some sandboxes forbid AF_INET entirely). Probed once per process.
  static bool LoopbackAvailable();

 private:
  /// Handles into the global registry, resolved once at construction; the
  /// hot path only touches the relaxed atomics inside.
  struct Metrics {
    Metrics();
    obs::Counter& accepted;
    obs::Gauge& connections;
    obs::Counter& requests;
    obs::Counter& malformed;
    obs::Counter& bytes_in;
    obs::Counter& bytes_out;
    obs::Gauge& in_flight;
    obs::Histogram& dispatch_us;
    /// rpc.server.<op>_us, indexed by the op's wire code (null for codes
    /// that name no op; the frame reader rejects those).
    std::array<obs::Histogram*, kMaxKnownOp + 1> op_us{};
  };

  struct Connection {
    int fd = -1;
    std::thread reader;
    std::mutex write_mu;   ///< Serializes response writes, shutdown, close.
    std::atomic<bool> open{true};
    size_t in_flight = 0;  ///< Dispatches not yet answered (write_mu).
    std::condition_variable drained;  ///< in_flight reached 0.
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  /// Decodes + executes one request frame, writes the response frame.
  /// One pool task per request so expensive provider ops pipelined on the
  /// same connection still execute in parallel across the pool.
  /// `criticality` is the effective class (wire bits, ping/scrape forced
  /// critical); `arrival_us` is when the reader framed the request (the
  /// origin of its absolute deadline).
  void Dispatch(std::shared_ptr<Connection> conn, FrameHeader header,
                Criticality criticality, uint64_t arrival_us, Bytes payload);
  /// Decodes one request's fields, calls its *Rpc endpoint and encodes
  /// the result into `*response`. Fails when the payload behind a
  /// well-formed header does not decode (the caller drops the connection).
  Status Execute(RpcOp op, const Bytes& payload, Bytes* response);
  /// Writes pre-encoded response frame bytes in ONE send under write_mu.
  void WriteFrames(Connection& conn, const Bytes& frames);
  /// Wakes the reader and suppresses future writes. `how` is SHUT_RD for
  /// graceful drain (responses still flow) or SHUT_RDWR for abort. Never
  /// closes the fd — only the connection's own reader does that, which is
  /// what makes fd-number reuse by other threads safe.
  void ShutdownConnection(Connection& conn, int how);

  cloud::CloudInfrastructure* cloud_;
  Options options_;
  /// Atomic: Shutdown() retires it (exchange to -1) while the accept
  /// thread is reading it for the next accept().
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::unique_ptr<fleet::WorkerPool> pool_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> version_mismatch_{0};
  Metrics metrics_;
};

}  // namespace tc::rpc

#endif  // TC_RPC_SERVER_H_
