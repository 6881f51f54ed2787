#include "tc/rpc/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "tc/obs/trace.h"

namespace tc::rpc {

namespace {

/// Requests a server may hold queued before its readers block (per-
/// connection backpressure).
constexpr size_t kQueueCapacity = 256;

}  // namespace

RpcServer::Metrics::Metrics()
    : accepted(obs::MetricRegistry::Global().GetCounter("rpc.server.accepted")),
      connections(
          obs::MetricRegistry::Global().GetGauge("rpc.server.connections")),
      requests(obs::MetricRegistry::Global().GetCounter("rpc.server.requests")),
      malformed(
          obs::MetricRegistry::Global().GetCounter("rpc.server.malformed")),
      bytes_in(obs::MetricRegistry::Global().GetCounter("rpc.server.bytes_in")),
      bytes_out(
          obs::MetricRegistry::Global().GetCounter("rpc.server.bytes_out")),
      in_flight(obs::MetricRegistry::Global().GetGauge("rpc.server.in_flight")),
      dispatch_us(obs::MetricRegistry::Global().GetHistogram(
          "rpc.server.dispatch_us")) {
  // Per-op latency alongside the overall dispatch histogram, so the wire
  // tax of each operation class is continuously visible (not bench-only).
  for (size_t code = 0; code < op_us.size(); ++code) {
    if (!RpcOpKnown(static_cast<uint8_t>(code))) continue;
    op_us[code] = &obs::MetricRegistry::Global().GetHistogram(
        std::string("rpc.server.") + RpcOpName(static_cast<RpcOp>(code)) +
        "_us");
  }
}

RpcServer::RpcServer(cloud::CloudInfrastructure* cloud,
                     const Options& options)
    : cloud_(cloud), options_(options) {}

RpcServer::~RpcServer() { Shutdown(); }

bool RpcServer::LoopbackAvailable() {
  static const bool available = [] {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
              ::listen(fd, 1) == 0;
    ::close(fd);
    return ok;
  }();
  return available;
}

Status RpcServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable("socket() failed: no loopback support");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable(std::string("bind() failed: ") +
                               std::strerror(errno));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::Unavailable(std::string("listen() failed: ") +
                               std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  pool_ = std::make_unique<fleet::WorkerPool>(fleet::WorkerPool::Options{
      options_.worker_threads, kQueueCapacity});
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Stop accepting: closing the listener wakes the accept loop. The
  //    exchange retires the fd so the accept thread (which re-reads it
  //    every iteration) can never race the close.
  int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Half-close every connection's read side: readers see EOF and stop
  //    producing new work, but responses for requests already inside the
  //    pool can still be written (the write side stays up).
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  for (auto& c : conns) ShutdownConnection(*c, SHUT_RD);

  // 3. Drain in-flight dispatches; each writes its response before the
  //    task completes, so after this barrier every accepted request has
  //    been answered.
  if (pool_) pool_->Shutdown();

  // 4. Join the readers; each closes its own fd on the way out.
  for (auto& c : conns) {
    ShutdownConnection(*c, SHUT_RDWR);
    if (c->reader.joinable()) c->reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  pool_.reset();
}

RpcServer::Stats RpcServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.version_mismatch = version_mismatch_.load(std::memory_order_relaxed);
  return s;
}

void RpcServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) break;  // Shutdown retired the listener.
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed (shutdown) or fatal.
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.accepted.Increment();
    metrics_.connections.Add(1);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void RpcServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  FrameReader reader(conn->fd, /*responses=*/false);
  FrameHeader h;
  Bytes payload;
  while (conn->open.load(std::memory_order_acquire)) {
    Status framed = reader.Next(&h, &payload);
    if (!framed.ok()) {
      if (framed.IsUnavailable()) break;  // EOF, reset or shutdown.
      // Malformed or version-mismatched frame: the stream can no longer
      // be framed safely, so the only clean recovery is closing the
      // connection (the client reconnects and retries under its token).
      malformed_.fetch_add(1, std::memory_order_relaxed);
      metrics_.malformed.Increment();
      if (framed.code() == StatusCode::kUnimplemented) {
        version_mismatch_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    metrics_.bytes_in.Increment(kFrameHeaderBytes + payload.size());
    requests_.fetch_add(1, std::memory_order_relaxed);
    // Effective criticality: wire bits, except ping and telemetry
    // scrapes are always critical — client pools must keep their
    // health probes flowing and operators must keep seeing a saturated
    // server, or overload becomes invisible exactly when it matters.
    Criticality crit = h.criticality();
    if (h.op == RpcOp::kPing || h.op == RpcOp::kScrapeTelemetry) {
      crit = Criticality::kCritical;
    }
    const uint64_t arrival_us = OverloadNowUs();
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      ++conn->in_flight;
    }
    // Hand the frame to the pool in its criticality band. Submit blocks on
    // a full queue, which is exactly the backpressure we want per
    // connection; false means the server is shutting down and this
    // request is dropped *unread by the dispatcher* — the client sees the
    // connection close, not a lost ack.
    bool submitted = pool_->Submit(
        [this, conn, h, crit, arrival_us,
         payload = std::move(payload)]() mutable {
          Dispatch(conn, h, crit, arrival_us, std::move(payload));
        },
        crit);
    if (!submitted) {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      --conn->in_flight;
      conn->drained.notify_all();
      break;
    }
  }
  // The reader is the connection's last reference to the fd number: wait
  // for every dispatched request to finish writing (so a graceful server
  // shutdown — EOF here — cannot orphan an in-flight response), then close
  // under write_mu. Only the reader closes, so a recycled fd number can
  // never be touched by a stale thread.
  std::unique_lock<std::mutex> lock(conn->write_mu);
  conn->drained.wait(lock, [&] { return conn->in_flight == 0; });
  conn->open.store(false, std::memory_order_release);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  lock.unlock();
  metrics_.connections.Add(-1);
}

void RpcServer::Dispatch(std::shared_ptr<Connection> conn, FrameHeader header,
                         Criticality criticality, uint64_t arrival_us,
                         Bytes payload) {
  metrics_.in_flight.Add(1);
  obs::Stopwatch timer;
  Status decode_ok = Status::OK();
  Bytes response;
  {
    // Restore the caller's trace context from the frame header so
    // server-side spans (cloud.*, storage.*) parent under the cell
    // operation that issued this RPC — the cross-process leg of causal
    // trace propagation.
    obs::ScopedTraceContext scoped(header.trace);
    // Arm the wire budget from the frame's arrival, not from now: the queue
    // wait counts against it, and the provider's gate reads it as expired
    // exactly when the clock reaches arrival + budget ("never work on dead
    // requests"). A request that died in the queue is refused there,
    // before the store.
    OverloadContext octx;
    octx.criticality = criticality;
    octx.budget_us = header.budget_us;
    octx.armed_at_us = arrival_us;
    ScopedOverloadContext overload_scope(octx);
    decode_ok = Execute(header.op, payload, &response);
  }
  // A provider-side admission rejection left its retry-after hint on this
  // thread; forward it in the response header as explicit pushback.
  const uint32_t retry_after_us = TakeRetryAfterHint();
  if (!decode_ok.ok()) {
    // Undecodable payload behind a well-formed header: the stream itself
    // is still framed, but this connection's peer is speaking garbage —
    // treat like a malformed frame and drop the connection.
    malformed_.fetch_add(1, std::memory_order_relaxed);
    metrics_.malformed.Increment();
    ShutdownConnection(*conn, SHUT_RDWR);
  } else {
    FrameHeader h = header;
    h.flags |= kFlagResponse;
    h.budget_us = retry_after_us;
    if (retry_after_us != 0) h.flags |= kFlagPushback;
    h.payload_size = static_cast<uint32_t>(response.size());
    Bytes frame = EncodeFrameHeader(h);
    frame.insert(frame.end(), response.begin(), response.end());
    WriteFrames(*conn, frame);
    metrics_.requests.Increment();
  }
  uint64_t elapsed = timer.ElapsedUs();
  metrics_.dispatch_us.Record(elapsed);
  metrics_.op_us[static_cast<size_t>(header.op)]->Record(elapsed);
  metrics_.in_flight.Add(-1);
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    --conn->in_flight;
    conn->drained.notify_all();
  }
}

Status RpcServer::Execute(RpcOp op, const Bytes& payload, Bytes* response) {
  uint32_t delay_us = 0;
  switch (op) {
    case RpcOp::kPing:
      *response = payload;  // Echo.
      return Status::OK();
    case RpcOp::kGetBlob: {
      std::string id;
      TC_RETURN_IF_ERROR(Decode(payload, &id));
      Result<Bytes> blob = cloud_->GetBlobRpc(id, &delay_us);
      *response = Encode(blob, delay_us);
      return Status::OK();
    }
    case RpcOp::kGetSnapshot: {
      TC_RETURN_IF_ERROR(Decode(payload));
      Result<cloud::SnapshotDescriptor> snap =
          cloud_->GetSnapshotRpc(&delay_us);
      *response = Encode(snap, delay_us);
      return Status::OK();
    }
    case RpcOp::kGetAtSnapshot: {
      std::string id;
      cloud::SnapshotDescriptor snap;
      TC_RETURN_IF_ERROR(Decode(payload, &id, &snap));
      Result<cloud::SnapshotRead> read =
          cloud_->GetBlobAtSnapshotRpc(id, snap, &delay_us);
      *response = Encode(read, delay_us);
      return Status::OK();
    }
    case RpcOp::kCommitTxn: {
      cloud::TxnRequest req;
      TC_RETURN_IF_ERROR(Decode(payload, &req));
      *response = Encode(cloud_->CommitTxnRpc(req));
      return Status::OK();
    }
    case RpcOp::kReportTelemetry: {
      // The payload is an obs telemetry frame, opaque to the rpc layer:
      // the hub decodes and validates it, and a bad frame comes back as a
      // non-OK outcome status in the response — not a connection drop (the
      // wire frame itself was well-formed).
      obs::TelemetryHub::ReportOutcome outcome =
          cloud_->ReportTelemetryRpc(payload, &delay_us);
      *response = Encode(outcome, delay_us);
      return Status::OK();
    }
    case RpcOp::kScrapeTelemetry: {
      TC_RETURN_IF_ERROR(Decode(payload));
      Result<std::string> json = cloud_->ScrapeTelemetryRpc(&delay_us);
      *response = Encode(json, delay_us);
      return Status::OK();
    }
  }
  return Status::Corruption("unknown rpc op");
}

void RpcServer::WriteFrames(Connection& conn, const Bytes& frames) {
  // Every response frame of a burst goes out in ONE send: with TCP_NODELAY
  // a per-response (or split header/payload) write would put each response
  // on the wire as its own packet.
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.open.load(std::memory_order_acquire) || conn.fd < 0) return;
  if (!WriteFull(conn.fd, frames)) {
    // Peer gone mid-write; reader will notice EOF and wind down.
    return;
  }
  metrics_.bytes_out.Increment(frames.size());
}

void RpcServer::ShutdownConnection(Connection& conn, int how) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.fd < 0) return;
  if (how == SHUT_RDWR) conn.open.store(false, std::memory_order_release);
  ::shutdown(conn.fd, how);
}

}  // namespace tc::rpc
