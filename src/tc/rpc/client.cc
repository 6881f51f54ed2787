#include "tc/rpc/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "tc/net/backoff.h"
#include "tc/obs/metrics.h"
#include "tc/obs/trace.h"

namespace tc::rpc {

namespace {

/// RAII decrement for the pool-wide in-flight cap.
class InFlightSlot {
 public:
  explicit InFlightSlot(std::atomic<int64_t>& counter) : counter_(counter) {}
  ~InFlightSlot() { counter_.fetch_sub(1, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t>& counter_;
};

}  // namespace

RpcClientPool::RpcClientPool(const Options& options) : options_(options) {
  size_t n = options_.connections == 0 ? 1 : options_.connections;
  conns_.reserve(n);
  for (size_t i = 0; i < n; ++i) conns_.push_back(std::make_unique<Conn>());
  if (options_.warmup) Warmup();
}

RpcClientPool::~RpcClientPool() { Close(); }

void RpcClientPool::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& conn_ptr : conns_) {
    Conn& conn = *conn_ptr;
    std::lock_guard<std::mutex> lc(conn.lifecycle_mu);
    uint64_t gen;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      gen = conn.generation;
    }
    TearDown(conn, gen);
    if (conn.reader.joinable()) conn.reader.join();
    std::lock_guard<std::mutex> wl(conn.write_mu);
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.fd >= 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
}

size_t RpcClientPool::Warmup() {
  size_t healthy = 0;
  for (auto& conn_ptr : conns_) {
    if (closed_.load(std::memory_order_acquire)) break;
    Result<Bytes> pong = CallOnConn(*conn_ptr, RpcOp::kPing, Bytes());
    // After a restart a connection can still read as connected until its
    // reader sees the old server's EOF. Its ping fails kUnavailable and
    // tears it down, so one more ping reconnects it.
    if (pong.status().code() == StatusCode::kUnavailable) {
      pong = CallOnConn(*conn_ptr, RpcOp::kPing, Bytes());
    }
    if (pong.ok()) ++healthy;
  }
  return healthy;
}

size_t RpcClientPool::connected_count() const {
  size_t count = 0;
  for (const auto& conn_ptr : conns_) {
    std::lock_guard<std::mutex> lock(conn_ptr->mu);
    if (conn_ptr->connected) ++count;
  }
  return count;
}

bool RpcClientPool::EnsureConnected(Conn& conn) {
  std::lock_guard<std::mutex> lc(conn.lifecycle_mu);
  if (closed_.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.connected) return true;
  }
  // The previous epoch (if any) is dead: its reader has seen — or is about
  // to see — the shutdown and is winding down. Join it BEFORE spawning the
  // next epoch, so a stale reader can never race the new one's fd.
  if (conn.reader.joinable()) conn.reader.join();
  {
    std::lock_guard<std::mutex> wl(conn.write_mu);
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.fd >= 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.fd = fd;
    conn.connected = true;
    generation = ++conn.generation;
  }
  conn.reader = std::thread([this, &conn, fd, generation] {
    ReaderLoop(&conn, fd, generation);
  });
  return true;
}

void RpcClientPool::TearDown(Conn& conn, uint64_t generation) {
  std::lock_guard<std::mutex> lock(conn.mu);
  if (conn.generation != generation || !conn.connected) return;  // Stale.
  conn.connected = false;
  for (auto& [id, pending] : conn.pending) {
    pending->status = Status::Unavailable("connection lost");
    pending->done = true;
    pending->cv.notify_all();
  }
  conn.pending.clear();
  // Wake the reader (and fail any in-progress send). The fd itself is
  // closed later, under lifecycle_mu, after the reader has been joined.
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
}

void RpcClientPool::ReaderLoop(Conn* conn, int fd, uint64_t generation) {
  FrameReader reader(fd, /*responses=*/true);
  FrameHeader header;
  Bytes payload;
  while (reader.Next(&header, &payload).ok()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->generation != generation) return;  // Epoch ended under us.
    auto it = conn->pending.find(header.request_id);
    if (it == conn->pending.end()) continue;  // Deadline-abandoned waiter.
    // A reply that names another op than its request cannot be matched
    // to it safely: treat the stream as unframeable.
    if (header.op != it->second->op) break;
    it->second->response = std::move(payload);
    it->second->status = Status::OK();
    it->second->flags = header.flags;
    it->second->budget_us = header.budget_us;
    it->second->done = true;
    it->second->cv.notify_all();
    conn->pending.erase(it);
  }
  TearDown(*conn, generation);
}

Result<Bytes> RpcClientPool::Call(RpcOp op, const Bytes& payload) {
  auto& registry = obs::MetricRegistry::Global();
  registry.GetCounter("rpc.client.calls").Increment();
  if (closed_.load(std::memory_order_acquire)) {
    return Status::Unavailable("client pool closed");
  }
  if (in_flight_.fetch_add(1, std::memory_order_relaxed) >=
      static_cast<int64_t>(options_.max_in_flight)) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    registry.GetCounter("rpc.client.exhausted").Increment();
    return Status::Unavailable("rpc client pool exhausted");
  }
  InFlightSlot slot(in_flight_);

  Conn& conn = *conns_[next_conn_.fetch_add(1, std::memory_order_relaxed) %
                       conns_.size()];
  return CallOnConn(conn, op, payload);
}

Result<Bytes> RpcClientPool::CallOnConn(Conn& conn, RpcOp op,
                                        const Bytes& payload) {
  auto& registry = obs::MetricRegistry::Global();
  obs::Stopwatch call_timer;
  if (!EnsureConnected(conn)) {
    registry.GetCounter("rpc.client.transport_errors").Increment();
    return Status::Unavailable("rpc server unreachable");
  }

  uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  auto pending = std::make_shared<PendingCall>();
  pending->op = op;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (!conn.connected) {
      return Status::Unavailable("connection lost");
    }
    generation = conn.generation;
    conn.pending[id] = pending;
  }

  FrameHeader h;
  h.op = op;
  h.request_id = id;
  h.trace = obs::CurrentContext();
  h.payload_size = static_cast<uint32_t>(payload.size());
  // Deadline propagation rides next to trace context: the calling thread's
  // remaining budget and criticality go into the frame header so the
  // server can queue-prioritize this request and shed it once dead.
  {
    const OverloadContext& octx = CurrentOverloadContext();
    h.set_criticality(octx.criticality);
    const uint64_t remaining = OverloadRemainingUs();
    if (octx.has_deadline() && remaining != UINT64_MAX) {
      h.budget_us = static_cast<uint32_t>(
          std::min<uint64_t>(remaining, UINT32_MAX));
    }
  }
  // One coalesced send per message: with TCP_NODELAY a split header/payload
  // write is two packets (and two syscalls) on the wire.
  Bytes frame = EncodeFrameHeader(h);
  frame.insert(frame.end(), payload.begin(), payload.end());

  bool sent = false;
  {
    std::lock_guard<std::mutex> wl(conn.write_mu);
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      if (conn.connected && conn.generation == generation) fd = conn.fd;
    }
    if (fd >= 0) {
      sent = WriteFull(fd, frame);
    }
  }
  if (!sent) {
    TearDown(conn, generation);
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.pending.erase(id);
    registry.GetCounter("rpc.client.transport_errors").Increment();
    return Status::Unavailable("rpc send failed");
  }

  // Wait for the demuxed response, charging real elapsed time against the
  // per-request deadline budget.
  net::DeadlineBudget budget(options_.request_timeout_ms * 1000);
  std::unique_lock<std::mutex> lock(conn.mu);
  while (!pending->done) {
    if (options_.request_timeout_ms == 0) {
      pending->cv.wait(lock);
      continue;
    }
    obs::Stopwatch waited;
    pending->cv.wait_for(lock,
                         std::chrono::microseconds(budget.remaining_us()));
    if (pending->done) break;
    if (!budget.Charge(waited.ElapsedUs() + 1)) {
      conn.pending.erase(id);
      registry.GetCounter("rpc.client.timeouts").Increment();
      return Status::DeadlineExceeded("rpc response deadline exceeded");
    }
  }
  registry.GetHistogram("rpc.client.call_us").Record(call_timer.ElapsedUs());
  if (!pending->status.ok()) {
    registry.GetCounter("rpc.client.transport_errors").Increment();
    return pending->status;
  }
  if ((pending->flags & kFlagPushback) != 0) {
    // Server shed this request: deposit its retry-after hint on the
    // calling thread for the retry loop above to honor.
    registry.GetCounter("rpc.client.pushbacks").Increment();
    SetRetryAfterHint(pending->budget_us);
  }
  return std::move(pending->response);
}

}  // namespace tc::rpc
