#ifndef TC_RPC_CLIENT_H_
#define TC_RPC_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/rpc/wire.h"

namespace tc::rpc {

/// Pooled, pipelining RPC client for RpcServer.
///
/// N persistent connections, round-robin request placement. Requests are
/// pipelined: a connection can carry many outstanding requests at once;
/// one reader thread per connection demultiplexes responses by the echoed
/// request_id and fulfils the matching waiter. A pool-wide in-flight cap
/// bounds memory and — critically — makes exhaustion a fast, observable
/// kUnavailable rather than a pile-up behind a dead socket.
///
/// Failure semantics (what ResilientChannel's retry engine requires):
///   - A connection failure fails ONLY the requests on that connection,
///     each with kUnavailable (the in-flight request may or may not have
///     executed — exactly the lost-request/lost-ack ambiguity idempotency
///     tokens exist for). The connection lazily reconnects on next use.
///   - A per-request wall-clock deadline (Options::request_timeout_ms via
///     net::DeadlineBudget) fails the waiter with kDeadlineExceeded and
///     abandons the slot; a late response to an abandoned id is discarded.
///   - Call NEVER invents a definitive provider answer: every transport
///     failure maps to kUnavailable/kDeadlineExceeded.
///
/// Lazy reconnect alone had a sharp edge (fixed in PR 8): after a provider
/// restart every pooled connection is dead, and each one's NEXT caller
/// paid the TCP connect on its own critical path — under a short request
/// deadline that burned the budget before the request was even sent,
/// surfacing as a burst of spurious kDeadlineExceeded/kUnavailable per
/// restart. The remedy is Warmup(): connect + kPing health-check every
/// pooled connection eagerly (run from the constructor when
/// Options::warmup is set, and callable again after a restart).
///
/// Thread-safe: any number of cells may Call concurrently.
///
/// Overload plane (PR 10): each request frame carries the calling
/// thread's remaining deadline budget and criticality class (from
/// tc::CurrentOverloadContext) in the header, and a pushback-flagged
/// response deposits the server's retry-after hint back on the calling
/// thread via tc::SetRetryAfterHint — the retry loop above (the channel)
/// reads it and stretches its backoff. Warmup pings ride kPing, which the
/// server always admits, so reconnection keeps working while the server
/// is saturated.
///
/// Metrics: rpc.client.calls / .transport_errors / .timeouts /
/// .exhausted / .pushbacks counters, rpc.client.call_us histogram.
class RpcClientPool {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    size_t connections = 2;
    /// Per-request wall deadline; 0 disables (wait forever).
    uint64_t request_timeout_ms = 5000;
    /// Pool-wide outstanding-request cap; at the cap Call fails fast with
    /// kUnavailable (retry-or-defer upstream), never queues unboundedly.
    size_t max_in_flight = 256;
    /// Eagerly connect + health-check every connection at construction.
    bool warmup = false;
  };

  explicit RpcClientPool(const Options& options);
  ~RpcClientPool();

  RpcClientPool(const RpcClientPool&) = delete;
  RpcClientPool& operator=(const RpcClientPool&) = delete;

  /// One request/response exchange: frames `payload` under `op`, sends on
  /// a pooled connection, waits for the matching response payload.
  Result<Bytes> Call(RpcOp op, const Bytes& payload);

  /// Connects and kPing-health-checks every pooled connection; returns
  /// how many are healthy afterwards. A connection whose ping fails
  /// kUnavailable (one that died with a restarted server) is reconnected
  /// and pinged once more. Safe to call any time (already healthy
  /// connections are just pinged).
  size_t Warmup();

  /// Connections currently believed healthy (a dead peer is discovered by
  /// the reader thread or the next call, so this can lag reality by one
  /// detection).
  size_t connected_count() const;

  /// Closes every connection. Outstanding calls fail kUnavailable. Call
  /// after Close fails kUnavailable. Idempotent.
  void Close();

  size_t connection_count() const { return conns_.size(); }

 private:
  struct PendingCall {
    RpcOp op = RpcOp::kPing;  ///< The request's op; its reply must echo it.
    Bytes response;
    Status status = Status::OK();
    bool done = false;
    uint8_t flags = 0;       ///< Response header flags (pushback bit).
    uint32_t budget_us = 0;  ///< Response retry-after hint (with pushback).
    /// Per-call wakeup (paired with Conn::mu): the reader signals exactly
    /// the waiter whose response arrived, instead of waking every caller
    /// pipelined on the connection.
    std::condition_variable cv;
  };

  struct Conn {
    /// Guards connect/teardown/epoch (never held while blocked on IO reads;
    /// the reader thread never takes it).
    std::mutex lifecycle_mu;
    /// Guards fd validity + pending map + generation.
    std::mutex mu;
    int fd = -1;                 // guarded by mu (validity) + write_mu (use).
    uint64_t generation = 0;     // bumped on every (re)connect, under mu.
    bool connected = false;      // guarded by mu.
    std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> pending;
    /// Held across a full frame send and across teardown's close, so the
    /// fd can never be closed (and its number recycled) mid-send.
    std::mutex write_mu;
    std::thread reader;
  };

  /// Ensures `conn` is connected (lazily reconnecting); returns false when
  /// the server is unreachable or the pool is closed.
  bool EnsureConnected(Conn& conn);
  /// Fails all pending calls on `conn` with kUnavailable and marks the
  /// connection dead (next Call reconnects).
  void TearDown(Conn& conn, uint64_t generation);
  void ReaderLoop(Conn* conn, int fd, uint64_t generation);
  /// The exchange itself, pinned to one connection (Call picks the
  /// connection and enforces the cap; Warmup pins the one it is probing).
  Result<Bytes> CallOnConn(Conn& conn, RpcOp op, const Bytes& payload);

  Options options_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<size_t> next_conn_{0};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace tc::rpc

#endif  // TC_RPC_CLIENT_H_
