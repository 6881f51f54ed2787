// E16 — the cloud behind a real wire: what does a real TCP hop cost?
//
// Every earlier experiment exercised the provider through an in-process
// call (with network faults *simulated* by the injector). This harness
// puts the same RPC surface behind `tc::rpc` — framed binary protocol,
// multi-threaded server, pooled pipelining client — and measures the
// loopback-socket tax directly against the in-process transport:
//
//   * blind-commit / get / txn throughput for K = 1, 2, 4, 8 concurrent
//     clients, same workload, same provider, only the transport differs
//     (a blind commit is a cell's store: one tokened single-write
//     CommitTxn with no snapshot);
//   * per-op latency distributions (p50/p95/p99) from the tc::obs
//     histograms the runs record into — not ad-hoc vectors;
//   * the acceptance bound: at 8 clients, loopback-socket throughput must
//     be within 3x of in-process (the wire may cost, but not an order of
//     magnitude — the protocol and client pool have to pipeline well
//     enough to amortize the hop).
//
// The comparison runs at two provider cost points:
//
//   1. op cost ~ 0 (raw wire tax, informational): the provider does no
//      work, so the ratio degenerates to "syscall + scheduler hop" vs
//      "function call" — a machine property, not a protocol property
//      (on a single-core CI box every hop is a full context switch and
//      the ratio can exceed 10x no matter how tight the wire is).
//   2. op_latency_us = 100 (bounded): each provider op carries the
//      simulated provider round-trip CloudInfrastructure already models
//      (crypto + storage at the provider; slept outside all locks, so
//      waits overlap). BOTH transports pay it equally; the wire has real
//      work to amortize against, which is the deployment the paper
//      describes. The 3x acceptance bound applies HERE — and it still
//      discriminates: a non-pipelining client or a per-frame-syscall
//      server adds serial per-op wire time that fails it.
//
// Each client works a private key space (no contention): E16 prices the
// WIRE, E15 already priced contention. Counts are exact per run; the
// wall-clock and latency columns are host measurements.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tc/cloud/infrastructure.h"
#include "tc/net/transport.h"
#include "tc/obs/metrics.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"

using namespace tc;  // NOLINT — benchmark brevity.
using cloud::CloudInfrastructure;

namespace {

constexpr size_t kRounds = 200;        // blind+get+txn triples per client.
constexpr size_t kPayloadBytes = 256;  // Sealed-payload size class.
constexpr size_t kClientSweep[] = {1, 2, 4, 8};
constexpr double kMaxSlowdown = 3.0;   // Acceptance bound at 8 clients.
/// Simulated provider op cost for the bounded comparison (see file
/// comment): the wire must amortize against real provider work.
constexpr uint32_t kRealisticOpLatencyUs = 100;

struct RunResult {
  double wall_seconds = 0;
  double ops_per_second = 0;
  obs::HistogramSnapshot blind_us;
  obs::HistogramSnapshot get_us;
  obs::HistogramSnapshot txn_us;
  bool ok = true;
};

obs::Histogram& BlindHist() {
  return obs::MetricRegistry::Global().GetHistogram("bench.e16.blind_us");
}
obs::Histogram& GetHist() {
  return obs::MetricRegistry::Global().GetHistogram("bench.e16.get_us");
}
obs::Histogram& TxnHist() {
  return obs::MetricRegistry::Global().GetHistogram("bench.e16.txn_us");
}

/// One client's workload: kRounds rounds of blind commit -> get ->
/// snapshot + single-key txn commit, all on a private key space. `tag`
/// keeps commit tokens unique across transports and sweep points (a
/// reused token would be answered from the token table — measuring the
/// replay path, not the wire).
void RunClient(net::CloudTransport* transport, const std::string& tag,
               size_t client, bool* ok) {
  const std::string doc = "e16/" + tag + "/c" + std::to_string(client);
  const Bytes payload(kPayloadBytes, static_cast<uint8_t>(client));
  for (size_t round = 0; round < kRounds; ++round) {
    const std::string suffix =
        std::to_string(client) + "/" + std::to_string(round);
    {
      obs::Stopwatch timer;
      cloud::TxnRequest req;
      req.token = "e16p/" + tag + "/" + suffix;
      req.writes.push_back({doc, payload, cloud::kBaseVersionAny});
      auto outcome = transport->CommitTxn(req);
      BlindHist().RecordAlways(timer.ElapsedUs());
      if (!outcome.committed) {
        std::fprintf(stderr, "blind commit failed: %s\n",
                     outcome.status.ToString().c_str());
        *ok = false;
        return;
      }
    }
    {
      obs::Stopwatch timer;
      auto got = transport->GetBlob(doc, nullptr);
      GetHist().RecordAlways(timer.ElapsedUs());
      if (!got.ok() || got.value().size() != kPayloadBytes) {
        std::fprintf(stderr, "get failed: %s\n",
                     got.status().ToString().c_str());
        *ok = false;
        return;
      }
    }
    {
      obs::Stopwatch timer;
      auto snap = transport->GetSnapshot(nullptr);
      if (!snap.ok()) {
        std::fprintf(stderr, "snapshot failed: %s\n",
                     snap.status().ToString().c_str());
        *ok = false;
        return;
      }
      cloud::TxnRequest req;
      req.token = "e16t/" + tag + "/" + suffix;
      req.snapshot = snap.value();
      req.writes.push_back(
          {doc + "/ctr", payload, cloud::kBaseVersionAny});
      auto outcome = transport->CommitTxn(req);
      TxnHist().RecordAlways(timer.ElapsedUs());
      if (!outcome.committed) {
        std::fprintf(stderr, "txn failed: %s\n",
                     outcome.status.ToString().c_str());
        *ok = false;
        return;
      }
    }
  }
}

RunResult RunSweepPoint(net::CloudTransport* transport, const std::string& tag,
                        size_t clients) {
  obs::HistogramSnapshot blind_before = BlindHist().Snapshot();
  obs::HistogramSnapshot get_before = GetHist().Snapshot();
  obs::HistogramSnapshot txn_before = TxnHist().Snapshot();

  RunResult result;
  std::vector<uint8_t> oks(clients, 1);
  obs::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      bool ok = true;
      RunClient(transport, tag, c, &ok);
      oks[c] = ok ? 1 : 0;
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds = static_cast<double>(wall.ElapsedUs()) / 1e6;

  for (uint8_t ok : oks) result.ok = result.ok && ok != 0;
  // 3 RPCs per round per client (the txn round's GetSnapshot is priced
  // inside the txn latency; throughput counts logical ops).
  const double total_ops = static_cast<double>(3 * kRounds * clients);
  result.ops_per_second =
      result.wall_seconds > 0 ? total_ops / result.wall_seconds : 0;
  result.blind_us = BlindHist().Snapshot().Minus(blind_before);
  result.get_us = GetHist().Snapshot().Minus(get_before);
  result.txn_us = TxnHist().Snapshot().Minus(txn_before);
  return result;
}

void PrintRow(const char* transport, size_t clients, const RunResult& r) {
  std::printf(
      "  %-10s %2zu  %8.0f   %6.0f/%6.0f/%6.0f  %6.0f/%6.0f/%6.0f  "
      "%6.0f/%6.0f/%6.0f\n",
      transport, clients, r.ops_per_second, r.blind_us.Percentile(0.50),
      r.blind_us.Percentile(0.95), r.blind_us.Percentile(0.99),
      r.get_us.Percentile(0.50), r.get_us.Percentile(0.95),
      r.get_us.Percentile(0.99), r.txn_us.Percentile(0.50),
      r.txn_us.Percentile(0.95), r.txn_us.Percentile(0.99));
}

struct ComparisonOutcome {
  double inproc_at_8 = 0;
  double socket_at_8 = 0;
  bool ok = true;
  double slowdown_at_8() const {
    return (inproc_at_8 > 0 && socket_at_8 > 0) ? inproc_at_8 / socket_at_8
                                                : 0;
  }
};

/// One full in-process + socket K-sweep against a provider whose ops cost
/// `op_latency_us` (charged identically on both transports).
ComparisonOutcome RunComparison(uint32_t op_latency_us,
                                const std::string& tag_prefix) {
  ComparisonOutcome outcome;
  CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = op_latency_us;

  std::printf(
      "  transport   K     ops/s   blind p50/p95/p99   get p50/p95/p99   "
      "txn p50/p95/p99 (us)\n");

  {
    CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(),
                              cloud_options);
    net::InProcessTransport transport(&cloud);
    for (size_t clients : kClientSweep) {
      RunResult r = RunSweepPoint(
          &transport, tag_prefix + "/inproc/k" + std::to_string(clients),
          clients);
      outcome.ok = outcome.ok && r.ok;
      PrintRow("in-process", clients, r);
      if (clients == 8) outcome.inproc_at_8 = r.ops_per_second;
    }
  }

  if (rpc::RpcServer::LoopbackAvailable()) {
    CloudInfrastructure cloud(cloud::AdversaryConfig::Honest(),
                              cloud_options);
    rpc::RpcServer::Options server_options;
    server_options.worker_threads = 8;
    rpc::RpcServer server(&cloud, server_options);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      outcome.ok = false;
      return outcome;
    }
    for (size_t clients : kClientSweep) {
      rpc::RpcClientPool::Options pool_options;
      // Few shared connections, not one per client: pipelined requests
      // coalesce in the kernel and one reader wakeup drains a burst.
      pool_options.connections = 2;
      rpc::SocketTransport transport("127.0.0.1", server.port(),
                                     pool_options);
      RunResult r = RunSweepPoint(
          &transport, tag_prefix + "/socket/k" + std::to_string(clients),
          clients);
      outcome.ok = outcome.ok && r.ok;
      PrintRow("socket", clients, r);
      if (clients == 8) outcome.socket_at_8 = r.ops_per_second;
    }
    server.Shutdown();
  }
  return outcome;
}

}  // namespace

int main() {
  std::printf("E16 — the cloud behind a real wire (tc::rpc)\n");
  std::printf(
      "workload: %zu rounds x (blind commit + get + single-key txn) "
      "per client, %zu-byte payloads, private key spaces\n\n",
      kRounds, kPayloadBytes);

  if (!rpc::RpcServer::LoopbackAvailable()) {
    std::printf(
        "loopback TCP sockets unavailable in this environment; the wire "
        "half of E16 cannot run here — SKIPPED (in-process half only)\n");
  }

  std::printf("-- raw wire tax: provider op cost ~ 0 (informational) --\n");
  ComparisonOutcome raw = RunComparison(0, "raw");
  if (raw.slowdown_at_8() > 0) {
    std::printf(
        "  raw wire tax at 8 clients: %.0f ops/s in-process vs %.0f ops/s "
        "socket — %.2fx (no bound: measures syscall-vs-call, not the "
        "protocol)\n",
        raw.inproc_at_8, raw.socket_at_8, raw.slowdown_at_8());
  }

  std::printf(
      "\n-- realistic provider: op_latency_us = %u on both transports "
      "(bound applies) --\n",
      kRealisticOpLatencyUs);
  ComparisonOutcome realistic =
      RunComparison(kRealisticOpLatencyUs, "real");

  if (!raw.ok || !realistic.ok) {
    std::printf("\nE16 FAILED: at least one run reported an RPC error\n");
    return 1;
  }
  const double slowdown = realistic.slowdown_at_8();
  if (slowdown > 0) {
    std::printf(
        "\n8-client loopback tax at realistic provider cost: %.0f ops/s "
        "in-process vs %.0f ops/s socket — %.2fx slowdown (bound: %.1fx) "
        "%s\n",
        realistic.inproc_at_8, realistic.socket_at_8, slowdown,
        kMaxSlowdown,
        slowdown <= kMaxSlowdown ? "WITHIN BOUND" : "EXCEEDS BOUND");
    if (slowdown > kMaxSlowdown) return 1;
  }
  return 0;
}
