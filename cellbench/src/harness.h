#ifndef CELLBENCH_HARNESS_H_
#define CELLBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cellbench/src/workload.h"
#include "tc/net/transport.h"

namespace cellbench {

/// Wraps the transport a cell would use (the flip test corrupts replies).
using TransportWrap = std::function<std::unique_ptr<tc::net::CloudTransport>(
    tc::net::CloudTransport* inner)>;

/// How one round drives the workload.
struct RoundOptions {
  const WorkloadSpec* spec = nullptr;
  /// obs on, benchmark spans around every cell and transport call, and
  /// window deltas of the program's layer histograms and stats.
  bool traced = false;
  /// Attribution round: cell operations run one at a time (a process-wide
  /// lock), so per-operation deltas of the process-global histograms are
  /// exact per operation type. Implies the tracing above.
  bool serialize_ops = false;
  TransportWrap wrap;
};

/// Exact totals of the layer counters the program exposes, summed over a
/// scope (the measured window, or every operation of one type). Histogram
/// fields are the exact sum (us) and count of an obs histogram, never its
/// percentile buckets.
enum Field : size_t {
  kSealUs, kSealN,              // cell.seal_us
  kUnsealUs, kUnsealN,          // cell.unseal_us
  kGetUs, kGetN,                // storage.get_us
  kAppendUs, kAppendN,          // storage.append_us
  kCloudGetUs, kCloudGetN,      // cloud.get_us
  kCloudPutUs, kCloudPutN,      // cloud.put_us + cloud.put_batch_us
  kCloudTxnUs, kCloudTxnN,      // cloud.txn_us
  kRpcCallUs, kRpcCallN,        // rpc.client.call_us
  kDispatchUs, kDispatchN,      // rpc.server.dispatch_us
  kPoolWaitUs, kPoolWaitN,      // worker_pool.task_wait_us
  kPoolRunUs, kPoolRunN,        // worker_pool.task_run_us
  kRpcBytesIn, kRpcBytesOut,    // rpc.server.bytes_in / bytes_out
  // Per-cell program stats, summed over cells.
  kAppends, kUserBytes, kIndexHits, kFullScans,   // LogStoreStats
  kFlashReads, kFlashPrograms, kFlashErases,      // FlashDevice::stats()
  kAuditRecords, kAuditCheckpoints,               // audit journal
  kRetries,                                       // ChannelStats
  kTxnCommits, kTxnAborts,                        // CloudStats
  // Benchmark spans.
  kOps, kOpNs, kTransportCalls, kTransportNs,
  kFieldCount
};

struct LayerCounts {
  std::array<uint64_t, kFieldCount> v{};

  uint64_t operator[](Field f) const { return v[f]; }
  uint64_t& operator[](Field f) { return v[f]; }
  void Add(const LayerCounts& other) {
    for (size_t i = 0; i < kFieldCount; ++i) v[i] += other.v[i];
  }
  LayerCounts Minus(const LayerCounts& before) const {
    LayerCounts out = *this;
    for (size_t i = 0; i < kFieldCount; ++i) out.v[i] -= before.v[i];
    return out;
  }
};

/// One cell's window deltas of its own stats (the per-cell fields of
/// LayerCounts), which must repeat exactly for one seed.
struct CellCounts {
  std::string cell_id;
  LayerCounts counts;
};

/// What one or more rounds measured (Merge sums rounds).
struct RoundResult {
  int rounds = 0;
  bool ran = false;             ///< False when a set-up failed.
  std::vector<double> setup_s;  ///< One per round.
  size_t attempted = 0;
  size_t failed_status = 0;     ///< Operations that returned non-OK.
  size_t mismatched = 0;        ///< Read-backs whose bytes differ.
  std::vector<std::string> check_failures;  ///< Post-round output checks.
  std::vector<std::string> first_errors;    ///< A few failing statuses.
  double wall_s = 0, cpu_s = 0;
  uint64_t jiffies = 0, steal_jiffies = 0;  ///< Host-wide, from /proc/stat.
  uint64_t provider_bytes = 0;  ///< Growth of the provider's blob bytes.
  uint64_t user_bytes = 0;      ///< Plaintext bytes stored or updated.
  /// Peak resident set from set-up to the end of the window, starting
  /// from a trimmed heap (largest over merged rounds).
  double peak_rss_mb = 0;
  std::array<std::vector<uint64_t>, kOpTypes> latency_ns;
  std::vector<uint64_t> transport_call_ns;  ///< Traced rounds only.
  LayerCounts window;                       ///< Traced rounds only.
  std::array<LayerCounts, kOpTypes> per_type;  ///< Serialized rounds only.
  std::vector<CellCounts> cells;  ///< Of the first round.
  bool counts_repeat = true;      ///< Every round's cells equal the first's.
  size_t page_size = 0;

  void Merge(const RoundResult& other);
  size_t failed() const { return failed_status + mismatched; }
  bool correct() const { return failed() == 0 && check_failures.empty(); }
  double ops_per_s() const { return wall_s > 0 ? attempted / wall_s : 0; }
  double steal_pct() const {
    return jiffies == 0 ? 0 : 100.0 * steal_jiffies / jiffies;
  }
};

/// Builds a fresh environment (provider, optional loopback server, cells,
/// preload; timed as the set-up), runs the plans' closed loops with one
/// thread per cell, then checks every output. Spans of a traced round
/// are appended to `spans` as JSON lines when it is non-null.
RoundResult RunRound(const RoundOptions& options,
                     const std::vector<CellPlan>& plans, std::string* spans);

/// Exact nearest-rank percentile of unsorted samples, in microseconds.
double PercentileUs(std::vector<uint64_t> samples_ns, double p);

}  // namespace cellbench

#endif  // CELLBENCH_HARNESS_H_
