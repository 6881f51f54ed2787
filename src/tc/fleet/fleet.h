#ifndef TC_FLEET_FLEET_H_
#define TC_FLEET_FLEET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "tc/cloud/infrastructure.h"
#include "tc/common/result.h"
#include "tc/fleet/worker_pool.h"
#include "tc/net/channel.h"
#include "tc/obs/metrics.h"

namespace tc::fleet {

/// Workload knobs for one fleet run: K simulated cells driven concurrently
/// against one shared CloudInfrastructure by a fixed-size worker pool.
///
/// Each simulated cell speaks a TrustedCell's protocol to the provider
/// (a store is one blind single-write CommitTxn under a token, a fetch is
/// one GetBlob, an update is a snapshot, its reads and one based commit)
/// plus bus messages, without the per-cell TEE/flash machinery, which is
/// what lets a single host drive Linky-scale fleets against the provider.
/// Like a TrustedCell, each talks to the provider through its own
/// ResilientChannel over a net::CloudTransport (retry/backoff, commit
/// tokens, circuit breaker), so the fleet survives an attached
/// NetworkFaultInjector: a write the channel could not get acked stays in
/// the cell's pending slot and is re-sent, unchanged, in later rounds and
/// in an end-of-run drain; unavailable reads are counted, not failed. A
/// fetched blob that differs from the cell's own acknowledged write fails
/// the cell (the per-cell error-propagation path).
struct FleetOptions {
  size_t cells = 64;           ///< Simulated cells (one task each).
  size_t threads = 4;          ///< Worker threads sharing the cells.
  size_t queue_capacity = 128; ///< Bounded task-queue depth (backpressure).
  size_t rounds_per_cell = 32; ///< Work rounds each cell performs.
  size_t writes_per_round = 4; ///< Blob writes per round, one commit each.
  size_t gets_per_round = 4;   ///< Blob fetches per round.
  size_t docs_per_cell = 32;   ///< Blob-id space each cell cycles through.
  size_t payload_bytes = 256;  ///< Sealed-payload size.
  double send_prob = 0.25;     ///< P(round also sends one bus message).
  uint64_t seed = 1;           ///< Per-cell streams derive from this.
  net::ChannelOptions channel;
  /// The transport every cell's channel speaks through — e.g. an
  /// rpc::SocketTransport crossing real TCP to an RpcServer. Not owned;
  /// must outlive the run. Implementations must be thread-safe (every cell
  /// task calls concurrently). Null = one InProcessTransport over the
  /// runner's cloud, shared by all cells of the run. Bus traffic stays on
  /// the CloudInfrastructure itself (it has no transport operation yet),
  /// and the convergence and commit-exactness audits read the BlobStore:
  /// they are the run's omniscient oracle, not cell traffic.
  net::CloudTransport* transport = nullptr;
  /// With an attached injector: force a full provider outage until every
  /// cell has completed this many rounds (the E14 partition-heals-and-
  /// converges phase). The heal is an all-cells barrier, so this requires
  /// cells <= threads. 0 = no forced outage.
  size_t outage_first_rounds = 0;
  /// End-of-run drain: bounded attempts per cell to push its pending
  /// writes after the workload rounds.
  size_t drain_attempts = 200;

  // ---- Fleet telemetry (cell-side metric shipping) ----

  /// Each cell records its op counts/latencies (tcell.* metrics) into a
  /// PRIVATE MetricRegistry — the simulated cells share one process, so
  /// recording into the global registry would fold every cell into a
  /// single stream and the shipped deltas would double-count — and ships
  /// sequence-numbered, encoded delta frames to the provider's
  /// TelemetryHub through the cell's ResilientChannel (byte-identical
  /// retries ride the breaker/backoff engine). An end-of-run flush pushes
  /// until acked, so at quiescence the hub aggregate equals the sum of
  /// what the cells recorded. Blob workloads only; ignored by the txn
  /// workload.
  bool telemetry = false;
  /// Ship one frame every N rounds (and once more at the flush). 0 ships
  /// at the flush only.
  size_t telemetry_every_rounds = 4;
  /// When set, every cell-local counter/histogram record is mirrored into
  /// this shared registry — the single-process ground truth telemetry
  /// tests compare the hub aggregate against. Must outlive the run;
  /// mirrored writes are concurrent (the registry is thread-safe).
  obs::MetricRegistry* telemetry_ground_truth = nullptr;

  // ---- Transactional read-modify-write contention workload ----

  /// Replaces the blob traffic: each round every cell commits ONE
  /// multi-key transaction over a SHARED key space ("txn/shared/<k>"),
  /// reading `txn_keys` counters under a snapshot and writing each +1 at
  /// its read version, plus one blind create of a fresh blob
  /// ("txn/blob/<token>", holding the token) — the shape of a cell's
  /// atomic update, whose document and manifest root are validated and
  /// whose fresh manifest segment is not. First-committer-wins aborts
  /// rebuild against a fresh snapshot under the same token; transient
  /// losses re-send the identical request until the provider answers (the
  /// token table makes that exactly-once). Every key's final counter value
  /// must equal its final version number — the commit-exactness audit
  /// Run() performs over the shared keys only.
  bool txn_workload = false;
  size_t txn_shared_docs = 8;  ///< Shared keys all cells contend over.
  size_t txn_keys = 2;         ///< Keys read+written per transaction.
  size_t txn_retry_limit = 64; ///< Per-txn abort-rebuild / resend bound.
  /// Optional history recorder (e.g. tc::testing::HistoryChecker): every
  /// attempt's begin/reads/commit/abort is reported. Must be thread-safe.
  cloud::TxnHistorySink* history = nullptr;
};

/// Outcome of one simulated cell (error propagation is per cell: one
/// failing cell never aborts the fleet).
struct FleetCellResult {
  std::string cell_id;
  Status status = Status::OK();
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t sends = 0;
  uint64_t messages_received = 0;
  // Channel outcome (all zero / true on a clean run).
  uint64_t retries = 0;           ///< Channel retry attempts.
  uint64_t deferred = 0;          ///< Writes left unacked by their round.
  uint64_t drained = 0;           ///< Pending writes acked by the drain.
  uint64_t gets_unavailable = 0;  ///< Reads answered kUnavailable.
  uint64_t breaker_opens = 0;
  // Txn-workload outcome.
  uint64_t txns_committed = 0;
  uint64_t txn_aborts = 0;  ///< FCW aborts (each rebuilt and retried).
  // Telemetry-shipping outcome.
  uint64_t telemetry_frames = 0;     ///< Frames the hub acknowledged.
  uint64_t telemetry_unshipped = 0;  ///< Frames still unacked at the end.
  /// Every write this cell got acked is the provider's latest state and
  /// nothing is left pending — the E14 zero-acked-write-loss invariant.
  bool converged = true;
};

/// Latency distribution of one operation class over the run, extracted
/// from the tc::obs histograms (`fleet.write_us` / `fleet.get_us`)
/// as a delta snapshot scoped to this run. These histograms record
/// unconditionally (RecordAlways): the report is the runner's product, so
/// its latency section must not empty out when obs is switched off.
struct FleetLatency {
  uint64_t count = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;
  double mean_us = 0;
};

/// Aggregated fleet run: exact operation totals plus host-side timing.
struct FleetReport {
  size_t cells_ok = 0;
  size_t cells_failed = 0;
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t sends = 0;
  uint64_t messages_received = 0;
  double wall_seconds = 0;
  /// (puts + gets) / wall_seconds — the throughput metric E12 sweeps.
  double put_get_per_second = 0;
  /// One write's commit / one get, host microseconds (retries included),
  /// sourced from the tc::obs registry histograms (not ad-hoc wall-clock
  /// vectors).
  FleetLatency put_latency;
  FleetLatency get_latency;
  uint64_t blob_lock_contention = 0;   // Delta over the run.
  uint64_t queue_lock_contention = 0;  // Delta over the run.
  // Channel aggregates.
  uint64_t retries = 0;
  uint64_t deferred = 0;
  uint64_t drained = 0;
  uint64_t gets_unavailable = 0;
  uint64_t breaker_opens = 0;
  uint64_t txns_committed = 0;
  uint64_t txn_aborts = 0;
  uint64_t telemetry_frames = 0;
  uint64_t telemetry_unshipped = 0;
  size_t cells_converged = 0;
  bool converged = true;               ///< Every cell converged.
  /// Seconds from the forced outage healing to the whole fleet done
  /// (rounds + drain + convergence check). 0 when no outage was forced.
  double heal_to_converge_seconds = 0;
  std::vector<FleetCellResult> cells;
};

/// Runs a fleet workload to completion. The cloud outlives the runner and
/// may be shared with other traffic; the report's contention counters and
/// latency histograms are deltas over this run.
class FleetRunner {
 public:
  FleetRunner(cloud::CloudInfrastructure* cloud, const FleetOptions& options);

  /// Executes the whole fleet: submits one task per cell to the pool,
  /// waits, shuts the pool down gracefully, and aggregates. Errors inside
  /// a cell are captured in that cell's FleetCellResult; a rejected Submit
  /// marks that cell Unavailable (never silently dropped). Run itself only
  /// fails on configuration errors or a task escaping with an exception
  /// (the pool's first_error latch).
  Result<FleetReport> Run();

 private:
  void RunCellBlobs(size_t cell_index, FleetCellResult* result);
  void RunCellTxn(size_t cell_index, FleetCellResult* result);
  /// Called by the cell that completes the outage phase last: lifts the
  /// forced outage and stamps the heal time.
  void HealOutage();

  cloud::CloudInfrastructure* cloud_;
  FleetOptions options_;
  net::InProcessTransport in_process_;
  net::CloudTransport* transport_;  // options_.transport or &in_process_.
  obs::Histogram& write_us_;
  obs::Histogram& get_us_;
  std::atomic<size_t> outage_passed_{0};
  std::atomic<uint64_t> healed_at_us_{0};  // Host steady µs; 0 = not healed.
};

}  // namespace tc::fleet

#endif  // TC_FLEET_FLEET_H_
