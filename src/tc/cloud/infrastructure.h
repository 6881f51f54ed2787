#ifndef TC_CLOUD_INFRASTRUCTURE_H_
#define TC_CLOUD_INFRASTRUCTURE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/overload.h"
#include "tc/common/result.h"
#include "tc/common/rng.h"
#include "tc/cloud/blob_store.h"
#include "tc/cloud/fault_injector.h"
#include "tc/obs/metrics.h"
#include "tc/obs/telemetry.h"

namespace tc::cloud {

/// RAII front door of one provider-RPC execution: the overload-control
/// checks every RPC-suffixed endpoint runs before touching the store.
///
///   1. Deadline shed — if the calling thread's OverloadContext carries a
///      deadline that has already passed, the request is shed with
///      kDeadlineExceeded before any provider work ("never work on dead
///      requests": the client gave up, finishing the work only burns
///      capacity someone live could use).
///   2. Admission — if a controller is attached, a concurrency slot is
///      taken per the request's criticality; rejection sheds with
///      kResourceExhausted and leaves a load-scaled retry-after hint on
///      the calling thread (SetRetryAfterHint) for the transport to carry
///      back.
///
/// The destructor releases the slot, feeding the gradient limiter the
/// gate's lifetime as the latency sample (critical requests release
/// without sampling — health probes must not drag the latency floor down).
///
/// Constructed AFTER the network fault draw, so the injector's ordinal
/// stream is identical whether the overload plane is on or off (chaos
/// schedules stay replayable across configurations).
class OverloadGate {
 public:
  /// `criticality` is the request's class: the calling thread's
  /// OverloadContext, or kCritical forced by a health/scrape endpoint
  /// whatever the client marked.
  OverloadGate(AdmissionController* controller, Criticality criticality);
  ~OverloadGate();

  OverloadGate(const OverloadGate&) = delete;
  OverloadGate& operator=(const OverloadGate&) = delete;

  /// OK = admitted; kDeadlineExceeded / kResourceExhausted = shed, the
  /// endpoint must return this without touching the store.
  const Status& status() const { return status_; }
  bool shed() const { return !status_.ok(); }

 private:
  void Enter(AdmissionController* controller, Criticality criticality);

  AdmissionController* controller_ = nullptr;
  Status status_;
  bool slot_ = false;
  bool sample_ = true;
  uint64_t start_us_ = 0;
};

/// Inter-cell message.
struct Message {
  uint64_t id = 0;
  std::string from;
  std::string to;
  std::string topic;
  Bytes payload;
};

/// Configuration of the weakly-malicious provider (paper threat model:
/// "the infrastructure is assumed trying to cheat only if it cannot be
/// convicted as an adversary"). Probabilities are per-operation.
struct AdversaryConfig {
  double tamper_read_prob = 0.0;    ///< Flip bytes in a blob read.
  double rollback_read_prob = 0.0;  ///< Serve a stale version as latest.
  double drop_message_prob = 0.0;   ///< Silently drop a message.
  double replay_message_prob = 0.0; ///< Deliver an old message again.
  uint64_t seed = 1;

  static AdversaryConfig Honest() { return AdversaryConfig{}; }
};

/// Ground truth of what the adversary actually did (the experiment harness
/// compares this with what cells *detected* to report detection rates).
struct AdversaryStats {
  uint64_t reads_tampered = 0;
  uint64_t reads_rolled_back = 0;
  uint64_t messages_dropped = 0;
  uint64_t messages_replayed = 0;
};

/// Operation counters + simulated transfer accounting.
struct CloudStats {
  uint64_t blob_puts = 0;
  uint64_t blob_gets = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;
};

/// The untrusted infrastructure of the trusted-cells architecture:
/// cloud blob storage + a store-and-forward message bus between cells,
/// with an injectable weakly-malicious adversary.
///
/// Everything here sees only what a real provider would see: ciphertext
/// blobs, message envelopes, timing and sizes. The adversary acts *inside*
/// this layer (it IS the provider); the E8 experiment measures how reliably
/// the cells' cryptographic checks convict it.
///
/// Cells reach the blob store, the transaction engine and the telemetry hub
/// only through the RPC-suffixed endpoints, which net::CloudTransport wraps
/// (in-process or over a socket). The plain blob reads below are oracle
/// reads of provider state for harnesses and audits, not cell traffic.
///
/// Thread safety: every public method may be called concurrently. Blobs and
/// message queues are sharded across lock-striped partitions (hash of blob
/// id / recipient), counters are atomics snapshotted on read, and the
/// adversary draws from one RNG stream per shard — so a *single-threaded*
/// run is fully deterministic for a given seed, and a multi-threaded run is
/// deterministic per shard given that shard's operation order (cross-shard
/// interleaving never perturbs another shard's stream).
///
/// Observability (tc::obs global registry):
///   cloud.get_us / cloud.txn_us /
///   cloud.send_us / cloud.receive_us        histograms, per-op latency
///                                           (includes simulated RTT)
///   cloud.adversary.*                       counters, ground-truth events
///   cloud.blob_lock_contention /
///   cloud.queue_lock_contention             gauges, refreshed by stats()
class CloudInfrastructure {
 public:
  struct Options {
    size_t blob_shards = BlobStore::kDefaultShards;
    size_t queue_shards = BlobStore::kDefaultShards;
    /// Simulated provider round-trip charged to each blob, commit and
    /// messaging operation. 0 = in-process, no delay. Slept outside all
    /// locks, so concurrent callers overlap their waits exactly as real
    /// cells overlap WAN round-trips.
    uint32_t op_latency_us = 0;
  };

  explicit CloudInfrastructure(
      const AdversaryConfig& adversary = AdversaryConfig::Honest());
  CloudInfrastructure(const AdversaryConfig& adversary,
                      const Options& options);

  /// Attaches (or detaches, with nullptr) the network fault injector the
  /// RPC-suffixed endpoints consult. Not owned; must outlive its use.
  void set_fault_injector(NetworkFaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  NetworkFaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  /// Attaches (or detaches, with nullptr) the adaptive admission
  /// controller the RPC-suffixed endpoints gate on (see OverloadGate).
  /// Not owned; must outlive its use. Detached (the default), the
  /// endpoints still honor deadline shedding but never push back.
  void set_admission_controller(AdmissionController* controller) {
    admission_.store(controller, std::memory_order_release);
  }
  AdmissionController* admission_controller() const {
    return admission_.load(std::memory_order_acquire);
  }

  // ---- Blob reads over the faulty network (RPC surface) ----
  // One call = one network attempt: the injector may lose the request or
  // its reply (kUnavailable either way, a read has no effect to keep),
  // throttle it, or reject it during an outage window.

  /// Latest blob over the faulty network — possibly tampered or rolled
  /// back by the adversary; `delay_us`, when non-null, receives the
  /// injected delay to charge to the caller's virtual clock.
  Result<Bytes> GetBlobRpc(const std::string& id, uint32_t* delay_us = nullptr);

  // ---- Provider transactions (MVCC) ----
  // Multi-key atomic commit with snapshot-validated read/write sets; see
  // BlobStore::CommitTxn for semantics. Every cell write is one. A lost
  // request applies nothing, a lost ack leaves the commit applied and the
  // retry is answered from the txn-token table, and a network duplicate is
  // delivered twice — the second copy replays the first's outcome when it
  // committed, and is skipped when it aborted (re-validating against the
  // untouched store would abort identically).

  /// Commit over the faulty network; outcome.delay_us carries the injected
  /// delay to charge to the caller's virtual clock.
  TxnOutcome CommitTxnRpc(const TxnRequest& req);
  /// Snapshot acquisition over the faulty network (read-class faults).
  Result<SnapshotDescriptor> GetSnapshotRpc(uint32_t* delay_us = nullptr);
  /// Snapshot read over the faulty network (read-class faults).
  Result<SnapshotRead> GetBlobAtSnapshotRpc(const std::string& id,
                                            const SnapshotDescriptor& snap,
                                            uint32_t* delay_us = nullptr);

  // ---- Fleet telemetry (RPC surface) ----
  // Cells ship sequence-numbered obs::TelemetryFrame deltas; the hub's
  // per-source dedup table (same idempotency pattern as the txn-token
  // table) makes every fault class safe: a lost request applies nothing,
  // a lost ack leaves the frame applied and the byte-identical retry is
  // deduplicated, a network duplicate delivers twice and the second copy is
  // deduplicated.

  /// Reports one encoded telemetry frame over the faulty network.
  /// delay_us, when non-null, receives the injected delay.
  obs::TelemetryHub::ReportOutcome ReportTelemetryRpc(
      const Bytes& frame, uint32_t* delay_us = nullptr);
  /// Scrapes the fleet telemetry JSON over the faulty network
  /// (read-class faults).
  Result<std::string> ScrapeTelemetryRpc(uint32_t* delay_us = nullptr);
  /// The provider-side aggregation point (direct access for harnesses).
  obs::TelemetryHub& telemetry_hub() { return telemetry_hub_; }

  // ---- Direct reads of provider state ----
  // No injector, no gate, no adversary: oracle reads for audits and tests
  // (and TrustedCell's catch-up read-back, which has no CloudTransport
  // operation yet).
  Result<Bytes> GetBlobVersion(const std::string& id, uint64_t version);
  Result<uint64_t> LatestBlobVersion(const std::string& id) const;
  std::vector<std::string> ListBlobs(const std::string& prefix) const;
  bool BlobExists(const std::string& id) const;

  // ---- Messaging ----
  uint64_t Send(const std::string& from, const std::string& to,
                const std::string& topic, const Bytes& payload);
  /// Delivers (and removes) all pending messages for `recipient`; the
  /// adversary may have dropped some or replayed old ones.
  std::vector<Message> Receive(const std::string& recipient);
  size_t PendingCount(const std::string& recipient) const;

  /// Consistent snapshots of the atomic counters.
  CloudStats stats() const;
  AdversaryStats adversary_stats() const;
  AdversaryConfig adversary_config() const;
  /// Swaps the adversary's behaviour. Does NOT reseed the per-shard RNG
  /// streams (matching the single-RNG behaviour this class always had), so
  /// flipping probabilities mid-run keeps the run reproducible.
  void set_adversary(const AdversaryConfig& config);

  /// The store itself: ground truth for audits, oracles and services
  /// modelled as running inside the provider.
  BlobStore& blob_store() { return blobs_; }

  /// Contended lock acquisitions on blob shards / queue shards since
  /// construction (fleet-bench contention probes).
  uint64_t blob_lock_contention() const { return blobs_.lock_contention(); }
  uint64_t queue_lock_contention() const;

 private:
  /// Counters mirror CloudStats/AdversaryStats field-for-field; relaxed
  /// atomics, merged into the plain structs by the snapshot accessors.
  struct AtomicCloudStats {
    std::atomic<uint64_t> blob_puts{0};
    std::atomic<uint64_t> blob_gets{0};
    std::atomic<uint64_t> messages_sent{0};
    std::atomic<uint64_t> messages_delivered{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> txn_commits{0};
    std::atomic<uint64_t> txn_aborts{0};
  };
  struct AtomicAdversaryStats {
    std::atomic<uint64_t> reads_tampered{0};
    std::atomic<uint64_t> reads_rolled_back{0};
    std::atomic<uint64_t> messages_dropped{0};
    std::atomic<uint64_t> messages_replayed{0};
  };
  /// Adversary RNG stream for one blob shard.
  struct RngSlot {
    std::mutex mu;
    Rng rng;
    explicit RngSlot(uint64_t seed) : rng(seed) {}
  };
  /// One stripe of the message bus: queues + replay history for every
  /// recipient hashing here, plus this stripe's adversary RNG stream.
  struct QueueShard {
    mutable std::mutex mu;
    mutable std::atomic<uint64_t> contention{0};
    std::map<std::string, std::deque<Message>> queues;
    std::map<std::string, std::vector<Message>> delivered_history;
    Rng rng;
    explicit QueueShard(uint64_t seed) : rng(seed) {}
  };

  /// Latency histograms + adversary counters resolved once from the global
  /// registry; the hot path only touches their relaxed atomics.
  struct Metrics {
    Metrics();
    obs::Histogram& get_us;
    obs::Histogram& send_us;
    obs::Histogram& receive_us;
    obs::Histogram& txn_us;
    obs::Counter& reads_tampered;
    obs::Counter& reads_rolled_back;
    obs::Counter& messages_dropped;
    obs::Counter& messages_replayed;
    obs::Counter& net_faults;   ///< Non-clean injector decisions applied.
    obs::Counter& net_outages;  ///< Attempts rejected by an outage window.
    obs::Counter& txn_commits;
    obs::Counter& txn_aborts;
    obs::Counter& txn_replays;  ///< Commits answered from the token table.
    obs::Gauge& blob_lock_contention;
    obs::Gauge& queue_lock_contention;
  };

  /// How the network can lose an endpoint's request or its reply.
  enum class RpcLoss : uint8_t {
    /// Side-effect free: a lost reply is a lost request.
    kRead,
    /// Applied whole: a lost ack still applies.
    kAtomic,
  };
  /// What differs between the endpoints' shared front half (see Serve).
  struct RpcRoute {
    NetOp op;
    RpcLoss loss;
    const char* what;  ///< Request noun for the kUnavailable messages.
    /// Health scrape: admitted at kCritical whatever the caller marked, and
    /// never charged slow-op CPU.
    bool health = false;
  };

  /// The front half every *Rpc endpoint runs before touching the store:
  /// draws `route`'s network fault decision into `*decision`, answers an
  /// outage, a throttle or a request lost in flight with kUnavailable, then
  /// opens the OverloadGate (after the draw, so the injector's ordinal
  /// stream is identical plane on/off) and burns the slow-op CPU. Only an
  /// admitted request reaches `apply`, whose outcome is returned; the gate
  /// stays open until `apply` returns. Duplicates and lost acks past the
  /// gate are `apply`'s to model.
  template <typename Apply>
  auto Serve(const RpcRoute& route, FaultDecision* decision, Apply&& apply)
      -> decltype(apply());

  /// Latest blob — possibly tampered or rolled back by the adversary.
  Result<Bytes> ReadLatest(const std::string& id);
  /// Newest version of `id` visible in `snap`.
  Result<SnapshotRead> ReadAtSnapshot(const std::string& id,
                                      const SnapshotDescriptor& snap);
  /// One delivery of `req` to the transaction engine.
  TxnOutcome ApplyTxn(const TxnRequest& req);

  size_t QueueShardIndex(const std::string& recipient) const;
  std::unique_lock<std::mutex> LockQueueShard(const QueueShard& shard) const;
  AdversaryConfig SnapshotAdversary() const;
  /// Charges the simulated provider round-trip (outside any lock).
  void ChargeLatency() const;

  Options options_;
  Metrics metrics_;
  BlobStore blobs_;
  obs::TelemetryHub telemetry_hub_;
  std::atomic<NetworkFaultInjector*> fault_injector_{nullptr};
  std::atomic<AdmissionController*> admission_{nullptr};
  std::vector<std::unique_ptr<RngSlot>> blob_rngs_;    // one per blob shard.
  std::vector<std::unique_ptr<QueueShard>> queue_shards_;
  mutable std::shared_mutex adversary_mu_;
  AdversaryConfig adversary_;              // guarded by adversary_mu_.
  AtomicAdversaryStats adversary_stats_;
  AtomicCloudStats stats_;
  std::atomic<uint64_t> next_message_id_{1};
};

}  // namespace tc::cloud

#endif  // TC_CLOUD_INFRASTRUCTURE_H_
