#ifndef TC_CLOUD_BLOB_STORE_H_
#define TC_CLOUD_BLOB_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/cloud/txn.h"

namespace tc::cloud {

/// Versioned blob storage — the "highly available and resilient store for
/// all data outsourced by trusted cells". Every Put creates a new version;
/// history is retained, which is exactly what lets a *malicious* operator
/// mount rollback attacks (serve version n-1 as if it were current) and
/// what lets honest cells keep cheap snapshots.
///
/// The store is sharded over `shard_count` partitions (hash of the blob
/// id), modelling the horizontally partitioned store of a real provider
/// serving millions of cells. ONE LOCK PER STRIPE: each shard is a plain
/// map from blob id to that blob's versions, oldest first (version v at
/// index v-1, with the sequence of the commit that wrote it), under the
/// shard's stripe mutex. Readers and writers alike take the stripe, and a
/// read copies its payload out before releasing it.
///
/// MVCC: every version carries the sequence number of the commit that
/// created it (plain puts are single-write auto-commits). Snapshot() hands
/// out a SnapshotDescriptor; GetAtSnapshot() reads the newest version
/// whose commit is visible in a descriptor; CommitTxn() applies a
/// validated multi-key read/write set atomically — first-committer-wins
/// under a lock manager striped exactly like the shards (the involved
/// stripes are acquired in ascending index order, held across validation
/// and apply: two-phase, deadlock-free).
///
/// ONE RULE makes a snapshot one sequence number: a commit draws its
/// sequence from one counter after validation and while it holds every
/// stripe it touches, and Snapshot() loads that counter. A reader of any
/// blob the commit writes waits on the same stripe, so it sees the
/// commit's versions exactly when its snapshot includes the sequence:
/// cross-shard commits are never seen torn, and a version seen as latest
/// is in every later snapshot. The second half bounds first-committer-wins
/// abort loops (a write that is latest but not yet in fresh snapshots
/// would make every conflicting retry abort deterministically for as long
/// as the committer is stalled).
///
/// Lock ordering: stripes only, always in ascending shard index; a read
/// holds exactly one. The txn-token table is striped too, so it needs no
/// lock of its own.
class BlobStore {
 public:
  static constexpr size_t kDefaultShards = 16;
  /// Committed txn tokens remembered per store, split evenly over the
  /// stripes.
  static constexpr size_t kTokenHistory = 8192;

  explicit BlobStore(size_t shard_count = kDefaultShards,
                     size_t token_history = kTokenHistory);

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  /// Stores a new version of `id`, untokened; returns the version number
  /// (1-based). No cell writes this way: it seeds and checks provider
  /// state in tests, harnesses and the vault baseline.
  uint64_t Put(const std::string& id, const Bytes& data);

  // ---- Provider transactions (MVCC) ----

  /// Consistent snapshot: every commit whose sequence is drawn by now.
  /// Takes no lock and allocates nothing.
  SnapshotDescriptor Snapshot() const;

  /// Newest version of `id` whose commit is visible in `snap`; kNotFound
  /// if the blob has no visible version (absent, or created after the
  /// snapshot was taken).
  Result<SnapshotRead> GetAtSnapshot(const std::string& id,
                                     const SnapshotDescriptor& snap) const;

  /// Atomically validates and applies a multi-key transaction.
  ///
  /// Validation (first-committer-wins): every read must still observe the
  /// latest version it saw; every write's `base_version` must still be the
  /// latest version of its key (kBaseVersionAny skips the check). The
  /// first key that fails aborts the whole transaction with kAborted and
  /// no effect. On success all writes are applied under one commit
  /// sequence and each lands at exactly `base_version + 1`.
  ///
  /// Idempotency: the provider's one exactly-once mechanism. A committed
  /// token's outcome (commit seq + assigned versions) is recorded in the
  /// txn-token table, FIFO-bounded at `token_history` entries per store;
  /// a re-delivered commit is answered with its original outcome
  /// (`replayed` set) without re-applying. The table is striped like the
  /// blobs: a token lives in the stripe its hash picks, and every commit
  /// locks its token's stripe along with those of its reads and writes,
  /// so deliveries of one token serialize there and no commit takes a
  /// store-wide lock for its token. The window only has to outlast a retry,
  /// which is short by construction. A blind re-delivery that arrives
  /// AFTER its token was evicted applies again: it appends one duplicate
  /// version with identical bytes (the latest payload per blob is
  /// unaffected), and never resurrects an older payload over a newer acked
  /// one within the window. Aborts are deliberately NOT recorded — an
  /// abort has no side effects, and the cell retries aborted transactions
  /// under the SAME token with a refreshed snapshot, which must be allowed
  /// to commit.
  TxnOutcome CommitTxn(const TxnRequest& req);

  /// Total versions ever created across all blobs (never decremented, not
  /// even by Delete). Where every write is a commit,
  /// `versions_created == txn_writes_applied` is the "no duplicate
  /// side-effects" invariant.
  uint64_t versions_created() const {
    return versions_created_.load(std::memory_order_relaxed);
  }

  uint64_t txns_committed() const {
    return txns_committed_.load(std::memory_order_relaxed);
  }
  uint64_t txns_aborted() const {
    return txns_aborted_.load(std::memory_order_relaxed);
  }
  /// Re-delivered commits answered from the txn-token table.
  uint64_t txn_replays() const {
    return txn_replays_.load(std::memory_order_relaxed);
  }
  /// Versions created by committed transactions (subset of
  /// versions_created).
  uint64_t txn_writes_applied() const {
    return txn_writes_applied_.load(std::memory_order_relaxed);
  }

  /// Latest version payload.
  Result<Bytes> Get(const std::string& id) const;

  /// Specific version payload.
  Result<Bytes> GetVersion(const std::string& id, uint64_t version) const;

  /// Latest version number (kNotFound if the blob does not exist).
  Result<uint64_t> LatestVersion(const std::string& id) const;

  bool Exists(const std::string& id) const;

  /// Removes a blob and all of its versions; every version's bytes are
  /// subtracted from the shard's byte accounting. Legacy administrative
  /// op, not MVCC-aware: snapshot readers see the blob vanish. A later Put
  /// of the same id restarts at version 1, as before.
  Status Delete(const std::string& id);

  /// Ids with the given prefix (listing is metadata the provider sees —
  /// part of why payloads must be encrypted). Merged across shards,
  /// returned in sorted order.
  std::vector<std::string> List(const std::string& prefix) const;

  size_t blob_count() const;
  uint64_t total_bytes() const;

  /// Exact recount of the bytes the accounting SHOULD hold: walks every
  /// stored version and sums payload sizes. O(data); meant for test
  /// invariants at quiescence (`AuditTotalBytes() == total_bytes()`), not
  /// for the serving path. Under concurrent writers the two are sampled
  /// at different instants and may legitimately differ.
  uint64_t AuditTotalBytes() const;

  /// In-place mutation of the stored latest version of `id`, under the
  /// shard lock; re-syncs byte accounting if the mutation resized the
  /// payload. Only tests call it: the adversary tampers with payloads in
  /// flight (CloudInfrastructure::ReadLatest), never with the store.
  Status MutateLatest(const std::string& id,
                      const std::function<void(Bytes&)>& mutator);

  size_t shard_count() const { return shards_.size(); }

  /// Shard an id maps to — stable for the lifetime of the store. Exposed so
  /// the infrastructure layer can keep per-shard adversary RNG streams
  /// aligned with the data partitioning.
  size_t ShardIndex(const std::string& id) const;

  /// Number of times a caller — reader or writer — found its shard lock
  /// already held and had to wait (merged over shards). A cheap contention
  /// probe for the fleet benchmarks; monotonically increasing.
  uint64_t lock_contention() const;

 private:
  /// One stored version: payload + the commit that created it.
  struct Version {
    Bytes data;
    uint64_t commit_seq = 0;
  };

  /// Recorded outcome of a committed transaction, replayed on token
  /// re-delivery.
  struct TxnTokenRec {
    uint64_t commit_seq = 0;
    std::vector<uint64_t> versions;
  };

  struct Shard {
    mutable std::mutex mu;
    mutable std::atomic<uint64_t> contention{0};
    /// Every blob in this stripe: its versions, oldest first (version v at
    /// index v-1). Delete erases the entry. Guarded by mu.
    std::unordered_map<std::string, std::vector<Version>> blobs;
    uint64_t total_bytes = 0;  // Guarded by mu.
    /// This stripe's slice of the txn-token table: the committed tokens
    /// that hash here, and their eviction order, oldest first. The order
    /// holds pointers to the map's keys (stable until erase), so a token
    /// is stored exactly once. Guarded by mu.
    std::unordered_map<std::string, TxnTokenRec> txn_tokens;
    std::deque<const std::string*> txn_token_order;
  };

  /// Locks `shard.mu`, counting the acquisition as contended if it blocks.
  std::unique_lock<std::mutex> LockShard(const Shard& shard) const;

  /// Appends one version under the stripe; returns its 1-based version.
  uint64_t AppendVersionLocked(Shard& shard, const std::string& id,
                               const Bytes& data, uint64_t seq);

  /// Latest version number of `id` (0 = absent). Caller holds the stripe.
  uint64_t LatestVersionLocked(const std::string& id) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t tokens_per_shard_ = 1;
  std::atomic<uint64_t> versions_created_{0};
  std::atomic<uint64_t> txns_committed_{0};
  std::atomic<uint64_t> txns_aborted_{0};
  std::atomic<uint64_t> txn_replays_{0};
  std::atomic<uint64_t> txn_writes_applied_{0};

  /// The last commit sequence drawn; Snapshot() is one load of it.
  std::atomic<uint64_t> last_commit_seq_{0};
};

}  // namespace tc::cloud

#endif  // TC_CLOUD_BLOB_STORE_H_
