#include "tc/cloud/blob_store.h"

#include <algorithm>

namespace tc::cloud {

BlobStore::BlobStore(size_t shard_count, size_t token_history) {
  if (shard_count == 0) shard_count = 1;
  // The per-store window, split evenly over the stripes (rounded up).
  tokens_per_shard_ =
      std::max<size_t>(1, (token_history + shard_count - 1) / shard_count);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlobStore::~BlobStore() {
  for (auto& shard_ptr : shards_) {
    for (std::atomic<BlobRec*>& bucket : shard_ptr->buckets) {
      BlobRec* rec = bucket.load(std::memory_order_relaxed);
      while (rec != nullptr) {
        BlobRec* next = rec->next;
        DeleteVersionChain(rec->head.load(std::memory_order_relaxed));
        delete rec;
        rec = next;
      }
    }
  }
  // epochs_ (destroyed after us-declared members, being first) frees
  // whatever Delete/MutateLatest retired but no reader drained yet.
}

void BlobStore::DeleteVersionChain(void* head) {
  VersionNode* node = static_cast<VersionNode*>(head);
  while (node != nullptr) {
    VersionNode* next = node->next;
    delete node;
    node = next;
  }
}

size_t BlobStore::ShardIndex(const std::string& id) const {
  return std::hash<std::string>{}(id) % shards_.size();
}

size_t BlobStore::BucketIndex(const std::string& id) const {
  // Second-level hash: fold the shard count out so ids in one shard still
  // spread over the buckets.
  return (std::hash<std::string>{}(id) / shards_.size()) % kBucketsPerShard;
}

std::unique_lock<std::mutex> BlobStore::LockShard(const Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

BlobStore::BlobRec* BlobStore::FindRec(const Shard& shard,
                                       const std::string& id) const {
  BlobRec* rec =
      shard.buckets[BucketIndex(id)].load(std::memory_order_acquire);
  while (rec != nullptr) {
    if (rec->id == id) return rec;
    rec = rec->next;
  }
  return nullptr;
}

BlobStore::BlobRec* BlobStore::FindOrInsertRec(Shard& shard,
                                               const std::string& id) {
  std::atomic<BlobRec*>& bucket = shard.buckets[BucketIndex(id)];
  BlobRec* head = bucket.load(std::memory_order_relaxed);
  for (BlobRec* rec = head; rec != nullptr; rec = rec->next) {
    if (rec->id == id) return rec;
  }
  // Writers are serialized by the stripe, so a plain release store
  // publishes the fully constructed node to lock-free bucket walkers.
  BlobRec* rec = new BlobRec(id, head);
  bucket.store(rec, std::memory_order_release);
  return rec;
}

BlobStore::VersionNode* BlobStore::AppendVersionLocked(Shard& shard,
                                                       const std::string& id,
                                                       const Bytes& data,
                                                       uint64_t seq,
                                                       uint64_t* version_out) {
  BlobRec* rec = FindOrInsertRec(shard, id);
  VersionNode* old = rec->head.load(std::memory_order_relaxed);
  uint64_t version = old != nullptr ? old->version + 1 : 1;
  VersionNode* node = new VersionNode(data, seq, version, old);
  rec->head.store(node, std::memory_order_release);
  if (old == nullptr) shard.blob_count.fetch_add(1, std::memory_order_relaxed);
  shard.total_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  shard.high_seq.store(seq, std::memory_order_release);
  versions_created_.fetch_add(1, std::memory_order_relaxed);
  *version_out = version;
  return node;
}

void BlobStore::PublishSeqs(const uint64_t* seqs, size_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(commit_mu_);
  for (size_t i = 0; i < n; ++i) committed_above_.insert(seqs[i]);
  auto it = committed_above_.begin();
  while (it != committed_above_.end() && *it == base_committed_ + 1) {
    ++base_committed_;
    it = committed_above_.erase(it);
  }
}

uint64_t BlobStore::LatestVersionLocked(const std::string& id) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  const BlobRec* rec = FindRec(shard, id);
  if (rec == nullptr) return 0;
  // The caller holds this stripe, so no unpublished head can exist here.
  const VersionNode* head = rec->head.load(std::memory_order_acquire);
  return head != nullptr ? head->version : 0;
}

uint64_t BlobStore::Put(const std::string& id, const Bytes& data) {
  Shard& shard = *shards_[ShardIndex(id)];
  uint64_t version = 0;
  {
    auto lock = LockShard(shard);
    uint64_t seq = next_commit_seq_.fetch_add(1, std::memory_order_relaxed);
    VersionNode* node = AppendVersionLocked(shard, id, data, seq, &version);
    // Published under the stripe for the same starvation bound CommitTxn
    // documents: once this Put is observable as "latest", it is also in
    // every fresh snapshot. The node flips published only after its seq
    // is in the horizon, so lock-free latest readers can never get ahead.
    PublishSeqs(&seq, 1);
    node->published.store(true, std::memory_order_release);
  }
  return version;
}

SnapshotDescriptor BlobStore::Snapshot() const {
  SnapshotDescriptor snap;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    snap.base_seq = base_committed_;
    snap.extra_seqs.assign(committed_above_.begin(), committed_above_.end());
  }
  snap.shard_high.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    snap.shard_high.push_back(
        shard_ptr->high_seq.load(std::memory_order_acquire));
  }
  return snap;
}

Result<SnapshotRead> BlobStore::GetAtSnapshot(
    const std::string& id, const SnapshotDescriptor& snap) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  sync::EpochGuard guard(epochs_);
  const BlobRec* rec = FindRec(shard, id);
  if (rec != nullptr) {
    // published is deliberately ignored: a descriptor can only contain a
    // sequence PublishSeqs has processed, and the commit_mu_ hand-off to
    // Snapshot() makes the node reachable by then. Checking the flag here
    // would spuriously hide a committed version from an entitled reader.
    for (const VersionNode* node = rec->head.load(std::memory_order_acquire);
         node != nullptr; node = node->next) {
      if (snap.Visible(node->commit_seq)) {
        SnapshotRead read;
        read.data = node->data;
        read.version = node->version;
        read.commit_seq = node->commit_seq;
        return read;
      }
    }
  }
  return Status::NotFound("no version of " + id + " visible in snapshot");
}

TxnOutcome BlobStore::CommitTxn(const TxnRequest& req) {
  TxnOutcome out;
  if (req.token.empty()) {
    out.status = Status::InvalidArgument("txn token must not be empty");
    return out;
  }
  if (req.writes.empty()) {
    out.status = Status::InvalidArgument("txn has no writes");
    return out;
  }
  for (size_t i = 0; i < req.writes.size(); ++i) {
    for (size_t j = i + 1; j < req.writes.size(); ++j) {
      if (req.writes[i].id == req.writes[j].id) {
        out.status =
            Status::InvalidArgument("duplicate write key: " + req.writes[i].id);
        return out;
      }
    }
  }

  // Lock manager, striped like the shards: acquire every involved stripe —
  // those of the read and write sets, plus the token's, whose slice of the
  // txn-token table this commit consults and records in — in ascending
  // index order and hold across validation + apply (two-phase across
  // shards, deadlock-free by the global order).
  const size_t token_stripe = ShardIndex(req.token);
  Shard& token_shard = *shards_[token_stripe];
  std::vector<size_t> stripes;
  stripes.reserve(req.reads.size() + req.writes.size() + 1);
  stripes.push_back(token_stripe);
  for (const TxnRead& r : req.reads) stripes.push_back(ShardIndex(r.id));
  for (const TxnWrite& w : req.writes) stripes.push_back(ShardIndex(w.id));
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(stripes.size());
  for (size_t s : stripes) held.push_back(LockShard(*shards_[s]));

  // Re-delivered commit? Answer with the original outcome. Every delivery
  // of a token holds the token's stripe, so the first delivery's record is
  // visible to the second.
  auto hit = token_shard.txn_tokens.find(req.token);
  if (hit != token_shard.txn_tokens.end()) {
    out.committed = true;
    out.replayed = true;
    out.commit_seq = hit->second.commit_seq;
    out.versions = hit->second.versions;
    txn_replays_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  // First-committer-wins validation: all versions in the store are
  // committed, so "still current" is exact version-number equality.
  for (const TxnRead& r : req.reads) {
    if (LatestVersionLocked(r.id) != r.version) {
      out.status = Status::Aborted("read of " + r.id + " no longer current");
      out.conflict_id = r.id;
      txns_aborted_.fetch_add(1, std::memory_order_relaxed);
      return out;
    }
  }
  for (const TxnWrite& w : req.writes) {
    if (w.base_version != kBaseVersionAny &&
        LatestVersionLocked(w.id) != w.base_version) {
      out.status =
          Status::Aborted("write base of " + w.id + " no longer current");
      out.conflict_id = w.id;
      txns_aborted_.fetch_add(1, std::memory_order_relaxed);
      return out;
    }
  }

  // Apply: one commit sequence for the whole write set.
  uint64_t seq = next_commit_seq_.fetch_add(1, std::memory_order_relaxed);
  out.versions.reserve(req.writes.size());
  std::vector<VersionNode*> applied;
  applied.reserve(req.writes.size());
  for (const TxnWrite& w : req.writes) {
    Shard& shard = *shards_[ShardIndex(w.id)];
    uint64_t version = 0;
    applied.push_back(AppendVersionLocked(shard, w.id, w.data, seq, &version));
    out.versions.push_back(version);
    txn_writes_applied_.fetch_add(1, std::memory_order_relaxed);
  }
  out.committed = true;
  out.commit_seq = seq;
  txns_committed_.fetch_add(1, std::memory_order_relaxed);

  auto inserted =
      token_shard.txn_tokens.emplace(req.token, TxnTokenRec{seq, out.versions});
  token_shard.txn_token_order.push_back(&inserted.first->first);
  if (token_shard.txn_token_order.size() > tokens_per_shard_) {
    token_shard.txn_tokens.erase(*token_shard.txn_token_order.front());
    token_shard.txn_token_order.pop_front();
  }

  // Publish BEFORE releasing the stripes. The writes are already fully
  // applied, so the no-torn-commit invariant holds; what the ordering buys
  // is a starvation bound. Published after release, a preempted committer
  // leaves a window where its writes are "latest" (so every conflicting
  // first-committer-wins validation aborts) but absent from fresh
  // snapshots (so every retry re-reads the stale version) — one stalled
  // thread turns its competitors into a deterministic abort loop for a
  // whole scheduling quantum. Published under the stripes, any snapshot a
  // competitor can act on (its reads serialize behind these locks)
  // already contains this commit, so each commit costs each competitor at
  // most O(1) aborts. Lock-free latest readers get the same guarantee
  // from the published flag, which flips only after this call.
  PublishSeqs(&seq, 1);
  for (VersionNode* node : applied) {
    node->published.store(true, std::memory_order_release);
  }
  held.clear();
  return out;
}

Result<Bytes> BlobStore::Get(const std::string& id) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  sync::EpochGuard guard(epochs_);
  const BlobRec* rec = FindRec(shard, id);
  const VersionNode* node =
      rec != nullptr ? rec->head.load(std::memory_order_acquire) : nullptr;
  // Skip the (at most one) not-yet-published head: it is not "latest"
  // until its commit seq is in the snapshot horizon.
  while (node != nullptr && !node->published.load(std::memory_order_acquire)) {
    node = node->next;
  }
  if (node == nullptr) return Status::NotFound("no such blob: " + id);
  return node->data;
}

Result<Bytes> BlobStore::GetVersion(const std::string& id,
                                    uint64_t version) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  sync::EpochGuard guard(epochs_);
  const BlobRec* rec = FindRec(shard, id);
  const VersionNode* node =
      rec != nullptr ? rec->head.load(std::memory_order_acquire) : nullptr;
  while (node != nullptr && !node->published.load(std::memory_order_acquire)) {
    node = node->next;
  }
  for (; node != nullptr; node = node->next) {
    if (node->version == version) return node->data;
    if (node->version < version) break;  // Chain descends; not present.
  }
  return Status::NotFound("no such blob version");
}

Result<uint64_t> BlobStore::LatestVersion(const std::string& id) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  sync::EpochGuard guard(epochs_);
  const BlobRec* rec = FindRec(shard, id);
  const VersionNode* node =
      rec != nullptr ? rec->head.load(std::memory_order_acquire) : nullptr;
  while (node != nullptr && !node->published.load(std::memory_order_acquire)) {
    node = node->next;
  }
  if (node == nullptr) return Status::NotFound("no such blob: " + id);
  return node->version;
}

bool BlobStore::Exists(const std::string& id) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  sync::EpochGuard guard(epochs_);
  const BlobRec* rec = FindRec(shard, id);
  const VersionNode* node =
      rec != nullptr ? rec->head.load(std::memory_order_acquire) : nullptr;
  while (node != nullptr && !node->published.load(std::memory_order_acquire)) {
    node = node->next;
  }
  return node != nullptr;
}

Status BlobStore::Delete(const std::string& id) {
  Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  BlobRec* rec = FindRec(shard, id);
  VersionNode* head =
      rec != nullptr ? rec->head.load(std::memory_order_relaxed) : nullptr;
  if (head == nullptr) return Status::NotFound("no such blob: " + id);
  uint64_t bytes = 0;
  for (const VersionNode* node = head; node != nullptr; node = node->next) {
    bytes += node->data.size();
  }
  shard.total_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  shard.blob_count.fetch_sub(1, std::memory_order_relaxed);
  rec->head.store(nullptr, std::memory_order_release);
  // Readers may still be walking the chain: retire it whole.
  epochs_.Retire(head, &DeleteVersionChain);
  return Status::OK();
}

std::vector<std::string> BlobStore::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    sync::EpochGuard guard(epochs_);
    for (const std::atomic<BlobRec*>& bucket : shard.buckets) {
      for (const BlobRec* rec = bucket.load(std::memory_order_acquire);
           rec != nullptr; rec = rec->next) {
        if (rec->id.compare(0, prefix.size(), prefix) != 0) continue;
        const VersionNode* node = rec->head.load(std::memory_order_acquire);
        while (node != nullptr &&
               !node->published.load(std::memory_order_acquire)) {
          node = node->next;
        }
        if (node != nullptr) out.push_back(rec->id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t BlobStore::blob_count() const {
  size_t count = 0;
  for (const auto& shard_ptr : shards_) {
    count += shard_ptr->blob_count.load(std::memory_order_relaxed);
  }
  return count;
}

uint64_t BlobStore::total_bytes() const {
  uint64_t bytes = 0;
  for (const auto& shard_ptr : shards_) {
    bytes += shard_ptr->total_bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

uint64_t BlobStore::AuditTotalBytes() const {
  uint64_t bytes = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    sync::EpochGuard guard(epochs_);
    for (const std::atomic<BlobRec*>& bucket : shard.buckets) {
      for (const BlobRec* rec = bucket.load(std::memory_order_acquire);
           rec != nullptr; rec = rec->next) {
        for (const VersionNode* node =
                 rec->head.load(std::memory_order_acquire);
             node != nullptr; node = node->next) {
          bytes += node->data.size();
        }
      }
    }
  }
  return bytes;
}

Status BlobStore::MutateLatest(const std::string& id,
                               const std::function<void(Bytes&)>& mutator) {
  Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  BlobRec* rec = FindRec(shard, id);
  VersionNode* old =
      rec != nullptr ? rec->head.load(std::memory_order_relaxed) : nullptr;
  if (old == nullptr) return Status::NotFound("no such blob: " + id);
  // Version nodes are immutable to keep lock-free readers safe; tampering
  // therefore REPLACES the latest node with a mutated copy carrying the
  // same version and commit seq, and epoch-retires the original.
  Bytes mutated = old->data;
  mutator(mutated);
  const size_t before = old->data.size();
  const size_t after = mutated.size();
  VersionNode* fresh =
      new VersionNode(std::move(mutated), old->commit_seq, old->version,
                      old->next);
  fresh->published.store(true, std::memory_order_relaxed);
  rec->head.store(fresh, std::memory_order_release);
  shard.total_bytes.fetch_add(after, std::memory_order_relaxed);
  shard.total_bytes.fetch_sub(before, std::memory_order_relaxed);
  epochs_.RetireObject(old);
  return Status::OK();
}

uint64_t BlobStore::lock_contention() const {
  uint64_t total = 0;
  for (const auto& shard_ptr : shards_) {
    total += shard_ptr->contention.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace tc::cloud
