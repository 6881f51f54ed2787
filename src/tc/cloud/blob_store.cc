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

size_t BlobStore::ShardIndex(const std::string& id) const {
  return std::hash<std::string>{}(id) % shards_.size();
}

std::unique_lock<std::mutex> BlobStore::LockShard(const Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

uint64_t BlobStore::AppendVersionLocked(Shard& shard, const std::string& id,
                                        const Bytes& data, uint64_t seq) {
  std::vector<Version>& versions = shard.blobs[id];
  versions.push_back(Version{data, seq});
  shard.total_bytes += data.size();
  versions_created_.fetch_add(1, std::memory_order_relaxed);
  return versions.size();
}

uint64_t BlobStore::LatestVersionLocked(const std::string& id) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  auto it = shard.blobs.find(id);
  return it != shard.blobs.end() ? it->second.size() : 0;
}

uint64_t BlobStore::Put(const std::string& id, const Bytes& data) {
  Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  // Drawn under the stripe, like a commit's (see the class comment).
  const uint64_t seq = ++last_commit_seq_;
  return AppendVersionLocked(shard, id, data, seq);
}

SnapshotDescriptor BlobStore::Snapshot() const {
  SnapshotDescriptor snap;
  snap.base_seq = last_commit_seq_.load();
  return snap;
}

Result<SnapshotRead> BlobStore::GetAtSnapshot(
    const std::string& id, const SnapshotDescriptor& snap) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  auto it = shard.blobs.find(id);
  if (it != shard.blobs.end()) {
    const std::vector<Version>& versions = it->second;
    for (size_t i = versions.size(); i > 0; --i) {
      if (snap.Visible(versions[i - 1].commit_seq)) {
        SnapshotRead read;
        read.data = versions[i - 1].data;
        read.version = i;
        read.commit_seq = versions[i - 1].commit_seq;
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

  // Apply: one commit sequence for the whole write set, drawn after
  // validation (aborts and rejections draw none, so sequences stay dense)
  // and while every stripe of the commit is held — the one rule every
  // snapshot read depends on (see the class comment).
  const uint64_t seq = ++last_commit_seq_;
  out.versions.reserve(req.writes.size());
  for (const TxnWrite& w : req.writes) {
    Shard& shard = *shards_[ShardIndex(w.id)];
    out.versions.push_back(AppendVersionLocked(shard, w.id, w.data, seq));
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
  return out;
}

Result<Bytes> BlobStore::Get(const std::string& id) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  auto it = shard.blobs.find(id);
  if (it == shard.blobs.end()) return Status::NotFound("no such blob: " + id);
  return it->second.back().data;
}

Result<Bytes> BlobStore::GetVersion(const std::string& id,
                                    uint64_t version) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  auto it = shard.blobs.find(id);
  if (it == shard.blobs.end() || version == 0 ||
      version > it->second.size()) {
    return Status::NotFound("no such blob version");
  }
  return it->second[version - 1].data;
}

Result<uint64_t> BlobStore::LatestVersion(const std::string& id) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  auto it = shard.blobs.find(id);
  if (it == shard.blobs.end()) return Status::NotFound("no such blob: " + id);
  return static_cast<uint64_t>(it->second.size());
}

bool BlobStore::Exists(const std::string& id) const {
  const Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  return shard.blobs.count(id) != 0;
}

Status BlobStore::Delete(const std::string& id) {
  Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  auto it = shard.blobs.find(id);
  if (it == shard.blobs.end()) return Status::NotFound("no such blob: " + id);
  for (const Version& v : it->second) shard.total_bytes -= v.data.size();
  shard.blobs.erase(it);
  return Status::OK();
}

std::vector<std::string> BlobStore::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    auto lock = LockShard(shard);
    for (const auto& [id, versions] : shard.blobs) {
      if (id.compare(0, prefix.size(), prefix) == 0) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t BlobStore::blob_count() const {
  size_t count = 0;
  for (const auto& shard_ptr : shards_) {
    auto lock = LockShard(*shard_ptr);
    count += shard_ptr->blobs.size();
  }
  return count;
}

uint64_t BlobStore::total_bytes() const {
  uint64_t bytes = 0;
  for (const auto& shard_ptr : shards_) {
    auto lock = LockShard(*shard_ptr);
    bytes += shard_ptr->total_bytes;
  }
  return bytes;
}

uint64_t BlobStore::AuditTotalBytes() const {
  uint64_t bytes = 0;
  for (const auto& shard_ptr : shards_) {
    auto lock = LockShard(*shard_ptr);
    for (const auto& [id, versions] : shard_ptr->blobs) {
      for (const Version& v : versions) bytes += v.data.size();
    }
  }
  return bytes;
}

Status BlobStore::MutateLatest(const std::string& id,
                               const std::function<void(Bytes&)>& mutator) {
  Shard& shard = *shards_[ShardIndex(id)];
  auto lock = LockShard(shard);
  auto it = shard.blobs.find(id);
  if (it == shard.blobs.end()) return Status::NotFound("no such blob: " + id);
  Bytes& data = it->second.back().data;
  shard.total_bytes -= data.size();
  mutator(data);
  shard.total_bytes += data.size();
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
