#include "tc/storage/log_store.h"

#include <algorithm>
#include <utility>

#include "tc/obs/flight_recorder.h"
#include "tc/obs/trace.h"

namespace tc::storage {
namespace {

constexpr uint32_t kPageMagic = 0x54434c47;  // "TCLG".
constexpr size_t kPageHeaderReserve = 13;  // magic(4)+checksum(4)+count(<=5).

// FNV-1a over the page body. The AEAD transform already authenticates
// pages cryptographically; this catches torn writes on plaintext stores,
// where a prefix cut inside the last record's value would otherwise parse
// cleanly with erased-flash bytes spliced into the value.
uint32_t PageChecksum(const uint8_t* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}
constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordTombstone = 2;

}  // namespace

LogStore::Metrics::Metrics()
    : append_us(
          obs::MetricRegistry::Global().GetHistogram("storage.append_us")),
      get_us(obs::MetricRegistry::Global().GetHistogram("storage.get_us")),
      recover_us(
          obs::MetricRegistry::Global().GetHistogram("storage.recover_us")),
      gc_us(obs::MetricRegistry::Global().GetHistogram("storage.gc_us")),
      flash_page_reads(
          obs::MetricRegistry::Global().GetGauge("storage.flash_page_reads")),
      flash_page_programs(obs::MetricRegistry::Global().GetGauge(
          "storage.flash_page_programs")),
      flash_block_erases(obs::MetricRegistry::Global().GetGauge(
          "storage.flash_block_erases")),
      gc_runs(obs::MetricRegistry::Global().GetCounter("storage.gc_runs")) {}

void LogStore::UpdateFlashGauges() {
  FlashStats fs = device_->stats();
  metrics_.flash_page_reads.Set(static_cast<int64_t>(fs.page_reads));
  metrics_.flash_page_programs.Set(static_cast<int64_t>(fs.page_programs));
  metrics_.flash_block_erases.Set(static_cast<int64_t>(fs.block_erases));
}

LogStore::LogStore(FlashDevice* device, PageTransform* transform,
                   const LogStoreOptions& options)
    : device_(device),
      transform_(transform),
      options_(options),
      payload_size_(transform->UsablePayload(device->geometry().page_size)),
      block_used_(device->geometry().block_count, false),
      block_records_(device->geometry().block_count, 0),
      block_dead_(device->geometry().block_count, 0) {}

Result<std::unique_ptr<LogStore>> LogStore::Open(
    FlashDevice* device, PageTransform* transform,
    const LogStoreOptions& options) {
  if (transform->UsablePayload(device->geometry().page_size) < 64) {
    return Status::InvalidArgument("flash pages too small for the store");
  }
  std::unique_ptr<LogStore> store(new LogStore(device, transform, options));
  {
    obs::TraceSpan span("storage", "recover");
    obs::ScopedTimer timer(&store->metrics_.recover_us);
    Status recovered = store->Recover();
    if (!recovered.ok()) {
      // The store is about to be discarded: capture the evidence now (the
      // journal, if any, lives with the cell — the trace ring and metric
      // registry still tell the failure story).
      obs::FlightRecorder::Global().Trigger(
          recovered.IsDataLoss() ? "data_loss" : "recovery_failure",
          recovered.ToString());
      return recovered;
    }
  }
  if (store->stats().recovery_pages_skipped > 0) {
    obs::FlightRecorder::Global().Trigger(
        "recovery_skip", std::to_string(store->stats().recovery_pages_skipped) +
                             " pages skipped during recovery");
  }
  store->UpdateFlashGauges();
  return store;
}

uint64_t LogStore::PageBlock(uint64_t page_no) const {
  return page_no / device_->geometry().pages_per_block;
}

size_t LogStore::EntryRamCost(const std::string& key) const {
  // Key bytes + hash-table node + value record, approximated.
  return key.size() + 64;
}

Bytes LogStore::SerializeRecord(const Record& record) {
  BinaryWriter w;
  w.PutU8(record.tombstone ? kRecordTombstone : kRecordPut);
  w.PutU64(record.seq);
  w.PutString(record.key);
  if (!record.tombstone) w.PutBytes(record.value);
  return w.Take();
}

Status LogStore::ParseRecord(BinaryReader& r, Record* out) {
  TC_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type != kRecordPut && type != kRecordTombstone) {
    return Status::Corruption("bad record type");
  }
  out->tombstone = type == kRecordTombstone;
  TC_ASSIGN_OR_RETURN(out->seq, r.GetU64());
  TC_ASSIGN_OR_RETURN(out->key, r.GetString());
  if (!out->tombstone) {
    TC_ASSIGN_OR_RETURN(out->value, r.GetBytes());
  }
  return Status::OK();
}

size_t LogStore::MaxValueSize() const {
  // Leave room for the page header, record header and a generous key.
  return payload_size_ - kPageHeaderReserve - 128;
}

double LogStore::WriteAmplification() const {
  uint64_t user = stats_.user_bytes_appended;
  if (user == 0) return 0.0;
  return static_cast<double>(device_->stats().page_programs *
                             device_->geometry().page_size) /
         static_cast<double>(user);
}

std::optional<LogStore::IndexEntry> LogStore::IndexRecord(
    const std::string& key, const IndexEntry& entry) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (entry.seq < it->second.seq) return std::nullopt;
    return std::exchange(it->second, entry);
  }
  size_t cost = EntryRamCost(key);
  if (index_ram_bytes_ + cost > options_.ram_budget_bytes) {
    index_complete_ = false;
    ++stats_.index_insertions_dropped;
    return std::nullopt;
  }
  index_ram_bytes_ += cost;
  index_.emplace(key, entry);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Reads.

Result<std::vector<LogStore::Record>> LogStore::ReadPageRecords(
    uint64_t page_no) {
  TC_ASSIGN_OR_RETURN(Bytes raw, device_->ReadPage(page_no));
  uint64_t incarnation = device_->BlockWear(PageBlock(page_no));
  TC_ASSIGN_OR_RETURN(Bytes payload,
                      transform_->Decode(page_no, incarnation, raw));
  BinaryReader r(payload);
  TC_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kPageMagic) {
    return Status::Corruption("bad page magic");
  }
  TC_ASSIGN_OR_RETURN(uint32_t stored_sum, r.GetU32());
  if (stored_sum != PageChecksum(payload.data() + 8, payload.size() - 8)) {
    return Status::Corruption("page checksum mismatch (torn write?)");
  }
  TC_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  // Type byte, 8-byte sequence and a key length prefix per record.
  TC_RETURN_IF_ERROR(CheckCount(r, count, 10));
  std::vector<Record> records(count);
  for (Record& rec : records) TC_RETURN_IF_ERROR(ParseRecord(r, &rec));
  return records;
}

std::vector<LogStore::Record> LogStore::BufferedRecords() const {
  std::vector<Record> records(buffer_.size());
  for (size_t i = 0; i < buffer_.size(); ++i) {
    BinaryReader r(buffer_[i]);
    TC_CHECK(ParseRecord(r, &records[i]).ok());  // Serialized by Append.
  }
  return records;
}

Result<Bytes> LogStore::Get(const std::string& key) {
  obs::TraceSpan span(obs::kChildOnly, "storage", "get", key);
  obs::ScopedTimer timer(&metrics_.get_us);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (!index_complete_) return ScanForKeyLocked(key);
    return Status::NotFound("no such key: " + key);
  }
  ++stats_.index_hits;
  const IndexEntry& entry = it->second;
  if (entry.tombstone) return Status::NotFound("deleted: " + key);
  if (entry.page_no == kBufferedPage) {
    BinaryReader r(buffer_[entry.slot]);
    Record rec;
    TC_RETURN_IF_ERROR(ParseRecord(r, &rec));
    return std::move(rec.value);
  }
  TC_ASSIGN_OR_RETURN(std::vector<Record> records,
                      ReadPageRecords(entry.page_no));
  for (Record& rec : records) {
    if (rec.key == key && rec.seq == entry.seq) return std::move(rec.value);
  }
  return Status::Corruption("index points at a page without the record");
}

Status LogStore::ScanDurableLocked(const std::function<void(Record&)>& fn) {
  const FlashGeometry& geo = device_->geometry();
  // Every page this store programs lies in a block block_used_ marks, so
  // free blocks (nearly all of a fresh device) are skipped whole.
  for (size_t block = 0; block < geo.block_count; ++block) {
    if (!block_used_[block]) continue;
    for (size_t i = 0; i < geo.pages_per_block; ++i) {
      uint64_t page = block * geo.pages_per_block + i;
      if (!device_->IsPageProgrammed(page)) continue;
      if (torn_pages_.count(page) != 0) {
        ++stats_.scan_pages_skipped;
        continue;
      }
      TC_ASSIGN_OR_RETURN(std::vector<Record> records, ReadPageRecords(page));
      for (Record& rec : records) fn(rec);
    }
  }
  return Status::OK();
}

Result<Bytes> LogStore::ScanForKeyLocked(const std::string& key) {
  ++stats_.full_scans;
  uint64_t best_seq = 0;
  bool found = false, tombstone = false;
  Bytes value;
  auto consider = [&](Record& rec) {
    if (rec.key == key && rec.seq >= best_seq) {
      best_seq = rec.seq;
      found = true;
      tombstone = rec.tombstone;
      value = std::move(rec.value);
    }
  };
  TC_RETURN_IF_ERROR(ScanDurableLocked(consider));
  // Buffered records are newer than anything durable for the same key.
  for (Record& rec : BufferedRecords()) consider(rec);
  if (!found || tombstone) return Status::NotFound("no such key: " + key);
  return value;
}

Result<std::map<std::string, LogStore::Record>>
LogStore::LatestRecordsLocked() {
  std::map<std::string, Record> latest;
  TC_RETURN_IF_ERROR(ScanDurableLocked([&](Record& rec) {
    auto it = latest.find(rec.key);
    if (it == latest.end() || it->second.seq < rec.seq) {
      latest[rec.key] = std::move(rec);
    }
  }));
  for (Record& rec : BufferedRecords()) {
    auto it = latest.find(rec.key);
    if (it == latest.end() || it->second.seq <= rec.seq) {
      latest[rec.key] = std::move(rec);
    }
  }
  return latest;
}

Status LogStore::ScanAll(
    const std::function<void(const std::string&, const Bytes&)>& fn) {
  std::map<std::string, Record> latest;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TC_ASSIGN_OR_RETURN(latest, LatestRecordsLocked());
  }
  for (const auto& [key, rec] : latest) {
    if (!rec.tombstone) fn(key, rec.value);
  }
  return Status::OK();
}

Result<uint64_t> LogStore::CountLive() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t live = 0;
  if (index_complete_) {
    for (const auto& [key, entry] : index_) {
      if (!entry.tombstone) ++live;
    }
    return live;
  }
  TC_ASSIGN_OR_RETURN(auto latest, LatestRecordsLocked());
  for (const auto& [key, rec] : latest) {
    if (!rec.tombstone) ++live;
  }
  return live;
}

bool LogStore::index_complete() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_complete_;
}

size_t LogStore::index_ram_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_ram_bytes_;
}

// ---------------------------------------------------------------------------
// Writes.

Status LogStore::Append(const Record& record, bool count_as_user_write) {
  Bytes wire = SerializeRecord(record);
  if (wire.size() > payload_size_ - kPageHeaderReserve) {
    return Status::InvalidArgument("record larger than one flash page");
  }
  // Flush-before-append: a full page's worth of buffered records is
  // programmed before the new record lands, so program errors surface on
  // the write that overflowed the page.
  if (buffer_bytes_ + wire.size() > payload_size_ - kPageHeaderReserve) {
    TC_RETURN_IF_ERROR(FlushLocked());
  }
  if (count_as_user_write) {
    stats_.user_bytes_appended += wire.size();
    ++stats_.records_appended;
  }
  std::optional<IndexEntry> replaced =
      IndexRecord(record.key, IndexEntry{kBufferedPage, buffer_.size(),
                                         record.seq, record.tombstone});
  // Dead-count the durable version this record supersedes.
  if (replaced && replaced->page_no != kBufferedPage &&
      replaced->seq < record.seq) {
    ++block_dead_[PageBlock(replaced->page_no)];
  }
  buffer_bytes_ += wire.size();
  buffer_.push_back(std::move(wire));
  return Status::OK();
}

Status LogStore::Put(const std::string& key, const Bytes& value) {
  // Child-only: participates when a traced operation (cell API, fleet
  // task) is above us, costs two relaxed loads otherwise — the per-op
  // latency evidence stays in the append_us histogram.
  obs::TraceSpan span(obs::kChildOnly, "storage", "put", key);
  obs::ScopedTimer timer(&metrics_.append_us);
  if (key.empty()) return Status::InvalidArgument("empty key");
  std::lock_guard<std::mutex> lock(mu_);
  Status status = Append(Record{key, value, next_seq_++, false},
                         /*count_as_user_write=*/true);
  UpdateFlashGauges();
  return status;
}

Status LogStore::Delete(const std::string& key) {
  obs::ScopedTimer timer(&metrics_.append_us);
  if (key.empty()) return Status::InvalidArgument("empty key");
  std::lock_guard<std::mutex> lock(mu_);
  Status status = Append(Record{key, {}, next_seq_++, true},
                         /*count_as_user_write=*/true);
  UpdateFlashGauges();
  return status;
}

Status LogStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status LogStore::FlushLocked() {
  const FlashGeometry& geo = device_->geometry();
  while (!buffer_.empty()) {
    if (!has_active_block_ ||
        next_page_in_block_ >= geo.pages_per_block) {
      // GC inside AllocateBlock may flush the buffer itself; look again.
      TC_RETURN_IF_ERROR(AllocateBlock(!in_gc_).status());
      continue;
    }
    uint64_t page_no =
        active_block_ * geo.pages_per_block + next_page_in_block_;

    BinaryWriter body;
    body.PutVarint(buffer_.size());
    for (const Bytes& wire : buffer_) body.PutRaw(wire);
    Bytes body_bytes = body.Take();
    TC_CHECK(body_bytes.size() + 8 <= payload_size_);
    body_bytes.resize(payload_size_ - 8, 0);  // Checksum covers the padding.
    BinaryWriter w;
    w.PutU32(kPageMagic);
    w.PutU32(PageChecksum(body_bytes.data(), body_bytes.size()));
    w.PutRaw(body_bytes);
    Bytes payload = w.Take();
    TC_CHECK(payload.size() == payload_size_);

    uint64_t incarnation = device_->BlockWear(active_block_);
    TC_ASSIGN_OR_RETURN(Bytes encoded,
                        transform_->Encode(page_no, incarnation, payload));
    TC_RETURN_IF_ERROR(ProgramPageChecked(page_no, encoded));
    ++next_page_in_block_;
    block_records_[active_block_] += static_cast<uint32_t>(buffer_.size());

    // Re-point each record's index entry from the buffer to the page it
    // now lives on; records superseded while buffered dead-count against
    // this page.
    for (const Record& rec : BufferedRecords()) {
      auto it = index_.find(rec.key);
      if (it == index_.end()) continue;  // Dropped by the RAM budget.
      IndexEntry& entry = it->second;
      if (entry.seq > rec.seq) {
        ++block_dead_[active_block_];
      } else if (entry.seq == rec.seq && entry.page_no == kBufferedPage) {
        entry.page_no = page_no;
      }
    }
    buffer_.clear();
    buffer_bytes_ = 0;
  }
  UpdateFlashGauges();
  return Status::OK();
}

Status LogStore::ProgramPageChecked(uint64_t page_no, const Bytes& encoded) {
  Status programmed = device_->ProgramPage(page_no, encoded);
  if (programmed.ok() && options_.paranoid_program_verify &&
      !ReadPageRecords(page_no).ok()) {
    programmed = Status::IOError("program verify failed on page " +
                                 std::to_string(page_no));
  }
  if (!programmed.ok()) {
    // The page may hold a torn or wrong image and NAND cannot reprogram
    // it: abandon it permanently so a retry of the (still buffered)
    // records lands on the next page.
    ++next_page_in_block_;
    ++stats_.pages_abandoned;
    if (device_->IsPageProgrammed(page_no)) torn_pages_.insert(page_no);
    return programmed;
  }
  return Status::OK();
}

void LogStore::ForgetTornPagesInBlock(size_t block) {
  if (torn_pages_.empty()) return;
  uint64_t first = block * device_->geometry().pages_per_block;
  uint64_t last = first + device_->geometry().pages_per_block;
  torn_pages_.erase(torn_pages_.lower_bound(first),
                    torn_pages_.lower_bound(last));
}

Result<size_t> LogStore::AllocateBlock(bool allow_gc) {
  if (allow_gc && free_blocks_.size() <= options_.gc_free_block_threshold) {
    if (!in_gc_) {
      in_gc_ = true;
      obs::TraceSpan span("storage", "gc");
      obs::Stopwatch stopwatch;
      Status status = RunGcLocked();
      metrics_.gc_us.Record(stopwatch.ElapsedUs());
      in_gc_ = false;
      TC_RETURN_IF_ERROR(status);
    }
    // GC may have flushed the buffer itself and left a usable active
    // block; consuming another one here would waste a block per GC cycle.
    if (has_active_block_ &&
        next_page_in_block_ < device_->geometry().pages_per_block) {
      return active_block_;
    }
  }
  if (free_blocks_.empty()) {
    return Status::ResourceExhausted("flash device out of free blocks");
  }
  size_t block = free_blocks_.back();
  free_blocks_.pop_back();
  block_used_[block] = true;
  block_records_[block] = 0;
  block_dead_[block] = 0;
  active_block_ = block;
  next_page_in_block_ = 0;
  has_active_block_ = true;
  return block;
}

Status LogStore::RunGcLocked() {
  const FlashGeometry& geo = device_->geometry();
  // Keep reclaiming until the free pool is comfortably above the trigger
  // threshold or no block offers provably dead records. The iteration cap
  // bounds pathological ping-pong when every victim is nearly all-live.
  for (size_t iter = 0; iter < geo.block_count; ++iter) {
    if (free_blocks_.size() > options_.gc_free_block_threshold) break;

    // Victim: used, non-active block with the most provably dead records.
    size_t victim = 0;
    uint32_t best_dead = 0;
    bool have_victim = false;
    for (size_t block = 0; block < block_used_.size(); ++block) {
      if (!block_used_[block]) continue;
      if (has_active_block_ && block == active_block_) continue;
      if (block_dead_[block] > best_dead) {
        best_dead = block_dead_[block];
        victim = block;
        have_victim = true;
      }
    }
    if (!have_victim) break;  // Nothing reclaimable; caller may still fail.

    std::vector<Record> survivors;
    for (size_t i = 0; i < geo.pages_per_block; ++i) {
      uint64_t page_no = victim * geo.pages_per_block + i;
      if (!device_->IsPageProgrammed(page_no)) continue;
      if (torn_pages_.count(page_no) != 0) {
        ++stats_.scan_pages_skipped;
        continue;
      }
      TC_ASSIGN_OR_RETURN(std::vector<Record> records,
                          ReadPageRecords(page_no));
      for (Record& rec : records) {
        auto it = index_.find(rec.key);
        // Drop only when the superseding version is itself durable. An
        // index entry still pointing at the RAM buffer is volatile: if the
        // erase below succeeds but a crash hits before the buffer flushes,
        // an acknowledged write would be destroyed with its replacement
        // lost — the old record must survive until then.
        if (it != index_.end() && it->second.seq > rec.seq &&
            it->second.page_no != kBufferedPage) {
          continue;  // Provably superseded by durable data: drop.
        }
        // Latest version (or unknown because the index is partial): keep.
        // Tombstones are kept too — recovery needs them to shadow older
        // versions that may live in other blocks.
        survivors.push_back(std::move(rec));
      }
    }
    if (!survivors.empty()) {
      for (const Record& rec : survivors) {
        ++stats_.gc_records_moved;
        TC_RETURN_IF_ERROR(Append(rec, /*count_as_user_write=*/false));
      }
      // Make the relocated records durable before destroying their old
      // home. (A fully-dead victim skips this, so reclaiming it needs no
      // free block — that breaks the free==0 deadlock.)
      TC_RETURN_IF_ERROR(FlushLocked());
    }
    TC_RETURN_IF_ERROR(device_->EraseBlock(victim));
    ForgetTornPagesInBlock(victim);
    block_used_[victim] = false;
    block_records_[victim] = 0;
    block_dead_[victim] = 0;
    free_blocks_.push_back(victim);
    ++stats_.gc_runs;
    metrics_.gc_runs.Increment();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery / compaction.

Status LogStore::Recover() {
  const FlashGeometry& geo = device_->geometry();
  uint64_t max_seq = 0;
  // Per-block record (key, seq) pairs for dead counting after the index is
  // rebuilt.
  std::vector<std::vector<std::pair<std::string, uint64_t>>> block_entries(
      geo.block_count);

  for (size_t block = 0; block < geo.block_count; ++block) {
    for (size_t i = 0; i < geo.pages_per_block; ++i) {
      uint64_t page_no = block * geo.pages_per_block + i;
      if (!device_->IsPageProgrammed(page_no)) continue;
      block_used_[block] = true;
      auto records_or = ReadPageRecords(page_no);
      if (!records_or.ok()) {
        // A power loss tears at most the page that was being programmed;
        // tolerate up to the configured number of undecodable pages, but
        // refuse wholesale undecodability (wrong key, gross tampering).
        if (stats_.recovery_pages_skipped >= options_.max_recovery_skips) {
          if (options_.max_recovery_skips == 0) return records_or.status();
          return Status::DataLoss(
              "recovery aborted: more than " +
              std::to_string(options_.max_recovery_skips) +
              " undecodable pages (page " + std::to_string(page_no) +
              ": " + records_or.status().ToString() + ")");
        }
        ++stats_.recovery_pages_skipped;
        torn_pages_.insert(page_no);
        continue;
      }
      std::vector<Record> records = std::move(*records_or);
      block_records_[block] += records.size();
      for (Record& rec : records) {
        max_seq = std::max(max_seq, rec.seq);
        block_entries[block].emplace_back(rec.key, rec.seq);
        IndexRecord(rec.key, IndexEntry{page_no, 0, rec.seq, rec.tombstone});
      }
    }
  }
  next_seq_ = max_seq + 1;

  // Blocks whose only programmed pages are torn hold nothing recoverable;
  // reclaim them now so a crash cannot leak blocks.
  if (!torn_pages_.empty()) {
    for (size_t block = 0; block < geo.block_count; ++block) {
      if (!block_used_[block] || block_records_[block] != 0) continue;
      TC_RETURN_IF_ERROR(device_->EraseBlock(block));
      ForgetTornPagesInBlock(block);
      block_used_[block] = false;
      block_dead_[block] = 0;
    }
  }

  if (index_complete_) {
    for (size_t block = 0; block < geo.block_count; ++block) {
      for (const auto& [key, seq] : block_entries[block]) {
        auto it = index_.find(key);
        if (it != index_.end() && it->second.seq != seq) ++block_dead_[block];
      }
    }
  }

  for (size_t block = 0; block < geo.block_count; ++block) {
    if (!block_used_[block]) free_blocks_.push_back(block);
  }
  has_active_block_ = false;
  return Status::OK();
}

Status LogStore::CompactAll() {
  std::lock_guard<std::mutex> lock(mu_);
  TC_ASSIGN_OR_RETURN(auto latest, LatestRecordsLocked());
  const FlashGeometry& geo = device_->geometry();
  for (size_t block = 0; block < geo.block_count; ++block) {
    if (block_used_[block]) {
      TC_RETURN_IF_ERROR(device_->EraseBlock(block));
      ForgetTornPagesInBlock(block);
      block_used_[block] = false;
      block_records_[block] = 0;
      block_dead_[block] = 0;
    }
  }
  free_blocks_.clear();
  for (size_t block = 0; block < geo.block_count; ++block) {
    free_blocks_.push_back(block);
  }
  index_.clear();
  index_ram_bytes_ = 0;
  index_complete_ = true;
  buffer_.clear();  // Part of `latest` now.
  buffer_bytes_ = 0;
  has_active_block_ = false;

  for (auto& [key, rec] : latest) {
    if (rec.tombstone) continue;
    rec.seq = next_seq_++;
    TC_RETURN_IF_ERROR(Append(rec, /*count_as_user_write=*/false));
  }
  return FlushLocked();
}

}  // namespace tc::storage
