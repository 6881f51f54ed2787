#include "tc/storage/log_store.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

#include "tc/common/codec.h"
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

LogStore::LiveIndex::~LiveIndex() {
  for (std::atomic<KeyNode*>& bucket : buckets) {
    KeyNode* node = bucket.load(std::memory_order_relaxed);
    while (node != nullptr) {
      KeyNode* next = node->next;
      delete node->val.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }
}

LogStore::LogStore(FlashDevice* device, PageTransform* transform,
                   const LogStoreOptions& options)
    : device_(device),
      transform_(transform),
      options_(options),
      payload_size_(transform->UsablePayload(device->geometry().page_size)),
      buffer_(&epochs_,
              static_cast<uint32_t>(
                  std::max<size_t>(4 * device->geometry().page_size, 4096))),
      index_(nullptr),
      block_used_(device->geometry().block_count, false),
      block_records_(device->geometry().block_count, 0),
      block_dead_(device->geometry().block_count) {
  // Bucket count scales with how many keys the RAM budget can hold; the
  // array itself is bookkeeping, not charged against the budget (same as
  // the hash-table overhead approximation in EntryRamCost).
  size_t nbuckets = options_.ram_budget_bytes / 128;
  nbuckets = std::min<size_t>(std::max<size_t>(nbuckets, 64), 1u << 20);
  index_.store(new LiveIndex(nbuckets), std::memory_order_release);
}

LogStore::~LogStore() {
  delete index_.exchange(nullptr, std::memory_order_acq_rel);
}

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

Status LogStore::ParseRecord(const uint8_t* data, size_t size, Record* out) {
  Bytes wire(data, data + size);
  BinaryReader r(wire);
  TC_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type != kRecordPut && type != kRecordTombstone) {
    return Status::Corruption("bad record type");
  }
  out->tombstone = type == kRecordTombstone;
  TC_ASSIGN_OR_RETURN(out->seq, r.GetU64());
  TC_ASSIGN_OR_RETURN(out->key, r.GetString());
  if (!out->tombstone) {
    TC_ASSIGN_OR_RETURN(out->value, r.GetBytes());
  } else {
    out->value.clear();
  }
  return Status::OK();
}

size_t LogStore::MaxValueSize() const {
  // Leave room for the page header, record header and a generous key.
  return payload_size_ - kPageHeaderReserve - 128;
}

double LogStore::WriteAmplification() const {
  uint64_t user = stats_.user_bytes_appended.load(std::memory_order_relaxed);
  if (user == 0) return 0.0;
  return static_cast<double>(device_->stats().page_programs *
                             device_->geometry().page_size) /
         static_cast<double>(user);
}

// ---------------------------------------------------------------------------
// Lock-free index.

LogStore::KeyNode* LogStore::FindNode(LiveIndex* idx,
                                      const std::string& key) const {
  size_t bucket = std::hash<std::string>{}(key) % idx->buckets.size();
  KeyNode* node = idx->buckets[bucket].load(std::memory_order_acquire);
  while (node != nullptr) {
    if (node->key == key) return node;
    node = node->next;
  }
  return nullptr;
}

LogStore::KeyNode* LogStore::FindOrInsertNode(LiveIndex* idx,
                                              const std::string& key) {
  size_t bucket = std::hash<std::string>{}(key) % idx->buckets.size();
  std::atomic<KeyNode*>& head = idx->buckets[bucket];
  KeyNode* first = head.load(std::memory_order_acquire);
  for (KeyNode* n = first; n != nullptr; n = n->next) {
    if (n->key == key) return n;
  }
  // New key: charge the RAM budget before it becomes reachable.
  size_t cost = EntryRamCost(key);
  if (idx->ram_bytes.fetch_add(cost, std::memory_order_acq_rel) + cost >
      options_.ram_budget_bytes) {
    idx->ram_bytes.fetch_sub(cost, std::memory_order_acq_rel);
    idx->complete.store(false, std::memory_order_release);
    stats_.index_insertions_dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  KeyNode* node = new KeyNode();
  node->key = key;
  for (;;) {
    node->next = first;
    if (head.compare_exchange_strong(first, node,
                                     std::memory_order_acq_rel)) {
      return node;
    }
    // Lost the race: someone prepended. Check whether it was our key.
    for (KeyNode* n = first; n != nullptr && n != node->next; n = n->next) {
      if (n->key == key) {
        idx->ram_bytes.fetch_sub(cost, std::memory_order_acq_rel);
        delete node;
        return n;
      }
    }
  }
}

bool LogStore::InstallValRec(KeyNode* node, ValRec* fresh,
                             uint64_t* old_flash_page, uint64_t* old_seq) {
  for (;;) {
    ValRec* cur = node->val.load(std::memory_order_acquire);
    if (cur != nullptr && cur->seq > fresh->seq) {
      // Dead on arrival: a newer version is already indexed. The record
      // stays in the log; the flusher dead-counts it when it lands.
      delete fresh;
      return false;
    }
    *old_flash_page = cur != nullptr ? cur->flash_page : kBufferedPage;
    *old_seq = cur != nullptr ? cur->seq : 0;
    ValRec* expected = cur;
    if (node->val.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel)) {
      if (cur != nullptr) epochs_.RetireObject(cur);
      return true;
    }
  }
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
  std::vector<Record> records;
  records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Record rec;
    TC_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    if (type != kRecordPut && type != kRecordTombstone) {
      return Status::Corruption("bad record type");
    }
    rec.tombstone = type == kRecordTombstone;
    TC_ASSIGN_OR_RETURN(rec.seq, r.GetU64());
    TC_ASSIGN_OR_RETURN(rec.key, r.GetString());
    if (!rec.tombstone) {
      TC_ASSIGN_OR_RETURN(rec.value, r.GetBytes());
    }
    records.push_back(std::move(rec));
  }
  return records;
}

Result<Bytes> LogStore::Get(const std::string& key) {
  obs::TraceSpan span(obs::kChildOnly, "storage", "get", key);
  obs::ScopedTimer timer(&metrics_.get_us);

  sync::EpochGuard guard(epochs_);
  LiveIndex* idx = index_.load(std::memory_order_acquire);
  KeyNode* node = FindNode(idx, key);
  if (node == nullptr) {
    if (!idx->complete.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> io(io_mu_);
      return ScanForKeyLocked(key);
    }
    return Status::NotFound("no such key: " + key);
  }
  stats_.index_hits.fetch_add(1, std::memory_order_relaxed);

  for (int attempt = 0;; ++attempt) {
    ValRec* val = node->val.load(std::memory_order_acquire);
    if (val == nullptr) return Status::NotFound("no such key: " + key);
    if (val->tombstone) return Status::NotFound("deleted: " + key);
    if (val->flash_page == kBufferedPage) {
      // Straight out of the lock-free append log: the entry is sealed
      // (immutable) and the epoch guard keeps its page alive.
      Record rec;
      TC_RETURN_IF_ERROR(ParseRecord(val->buf_data, val->buf_size, &rec));
      return rec.value;
    }
    // Durable: optimistic page read. GC can move the record and erase the
    // old block under us — it re-points the index BEFORE erasing, so a
    // failed or empty read with an unchanged index entry is never "GC won
    // the race"; retry via the io lock to be sure, then call it an error.
    auto records_or = ReadPageRecords(val->flash_page);
    if (records_or.ok()) {
      for (const Record& rec : *records_or) {
        if (rec.key == key && rec.seq == val->seq) return rec.value;
      }
    }
    if (node->val.load(std::memory_order_acquire) != val) continue;  // Moved.
    if (attempt < 2) {
      std::this_thread::yield();
      continue;
    }
    // Serialize against GC and decide for real.
    std::lock_guard<std::mutex> io(io_mu_);
    if (node->val.load(std::memory_order_acquire) != val) continue;
    TC_ASSIGN_OR_RETURN(std::vector<Record> records,
                        ReadPageRecords(val->flash_page));
    for (const Record& rec : records) {
      if (rec.key == key && rec.seq == val->seq) return rec.value;
    }
    return Status::Corruption("index points at a page without the record");
  }
}

std::vector<LogStore::Record> LogStore::CollectBufferedLocked() {
  std::vector<Record> records;
  AppendLog::Cursor cur = buffer_.ConsumeBegin();
  AppendLog::Entry e;
  while (buffer_.Peek(&cur, &e)) {
    Record rec;
    if (ParseRecord(e.payload, e.size, &rec).ok()) {
      records.push_back(std::move(rec));
    }
    buffer_.Advance(&cur);
  }
  return records;
}

Result<Bytes> LogStore::ScanForKeyLocked(const std::string& key) {
  stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
  const FlashGeometry& geo = device_->geometry();
  uint64_t best_seq = 0;
  bool found = false, tombstone = false;
  Bytes value;
  for (size_t page = 0; page < geo.total_pages(); ++page) {
    if (!device_->IsPageProgrammed(page)) continue;
    if (torn_pages_.count(page) != 0) {
      stats_.scan_pages_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    TC_ASSIGN_OR_RETURN(std::vector<Record> records, ReadPageRecords(page));
    for (Record& rec : records) {
      if (rec.key == key && rec.seq >= best_seq) {
        best_seq = rec.seq;
        found = true;
        tombstone = rec.tombstone;
        value = std::move(rec.value);
      }
    }
  }
  // Buffered records are newer than anything durable for the same key.
  for (Record& rec : CollectBufferedLocked()) {
    if (rec.key == key && rec.seq >= best_seq) {
      best_seq = rec.seq;
      found = true;
      tombstone = rec.tombstone;
      value = std::move(rec.value);
    }
  }
  if (!found || tombstone) return Status::NotFound("no such key: " + key);
  return value;
}

Status LogStore::ScanAllLocked(
    const std::function<void(const std::string&, const Bytes&)>& fn) {
  const FlashGeometry& geo = device_->geometry();
  std::map<std::string, Record> latest;
  for (size_t page = 0; page < geo.total_pages(); ++page) {
    if (!device_->IsPageProgrammed(page)) continue;
    if (torn_pages_.count(page) != 0) {
      stats_.scan_pages_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    TC_ASSIGN_OR_RETURN(std::vector<Record> records, ReadPageRecords(page));
    for (Record& rec : records) {
      auto it = latest.find(rec.key);
      if (it == latest.end() || it->second.seq < rec.seq) {
        latest[rec.key] = std::move(rec);
      }
    }
  }
  for (Record& rec : CollectBufferedLocked()) {
    auto it = latest.find(rec.key);
    if (it == latest.end() || it->second.seq <= rec.seq) {
      latest[rec.key] = std::move(rec);
    }
  }
  for (const auto& [key, rec] : latest) {
    if (!rec.tombstone) fn(key, rec.value);
  }
  return Status::OK();
}

Status LogStore::ScanAll(
    const std::function<void(const std::string&, const Bytes&)>& fn) {
  std::lock_guard<std::mutex> io(io_mu_);
  return ScanAllLocked(fn);
}

Result<uint64_t> LogStore::CountLive() {
  sync::EpochGuard guard(epochs_);
  LiveIndex* idx = index_.load(std::memory_order_acquire);
  if (idx->complete.load(std::memory_order_acquire)) {
    uint64_t live = 0;
    for (std::atomic<KeyNode*>& bucket : idx->buckets) {
      for (KeyNode* n = bucket.load(std::memory_order_acquire); n != nullptr;
           n = n->next) {
        ValRec* val = n->val.load(std::memory_order_acquire);
        if (val != nullptr && !val->tombstone) ++live;
      }
    }
    return live;
  }
  uint64_t live = 0;
  TC_RETURN_IF_ERROR(
      ScanAll([&](const std::string&, const Bytes&) { ++live; }));
  return live;
}

bool LogStore::index_complete() const {
  sync::EpochGuard guard(epochs_);
  return index_.load(std::memory_order_acquire)
      ->complete.load(std::memory_order_acquire);
}

size_t LogStore::index_ram_bytes() const {
  sync::EpochGuard guard(epochs_);
  return index_.load(std::memory_order_acquire)
      ->ram_bytes.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Writes.

Status LogStore::Append(Record record, bool count_as_user_write,
                        bool io_locked) {
  Bytes wire = SerializeRecord(record);
  if (wire.size() > payload_size_ - kPageHeaderReserve) {
    return Status::InvalidArgument("record larger than one flash page");
  }
  // Flush-before-append, as the single-threaded store did: a full page's
  // worth of buffered records is programmed before the new record lands,
  // so program errors surface on the write that overflowed the page.
  if (buffer_.unconsumed_bytes() + wire.size() >
      payload_size_ - kPageHeaderReserve) {
    if (io_locked) {
      TC_RETURN_IF_ERROR(FlushLocked());
    } else {
      std::lock_guard<std::mutex> io(io_mu_);
      TC_RETURN_IF_ERROR(FlushLocked());
    }
  }
  if (count_as_user_write) {
    stats_.user_bytes_appended.fetch_add(wire.size(),
                                         std::memory_order_relaxed);
    stats_.records_appended.fetch_add(1, std::memory_order_relaxed);
  }

  // The epoch pin must cover the buffer append itself, not just the index
  // install: the tail-page pointer this thread follows may belong to a
  // page the flusher concurrently drains and retires, and only the pin
  // keeps reclamation from freeing it mid-append.
  sync::EpochGuard guard(epochs_);

  // Two-phase append: the entry stays unsealed — invisible to the flusher,
  // which blocks at it — until its index entry is installed. Sealing first
  // would open a window where the flusher programs the record, re-points
  // an index entry that does not exist yet (a no-op), and retires the
  // buffer page; our install would then publish a ValRec aimed at freed
  // memory and shadow the durable copy forever.
  AppendLog::Entry entry = buffer_.BeginAppend(
      wire.data(), static_cast<uint32_t>(wire.size()));

  LiveIndex* idx = index_.load(std::memory_order_acquire);
  KeyNode* node = FindOrInsertNode(idx, record.key);
  if (node != nullptr) {
    ValRec* fresh = new ValRec{entry.payload, entry.size, kBufferedPage,
                               record.seq, record.tombstone};
    uint64_t old_page = kBufferedPage;
    uint64_t old_seq = 0;
    if (InstallValRec(node, fresh, &old_page, &old_seq) &&
        old_page != kBufferedPage && old_seq < record.seq) {
      // Dead-count the durable version this record supersedes.
      block_dead_[PageBlock(old_page)].fetch_add(1,
                                                 std::memory_order_relaxed);
    }
  }
  buffer_.Seal(entry);
  return Status::OK();
}

Status LogStore::Put(const std::string& key, const Bytes& value) {
  // Child-only: participates when a traced operation (cell API, fleet
  // task) is above us, costs two relaxed loads otherwise — the per-op
  // latency evidence stays in the append_us histogram.
  obs::TraceSpan span(obs::kChildOnly, "storage", "put", key);
  obs::ScopedTimer timer(&metrics_.append_us);
  if (key.empty()) return Status::InvalidArgument("empty key");
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Status status = Append(Record{key, value, seq, false},
                         /*count_as_user_write=*/true, /*io_locked=*/false);
  UpdateFlashGauges();
  return status;
}

Status LogStore::Delete(const std::string& key) {
  obs::ScopedTimer timer(&metrics_.append_us);
  if (key.empty()) return Status::InvalidArgument("empty key");
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Status status = Append(Record{key, {}, seq, true},
                         /*count_as_user_write=*/true, /*io_locked=*/false);
  UpdateFlashGauges();
  return status;
}

Status LogStore::Flush() {
  std::lock_guard<std::mutex> io(io_mu_);
  return FlushLocked();
}

Status LogStore::FlushLocked() {
  const FlashGeometry& geo = device_->geometry();
  for (;;) {
    // Gather up to one page's worth of sealed entries from the consume
    // cursor. (Entries appended concurrently after the gather just wait
    // for the next round or the next flush.)
    AppendLog::Cursor scan = buffer_.ConsumeBegin();
    AppendLog::Cursor group_end = scan;
    std::vector<AppendLog::Entry> group;
    size_t group_bytes = 0;
    AppendLog::Entry e;
    while (buffer_.Peek(&scan, &e)) {
      if (group_bytes + e.size > payload_size_ - kPageHeaderReserve) break;
      group.push_back(e);
      group_bytes += e.size;
      buffer_.Advance(&scan);
      group_end = scan;
    }
    if (group.empty()) break;

    if (!has_active_block_ ||
        next_page_in_block_ >= geo.pages_per_block) {
      TC_RETURN_IF_ERROR(AllocateBlock(!in_gc_).status());
      // GC inside AllocateBlock may have flushed (consumed) the gathered
      // records itself; re-gather from the advanced cursor.
      continue;
    }
    uint64_t page_no =
        active_block_ * geo.pages_per_block + next_page_in_block_;

    BinaryWriter body;
    body.PutVarint(group.size());
    for (const AppendLog::Entry& entry : group) {
      body.PutRaw(Bytes(entry.payload, entry.payload + entry.size));
    }
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
    // On failure the consume cursor has NOT advanced: the records stay
    // buffered and a later flush retries them on the next page.
    TC_RETURN_IF_ERROR(ProgramPageChecked(page_no, encoded));
    ++next_page_in_block_;
    block_records_[active_block_] +=
        static_cast<uint32_t>(group.size());

    // Re-point each record's index entry from the RAM buffer to the page
    // it now lives on; records superseded while buffered dead-count
    // against this page.
    {
      sync::EpochGuard guard(epochs_);
      LiveIndex* idx = index_.load(std::memory_order_acquire);
      for (const AppendLog::Entry& entry : group) {
        Record rec;
        if (!ParseRecord(entry.payload, entry.size, &rec).ok()) continue;
        KeyNode* node = FindNode(idx, rec.key);
        if (node == nullptr) continue;  // Dropped by the RAM budget.
        for (;;) {
          ValRec* cur = node->val.load(std::memory_order_acquire);
          if (cur == nullptr) break;
          if (cur->seq > rec.seq) {
            block_dead_[PageBlock(page_no)].fetch_add(
                1, std::memory_order_relaxed);
            break;
          }
          if (cur->seq == rec.seq && cur->flash_page == kBufferedPage) {
            ValRec* fresh = new ValRec{nullptr, 0, page_no, rec.seq,
                                       rec.tombstone};
            ValRec* expected = cur;
            if (node->val.compare_exchange_strong(
                    expected, fresh, std::memory_order_acq_rel)) {
              epochs_.RetireObject(cur);
              break;
            }
            delete fresh;  // Raced with a newer writer; re-read.
            continue;
          }
          break;  // Already durable (GC duplicate) — nothing to re-point.
        }
      }
    }
    // Everything in the group is durable and re-pointed: consume it and
    // retire fully-drained buffer pages through the epoch manager.
    buffer_.RetireConsumed(group_end);
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
    stats_.pages_abandoned.fetch_add(1, std::memory_order_relaxed);
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
  block_dead_[block].store(0, std::memory_order_relaxed);
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
      uint32_t dead = block_dead_[block].load(std::memory_order_relaxed);
      if (dead > best_dead) {
        best_dead = dead;
        victim = block;
        have_victim = true;
      }
    }
    if (!have_victim) break;  // Nothing reclaimable; caller may still fail.

    std::vector<Record> survivors;
    {
      sync::EpochGuard guard(epochs_);
      LiveIndex* idx = index_.load(std::memory_order_acquire);
      for (size_t i = 0; i < geo.pages_per_block; ++i) {
        uint64_t page_no = victim * geo.pages_per_block + i;
        if (!device_->IsPageProgrammed(page_no)) continue;
        if (torn_pages_.count(page_no) != 0) {
          stats_.scan_pages_skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        TC_ASSIGN_OR_RETURN(std::vector<Record> records,
                            ReadPageRecords(page_no));
        for (Record& rec : records) {
          KeyNode* node = FindNode(idx, rec.key);
          ValRec* val =
              node != nullptr ? node->val.load(std::memory_order_acquire)
                              : nullptr;
          // Drop only when the superseding version is itself durable. An
          // index entry still pointing at the RAM buffer is volatile: if
          // the erase below succeeds but a crash hits before the buffer
          // flushes, an acknowledged write would be destroyed with its
          // replacement lost — the old record must survive until then.
          if (val != nullptr && val->seq > rec.seq &&
              val->flash_page != kBufferedPage) {
            continue;  // Provably superseded by durable data: drop.
          }
          // Latest version (or unknown because the index is partial):
          // keep. Tombstones are kept too — recovery needs them to shadow
          // older versions that may live in other blocks.
          survivors.push_back(std::move(rec));
        }
      }
    }
    if (!survivors.empty()) {
      for (Record& rec : survivors) {
        stats_.gc_records_moved.fetch_add(1, std::memory_order_relaxed);
        TC_RETURN_IF_ERROR(Append(std::move(rec),
                                  /*count_as_user_write=*/false,
                                  /*io_locked=*/true));
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
    block_dead_[victim].store(0, std::memory_order_relaxed);
    free_blocks_.push_back(victim);
    stats_.gc_runs.fetch_add(1, std::memory_order_relaxed);
    metrics_.gc_runs.Increment();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery / compaction / debug.

Status LogStore::Recover() {
  const FlashGeometry& geo = device_->geometry();
  uint64_t max_seq = 0;
  // Per-block record (key, seq) pairs for dead counting after the index is
  // rebuilt. Recovery runs single-threaded (inside Open, before the store
  // is visible to any other thread), so the lock-free structures are used
  // uncontended here.
  std::vector<std::vector<std::pair<std::string, uint64_t>>> block_entries(
      geo.block_count);
  LiveIndex* idx = index_.load(std::memory_order_acquire);

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
        if (stats_.recovery_pages_skipped.load(std::memory_order_relaxed) >=
            options_.max_recovery_skips) {
          if (options_.max_recovery_skips == 0) return records_or.status();
          return Status::DataLoss(
              "recovery aborted: more than " +
              std::to_string(options_.max_recovery_skips) +
              " undecodable pages (page " + std::to_string(page_no) +
              ": " + records_or.status().ToString() + ")");
        }
        stats_.recovery_pages_skipped.fetch_add(1, std::memory_order_relaxed);
        torn_pages_.insert(page_no);
        continue;
      }
      std::vector<Record> records = std::move(*records_or);
      block_records_[block] += records.size();
      for (Record& rec : records) {
        max_seq = std::max(max_seq, rec.seq);
        block_entries[block].emplace_back(rec.key, rec.seq);
        KeyNode* node = FindOrInsertNode(idx, rec.key);
        if (node != nullptr) {
          ValRec* fresh =
              new ValRec{nullptr, 0, page_no, rec.seq, rec.tombstone};
          uint64_t old_page, old_seq;
          InstallValRec(node, fresh, &old_page, &old_seq);
        }
      }
    }
  }
  next_seq_.store(max_seq + 1, std::memory_order_release);

  // Blocks whose only programmed pages are torn hold nothing recoverable;
  // reclaim them now so a crash cannot leak blocks.
  if (!torn_pages_.empty()) {
    for (size_t block = 0; block < geo.block_count; ++block) {
      if (!block_used_[block] || block_records_[block] != 0) continue;
      TC_RETURN_IF_ERROR(device_->EraseBlock(block));
      ForgetTornPagesInBlock(block);
      block_used_[block] = false;
      block_dead_[block].store(0, std::memory_order_relaxed);
    }
  }

  if (idx->complete.load(std::memory_order_relaxed)) {
    for (size_t block = 0; block < geo.block_count; ++block) {
      for (const auto& [key, seq] : block_entries[block]) {
        KeyNode* node = FindNode(idx, key);
        ValRec* val =
            node != nullptr ? node->val.load(std::memory_order_relaxed)
                            : nullptr;
        if (val != nullptr && val->seq != seq) {
          block_dead_[block].fetch_add(1, std::memory_order_relaxed);
        }
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
  std::lock_guard<std::mutex> io(io_mu_);
  std::vector<std::pair<std::string, Bytes>> live;
  TC_RETURN_IF_ERROR(
      ScanAllLocked([&](const std::string& key, const Bytes& value) {
        live.emplace_back(key, value);
      }));
  // Drain (discard) whatever is still buffered — it is part of `live` now.
  {
    AppendLog::Cursor cur = buffer_.ConsumeBegin();
    AppendLog::Entry e;
    while (buffer_.Peek(&cur, &e)) buffer_.Advance(&cur);
    buffer_.RetireConsumed(cur);
  }
  const FlashGeometry& geo = device_->geometry();
  for (size_t block = 0; block < geo.block_count; ++block) {
    if (block_used_[block]) {
      TC_RETURN_IF_ERROR(device_->EraseBlock(block));
      ForgetTornPagesInBlock(block);
      block_used_[block] = false;
      block_records_[block] = 0;
      block_dead_[block].store(0, std::memory_order_relaxed);
    }
  }
  free_blocks_.clear();
  for (size_t block = 0; block < geo.block_count; ++block) {
    free_blocks_.push_back(block);
  }
  // Swap in a fresh index generation; readers still inside the old one
  // hold epoch guards, so it is retired, not deleted.
  LiveIndex* fresh =
      new LiveIndex(index_.load(std::memory_order_acquire)->buckets.size());
  LiveIndex* old = index_.exchange(fresh, std::memory_order_acq_rel);
  epochs_.RetireObject(old);
  has_active_block_ = false;

  for (auto& [key, value] : live) {
    uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    TC_RETURN_IF_ERROR(Append(Record{key, std::move(value), seq, false},
                              /*count_as_user_write=*/false,
                              /*io_locked=*/true));
  }
  return FlushLocked();
}

void LogStore::DebugDump() const {
  std::fprintf(stderr,
               "LogStore: free=%zu active=%zu(next_page=%zu) "
               "buffered_bytes=%llu complete=%d\n",
               free_blocks_.size(), has_active_block_ ? active_block_ : 999,
               next_page_in_block_,
               static_cast<unsigned long long>(buffer_.unconsumed_bytes()),
               index_complete() ? 1 : 0);
  for (size_t b = 0; b < block_used_.size(); ++b) {
    if (block_used_[b]) {
      std::fprintf(stderr, "  block %zu: records=%u dead=%u\n", b,
                   block_records_[b],
                   block_dead_[b].load(std::memory_order_relaxed));
    }
  }
}

}  // namespace tc::storage
