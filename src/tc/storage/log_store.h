#ifndef TC_STORAGE_LOG_STORE_H_
#define TC_STORAGE_LOG_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/codec.h"
#include "tc/common/result.h"
#include "tc/obs/metrics.h"
#include "tc/storage/flash_device.h"
#include "tc/storage/page_transform.h"

namespace tc::storage {

/// Tuning knobs of the embedded store.
struct LogStoreOptions {
  /// RAM the in-memory index may consume. When the budget is exhausted the
  /// index degrades to a partial cache over the log: correctness is
  /// preserved via log scans, at flash-read cost. This is the knob behind
  /// the paper's "tiny RAM" device-class experiments (E4/E10).
  size_t ram_budget_bytes = 1 << 20;

  /// Run garbage collection when the free-block pool drops to this size.
  size_t gc_free_block_threshold = 2;

  /// Crash robustness of Open: how many undecodable ("torn") pages
  /// recovery may skip — counted in stats.recovery_pages_skipped — before
  /// giving up with kDataLoss. 0 = strict: the first undecodable page
  /// fails Open with the decode error itself. A power interruption can
  /// tear at most the single page that was being programmed, so small
  /// values suffice for crash tolerance while wholesale undecodability
  /// (wrong transform key, gross tampering) still refuses to open.
  size_t max_recovery_skips = 0;

  /// Read back and decode every page immediately after programming it.
  /// Turns silently failing flash (stuck-at-erased cells, lost programs)
  /// into an immediate kIOError at write time, at the cost of one extra
  /// page read per program.
  bool paranoid_program_verify = false;
};

/// Store statistics surfaced to the experiment harnesses. Fields are
/// atomics because harness threads read them while the store runs; read
/// them as plain integers (implicit load).
struct LogStoreStats {
  std::atomic<uint64_t> user_bytes_appended{0};  ///< Payload bytes to Put/Delete.
  std::atomic<uint64_t> records_appended{0};
  std::atomic<uint64_t> gc_runs{0};
  std::atomic<uint64_t> gc_records_moved{0};
  std::atomic<uint64_t> full_scans{0};           ///< Lookups served by log scan.
  std::atomic<uint64_t> index_hits{0};
  std::atomic<uint64_t> index_insertions_dropped{0};  ///< RAM budget exhaustions.
  std::atomic<uint64_t> recovery_pages_skipped{0};  ///< Torn pages tolerated by Open.
  std::atomic<uint64_t> scan_pages_skipped{0};   ///< Known-torn pages skipped by scans/GC.
  std::atomic<uint64_t> pages_abandoned{0};      ///< Pages given up after program errors.
};

/// Log-structured record store over raw NAND flash.
///
/// This is the datastore kernel the paper calls for in low-end trusted
/// cells ("a microcontroller with tiny RAM, connected to NAND Flash chips
/// or SD cards"). Design points:
///
///  * All writes are out-of-place appends (NAND forbids overwrite); a
///    whole page of serialized records is buffered in RAM and programmed
///    before the record that would overflow it is appended.
///  * Updates supersede older versions by sequence number; deletes append
///    tombstones.
///  * The in-RAM index is a *cache over the log*, bounded by
///    `ram_budget_bytes`: when it cannot hold every key the store stays
///    correct by falling back to sequence-ordered log scans (the measured
///    cost of being RAM-poor, not a functional cliff).
///  * GC relocates records that are still live out of the victim block and
///    erases it. Tombstones are retained by GC (dropped only by
///    CompactAll) so that recovery can never resurrect deleted keys.
///  * Pages pass through a PageTransform, which the cell configures with
///    TEE-keyed AEAD so the flash image is confidential and
///    tamper-evident.
///
/// Concurrency: one mutex serializes every public operation. A store
/// belongs to one cell, and a cell is driven by one thread at a time, so
/// the mutex is uncontended in practice; it only makes a second thread
/// (a test, a report harness) safe. The stats stay readable without it.
///
/// Recovery (`Open` on a non-empty device) rebuilds state by scanning all
/// programmed pages; records carry sequence numbers, so scan order is
/// irrelevant.
///
/// Observability (tc::obs global registry):
///   storage.append_us / storage.get_us /
///   storage.recover_us / storage.gc_us      histograms, per-op latency
///   storage.flash_page_reads / _programs /
///   storage.flash_block_erases              gauges mirroring FlashStats
///   storage.gc_runs                         counter
class LogStore {
 public:
  /// Opens (and recovers) a store on `device`. `transform` and `device`
  /// must outlive the store; pass the same transform used when the data
  /// was written or decryption fails.
  static Result<std::unique_ptr<LogStore>> Open(FlashDevice* device,
                                                PageTransform* transform,
                                                const LogStoreOptions& options);

  /// Inserts or overwrites `key`.
  Status Put(const std::string& key, const Bytes& value);

  /// Latest value for `key`; kNotFound if absent or deleted.
  Result<Bytes> Get(const std::string& key);

  /// Appends a tombstone for `key` (idempotent).
  Status Delete(const std::string& key);

  /// Programs the current partial page (no-op when the buffer is empty).
  /// Must be called before the process "powers off" for buffered records
  /// to survive recovery.
  Status Flush();

  /// Invokes `fn(key, value)` for every live record, in unspecified order.
  Status ScanAll(
      const std::function<void(const std::string&, const Bytes&)>& fn);

  /// Number of live keys (exact; may scan if the index is partial).
  Result<uint64_t> CountLive();

  /// Full compaction: rewrites every live record and drops all tombstones
  /// and garbage. Reclaims the space GC cannot.
  Status CompactAll();

  /// True while the index still covers every key (RAM budget not yet
  /// exceeded).
  bool index_complete() const;
  size_t index_ram_bytes() const;
  const LogStoreStats& stats() const { return stats_; }
  FlashDevice* device() { return device_; }

  /// Write amplification: flash bytes programmed / user bytes appended.
  double WriteAmplification() const;

  /// Largest value size a single record can hold.
  size_t MaxValueSize() const;

 private:
  /// Handles into the global registry, resolved once at construction; the
  /// hot path only touches the relaxed atomics inside.
  struct Metrics {
    Metrics();
    obs::Histogram& append_us;
    obs::Histogram& get_us;
    obs::Histogram& recover_us;
    obs::Histogram& gc_us;
    obs::Gauge& flash_page_reads;
    obs::Gauge& flash_page_programs;
    obs::Gauge& flash_block_erases;
    obs::Counter& gc_runs;
  };

  struct Record {
    std::string key;
    Bytes value;
    uint64_t seq;
    bool tombstone;
  };
  /// Where the latest indexed version of a key lives.
  struct IndexEntry {
    uint64_t page_no;  // kBufferedPage while the record sits in buffer_.
    size_t slot;       // Its position in buffer_ while buffered.
    uint64_t seq;
    bool tombstone;
  };
  static constexpr uint64_t kBufferedPage = ~0ull;

  LogStore(FlashDevice* device, PageTransform* transform,
           const LogStoreOptions& options);

  // Everything below runs with mu_ held (Recover: before Open returns the
  // store, so no other thread can reach it).
  Status Recover();
  Status Append(const Record& record, bool count_as_user_write);
  /// Programs the buffered records as one page. A program failure leaves
  /// them buffered for a retry on the next page.
  Status FlushLocked();
  Status ProgramPageChecked(uint64_t page_no, const Bytes& encoded);
  void ForgetTornPagesInBlock(size_t block);
  Result<size_t> AllocateBlock(bool allow_gc);
  Status RunGcLocked();
  size_t EntryRamCost(const std::string& key) const;
  /// Indexes `entry` for `key` unless a newer version is indexed, and
  /// returns the entry it replaced. A new key is dropped (index marked
  /// incomplete) when the RAM budget is spent.
  std::optional<IndexEntry> IndexRecord(const std::string& key,
                                        const IndexEntry& entry);

  Result<std::vector<Record>> ReadPageRecords(uint64_t page_no);
  static Bytes SerializeRecord(const Record& record);
  static Status ParseRecord(BinaryReader& r, Record* out);
  /// The buffered records, in append order.
  std::vector<Record> BufferedRecords() const;
  /// Calls `fn` on every record of every decodable durable page, in
  /// ascending page order; torn pages are skipped and counted.
  Status ScanDurableLocked(const std::function<void(Record&)>& fn);
  Result<Bytes> ScanForKeyLocked(const std::string& key);
  /// The latest version of every key on flash or in the buffer,
  /// tombstones included.
  Result<std::map<std::string, Record>> LatestRecordsLocked();
  uint64_t PageBlock(uint64_t page_no) const;
  /// Mirrors the device's FlashStats into the registry gauges.
  void UpdateFlashGauges();

  FlashDevice* device_;
  PageTransform* transform_;
  LogStoreOptions options_;
  size_t payload_size_;

  mutable std::mutex mu_;  // Guards everything below except stats_.

  // Write path: serialized records waiting for their page.
  std::vector<Bytes> buffer_;
  size_t buffer_bytes_ = 0;
  size_t active_block_ = 0;
  size_t next_page_in_block_ = 0;
  bool has_active_block_ = false;
  uint64_t next_seq_ = 1;

  // Index (bounded cache over the log).
  std::unordered_map<std::string, IndexEntry> index_;
  size_t index_ram_bytes_ = 0;
  bool index_complete_ = true;

  // Block bookkeeping.
  std::vector<size_t> free_blocks_;
  std::vector<bool> block_used_;
  std::vector<uint32_t> block_records_;
  std::vector<uint32_t> block_dead_;
  bool in_gc_ = false;

  // Pages known to hold no decodable records: torn tails found by a
  // tolerant recovery, plus pages abandoned after a failed or unverified
  // program. Scans and GC skip them (counted); erasing the block clears
  // them. Pages that decoded fine at recovery and fail later are NOT here
  // — that is tampering or bit rot and always surfaces as an error.
  std::set<uint64_t> torn_pages_;

  Metrics metrics_;
  LogStoreStats stats_;
};

}  // namespace tc::storage

#endif  // TC_STORAGE_LOG_STORE_H_
