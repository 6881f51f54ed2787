#ifndef TC_STORAGE_FLASH_DEVICE_H_
#define TC_STORAGE_FLASH_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/result.h"

namespace tc::storage {

/// Geometry and timing of a simulated raw NAND flash chip.
struct FlashGeometry {
  size_t page_size = 2048;      ///< Bytes per page.
  size_t pages_per_block = 64;  ///< Erase-unit granularity.
  size_t block_count = 256;     ///< Total blocks (default: 32 MiB chip).

  uint64_t read_page_us = 100;
  uint64_t program_page_us = 300;
  uint64_t erase_block_us = 2000;

  size_t total_pages() const { return pages_per_block * block_count; }
  size_t capacity_bytes() const { return total_pages() * page_size; }
};

/// Cumulative operation counters (the basis of the E10 write-amplification
/// and wear measurements). Rejected operations (bad page number, wrong
/// size, overwrite without erase) advance neither the counters nor the
/// simulated time: the chip refuses them before doing any work.
struct FlashStats {
  uint64_t page_reads = 0;
  uint64_t page_programs = 0;
  uint64_t block_erases = 0;
  uint64_t simulated_time_us = 0;
};

/// In-memory simulation of raw NAND flash with real NAND semantics:
/// program only after erase (no overwrite in place), erase only at block
/// granularity, per-block wear counting. The log-structured store above it
/// must therefore write out of place and garbage collect — exactly the
/// constraint the paper's low-end trusted cells face.
///
/// The three I/O operations are virtual so that tc::testing can interpose
/// a fault-injection layer (torn writes, power loss, bit rot) without the
/// store knowing.
///
/// Thread-safe: page state and wear counters sit behind an internal
/// mutex and the stats are atomics, so harness threads can read the stats
/// while a store drives the device. Each individual operation is atomic;
/// cross-operation ordering (never program a page twice, never read a
/// block being erased as if stable) remains the store's contract.
/// The fault-injecting subclass keeps its single-threaded use (crash
/// schedules are deterministic, ordinal-numbered sequences).
class FlashDevice {
 public:
  explicit FlashDevice(const FlashGeometry& geometry);
  virtual ~FlashDevice() = default;

  const FlashGeometry& geometry() const { return geometry_; }

  /// Reads one full page. Fails on out-of-range page numbers. Reading an
  /// erased page returns all-0xFF bytes, as real NAND does.
  virtual Result<Bytes> ReadPage(size_t page_no);

  /// Programs an erased page with exactly page_size bytes.
  /// Fails with kFailedPrecondition if the page was already programmed
  /// (NAND forbids overwrite) and kInvalidArgument on size mismatch.
  virtual Status ProgramPage(size_t page_no, const Bytes& data);

  /// Erases a whole block, returning its pages to the erased state.
  virtual Status EraseBlock(size_t block_no);

  bool IsPageProgrammed(size_t page_no) const;

  FlashStats stats() const;
  void ResetStats();

  /// Erase cycles a block has endured (wear levelling metric).
  uint64_t BlockWear(size_t block_no) const;

 protected:
  // Validation only — no counters or simulated time move for a rejected
  // operation. Fault-injecting subclasses must run these checks *before*
  // consuming a scheduled fault, or the crash-point numbering of a
  // workload drifts with every invalid call.
  Status CheckRead(size_t page_no) const;
  Status CheckProgram(size_t page_no, const Bytes& data) const;
  Status CheckErase(size_t block_no) const;

  // Cost accounting, applied once an operation is accepted (a program
  // interrupted by power loss still spent the time and the wear).
  void ChargeRead();
  void ChargeProgram();
  void ChargeErase(size_t block_no);

  // Raw state access for fault simulation: torn programs that persist only
  // a prefix, interrupted erases, persistent bit corruption. No
  // validation, no accounting, overwriting allowed.
  Bytes RawPage(size_t page_no) const;  ///< Erased pages read all-0xFF.
  void RawSetPage(size_t page_no, Bytes data);
  void RawClearPage(size_t page_no);

 private:
  FlashGeometry geometry_;
  mutable std::mutex mu_;             // Guards pages_.
  std::vector<Bytes> pages_;          // Empty vector == erased.
  std::vector<std::atomic<uint64_t>> block_wear_;
  std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> page_programs_{0};
  std::atomic<uint64_t> block_erases_{0};
  std::atomic<uint64_t> simulated_time_us_{0};
};

}  // namespace tc::storage

#endif  // TC_STORAGE_FLASH_DEVICE_H_
