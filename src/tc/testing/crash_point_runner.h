#ifndef TC_TESTING_CRASH_POINT_RUNNER_H_
#define TC_TESTING_CRASH_POINT_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/result.h"
#include "tc/storage/log_store.h"
#include "tc/storage/page_transform.h"
#include "tc/testing/fault_injection.h"

namespace tc::testing {

/// One step of a storage workload driven by the CrashPointRunner.
struct WorkloadOp {
  enum class Kind : uint8_t { kPut = 0, kDelete = 1, kFlush = 2 };
  Kind kind = Kind::kPut;
  std::string key;
  Bytes value;  // kPut only.
};

struct MixedWorkloadOptions {
  size_t ops = 160;
  size_t key_space = 12;
  size_t value_min = 8;
  size_t value_max = 40;
  double delete_fraction = 0.25;  ///< Of the non-flush ops.
  double flush_fraction = 0.12;
  uint64_t seed = 1;
};

/// Seeded Put/Delete/Flush mix. Every Put value is unique across the
/// workload (it embeds the op index), so the invariant checker can tell
/// exactly which write a recovered value came from.
std::vector<WorkloadOp> MakeMixedWorkload(const MixedWorkloadOptions& options);

/// Outcome of one crash-point enumeration.
struct CrashPointReport {
  size_t write_ops = 0;       ///< Programs + erases in the fault-free run.
  size_t crash_points = 0;    ///< Crash trials executed (incl. torn variants).
  size_t violations = 0;      ///< Durability-invariant violations.
  size_t recovery_failures = 0;  ///< LogStore::Open failures after a crash.
  uint64_t gc_runs = 0;       ///< GC cycles in the fault-free run (coverage).
  uint64_t erases = 0;        ///< Block erases in the fault-free run.
  uint64_t max_pages_skipped = 0;  ///< Worst per-recovery torn-page count.
  /// Flight-recorder coverage: a crash trial whose recovery raised an
  /// incident (open failure, or pages skipped) must leave a flight dump
  /// behind. `missing_flight_dumps` > 0 means an incident path bypassed
  /// the recorder — tests assert it stays 0.
  size_t incident_trials = 0;
  size_t flight_dumps = 0;
  size_t missing_flight_dumps = 0;
  std::vector<std::string> violation_details;  ///< Capped sample.
};

/// Replays a workload, kills the device at every write step (clean cut and
/// torn-prefix variants), reopens the store and checks the durability
/// invariants:
///
///   1. every write acknowledged by a successful Flush before the crash is
///      still readable (acknowledged writes survive);
///   2. the recovered value of a key is one the workload actually wrote at
///      or after the key's last acknowledged op — deleted keys never
///      resurrect, stale values never shadow acknowledged ones, and no
///      fabricated bytes appear;
///   3. recovery skips at most one page (the page that was in flight);
///   4. the reopened store accepts and persists new writes.
///
/// Reads are not crash points: a crash during a read leaves the identical
/// flash state to a crash just before the next write.
class CrashPointRunner {
 public:
  using TransformFactory =
      std::function<std::unique_ptr<storage::PageTransform>()>;

  struct Options {
    storage::FlashGeometry geometry;
    storage::LogStoreOptions store_options;
    uint64_t seed = 1;
  };

  /// `transforms` is invoked once per trial: each simulated device needs a
  /// fresh transform over the same key material.
  CrashPointRunner(Options options, TransformFactory transforms);

  /// Enumerates all crash points of `workload`. Fails only if the workload
  /// cannot run fault-free on the configured device (too big, bad op);
  /// invariant violations are reported, not returned as errors.
  Result<CrashPointReport> Run(const std::vector<WorkloadOp>& workload);

 private:
  struct KeyEvent {
    size_t op_index;
    bool tombstone;
    Bytes value;
  };

  void RunOneCrashTrial(const std::vector<WorkloadOp>& workload,
                        uint64_t crash_at, bool torn,
                        CrashPointReport* report);
  void AddViolation(CrashPointReport* report, const std::string& detail);

  Options options_;
  TransformFactory transforms_;
};

/// Persistent-corruption sweep: seeds a store, flips random bits of a
/// random programmed page, then checks that the corruption is *surfaced as
/// an error* (by reads or by a strict reopen) and that no read ever
/// returns wrong bytes. With an AEAD transform `detected` must equal
/// `trials` and `silent_wrong_reads` must be 0; a plaintext transform
/// shows why: flips land in values unnoticed.
struct CorruptionSweepReport {
  size_t trials = 0;
  size_t detected = 0;           ///< Corruption surfaced as an error status.
  size_t silent_wrong_reads = 0; ///< A Get returned wrong bytes (worst case).
  size_t undetected = 0;         ///< No error and no wrong read (missed).
};

CorruptionSweepReport RunCorruptionSweep(
    const storage::FlashGeometry& geometry,
    const CrashPointRunner::TransformFactory& transforms, size_t trials,
    uint64_t seed);

}  // namespace tc::testing

#endif  // TC_TESTING_CRASH_POINT_RUNNER_H_
