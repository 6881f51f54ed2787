#ifndef CELLBENCH_WORKLOAD_H_
#define CELLBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tc/common/bytes.h"

namespace cellbench {

enum class OpType : uint8_t { kFetch = 0, kStore = 1, kUpdate = 2 };
inline constexpr size_t kOpTypes = 3;
const char* OpName(OpType type);

/// One cell operation. `doc` indexes the cell's document list (preloaded
/// documents first, then stored ones in order); `payload` indexes
/// CellPlan::payloads (unused by fetches).
struct Op {
  OpType type = OpType::kFetch;
  uint32_t doc = 0;
  uint32_t payload = 0;
};

/// A document's title and keywords: five distinct vocabulary terms.
struct DocText {
  std::string title;
  std::string keywords;
};

/// Everything one cell does in a run, generated before any timing starts.
/// The preload stores documents 0..preload_docs-1 with payloads of the
/// same index; `ops` is the measured closed-loop sequence.
struct CellPlan {
  std::string cell_id;
  std::string owner;
  size_t preload_docs = 0;
  std::vector<DocText> texts;    ///< Per document, preload and stored.
  std::vector<tc::Bytes> payloads;
  std::vector<Op> ops;
};

/// The shape of a workload. A run repeats rounds; each round builds a
/// fresh environment and performs the same fixed sequence, so two commits
/// do the same operations and vault size, posting-list length and journal
/// length never depend on speed. The requested seconds set only the
/// number of rounds.
struct WorkloadSpec {
  std::string name;
  bool wire = false;          ///< Loopback socket instead of in-process.
  size_t cells = 0;
  size_t preload_docs = 0;
  size_t doc_bytes = 0;
  bool updates = false;       ///< UpdateDocumentAtomic loop, else fetch/store.
  double store_share = 0.0;   ///< Fetch/store mix: share of stores.
  size_t ops_per_cell = 0;     ///< Measured operations per cell per round.
  /// Operations per cell per second on a 4-vCPU x86 host: turns requested
  /// seconds into a round count, so a run measures about that long.
  double cell_ops_per_second = 0.0;

  int Rounds(double seconds) const;
};

/// One of the three workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Generates every cell's inputs from `seed`, with `ops_per_cell`
/// measured operations per cell.
std::vector<CellPlan> MakePlans(const WorkloadSpec& spec, uint64_t seed,
                                size_t ops_per_cell);

}  // namespace cellbench

#endif  // CELLBENCH_WORKLOAD_H_
