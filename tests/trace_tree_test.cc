// Causal trace propagation, end to end: one CellFleet::PutBatch must leave
// behind a single connected span tree that crosses the fleet, cell,
// storage and cloud layers — across the worker-pool thread hop — and the
// Chrome trace_event export of that tree must carry the same structure.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tc/cell/cell.h"
#include "tc/cell/directory.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/clock.h"
#include "tc/common/rng.h"
#include "tc/fleet/worker_pool.h"
#include "tc/obs/exporter.h"
#include "tc/obs/trace.h"
#include "tc/policy/sticky_policy.h"

namespace tc {
namespace {

// ------------------------------------------------- the full-stack fleet

/// Workload knobs for a full-stack fleet batch: K *real* TrustedCells
/// (TEE + encrypted store + database + policy), each storing and
/// re-fetching a handful of documents through a shared worker pool.
///
/// Where fleet::FleetRunner reproduces only the cloud traffic pattern of a
/// cell, CellFleet drives the entire vertical stack — which is what
/// exercises causal trace propagation end to end: the batch's root span
/// must parent every task, cell, storage and cloud span the operation
/// produces, across the worker-pool thread hop.
struct CellFleetOptions {
  size_t cells = 4;          ///< TrustedCells driven this batch.
  size_t threads = 2;        ///< Worker threads sharing the cells.
  size_t docs_per_cell = 2;  ///< Documents stored + fetched per cell.
  size_t payload_bytes = 96; ///< Document payload size.
  uint64_t seed = 1;         ///< Payload streams derive from this.
};

/// Outcome of one full-stack batch. `trace_id` is the causal identity of
/// the whole operation: every span the batch emitted — on any thread, in
/// any layer — carries it, so an exporter can reassemble the single
/// connected tree rooted at "fleet/put_batch".
struct CellFleetReport {
  uint64_t trace_id = 0;
  size_t cells_ok = 0;
  size_t cells_failed = 0;
  uint64_t docs_stored = 0;
  uint64_t docs_fetched = 0;
  /// Per-cell outcome, indexed like the cells (error propagation is per
  /// cell: one failing cell never aborts the batch).
  std::vector<Status> cell_status;
};

std::string FleetCellId(size_t index) {
  return "cellfleet/cell" + std::to_string(index);
}

/// Owns a directory, a simulated clock and K TrustedCells against the
/// given cloud; PutBatch() runs one traced store+fetch batch across all
/// of them.
class CellFleet {
 public:
  CellFleet(cloud::CloudInfrastructure* cloud, const CellFleetOptions& options)
      : cloud_(cloud), options_(options), clock_(1000000) {}

  /// Creates the cells on first use (outside any trace, so provisioning
  /// noise never pollutes the batch's span tree), then opens the root
  /// "fleet/put_batch" span and submits one store+fetch task per cell to
  /// the pool. Each stored document is immediately fetched back and
  /// verified byte-for-byte. The returned report carries the root span's
  /// trace id.
  Result<CellFleetReport> PutBatch() {
    // Provision outside the trace: cell creation opens stores, mints keys
    // and journals attestation records — none of which belongs to the
    // batch's causal tree.
    TC_RETURN_IF_ERROR(EnsureCells());

    CellFleetReport report;
    report.cell_status.assign(options_.cells, Status::OK());
    std::vector<uint64_t> stored(options_.cells, 0);
    std::vector<uint64_t> fetched(options_.cells, 0);

    // Root of the batch's causal tree. Submit() snapshots this context
    // into each queued task, the worker restores it, and every span below
    // — fleet/task, cell/store_document, storage/put, cloud/txn_commit,
    // ... — nests under this one trace id.
    obs::TraceSpan batch_span("fleet", "put_batch",
                              std::to_string(options_.cells) + " cells");
    report.trace_id = batch_span.context().trace_id;

    fleet::WorkerPool::Options pool_options;
    pool_options.threads = options_.threads;
    fleet::WorkerPool pool(pool_options);
    for (size_t i = 0; i < options_.cells; ++i) {
      bool accepted = pool.Submit([this, i, &report, &stored, &fetched] {
        RunCell(i, &report.cell_status[i], &stored[i], &fetched[i]);
      });
      if (!accepted) {
        report.cell_status[i] = Status::Unavailable(
            FleetCellId(i) + ": worker pool rejected the task");
      }
    }
    pool.Wait();
    pool.Shutdown();
    TC_RETURN_IF_ERROR(pool.first_error());

    for (size_t i = 0; i < options_.cells; ++i) {
      if (report.cell_status[i].ok()) {
        ++report.cells_ok;
      } else {
        ++report.cells_failed;
      }
      report.docs_stored += stored[i];
      report.docs_fetched += fetched[i];
    }
    return report;
  }

 private:
  Status EnsureCells() {
    if (!cells_.empty()) return Status::OK();
    for (size_t i = 0; i < options_.cells; ++i) {
      cell::TrustedCell::Config config;
      config.cell_id = FleetCellId(i);
      config.owner = "cellfleet/owner" + std::to_string(i);
      TC_ASSIGN_OR_RETURN(
          auto cell,
          cell::TrustedCell::Create(config, cloud_, &directory_, &clock_));
      cells_.push_back(std::move(cell));
    }
    return Status::OK();
  }

  /// One cell's share of the batch: store docs_per_cell documents, fetch
  /// each back, verify. Runs on a pool worker under the restored batch
  /// context.
  void RunCell(size_t cell_index, Status* status, uint64_t* stored,
               uint64_t* fetched) {
    cell::TrustedCell& cell = *cells_[cell_index];
    Rng rng(options_.seed * 1000003 + cell_index);
    policy::Policy policy = cell::MakeOwnerPolicy(cell.owner());
    for (size_t d = 0; d < options_.docs_per_cell; ++d) {
      Bytes payload = rng.NextBytes(options_.payload_bytes);
      auto doc_id = cell.StoreDocument("doc" + std::to_string(d),
                                       "fleet batch", payload, policy);
      if (!doc_id.ok()) {
        *status = doc_id.status();
        return;
      }
      ++*stored;
      auto read_back = cell.FetchDocument(*doc_id);
      if (!read_back.ok()) {
        *status = read_back.status();
        return;
      }
      if (*read_back != payload) {
        *status = Status::IntegrityViolation(
            cell.id() + ": fetched payload does not match the stored one");
        return;
      }
      ++*fetched;
    }
  }

  cloud::CloudInfrastructure* cloud_;
  CellFleetOptions options_;
  SimulatedClock clock_;
  cell::CellDirectory directory_;
  std::vector<std::unique_ptr<cell::TrustedCell>> cells_;
};

// ------------------------------------------------- context unit semantics

TEST(TraceContextTest, PlainSpanMintsATraceAndNestedSpansJoinIt) {
  obs::TraceRing::Global().Clear();
  uint64_t outer_trace = 0, outer_span = 0;
  uint64_t inner_trace = 0, inner_parent = 0;
  {
    obs::TraceSpan outer("test", "outer");
    outer_trace = outer.context().trace_id;
    outer_span = outer.context().span_id;
    EXPECT_NE(outer_trace, 0u);
    EXPECT_EQ(outer.context().parent_id, 0u);
    {
      obs::TraceSpan inner("test", "inner");
      inner_trace = inner.context().trace_id;
      inner_parent = inner.context().parent_id;
    }
  }
  // Nested span joined the outer trace instead of minting its own.
  EXPECT_EQ(inner_trace, outer_trace);
  EXPECT_EQ(inner_parent, outer_span);
  // After both spans closed, the thread is un-traced again.
  EXPECT_FALSE(obs::CurrentContext().active());
}

TEST(TraceContextTest, ChildOnlySpansAreInertWithoutAContext) {
  obs::TraceRing::Global().Clear();
  {
    // Hot-path guard: a child-only span outside any operation emits
    // nothing and installs no context.
    obs::TraceSpan span(obs::kChildOnly, "storage", "put");
    EXPECT_FALSE(obs::CurrentContext().active());
  }
  EXPECT_EQ(obs::TraceRing::Global().Snapshot().size(), 0u);
  {
    obs::TraceSpan root("test", "op");
    obs::TraceSpan child(obs::kChildOnly, "storage", "put");
    EXPECT_EQ(child.context().trace_id, root.context().trace_id);
    EXPECT_EQ(child.context().parent_id, root.context().span_id);
  }
}

// --------------------------------------------------- the four-layer tree

TEST(TraceTreeTest, PutBatchYieldsOneConnectedTreeAcrossAllFourLayers) {
  obs::TraceRing::Global().Clear();
  cloud::CloudInfrastructure cloud;
  CellFleetOptions options;
  options.cells = 3;
  options.threads = 2;
  options.docs_per_cell = 2;
  CellFleet cell_fleet(&cloud, options);
  auto report = cell_fleet.PutBatch();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->cells_ok, options.cells);
  EXPECT_EQ(report->docs_stored, options.cells * options.docs_per_cell);
  EXPECT_EQ(report->docs_fetched, options.cells * options.docs_per_cell);
  ASSERT_NE(report->trace_id, 0u);

  std::vector<obs::TraceEvent> events = obs::TraceRing::Global().Snapshot();
  std::vector<obs::SpanTree> trees = obs::Exporter::AssembleSpanTrees(events);
  const obs::SpanTree* batch_tree = nullptr;
  for (const obs::SpanTree& tree : trees) {
    if (tree.trace_id == report->trace_id) batch_tree = &tree;
  }
  ASSERT_NE(batch_tree, nullptr) << "batch trace not found in the ring";

  // One connected component: a single root, no span whose parent is
  // missing — i.e. the cross-thread handoff through the worker pool kept
  // every layer's spans attached to the batch.
  EXPECT_TRUE(batch_tree->connected())
      << batch_tree->roots.size() << " roots, " << batch_tree->orphans.size()
      << " orphans";
  ASSERT_EQ(batch_tree->roots.size(), 1u);
  const obs::AssembledSpan& root =
      batch_tree->spans.at(batch_tree->roots[0]);
  EXPECT_EQ(root.component, "fleet");
  EXPECT_EQ(root.name, "put_batch");
  EXPECT_TRUE(root.complete);

  // The one operation crossed every layer of the stack.
  for (const char* layer : {"fleet", "cell", "storage", "cloud"}) {
    EXPECT_TRUE(batch_tree->components.count(layer))
        << "no '" << layer << "' span in the batch tree";
  }

  // Every worker task span parents directly under the batch root, and
  // every cell span parents under a task span.
  size_t task_spans = 0;
  for (const auto& [span_id, span] : batch_tree->spans) {
    if (span.component == "fleet" && span.name == "task") {
      ++task_spans;
      EXPECT_EQ(span.parent_id, root.span_id);
    }
    if (span.component == "cell") {
      const obs::AssembledSpan& parent =
          batch_tree->spans.at(span.parent_id);
      EXPECT_EQ(parent.component, "fleet");
      EXPECT_EQ(parent.name, "task");
    }
    EXPECT_TRUE(span.complete) << span.component << "/" << span.name;
  }
  EXPECT_EQ(task_spans, options.cells);
}

TEST(TraceTreeTest, ChromeTraceExportCarriesTheBatch) {
  obs::TraceRing::Global().Clear();
  cloud::CloudInfrastructure cloud;
  CellFleetOptions options;
  options.cells = 2;
  options.threads = 2;
  options.docs_per_cell = 1;
  CellFleet cell_fleet(&cloud, options);
  auto report = cell_fleet.PutBatch();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::vector<obs::TraceEvent> events = obs::TraceRing::Global().Snapshot();
  std::string json = obs::Exporter::ToChromeTraceJson(events);
  // Wrapper shape + the root span as a complete ("X") event; full JSON
  // validation (parse + nesting) is scripts/validate_obs_export.sh's job.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"put_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":" + std::to_string(report->trace_id)),
            std::string::npos);

  std::string jsonl = obs::Exporter::ToJsonLines(events);
  EXPECT_NE(jsonl.find("\"name\":\"put_batch\""), std::string::npos);
}

}  // namespace
}  // namespace tc
