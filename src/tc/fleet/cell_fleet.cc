#include "tc/fleet/cell_fleet.h"

#include <utility>

#include "tc/common/rng.h"
#include "tc/obs/trace.h"
#include "tc/policy/sticky_policy.h"

namespace tc::fleet {
namespace {

std::string FleetCellId(size_t index) {
  return "cellfleet/cell" + std::to_string(index);
}

}  // namespace

CellFleet::CellFleet(cloud::CloudInfrastructure* cloud,
                     const CellFleetOptions& options)
    : cloud_(cloud), options_(options), clock_(1000000) {}

CellFleet::~CellFleet() = default;

Status CellFleet::EnsureCells() {
  if (!cells_.empty()) return Status::OK();
  cells_.reserve(options_.cells);
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

void CellFleet::RunCell(size_t cell_index, Status* status, uint64_t* stored,
                        uint64_t* fetched) {
  cell::TrustedCell& cell = *cells_[cell_index];
  Rng rng(options_.seed * 1000003 + cell_index);
  policy::Policy policy = cell::MakeOwnerPolicy(cell.owner());
  for (size_t d = 0; d < options_.docs_per_cell; ++d) {
    Bytes payload = rng.NextBytes(options_.payload_bytes);
    auto doc_id = cell.StoreDocument("doc" + std::to_string(d), "fleet batch",
                                     payload, policy);
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

Result<CellFleetReport> CellFleet::PutBatch() {
  if (cloud_ == nullptr) {
    return Status::InvalidArgument("cell_fleet: null cloud");
  }
  if (options_.cells == 0 || options_.docs_per_cell == 0) {
    return Status::InvalidArgument("cell_fleet: empty workload");
  }
  // Provision outside the trace: cell creation opens stores, mints keys
  // and journals attestation records — none of which belongs to the
  // batch's causal tree.
  TC_RETURN_IF_ERROR(EnsureCells());

  CellFleetReport report;
  report.cell_status.assign(options_.cells, Status::OK());
  std::vector<uint64_t> stored(options_.cells, 0);
  std::vector<uint64_t> fetched(options_.cells, 0);

  // Root of the batch's causal tree. Submit() snapshots this context into
  // each queued task, the worker restores it, and every span below —
  // fleet/task, cell/store_document, storage/put, cloud/txn_commit,
  // ... — nests under this one trace id.
  obs::TraceSpan batch_span("fleet", "put_batch",
                            std::to_string(options_.cells) + " cells");
  report.trace_id = batch_span.context().trace_id;

  WorkerPool::Options pool_options;
  pool_options.threads = options_.threads;
  WorkerPool pool(pool_options);
  for (size_t i = 0; i < options_.cells; ++i) {
    bool accepted = pool.Submit([this, i, &report, &stored, &fetched] {
      RunCell(i, &report.cell_status[i], &stored[i], &fetched[i]);
    });
    if (!accepted) {
      report.cell_status[i] = Status::Unavailable(
          FleetCellId(i) + ": worker pool rejected the task (shutting down)");
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

}  // namespace tc::fleet
