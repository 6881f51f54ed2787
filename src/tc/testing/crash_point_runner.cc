#include "tc/testing/crash_point_runner.h"

#include <algorithm>
#include <map>
#include <set>

#include "tc/obs/flight_recorder.h"

namespace tc::testing {

using storage::LogStore;
using storage::LogStoreOptions;

namespace {

/// Violations whose text a report keeps (the count keeps rising).
constexpr size_t kMaxViolationDetails = 8;

}  // namespace

std::vector<WorkloadOp> MakeMixedWorkload(
    const MixedWorkloadOptions& options) {
  Rng rng(options.seed);
  std::vector<WorkloadOp> ops;
  ops.reserve(options.ops);
  for (size_t i = 0; i < options.ops; ++i) {
    WorkloadOp op;
    if (rng.NextBernoulli(options.flush_fraction)) {
      op.kind = WorkloadOp::Kind::kFlush;
    } else {
      op.key = "key-" + std::to_string(rng.NextBelow(options.key_space));
      if (rng.NextBernoulli(options.delete_fraction)) {
        op.kind = WorkloadOp::Kind::kDelete;
      } else {
        op.kind = WorkloadOp::Kind::kPut;
        size_t len = options.value_min +
                     rng.NextBelow(options.value_max - options.value_min + 1);
        op.value = ToBytes("op" + std::to_string(i) + ":");
        Bytes pad = rng.NextBytes(len);
        op.value.insert(op.value.end(), pad.begin(), pad.end());
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

CrashPointRunner::CrashPointRunner(Options options,
                                   TransformFactory transforms)
    : options_(std::move(options)), transforms_(std::move(transforms)) {}

void CrashPointRunner::AddViolation(CrashPointReport* report,
                                    const std::string& detail) {
  ++report->violations;
  if (report->violation_details.size() < kMaxViolationDetails) {
    report->violation_details.push_back(detail);
  }
}

Result<CrashPointReport> CrashPointRunner::Run(
    const std::vector<WorkloadOp>& workload) {
  // Fault-free reference run: counts the write steps (= crash points) and
  // proves the workload fits the device.
  FaultyFlashDevice dev(options_.geometry, FaultPlan{});
  auto transform = transforms_();
  auto store_or =
      LogStore::Open(&dev, transform.get(), options_.store_options);
  if (!store_or.ok()) return store_or.status();
  for (const WorkloadOp& op : workload) {
    Status s;
    switch (op.kind) {
      case WorkloadOp::Kind::kPut:
        s = (*store_or)->Put(op.key, op.value);
        break;
      case WorkloadOp::Kind::kDelete:
        s = (*store_or)->Delete(op.key);
        break;
      case WorkloadOp::Kind::kFlush:
        s = (*store_or)->Flush();
        break;
    }
    if (!s.ok()) {
      return Status::InvalidArgument(
          "workload does not run fault-free on this device: " + s.ToString());
    }
  }

  CrashPointReport report;
  report.write_ops = dev.write_ops_seen();
  report.gc_runs = (*store_or)->stats().gc_runs;
  report.erases = dev.stats().block_erases;
  std::set<uint64_t> erase_ordinals(dev.erase_op_ordinals().begin(),
                                    dev.erase_op_ordinals().end());

  for (uint64_t k = 1; k <= report.write_ops; ++k) {
    RunOneCrashTrial(workload, k, /*torn=*/false, &report);
    // Every program crash point reruns with a torn (prefix-persisted) page
    // image. A torn-prefix variant is a distinct flash state only for
    // programs; an interrupted erase already randomizes its own residue.
    if (erase_ordinals.count(k) == 0) {
      RunOneCrashTrial(workload, k, /*torn=*/true, &report);
    }
  }
  return report;
}

void CrashPointRunner::RunOneCrashTrial(
    const std::vector<WorkloadOp>& workload, uint64_t crash_at, bool torn,
    CrashPointReport* report) {
  constexpr size_t kNone = ~size_t{0};
  FaultPlan plan;
  plan.seed =
      options_.seed ^ (crash_at * 0x9e3779b97f4a7c15ull) ^ (torn ? 0x5bf : 0);
  plan.power_loss_after_write_ops = crash_at;
  plan.torn = torn ? TornWriteMode::kPrefix : TornWriteMode::kNone;
  FaultyFlashDevice dev(options_.geometry, plan);
  auto transform = transforms_();
  ++report->crash_points;
  const std::string label = "crash@" + std::to_string(crash_at) +
                            (torn ? "+torn" : "") + ": ";

  auto store_or =
      LogStore::Open(&dev, transform.get(), options_.store_options);
  if (!store_or.ok()) {
    AddViolation(report, label + "initial open failed: " +
                             store_or.status().ToString());
    return;
  }
  auto store = std::move(*store_or);

  std::map<std::string, std::vector<KeyEvent>> events;
  size_t last_ack = kNone;
  size_t crashed_at = kNone;
  for (size_t i = 0; i < workload.size(); ++i) {
    const WorkloadOp& op = workload[i];
    Status s;
    switch (op.kind) {
      case WorkloadOp::Kind::kPut:
        s = store->Put(op.key, op.value);
        if (s.ok()) events[op.key].push_back(KeyEvent{i, false, op.value});
        break;
      case WorkloadOp::Kind::kDelete:
        s = store->Delete(op.key);
        if (s.ok()) events[op.key].push_back(KeyEvent{i, true, {}});
        break;
      case WorkloadOp::Kind::kFlush:
        s = store->Flush();
        if (s.ok()) last_ack = i;
        break;
    }
    if (!s.ok()) {
      crashed_at = i;
      break;
    }
  }
  if (crashed_at == kNone) {
    AddViolation(report, label + "scheduled power loss never fired");
    return;
  }

  // Reboot and recover. The crash can have torn at most the single page
  // that was being programmed.
  store.reset();
  dev.PowerOn();
  dev.SetPlan(FaultPlan{});
  LogStoreOptions recovery_options = options_.store_options;
  recovery_options.max_recovery_skips =
      std::max<size_t>(recovery_options.max_recovery_skips, 4);
  // Any incident the recovery raises (open failure, skipped pages) must
  // leave a flight dump behind; account for the recorder's trigger delta
  // across the reopen.
  const uint64_t flight_before =
      obs::FlightRecorder::Global().total_triggers();
  auto note_incident = [&] {
    ++report->incident_trials;
    if (obs::FlightRecorder::Global().total_triggers() > flight_before) {
      ++report->flight_dumps;
    } else {
      ++report->missing_flight_dumps;
    }
  };
  auto reopened_or = LogStore::Open(&dev, transform.get(), recovery_options);
  if (!reopened_or.ok()) {
    ++report->recovery_failures;
    note_incident();
    AddViolation(report, label + "recovery failed: " +
                             reopened_or.status().ToString());
    return;
  }
  auto reopened = std::move(*reopened_or);
  uint64_t skipped = reopened->stats().recovery_pages_skipped;
  if (skipped > 0) note_incident();
  report->max_pages_skipped = std::max(report->max_pages_skipped, skipped);
  if (skipped > 1) {
    AddViolation(report, label + "recovery skipped " +
                             std::to_string(skipped) +
                             " pages; a crash tears at most one");
  }

  for (const auto& [key, evs] : events) {
    // Last event acknowledged by a flush that completed before the crash.
    const KeyEvent* ack = nullptr;
    for (const KeyEvent& e : evs) {
      if (last_ack != kNone && e.op_index <= last_ack) ack = &e;
    }
    auto got = reopened->Get(key);
    if (!got.ok() && !got.status().IsNotFound()) {
      AddViolation(report, label + key + ": read error after recovery: " +
                               got.status().ToString());
      continue;
    }
    bool match = false;
    if (!got.ok()) {
      // Absence is legal iff the acknowledged state is absent, or an
      // in-flight tombstone could have landed.
      if (ack == nullptr || ack->tombstone) {
        match = true;
      } else {
        for (const KeyEvent& e : evs) {
          if (e.op_index > ack->op_index && e.tombstone) {
            match = true;
            break;
          }
        }
      }
      if (!match) {
        AddViolation(report,
                     label + key + ": acknowledged write lost (op " +
                         std::to_string(ack->op_index) + ")");
      }
    } else {
      // The recovered value must be the acknowledged one or a genuine
      // in-flight successor — never older, never fabricated, never a
      // resurrected deleted value.
      for (const KeyEvent& e : evs) {
        if (e.tombstone) continue;
        if (ack != nullptr && e.op_index < ack->op_index) continue;
        if (e.value == *got) {
          match = true;
          break;
        }
      }
      if (!match) {
        AddViolation(report, label + key +
                                 ": recovered value is stale, deleted or "
                                 "fabricated");
      }
    }
  }

  // The recovered store must remain writable and durable.
  Status probe = reopened->Put("__crashpoint_probe__", ToBytes("alive"));
  if (probe.ok()) probe = reopened->Flush();
  if (probe.ok()) {
    auto back = reopened->Get("__crashpoint_probe__");
    if (!back.ok() || *back != ToBytes("alive")) {
      probe = Status::DataLoss("probe write unreadable");
    }
  }
  if (!probe.ok()) {
    AddViolation(report, label + "store unusable after recovery: " +
                             probe.ToString());
  }
}

CorruptionSweepReport RunCorruptionSweep(
    const storage::FlashGeometry& geometry,
    const CrashPointRunner::TransformFactory& transforms, size_t trials,
    uint64_t seed) {
  CorruptionSweepReport report;
  Rng rng(seed);
  for (size_t t = 0; t < trials; ++t) {
    FaultPlan plan;
    plan.seed = seed * 7919 + t;
    FaultyFlashDevice dev(geometry, plan);
    auto transform = transforms();
    LogStoreOptions strict;  // Default: any undecodable page fails Open.
    auto store_or = LogStore::Open(&dev, transform.get(), strict);
    if (!store_or.ok()) continue;
    auto store = std::move(*store_or);

    std::map<std::string, Bytes> truth;
    size_t keys = 8 + rng.NextBelow(8);
    for (size_t k = 0; k < keys; ++k) {
      std::string key = "k" + std::to_string(k);
      Bytes value = rng.NextBytes(16 + rng.NextBelow(48));
      if (!store->Put(key, value).ok()) continue;
      truth[key] = value;
    }
    if (!store->Flush().ok()) continue;

    std::vector<size_t> programmed;
    for (size_t p = 0; p < geometry.total_pages(); ++p) {
      if (dev.IsPageProgrammed(p)) programmed.push_back(p);
    }
    if (programmed.empty()) continue;
    size_t target = programmed[rng.NextBelow(programmed.size())];
    (void)dev.CorruptPage(target, 1 + static_cast<int>(rng.NextBelow(8)));
    ++report.trials;

    bool error_seen = false;
    bool wrong_read = false;
    for (const auto& [key, value] : truth) {
      auto got = store->Get(key);
      if (!got.ok()) {
        error_seen = true;
      } else if (*got != value) {
        wrong_read = true;
      }
    }
    store.reset();
    auto reopened = LogStore::Open(&dev, transform.get(), strict);
    if (!reopened.ok()) error_seen = true;

    if (wrong_read) {
      ++report.silent_wrong_reads;
    } else if (error_seen) {
      ++report.detected;
    } else {
      ++report.undetected;
    }
  }
  return report;
}

}  // namespace tc::testing
