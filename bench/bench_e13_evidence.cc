// E13 — cost of the evidence layer (PR 4).
//
// Two measurements over the tamper-evident audit journal and the incident
// flight recorder, swept against journal length:
//
//   1. Journal cost: append (SHA-256 chain extension + periodic TEE-signed
//      checkpoint), sealed export, and full verification
//      (AEAD open + chain re-walk + per-checkpoint quote verification) —
//      the price the originator pays to *check* the evidence it receives.
//   2. Flight-dump latency: FlightRecorder::Trigger() snapshots the trace
//      ring, the metric registry and the journal tail on the failure path
//      itself, so its latency must stay bounded as the journal grows (the
//      tail capture is O(kJournalTail), not O(journal)).
//
// Run: bench_e13_evidence  (plain report binary, no flags)

#include <chrono>
#include <cstdio>
#include <string>

#include "tc/obs/audit_journal.h"
#include "tc/obs/flight_recorder.h"
#include "tc/policy/audit.h"
#include "tc/tee/attestation.h"
#include "tc/tee/tee.h"

using namespace tc;  // NOLINT — benchmark brevity.

namespace {

double UsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() *
         1e6;
}

obs::AuditRecord Entry(int i) {
  return {.time = 1000 + i,
          .subject = "subject-" + std::to_string(i % 7),
          .action = "read",
          .object = "doc-" + std::to_string(i % 50),
          .allowed = i % 3 != 0,
          .detail = "rule"};
}

}  // namespace

int main() {
  std::printf("=== E13: evidence-layer cost ===\n");

  tee::Manufacturer maker("e13-maker");
  tee::TrustedExecutionEnvironment tee("e13-cell",
                                       tee::DeviceClass::kHomeGateway);
  tee.InstallEndorsement(maker.Endorse("e13-cell", tee.signing_public_key()));
  TC_CHECK(tee.keystore().GenerateKey("audit").ok());
  obs::CheckpointVerifier verifier =
      policy::QuoteCheckpointVerifier(tee.endorsement(), maker);

  std::printf("\njournal cost vs length (checkpoint every %zu records, "
              "TEE-quoted):\n",
              policy::AuditLog::kCheckpointInterval);
  std::printf("  %8s %14s %14s %16s %12s\n", "records", "append us/rec",
              "export ms", "verify ms (rate)", "wire B/rec");
  for (int records : {500, 2000, 10000}) {
    policy::AuditLog log(&tee, "audit");
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < records; ++i) {
      TC_CHECK(log.journal().Append(Entry(i)).ok());
    }
    double append_us = UsSince(t0) / records;

    t0 = std::chrono::steady_clock::now();
    auto exported = log.Export();
    TC_CHECK(exported.ok());
    double export_ms = UsSince(t0) / 1000.0;

    t0 = std::chrono::steady_clock::now();
    auto entries = policy::AuditLog::VerifyAndDecrypt(*exported, &tee,
                                                      "audit", records,
                                                      verifier);
    double verify_ms = UsSince(t0) / 1000.0;
    TC_CHECK(entries.ok());
    TC_CHECK(entries->size() == static_cast<size_t>(records));
    std::printf("  %8d %14.2f %14.2f %9.1f (%5.0f/ms) %9.0f\n", records,
                append_us, export_ms, verify_ms, records / verify_ms,
                static_cast<double>(exported->size()) / records);
  }

  std::printf("\nflight-dump latency vs journal length (ring+metrics+tail "
              "snapshot):\n");
  std::printf("  %8s %14s %14s\n", "records", "trigger us", "dump KiB");
  for (int records : {0, 1000, 10000, 50000}) {
    obs::AuditJournalOptions options;  // Unsigned checkpoints: isolates the
    options.checkpoint_interval = 64;  // snapshot cost from Schnorr cost.
    obs::AuditJournal journal(options);
    for (int i = 0; i < records; ++i) {
      obs::AuditRecord r;
      r.kind = obs::AuditKind::kPolicyDecision;
      r.subject = "s";
      r.action = "read";
      r.object = "doc-" + std::to_string(i);
      TC_CHECK(journal.Append(std::move(r)).ok());
    }
    obs::FlightRecorder recorder;
    const int kTriggers = 200;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTriggers; ++i) {
      recorder.Trigger("bench", "sweep", &journal);
    }
    double trigger_us = UsSince(t0) / kTriggers;
    double dump_kib =
        recorder.Dumps().back().ToJson().size() / 1024.0;
    std::printf("  %8d %14.1f %14.1f\n", records, trigger_us, dump_kib);
  }
  std::printf("\ntrigger latency is flat in journal length: the dump takes "
              "the last\n%zu records (Tail), never the whole journal.\n",
              obs::FlightRecorder::kJournalTail);
  return 0;
}
