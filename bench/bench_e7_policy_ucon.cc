// E7 — cost of usage control and accountability.
//
// The reference monitor runs on every access inside the cell, so its
// latency must be negligible against the crypto + I/O path:
//   * UCON decision latency vs policy size,
//   * sticky-policy bind/verify cost,
//   * audit-log append and full chain verification throughput,
//   * end-to-end overhead of a policy-checked shared read.

#include <chrono>
#include <cstdio>

#include "tc/cell/cell.h"
#include "tc/policy/sticky_policy.h"
#include "tc/policy/ucon.h"

using namespace tc;  // NOLINT — benchmark brevity.

namespace {

double UsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

policy::Policy PolicyWithRules(int n) {
  policy::Policy p{"bench-policy", "owner", {}};
  for (int i = 0; i < n; ++i) {
    policy::UsageRule rule;
    rule.id = "rule-" + std::to_string(i);
    rule.subjects = {"subject-" + std::to_string(i)};
    rule.rights = {policy::Right::kRead};
    rule.conditions = {policy::AttributeCondition{
        "age", policy::ConditionOp::kGe, policy::PolicyValue(int64_t{18})}};
    rule.max_uses = 1000000;
    p.rules.push_back(rule);
  }
  return p;
}

}  // namespace

int main() {
  std::printf("=== E7: usage control & accountability overhead ===\n");

  // UCON decision latency vs rule count (worst case: last rule matches).
  std::printf("\n%-28s %14s %14s\n", "policy size", "us/decision",
              "serialized B");
  for (int rules : {1, 10, 100, 1000}) {
    policy::Policy p = PolicyWithRules(rules);
    policy::DecisionPoint pdp;
    policy::AccessRequest req{
        "subject-" + std::to_string(rules - 1),
        policy::Right::kRead,
        {{"age", policy::PolicyValue(int64_t{30})}},
        0};
    const int kIters = 2000;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      TC_CHECK(pdp.EvaluateAndConsume(p, req).allowed);
    }
    std::printf("%-28d %14.2f %14zu\n", rules, UsSince(t0) / kIters,
                p.Serialize().size());
  }

  // Sticky policy bind/verify.
  {
    policy::Policy p = PolicyWithRules(3);
    Bytes key(32, 0x42);
    const int kIters = 2000;
    auto t0 = std::chrono::steady_clock::now();
    Bytes envelope;
    for (int i = 0; i < kIters; ++i) {
      envelope = policy::StickyPolicy::Bind(p, "doc", key);
    }
    double bind_us = UsSince(t0) / kIters;
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      TC_CHECK(policy::StickyPolicy::VerifyAndExtract(envelope, "doc", key)
                   .ok());
    }
    std::printf("\nsticky policy (3 rules): bind %.2f us, verify+parse "
                "%.2f us\n",
                bind_us, UsSince(t0) / kIters);
  }

  // Audit log throughput.
  {
    tee::TrustedExecutionEnvironment tee("audit-bench",
                                         tee::DeviceClass::kHomeGateway);
    TC_CHECK(tee.keystore().GenerateKey("audit").ok());
    policy::AuditLog log(&tee, "audit");
    const int kEntries = 5000;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kEntries; ++i) {
      log.journal().Append({.time = i,
                            .subject = "bob",
                            .action = "read",
                            .object = "doc-" + std::to_string(i % 50),
                            .allowed = true,
                            .detail = "rule"});
    }
    double append_us = UsSince(t0) / kEntries;
    auto exported_or = log.Export();
    TC_CHECK(exported_or.ok());
    Bytes exported = *exported_or;
    t0 = std::chrono::steady_clock::now();
    auto entries =
        policy::AuditLog::VerifyAndDecrypt(exported, &tee, "audit", kEntries);
    TC_CHECK(entries.ok());
    double verify_ms = UsSince(t0) / 1000.0;
    std::printf(
        "audit log: append %.1f us/entry (hash chain); verify+decrypt %d "
        "entries in %.1f ms (%.0f B/entry on the wire)\n",
        append_us, kEntries, verify_ms,
        static_cast<double>(exported.size()) / kEntries);
  }

  // End-to-end: policy-checked shared read vs the raw fetch path.
  {
    SimulatedClock clock(MakeTimestamp(2013, 5, 1));
    cloud::CloudInfrastructure cloud;
    cell::CellDirectory directory;
    cell::TrustedCell::Config ca;
    ca.cell_id = "owner-cell";
    ca.owner = "alice";
    auto alice = *cell::TrustedCell::Create(ca, &cloud, &directory, &clock);
    cell::TrustedCell::Config cb;
    cb.cell_id = "reader-cell";
    cb.owner = "bob";
    auto bob = *cell::TrustedCell::Create(cb, &cloud, &directory, &clock);

    auto doc = *alice->StoreDocument("doc", "doc", Bytes(4096, 1),
                                     cell::MakeOwnerPolicy("alice"));
    policy::UsageRule rule;
    rule.id = "bob";
    rule.subjects = {"bob"};
    rule.rights = {policy::Right::kRead};
    rule.obligations = {policy::ObligationType::kLogAccess};
    TC_CHECK(alice->ShareDocument(doc, "reader-cell",
                                  policy::Policy{"p", "alice", {rule}})
                 .ok());
    TC_CHECK(*bob->ProcessInbox() == 1);

    const int kReads = 300;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReads; ++i) {
      TC_CHECK(bob->ReadSharedDocument(doc, "bob").ok());
    }
    double shared_us = UsSince(t0) / kReads;
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReads; ++i) {
      TC_CHECK(alice->FetchDocument(doc).ok());
    }
    double own_us = UsSince(t0) / kReads;
    std::printf(
        "\nend-to-end 4 KiB read: owner fetch %.0f us vs policy-checked "
        "shared read %.0f us (audit + UCON add %.0f%%)\n",
        own_us, shared_us, 100.0 * (shared_us - own_us) / own_us);
  }
  return 0;
}
