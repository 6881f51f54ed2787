// E19 — overload control: goodput under saturation, not throughput.
//
// The metastable-failure story this harness prices: a provider driven past
// its capacity keeps "working" — every op still completes — but completes
// them too late to matter, so *goodput* (ops finished within their
// deadline) collapses while the servers stay busy. The overload plane
// (gradient admission + deadline propagation + retry-after pushback +
// retry budgets) converts that collapse into early, cheap rejection: the
// admitted fraction still meets its deadline, and the rejected fraction
// costs microseconds instead of a burned deadline.
//
// Two legs:
//
//   1. Goodput vs offered load (plane ON vs OFF). Closed-loop client
//      threads sweep 0.5x..8x of the machine's capacity against a
//      provider whose every op burns real CPU (the slow-op fault class —
//      burned cycles contend, unlike the injector's virtual delays).
//      Each op carries a deadline; goodput counts only in-deadline
//      successes. Plane ON: rejected clients honor the server's
//      retry-after hint. Acceptance:
//        - plane ON at 4x offered load keeps >= 70% of its measured peak;
//        - plane OFF at 4x demonstrates the collapse (< 70% of its peak);
//        - after the 8x spike, a re-run at 1x recovers >= 70% of peak
//          (bounded recovery — no metastable hangover).
//      One discarded plane-ON 1x point runs first: on a host that has
//      just been idle, the first points of the sweep otherwise run cold.
//   2. Retry-storm ablation: full forced outage, a fleet of channels
//      retrying. Retry budgets cap fleet-wide amplification
//      (attempts/ops <= 2x by acceptance); the same sweep with budgets
//      off shows the storm the cap prevents. Virtual clocks throughout —
//      the storm runs at CPU speed.
//
// All legs are in-process: E16 priced the wire; E19 prices the control
// plane. The rpc_test/overload_test socket legs prove the same headers
// work over TCP.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/overload.h"
#include "tc/net/channel.h"

using namespace tc;  // NOLINT — benchmark brevity.
using cloud::CloudInfrastructure;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;

namespace {

// ---------------------------------------------------------------------------
// Leg 1: goodput vs offered load
// ---------------------------------------------------------------------------

// The burn must exceed any plausible scheduler timeslice: with sub-slice
// ops a preempted thread completes a *burst* of in-deadline ops every time
// it runs, and overcommit never shows up in per-op latency. At 10ms of
// real CPU per op, an op's wall time is honestly ~(concurrency x burn), so
// a 2.5x-burn deadline passes at concurrency <= 2 and fails at the 4x
// sweep point's concurrency 4 — which is exactly the collapse the plane
// has to prevent by refusing the excess admissions.
constexpr uint64_t kOpBurnUs = 10'000;   // Real CPU burned per provider op.
constexpr uint64_t kDeadlineUs = 30'000; // Per-op budget; late = not goodput.
constexpr uint64_t kPointMs = 500;       // Wall time per sweep point.
constexpr double kGoodputFloor = 0.70;   // Acceptance: on-plane @4x vs peak.
const double kMultipliers[] = {0.5, 1, 2, 4, 8};

uint64_t WallNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SweepPoint {
  double multiplier = 0;
  size_t threads = 0;
  uint64_t good = 0;      // ok within deadline.
  uint64_t late = 0;      // ok but past deadline (worked, wasted).
  uint64_t rejected = 0;  // kResourceExhausted pushback.
  uint64_t failed = 0;    // anything else.
  double seconds = 0;
  uint64_t admission_rejected = 0;
  double goodput() const { return seconds > 0 ? good / seconds : 0; }
};

SweepPoint RunLoadPoint(double multiplier, size_t base_threads,
                        bool plane_on) {
  CloudInfrastructure cloud;
  NetworkFaultConfig config;
  config.slow_op_prob = 1.0;
  config.slow_op_cpu_us = static_cast<uint32_t>(kOpBurnUs);
  config.seed = 19;
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  // Deployment-sized limiter: on an N-core host a 10ms pure-CPU op means
  // capacity is ~N concurrent ops; the cap at 2N is the operator's honest
  // provisioning bound (like queue_capacity), and the gradient limiter
  // adapts inside it — under deadline pressure it tightens toward 1.
  AdmissionConfig admission_config;
  admission_config.initial_limit = 2.0;
  admission_config.min_limit = 1.0;
  admission_config.max_limit = 2.0 * static_cast<double>(base_threads);
  AdmissionController admission(admission_config);
  if (plane_on) cloud.set_admission_controller(&admission);

  SweepPoint point;
  point.multiplier = multiplier;
  point.threads = std::max<size_t>(
      1, static_cast<size_t>(multiplier * static_cast<double>(base_threads) +
                             0.5));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> good{0}, late{0}, rejected{0}, failed{0};
  std::vector<std::thread> workers;
  workers.reserve(point.threads);
  const uint64_t t0 = WallNowUs();
  for (size_t t = 0; t < point.threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t seq = 0;
      const std::string doc = "e19/doc" + std::to_string(t);
      while (!stop.load(std::memory_order_relaxed)) {
        // A cell's store: one blind single-write commit under a token.
        cloud::TxnRequest req;
        req.token = doc + "/" + std::to_string(seq++);
        req.writes.push_back({doc, Bytes{1, 2, 3, 4}, cloud::kBaseVersionAny});
        OverloadContext ctx;
        ctx.budget_us = kDeadlineUs;
        const uint64_t start = WallNowUs();
        Status status;
        {
          ScopedOverloadContext scope(ctx);
          status = cloud.CommitTxnRpc(req).status;
        }
        const uint64_t took = WallNowUs() - start;
        if (status.ok()) {
          if (took <= kDeadlineUs) {
            good.fetch_add(1, std::memory_order_relaxed);
          } else {
            late.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (status.IsResourceExhausted()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          // A well-behaved client honors the pushback hint instead of
          // hammering — this is what keeps the rejected fraction cheap.
          const uint32_t hint = TakeRetryAfterHint();
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::min<uint32_t>(hint != 0 ? hint : 1000, 2000)));
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(kPointMs));
  stop.store(true);
  for (auto& w : workers) w.join();
  point.seconds = (WallNowUs() - t0) / 1e6;
  point.good = good.load();
  point.late = late.load();
  point.rejected = rejected.load();
  point.failed = failed.load();
  point.admission_rejected = admission.stats().rejected;
  cloud.set_admission_controller(nullptr);
  return point;
}

void PrintPoint(const char* label, const SweepPoint& p) {
  std::printf(
      "  %-5s %4.1fx %3zu thr  %7.0f good/s  good %6llu  late %5llu  "
      "rejected %6llu  failed %3llu\n",
      label, p.multiplier, p.threads, p.goodput(),
      static_cast<unsigned long long>(p.good),
      static_cast<unsigned long long>(p.late),
      static_cast<unsigned long long>(p.rejected),
      static_cast<unsigned long long>(p.failed));
}

// ---------------------------------------------------------------------------
// Leg 2: retry-storm ablation
// ---------------------------------------------------------------------------

struct StormResult {
  uint64_t ops = 0;
  uint64_t attempts = 0;
  uint64_t budget_denied = 0;
  double amplification() const {
    return ops > 0 ? static_cast<double>(attempts) / static_cast<double>(ops)
                   : 0;
  }
};

StormResult RunRetryStorm(bool budget_on) {
  // Full outage: every attempt fails kUnavailable. The breaker is held
  // open-proof (huge threshold) so the ablation isolates the budget — in
  // production both guards run, and the breaker makes this even cheaper.
  CloudInfrastructure cloud;
  NetworkFaultConfig config;
  config.seed = 19;
  NetworkFaultInjector injector(config);
  injector.ForceOutage(true);
  cloud.set_fault_injector(&injector);

  constexpr size_t kChannels = 8;
  constexpr size_t kOpsPerChannel = 25;
  StormResult result;
  net::InProcessTransport transport(&cloud);
  for (size_t c = 0; c < kChannels; ++c) {
    net::ChannelOptions options;
    options.seed = 100 + c;
    // Budgets off = a bucket that never runs dry.
    if (!budget_on) {
      options.retry_budget.capacity = std::numeric_limits<double>::infinity();
    }
    options.breaker.failure_threshold = 1u << 30;
    net::ResilientChannel channel(&transport, "storm" + std::to_string(c),
                                 options);
    for (size_t i = 0; i < kOpsPerChannel; ++i) {
      cloud::TxnRequest req;
      req.token = "storm" + std::to_string(c) + "/w" + std::to_string(i);
      req.writes.push_back({"storm/doc", Bytes{1}, cloud::kBaseVersionAny});
      (void)channel.CommitTxn(req);
      ++result.ops;
    }
    result.attempts += channel.stats().attempts;
    result.budget_denied += channel.stats().retry_budget_denied;
  }
  return result;
}

}  // namespace

int main() {
  std::printf("E19 — overload control: goodput, retry storms\n");
  std::printf(
      "provider op burns %llu us of real CPU; per-op deadline %llu us; "
      "%llu ms per sweep point\n\n",
      static_cast<unsigned long long>(kOpBurnUs),
      static_cast<unsigned long long>(kDeadlineUs),
      static_cast<unsigned long long>(kPointMs));

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t base_threads = std::min<size_t>(hw, 8);
  std::printf("capacity baseline (1x) = %zu threads (%u hw cores)\n\n",
              base_threads, hw);

  bool ok = true;

  // --- Leg 1: goodput vs offered load ---
  // Warm-up, discarded. On the first run after the host has idled, the
  // plane-ON 0.5x/1x rows read about 99 and 6-10 good/s against ~196/~385
  // warm. In the one cold run measured with this point in place the 1x
  // row read 331 but the 0.5x row still read 98; what runs cold is not
  // known yet (ROADMAP item 15).
  (void)RunLoadPoint(1, base_threads, true);
  std::printf("-- goodput vs offered load, plane ON --\n");
  std::vector<SweepPoint> on_points;
  for (double m : kMultipliers) {
    on_points.push_back(RunLoadPoint(m, base_threads, true));
    PrintPoint("on", on_points.back());
  }
  std::printf("-- goodput vs offered load, plane OFF --\n");
  std::vector<SweepPoint> off_points;
  for (double m : kMultipliers) {
    off_points.push_back(RunLoadPoint(m, base_threads, false));
    PrintPoint("off", off_points.back());
  }

  double peak_on = 0, peak_off = 0;
  double on_at_4x = 0, off_at_4x = 0;
  for (const SweepPoint& p : on_points) {
    peak_on = std::max(peak_on, p.goodput());
    if (p.multiplier == 4) on_at_4x = p.goodput();
  }
  for (const SweepPoint& p : off_points) {
    peak_off = std::max(peak_off, p.goodput());
    if (p.multiplier == 4) off_at_4x = p.goodput();
  }

  const double on_frac = peak_on > 0 ? on_at_4x / peak_on : 0;
  const double off_frac = peak_off > 0 ? off_at_4x / peak_off : 0;
  std::printf(
      "\nplane ON : peak %.0f good/s, at 4x %.0f good/s — %.0f%% of peak "
      "(bound: >= %.0f%%) %s\n",
      peak_on, on_at_4x, 100 * on_frac, 100 * kGoodputFloor,
      on_frac >= kGoodputFloor ? "PASS" : "FAIL");
  std::printf(
      "plane OFF: peak %.0f good/s, at 4x %.0f good/s — %.0f%% of peak "
      "(collapse expected: < %.0f%%) %s\n",
      peak_off, off_at_4x, 100 * off_frac, 100 * kGoodputFloor,
      off_frac < kGoodputFloor ? "PASS" : "FAIL");
  if (on_frac < kGoodputFloor) ok = false;
  if (off_frac >= kGoodputFloor) ok = false;

  // Bounded recovery: back to 1x right after the 8x spike.
  SweepPoint recovery = RunLoadPoint(1, base_threads, true);
  const double rec_frac = peak_on > 0 ? recovery.goodput() / peak_on : 0;
  std::printf(
      "recovery : 1x after the 8x spike %.0f good/s — %.0f%% of peak "
      "(bound: >= %.0f%%) %s\n",
      recovery.goodput(), 100 * rec_frac, 100 * kGoodputFloor,
      rec_frac >= kGoodputFloor ? "PASS" : "FAIL");
  if (rec_frac < kGoodputFloor) ok = false;

  // --- Leg 2: retry-storm ablation ---
  std::printf("\n-- retry-storm ablation (full outage, 8 channels) --\n");
  StormResult with_budget = RunRetryStorm(true);
  StormResult no_budget = RunRetryStorm(false);
  std::printf(
      "  budget ON : %llu ops, %llu attempts — %.2fx amplification "
      "(%llu retries denied; bound: <= 2x) %s\n",
      static_cast<unsigned long long>(with_budget.ops),
      static_cast<unsigned long long>(with_budget.attempts),
      with_budget.amplification(),
      static_cast<unsigned long long>(with_budget.budget_denied),
      with_budget.amplification() <= 2.0 ? "PASS" : "FAIL");
  std::printf(
      "  budget OFF: %llu ops, %llu attempts — %.2fx amplification "
      "(the storm the cap prevents)\n",
      static_cast<unsigned long long>(no_budget.ops),
      static_cast<unsigned long long>(no_budget.attempts),
      no_budget.amplification());
  if (with_budget.amplification() > 2.0) ok = false;
  if (no_budget.amplification() <= with_budget.amplification()) ok = false;

  std::printf("\nE19 %s\n", ok ? "PASS" : "FAILED");
  return ok ? 0 : 1;
}
