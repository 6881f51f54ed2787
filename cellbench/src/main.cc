// cellbench: seeded closed-loop workloads over real TrustedCells.
//
//   cellbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source <id>] [--spans-out <path>]
//
// A run repeats rounds; each round builds a fresh environment from the
// seed and performs the same fixed operation sequence. --seconds sets only
// the number of rounds.
//
// --trace 0 (obs off) prints the end-to-end metrics: each timing is the
// median over the rounds with the least host steal.
// --trace 1 alternates untraced and traced rounds (their throughput ratio
// is the tracing overhead; the traced windows give the per-layer metrics
// and the spans), then runs one attribution round that serializes
// operations so the per-operation-type "where did the us go" tables are
// exact.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cellbench/src/harness.h"

namespace cellbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string source = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if ((argc - 1) % 2 != 0 || !kv.count("--workload")) return false;
  args->workload = kv["--workload"];
  try {
    if (kv.count("--seed")) args->seed = std::stoull(kv["--seed"]);
    if (kv.count("--seconds")) args->seconds = std::stod(kv["--seconds"]);
    if (kv.count("--trace")) args->trace = std::stoi(kv["--trace"]);
  } catch (const std::exception&) {
    return false;
  }
  if (kv.count("--source")) args->source = kv["--source"];
  if (kv.count("--spans-out")) args->spans_out = kv["--spans-out"];
  return args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Ordered name -> (value, unit) list printed as the result's metrics.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
      os << (i ? ", " : "") << "\"" << entries_[i].name
         << "\": {\"value\": " << v << ", \"unit\": \"" << entries_[i].unit
         << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The operation type whose latency is the workload's headline, and the
/// one that writes (the same type on the update loop).
OpType MainOp(const WorkloadSpec& spec) {
  return spec.updates ? OpType::kUpdate : OpType::kFetch;
}
OpType WriteOp(const WorkloadSpec& spec) {
  return spec.updates ? OpType::kUpdate : OpType::kStore;
}
/// p99 where a round has thousands of samples of the type; p95 on the
/// update loop, where a round gives hundreds.
double TailP(const WorkloadSpec& spec) { return spec.updates ? 0.95 : 0.99; }

void PrintHost(const Args& args, const char* pass, const RoundResult& r) {
  std::printf(
      "# host pass=%s rounds=%d source=%s nproc=%u compiler=%s "
      "build_type=%s steal_pct=%.3f wall_s=%.3f cpu_s=%.3f\n",
      pass, r.rounds, args.source.c_str(), std::thread::hardware_concurrency(),
      CELLBENCH_COMPILER, CELLBENCH_BUILD_TYPE, r.steal_pct(), r.wall_s,
      r.cpu_s);
}

void PrintChecks(const char* pass, const RoundResult& r) {
  std::printf(
      "# checks pass=%s attempted=%zu non_ok=%zu mismatched=%zu "
      "error_ratio=%.6f output_checks=%s\n",
      pass, r.attempted, r.failed_status, r.mismatched,
      Ratio(r.failed(), r.attempted),
      r.check_failures.empty() ? "pass" : "FAIL");
  for (const std::string& e : r.first_errors) {
    std::printf("#   error: %s\n", e.c_str());
  }
  for (const std::string& f : r.check_failures) {
    std::printf("#   check failed: %s\n", f.c_str());
  }
}

void PrintLatencies(const RoundResult& r) {
  for (size_t t = 0; t < kOpTypes; ++t) {
    const auto& s = r.latency_ns[t];
    if (s.empty()) continue;
    std::printf("# latency op=%s n=%zu p50_us=%.1f p95_us=%.1f p99_us=%.1f\n",
                OpName(static_cast<OpType>(t)), s.size(),
                PercentileUs(s, 0.50), PercentileUs(s, 0.95),
                PercentileUs(s, 0.99));
  }
}

// ------------------------------------------------------ attribution

/// Self time of each layer over a scope, in us. Children of the cell
/// operation run one after another on the cell's thread (tee, storage,
/// transport); below the transport the in-process path calls the cloud
/// directly, the socket path goes client call -> pool wait -> dispatch.
struct LayerTimes {
  double op, cell, tee, storage, net, rpc_hop, pool_wait, rpc_server, cloud;
};

LayerTimes Attribute(const LayerCounts& c, bool wire) {
  LayerTimes t{};
  t.op = c[kOpNs] / 1000.0;
  t.tee = double(c[kSealUs] + c[kUnsealUs]);
  t.storage = double(c[kGetUs] + c[kAppendUs]);
  t.cloud = double(c[kCloudGetUs] + c[kCloudPutUs] + c[kCloudTxnUs]);
  const double transport = c[kTransportNs] / 1000.0;
  t.cell = t.op - t.tee - t.storage - transport;
  if (wire) {
    t.net = transport - c[kRpcCallUs];
    t.pool_wait = double(c[kPoolWaitUs]);
    t.rpc_hop = double(c[kRpcCallUs]) - t.pool_wait - c[kDispatchUs];
    t.rpc_server = double(c[kDispatchUs]) - t.cloud;
  } else {
    t.net = transport - t.cloud;
  }
  return t;
}

bool PrintWhereTable(const std::string& title, const LayerCounts& c,
                     bool wire) {
  const double ops = double(c[kOps]);
  if (ops == 0) return true;
  const LayerTimes t = Attribute(c, wire);
  std::printf("# where did the us go: %s (%.0f ops, %.1f us/op)\n",
              title.c_str(), ops, t.op / ops);
  std::printf("#   %-22s %12s %8s\n", "layer (self)", "us/op", "share");
  bool nonnegative = true;
  auto row = [&](const char* name, double us) {
    std::printf("#   %-22s %12.2f %7.1f%%\n", name, us / ops,
                100.0 * Ratio(us, t.op));
    if (us < 0) nonnegative = false;
  };
  row("cell", t.cell);
  row("tee", t.tee);
  row("storage", t.storage);
  row("net", t.net);
  if (wire) {
    row("rpc.hop", t.rpc_hop);
    row("fleet.pool_wait", t.pool_wait);
    row("rpc.server", t.rpc_server);
  }
  row("cloud", t.cloud);
  std::printf(
      "#   counts/op: tee.seals=%.3f tee.unseals=%.3f storage.gets=%.3f "
      "storage.appends=%.3f storage.user_bytes=%.1f storage.index_hits=%.3f "
      "flash.reads=%.3f flash.programs=%.3f flash.erases=%.4f "
      "audit.records=%.3f audit.checkpoints=%.4f transport.calls=%.3f "
      "rpc.bytes_in=%.1f rpc.bytes_out=%.1f retries=%.4f\n",
      c[kSealN] / ops, c[kUnsealN] / ops, c[kGetN] / ops, c[kAppends] / ops,
      c[kUserBytes] / ops,
      c[kIndexHits] / ops, c[kFlashReads] / ops, c[kFlashPrograms] / ops,
      c[kFlashErases] / ops, c[kAuditRecords] / ops,
      c[kAuditCheckpoints] / ops, c[kTransportCalls] / ops,
      c[kRpcBytesIn] / ops, c[kRpcBytesOut] / ops, c[kRetries] / ops);
  return nonnegative;
}

void PrintExactCounts(const char* pass, const RoundResult& r) {
  for (const CellCounts& cell : r.cells) {
    const LayerCounts& c = cell.counts;
    std::printf(
        "# exact pass=%s cell=%s appends=%llu user_bytes=%llu "
        "index_hits=%llu flash_reads=%llu flash_programs=%llu "
        "flash_erases=%llu\n",
        pass, cell.cell_id.c_str(), (unsigned long long)c[kAppends],
        (unsigned long long)c[kUserBytes], (unsigned long long)c[kIndexHits],
        (unsigned long long)c[kFlashReads],
        (unsigned long long)c[kFlashPrograms],
        (unsigned long long)c[kFlashErases]);
  }
  std::printf("# exact pass=%s rpc_bytes_in=%llu rpc_bytes_out=%llu\n", pass,
              (unsigned long long)r.window[kRpcBytesIn],
              (unsigned long long)r.window[kRpcBytesOut]);
}

void PerLayerMetrics(const WorkloadSpec& spec, const RoundResult& r,
                     double overhead_pct, Metrics* m) {
  const LayerCounts& c = r.window;
  const double ops = double(r.attempted);
  const LayerTimes t = Attribute(c, spec.wire);
  size_t writes = r.latency_ns[size_t(WriteOp(spec))].size();
  m->Set("cell.self_us_per_op", t.cell / ops, "us");
  m->Set("tee.seal_us_per_op", c[kSealUs] / ops, "us");
  m->Set("tee.unseal_us_per_op", c[kUnsealUs] / ops, "us");
  m->Set("policy.audit_records_per_op", c[kAuditRecords] / ops, "count");
  m->Set("policy.audit_checkpoints_per_op", c[kAuditCheckpoints] / ops,
         "count");
  m->Set("storage.gets_per_op", c[kGetN] / ops, "count");
  m->Set("storage.get_us_per_op", c[kGetUs] / ops, "us");
  m->Set("storage.appends_per_op", c[kAppends] / ops, "count");
  m->Set("storage.append_us_per_op", c[kAppendUs] / ops, "us");
  m->Set("storage.user_bytes_per_store", Ratio(c[kUserBytes], writes), "B");
  m->Set("storage.flash_page_reads_per_op", c[kFlashReads] / ops, "count");
  m->Set("storage.flash_page_programs_per_op", c[kFlashPrograms] / ops,
         "count");
  m->Set("storage.flash_block_erases_per_op", c[kFlashErases] / ops, "count");
  m->Set("storage.write_amplification",
         Ratio(double(c[kFlashPrograms]) * r.page_size, c[kUserBytes]),
         "ratio");
  m->Set("storage.index_hit_ratio",
         Ratio(c[kIndexHits], c[kIndexHits] + c[kFullScans]), "ratio");
  m->Set("net.transport_calls_per_op", c[kTransportCalls] / ops, "count");
  m->Set("net.transport_us_per_op", c[kTransportNs] / 1000.0 / ops, "us");
  m->Set("net.transport_call_p50_us", PercentileUs(r.transport_call_ns, 0.50),
         "us");
  m->Set("net.transport_call_p99_us", PercentileUs(r.transport_call_ns, 0.99),
         "us");
  m->Set("net.retries_per_op", c[kRetries] / ops, "count");
  m->Set("rpc.client_call_us_mean", Ratio(c[kRpcCallUs], c[kRpcCallN]), "us");
  m->Set("rpc.server_dispatch_us_mean", Ratio(c[kDispatchUs], c[kDispatchN]),
         "us");
  m->Set("rpc.hop_us_mean", Ratio(t.rpc_hop, c[kRpcCallN]), "us");
  m->Set("rpc.bytes_per_op", (c[kRpcBytesIn] + c[kRpcBytesOut]) / ops, "B");
  m->Set("fleet.pool_wait_us_mean", Ratio(c[kPoolWaitUs], c[kPoolWaitN]),
         "us");
  m->Set("fleet.pool_run_us_mean", Ratio(c[kPoolRunUs], c[kPoolRunN]), "us");
  m->Set("cloud.get_us_mean", Ratio(c[kCloudGetUs], c[kCloudGetN]), "us");
  m->Set("cloud.put_us_mean", Ratio(c[kCloudPutUs], c[kCloudPutN]), "us");
  m->Set("cloud.txn_us_mean", Ratio(c[kCloudTxnUs], c[kCloudTxnN]), "us");
  m->Set("cloud.txn_aborts_per_commit", Ratio(c[kTxnAborts], c[kTxnCommits]),
         "ratio");
  m->Set("obs.tracing_overhead_pct", overhead_pct, "%");
}

/// Each timing is computed per round and the median across rounds is
/// reported, so a round disturbed by the host (a burst of vCPU steal)
/// does not move the result.
void EndToEndMetrics(const WorkloadSpec& spec,
                     const std::vector<RoundResult>& rounds,
                     const RoundResult& all, Metrics* m) {
  auto median = [&](auto per_round) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(per_round(r));
    return Median(v);
  };
  const size_t main_op = size_t(MainOp(spec));
  const size_t write_op = size_t(WriteOp(spec));
  const double tail = TailP(spec);
  m->Set("ops_per_s", median([](const RoundResult& r) { return r.ops_per_s(); }),
         "1/s");
  m->Set("cpu_us_per_op", median([](const RoundResult& r) {
           return r.cpu_s * 1e6 / r.attempted;
         }),
         "us");
  m->Set("op_p50_us", median([&](const RoundResult& r) {
           return PercentileUs(r.latency_ns[main_op], 0.50);
         }),
         "us");
  m->Set("op_tail_us", median([&](const RoundResult& r) {
           return PercentileUs(r.latency_ns[main_op], tail);
         }),
         "us");
  m->Set("write_p50_us", median([&](const RoundResult& r) {
           return PercentileUs(r.latency_ns[write_op], 0.50);
         }),
         "us");
  m->Set("write_tail_us", median([&](const RoundResult& r) {
           return PercentileUs(r.latency_ns[write_op], tail);
         }),
         "us");
  m->Set("provider_bytes_per_user_byte",
         Ratio(all.provider_bytes, all.user_bytes), "ratio");
  m->Set("setup_s", Median(all.setup_s), "s");
  m->Set("peak_rss_mb",
         median([](const RoundResult& r) { return r.peak_rss_mb; }), "MB");
}

void PrintRound(const WorkloadSpec& spec, int index, const RoundResult& r) {
  const auto& main_op = r.latency_ns[size_t(MainOp(spec))];
  std::printf(
      "# round %d: setup_s=%.4f wall_s=%.3f steal_pct=%.2f ops_per_s=%.1f "
      "peak_rss_mb=%.1f %s_n=%zu p50_us=%.1f tail_us=%.1f\n",
      index, r.setup_s.front(), r.wall_s, r.steal_pct(), r.ops_per_s(),
      r.peak_rss_mb,
      OpName(MainOp(spec)), main_op.size(), PercentileUs(main_op, 0.50),
      PercentileUs(main_op, TailP(spec)));
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const Metrics& m) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, m.Json().c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cellbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--source <id>] [--spans-out <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("# cellbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name.c_str(), (unsigned long long)args.seed, args.seconds,
              args.trace);

  const std::vector<CellPlan> plans =
      MakePlans(*spec, args.seed, spec->ops_per_cell);
  const int rounds = spec->Rounds(args.seconds);
  RoundOptions untraced;
  untraced.spec = spec;
  Metrics metrics;

  if (args.trace == 0) {
    // Another tenant's burst of vCPU steal slows every round it overlaps
    // (most of all the loopback workloads, whose calls each wait on three
    // thread wake-ups). Rounds continue until `rounds` of them ran under
    // kQuietStealPct, at most half as many again and not past 1.5 times
    // the requested seconds, and the timings come from the `rounds` rounds
    // with the least steal. Every round counts toward attempted, failed
    // and the output checks.
    constexpr double kQuietStealPct = 3.0;
    const int max_rounds = rounds + (rounds + 1) / 2;
    const auto start = std::chrono::steady_clock::now();
    auto elapsed_s = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    std::vector<RoundResult> per_round;
    RoundResult all;
    int quiet = 0;
    for (int i = 0; i < max_rounds && quiet < rounds; ++i) {
      if (i >= rounds && elapsed_s() > 1.5 * args.seconds) break;
      per_round.push_back(RunRound(untraced, plans, nullptr));
      all.Merge(per_round.back());
      if (!all.ran) break;
      PrintRound(*spec, i, per_round.back());
      if (per_round.back().steal_pct() < kQuietStealPct) ++quiet;
    }
    PrintHost(args, "untraced", all);
    PrintChecks("untraced", all);
    if (!all.ran) return 1;  // Set-up failed; reported above.
    PrintLatencies(all);
    std::stable_sort(per_round.begin(), per_round.end(),
                     [](const RoundResult& a, const RoundResult& b) {
                       return a.steal_pct() < b.steal_pct();
                     });
    per_round.resize(std::min<size_t>(per_round.size(), rounds));
    std::printf("# timings from the %zu least-stolen of %d rounds\n",
                per_round.size(), all.rounds);
    EndToEndMetrics(*spec, per_round, all, &metrics);
    PrintResult(all.correct(), all.attempted, all.failed(), metrics);
    return 0;
  }

  // Untraced and traced rounds alternate, so host drift between them
  // cancels out of the overhead ratio.
  RoundOptions traced = untraced;
  traced.traced = true;
  RoundOptions attribution = untraced;
  attribution.serialize_ops = true;
  RoundResult off, on;
  std::string spans;
  for (int i = 0; i < std::max(1, rounds / 2); ++i) {
    off.Merge(RunRound(untraced, plans, nullptr));
    on.Merge(RunRound(traced, plans, &spans));
    if (!off.ran || !on.ran) break;
  }
  const RoundResult attr = RunRound(attribution, plans, nullptr);
  PrintHost(args, "untraced", off);
  PrintChecks("untraced", off);
  PrintHost(args, "traced", on);
  PrintChecks("traced", on);
  PrintHost(args, "attribution", attr);
  PrintChecks("attribution", attr);
  if (!off.ran || !on.ran || !attr.ran) return 1;
  PrintLatencies(on);
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << spans;
    std::printf("# spans written: %s\n", args.spans_out.c_str());
  }

  const double overhead_pct =
      100.0 * Ratio(off.ops_per_s() - on.ops_per_s(), off.ops_per_s());
  std::printf(
      "# obs.tracing_overhead_pct=%.3f (untraced %.1f ops/s, traced %.1f "
      "ops/s)\n",
      overhead_pct, off.ops_per_s(), on.ops_per_s());
  bool nonnegative = PrintWhereTable(
      spec->name + " window (concurrent, traced)", on.window, spec->wire);
  for (size_t t = 0; t < kOpTypes; ++t) {
    nonnegative &= PrintWhereTable(
        spec->name + " op=" + OpName(static_cast<OpType>(t)) +
            " (attribution pass, serialized)",
        attr.per_type[t], spec->wire);
  }
  if (!nonnegative) std::printf("# WARNING: a layer's self time is negative\n");
  PrintExactCounts("traced", on);
  PrintExactCounts("attribution", attr);
  std::printf("# exact counts repeat across %d traced rounds: %s\n",
              on.rounds, on.counts_repeat ? "yes" : "NO");

  PerLayerMetrics(*spec, on, overhead_pct, &metrics);
  const bool correct = off.correct() && on.correct() && attr.correct();
  PrintResult(correct, off.attempted + on.attempted + attr.attempted,
              off.failed() + on.failed() + attr.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace cellbench

int main(int argc, char** argv) { return cellbench::Main(argc, argv); }
