#include "cellbench/src/harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <latch>
#include <mutex>
#include <sstream>
#include <thread>

#include "tc/cell/cell.h"
#include "tc/common/clock.h"
#include "tc/obs/audit_journal.h"
#include "tc/obs/metrics.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"

namespace cellbench {
namespace {

using tc::Bytes;
using tc::Result;
using tc::Status;
using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Aggregate "cpu" line of /proc/stat: total jiffies and steal jiffies.
struct CpuTimes {
  uint64_t total = 0, steal = 0;
};
CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  uint64_t v[8] = {};
  for (uint64_t& x : v) in >> x;  // user nice system idle iowait irq softirq steal
  for (uint64_t x : v) t.total += x;
  t.steal = v[7];
  return t;
}

/// Returns freed heap pages to the OS and restarts the kernel's peak-RSS
/// counter, so the next VmHWM reading is the peak of what follows.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

// ------------------------------------------------------------ spans

/// One benchmark span: a cell operation (parent 0) or a transport call
/// inside it. Times are nanoseconds since the pass started.
struct Span {
  uint64_t trace_id;
  uint32_t span_id;
  uint32_t parent_id;
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Per cell thread; spans stay in memory until the pass ends.
struct ThreadTrace {
  std::vector<Span> spans;
  uint64_t epoch_ns = 0;
  uint64_t trace_id = 0;
  uint32_t next_span_id = 1;
  uint32_t op_span_id = 0;
  uint64_t op_calls = 0;  ///< Transport calls of the current operation.
  uint64_t op_call_ns = 0;
};
thread_local ThreadTrace* t_trace = nullptr;

/// Benchmark-owned transport that forwards every call to the real one and
/// records a span for it under the calling thread's current operation.
class TimedTransport final : public tc::net::CloudTransport {
 public:
  explicit TimedTransport(tc::net::CloudTransport* inner) : inner_(inner) {}

  /// Runs one forwarded call and records its span.
  template <typename F>
  auto Timed(const char* name, F&& call) {
    ThreadTrace* tt = t_trace;
    const uint64_t start = NowNs();
    auto result = call();
    const uint64_t end = NowNs();
    if (tt != nullptr) {
      tt->spans.push_back(Span{tt->trace_id, tt->next_span_id++,
                               tt->op_span_id, name, start - tt->epoch_ns,
                               end - tt->epoch_ns});
      ++tt->op_calls;
      tt->op_call_ns += end - start;
    }
    return result;
  }

  BatchPutOutcome PutBlobBatch(
      const std::vector<std::pair<std::string, Bytes>>& items,
      const std::vector<std::string>& tokens) override {
    return Timed("put_blob_batch",
                 [&] { return inner_->PutBlobBatch(items, tokens); });
  }
  Result<Bytes> GetBlob(const std::string& id, uint32_t* delay_us) override {
    return Timed("get_blob", [&] { return inner_->GetBlob(id, delay_us); });
  }
  Result<tc::cloud::SnapshotDescriptor> GetSnapshot(
      uint32_t* delay_us) override {
    return Timed("get_snapshot", [&] { return inner_->GetSnapshot(delay_us); });
  }
  Result<tc::cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const tc::cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override {
    return Timed("get_at_snapshot",
                 [&] { return inner_->GetAtSnapshot(id, snap, delay_us); });
  }
  tc::cloud::TxnOutcome CommitTxn(const tc::cloud::TxnRequest& req) override {
    return Timed("commit_txn", [&] { return inner_->CommitTxn(req); });
  }
  tc::obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const Bytes& frame, uint32_t* delay_us) override {
    return Timed("report_telemetry",
                 [&] { return inner_->ReportTelemetry(frame, delay_us); });
  }
  Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override {
    return Timed("scrape_telemetry",
                 [&] { return inner_->ScrapeTelemetry(delay_us); });
  }
  std::string name() const override { return inner_->name(); }

 private:
  tc::net::CloudTransport* inner_;
};

// ------------------------------------------------------- environment

/// One provider, its optional loopback server, and the workload's cells.
/// Members are destroyed in reverse order: cells, then transports, then
/// the server, then the provider.
struct Env {
  tc::SimulatedClock clock{tc::MakeTimestamp(2013, 1, 7, 9, 0, 0)};
  tc::cloud::CloudInfrastructure cloud;
  tc::cell::CellDirectory directory;
  std::unique_ptr<tc::rpc::RpcServer> server;
  std::vector<std::unique_ptr<tc::net::CloudTransport>> transports;
  std::vector<std::unique_ptr<tc::net::CloudTransport>> wrappers;
  std::vector<std::unique_ptr<tc::cell::TrustedCell>> cells;
  std::vector<tc::policy::Policy> policies;
  /// Per cell: document ids in plan order ("" where the store failed) and
  /// the payload index each document currently holds.
  std::vector<std::vector<std::string>> doc_ids;
  std::vector<std::vector<uint32_t>> doc_payload;
};

Status BuildEnv(const RoundOptions& options,
                const std::vector<CellPlan>& plans, bool timed,
                std::unique_ptr<Env>* out) {
  auto env = std::make_unique<Env>();
  const WorkloadSpec& spec = *options.spec;
  if (spec.wire) {
    tc::rpc::RpcServer::Options server_options;
    server_options.worker_threads = 2;
    env->server =
        std::make_unique<tc::rpc::RpcServer>(&env->cloud, server_options);
    TC_RETURN_IF_ERROR(env->server->Start());
  }
  for (const CellPlan& plan : plans) {
    if (spec.wire) {
      tc::rpc::RpcClientPool::Options pool;
      pool.connections = 1;
      pool.warmup = true;
      auto socket = std::make_unique<tc::rpc::SocketTransport>(
          "127.0.0.1", env->server->port(), pool);
      if (socket->pool().connected_count() != 1) {
        return Status::Unavailable("loopback connection warmup failed");
      }
      env->transports.push_back(std::move(socket));
    } else {
      env->transports.push_back(
          std::make_unique<tc::net::InProcessTransport>(&env->cloud));
    }
    tc::net::CloudTransport* transport = env->transports.back().get();
    if (options.wrap) {
      env->wrappers.push_back(options.wrap(transport));
      transport = env->wrappers.back().get();
    }
    if (timed) {
      env->wrappers.push_back(std::make_unique<TimedTransport>(transport));
      transport = env->wrappers.back().get();
    }
    tc::cell::TrustedCell::Config config;
    config.cell_id = plan.cell_id;
    config.owner = plan.owner;
    config.device_class = tc::tee::DeviceClass::kHomeGateway;
    config.resilient_sync = true;
    config.transport = transport;
    TC_ASSIGN_OR_RETURN(auto cell, tc::cell::TrustedCell::Create(
                                       config, &env->cloud, &env->directory,
                                       &env->clock));
    env->cells.push_back(std::move(cell));
    env->policies.push_back(tc::cell::MakeOwnerPolicy(plan.owner));
    env->doc_ids.emplace_back();
    env->doc_payload.emplace_back();
  }

  // Preload, one thread per cell as in the measured loop.
  std::vector<Status> status(plans.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back([&, c] {
      const CellPlan& plan = plans[c];
      for (size_t d = 0; d < plan.preload_docs; ++d) {
        auto id = env->cells[c]->StoreDocument(
            plan.texts[d].title, plan.texts[d].keywords, plan.payloads[d],
            env->policies[c]);
        if (!id.ok()) {
          status[c] = id.status();
          return;
        }
        env->doc_ids[c].push_back(*id);
        env->doc_payload[c].push_back(static_cast<uint32_t>(d));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : status) TC_RETURN_IF_ERROR(s);
  *out = std::move(env);
  return Status::OK();
}

// ----------------------------------------------------- layer counts

/// obs histograms read by CountReader, with the fields they fill.
struct HistogramField {
  const char* name;
  Field sum;
  Field count;
};
const HistogramField kHistograms[] = {
    {"cell.seal_us", kSealUs, kSealN},
    {"cell.unseal_us", kUnsealUs, kUnsealN},
    {"storage.get_us", kGetUs, kGetN},
    {"storage.append_us", kAppendUs, kAppendN},
    {"cloud.get_us", kCloudGetUs, kCloudGetN},
    {"cloud.put_us", kCloudPutUs, kCloudPutN},
    {"cloud.put_batch_us", kCloudPutUs, kCloudPutN},
    {"cloud.txn_us", kCloudTxnUs, kCloudTxnN},
    {"rpc.client.call_us", kRpcCallUs, kRpcCallN},
    {"rpc.server.dispatch_us", kDispatchUs, kDispatchN},
    {"worker_pool.task_wait_us", kPoolWaitUs, kPoolWaitN},
    {"worker_pool.task_run_us", kPoolRunUs, kPoolRunN},
};
constexpr size_t kHistogramCount = std::size(kHistograms);

/// Reads the program's layer counters (not the span fields).
class CountReader {
 public:
  explicit CountReader(Env* env) : env_(env) {
    auto& registry = tc::obs::MetricRegistry::Global();
    for (size_t i = 0; i < kHistogramCount; ++i) {
      hist_[i] = &registry.GetHistogram(kHistograms[i].name);
    }
    pool_runs_ = &registry.GetHistogram("worker_pool.task_run_us");
    bytes_in_ = &registry.GetCounter("rpc.server.bytes_in");
    bytes_out_ = &registry.GetCounter("rpc.server.bytes_out");
  }

  LayerCounts Read() {
    LayerCounts c;
    for (size_t i = 0; i < kHistogramCount; ++i) {
      hist_[i]->SnapshotInto(&snap_);
      c[kHistograms[i].sum] += snap_.sum;
      c[kHistograms[i].count] += snap_.count;
    }
    c[kRpcBytesIn] = bytes_in_->Value();
    c[kRpcBytesOut] = bytes_out_->Value();
    for (const auto& cell : env_->cells) c.Add(ReadCell(*cell));
    tc::cloud::CloudStats cloud = env_->cloud.stats();
    c[kTxnCommits] = cloud.txn_commits;
    c[kTxnAborts] = cloud.txn_aborts;
    return c;
  }

  /// The per-cell fields: the cell's store, flash, journal and channel.
  static LayerCounts ReadCell(tc::cell::TrustedCell& cell) {
    LayerCounts c;
    const tc::storage::LogStoreStats& s = cell.store().stats();
    c[kAppends] = s.records_appended.load();
    c[kUserBytes] = s.user_bytes_appended.load();
    c[kIndexHits] = s.index_hits.load();
    c[kFullScans] = s.full_scans.load();
    const tc::storage::FlashStats f = cell.store().device()->stats();
    c[kFlashReads] = f.page_reads;
    c[kFlashPrograms] = f.page_programs;
    c[kFlashErases] = f.block_erases;
    c[kAuditRecords] = cell.audit_log().journal().record_count();
    c[kAuditCheckpoints] = cell.audit_log().journal().checkpoint_count();
    c[kRetries] = cell.net_channel()->stats().retries;
    return c;
  }

  /// Server-side tasks finish after the client has its reply; waits until
  /// the pool has recorded `tasks` runs so a serialized operation's deltas
  /// include its own server work and nothing of the next operation.
  bool AwaitPoolRuns(uint64_t tasks) {
    const uint64_t deadline = NowNs() + 2'000'000'000ull;
    while (true) {
      pool_runs_->SnapshotInto(&snap_);
      if (snap_.count >= tasks) return true;
      if (NowNs() > deadline) return false;
      std::this_thread::yield();
    }
  }

 private:
  Env* env_;
  tc::obs::Histogram* hist_[kHistogramCount];
  tc::obs::Histogram* pool_runs_;
  tc::obs::Counter* bytes_in_;
  tc::obs::Counter* bytes_out_;
  tc::obs::HistogramSnapshot snap_;
};

// ------------------------------------------------------- run loop

struct Worker {
  std::array<std::vector<uint64_t>, kOpTypes> latency_ns;
  size_t failed_status = 0;
  size_t mismatched = 0;
  uint64_t user_bytes = 0;
  std::vector<std::string> errors;
  ThreadTrace trace;
  std::array<LayerCounts, kOpTypes> per_type;
  bool quiesce_timeout = false;

  void NoteError(const std::string& what) {
    if (errors.size() < 3) errors.push_back(what);
  }
};

/// Shared state of a serialized (attribution) pass.
struct Serializer {
  std::mutex mu;
  CountReader* reader = nullptr;
  uint64_t pool_runs = 0;  ///< Expected server task runs so far (mu).
  bool wire = false;
};

void RunCell(Env& env, size_t c, const CellPlan& plan, bool traced,
             Serializer* serializer, std::latch& ready, std::latch& go,
             Worker* w) {
  tc::cell::TrustedCell& cell = *env.cells[c];
  std::vector<std::string>& ids = env.doc_ids[c];
  std::vector<uint32_t>& holds = env.doc_payload[c];
  for (auto& v : w->latency_ns) v.reserve(plan.ops.size());
  if (traced) {
    w->trace.spans.reserve(plan.ops.size() * 5);
    t_trace = &w->trace;
  }
  ready.count_down();
  go.wait();
  w->trace.epoch_ns = NowNs();
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    std::unique_lock<std::mutex> lock;
    LayerCounts before;
    if (serializer != nullptr) {
      lock = std::unique_lock<std::mutex>(serializer->mu);
      before = serializer->reader->Read();
    }
    if (traced) {
      w->trace.trace_id = (uint64_t(c + 1) << 32) | i;
      w->trace.op_span_id = w->trace.next_span_id++;
      w->trace.op_calls = 0;
      w->trace.op_call_ns = 0;
    }
    const uint64_t start = NowNs();
    switch (op.type) {
      case OpType::kFetch: {
        const std::string& id = ids[op.doc];
        auto got = id.empty() ? Result<Bytes>(Status::NotFound(
                                    "document whose store failed"))
                              : cell.FetchDocument(id);
        if (!got.ok()) {
          ++w->failed_status;
          w->NoteError("fetch: " + got.status().ToString());
        } else if (*got != plan.payloads[holds[op.doc]]) {
          ++w->mismatched;
          w->NoteError("fetch: bytes differ from what was stored");
        }
        break;
      }
      case OpType::kStore: {
        const Bytes& payload = plan.payloads[op.payload];
        auto id = cell.StoreDocument(plan.texts[op.doc].title,
                                     plan.texts[op.doc].keywords, payload,
                                     env.policies[c]);
        ids.push_back(id.ok() ? *id : std::string());
        holds.push_back(op.payload);
        w->user_bytes += payload.size();
        if (!id.ok()) {
          ++w->failed_status;
          w->NoteError("store: " + id.status().ToString());
        }
        break;
      }
      case OpType::kUpdate: {
        const Bytes& payload = plan.payloads[op.payload];
        Status s = cell.UpdateDocumentAtomic(ids[op.doc], payload);
        w->user_bytes += payload.size();
        if (s.ok()) {
          holds[op.doc] = op.payload;
        } else {
          ++w->failed_status;
          w->NoteError("update: " + s.ToString());
        }
        break;
      }
    }
    const uint64_t end = NowNs();
    const size_t type = static_cast<size_t>(op.type);
    w->latency_ns[type].push_back(end - start);
    if (traced) {
      w->trace.spans.push_back(Span{w->trace.trace_id, w->trace.op_span_id, 0,
                                    OpName(op.type), start - w->trace.epoch_ns,
                                    end - w->trace.epoch_ns});
    }
    if (serializer != nullptr) {
      if (serializer->wire) {
        serializer->pool_runs += w->trace.op_calls;
        if (!serializer->reader->AwaitPoolRuns(serializer->pool_runs)) {
          w->quiesce_timeout = true;
        }
      }
      LayerCounts delta = serializer->reader->Read().Minus(before);
      delta[kOps] = 1;
      delta[kOpNs] = end - start;
      delta[kTransportCalls] = w->trace.op_calls;
      delta[kTransportNs] = w->trace.op_call_ns;
      w->per_type[type].Add(delta);
    }
  }
  t_trace = nullptr;
}

std::string ManifestBlobId(const std::string& owner) {
  return "space/" + owner + "/manifest";
}

/// Output checks after the window: every cell clean, journals verify,
/// nothing left queued, and (update loop) every document reads back as
/// its last committed bytes under a manifest that advanced once per
/// committed update.
void CheckOutputs(Env& env, const std::vector<CellPlan>& plans,
                  const std::vector<uint64_t>& manifest_before,
                  const std::vector<uint64_t>& updates_ok, bool updates,
                  RoundResult* r) {
  for (size_t c = 0; c < env.cells.size(); ++c) {
    tc::cell::TrustedCell& cell = *env.cells[c];
    const std::string who = "cell " + cell.id() + ": ";
    if (!cell.incidents().empty()) {
      r->check_failures.push_back(
          who + std::to_string(cell.incidents().size()) +
          " security incidents, first: " + cell.incidents().front().detail);
    }
    const tc::obs::AuditJournal& journal = cell.audit_log().journal();
    const Bytes head = journal.head();
    const uint64_t count = journal.record_count();
    tc::obs::AuditVerifyReport report = tc::obs::AuditJournal::Verify(
        journal.Export(), &head, static_cast<int64_t>(count));
    if (!report.ok) {
      r->check_failures.push_back(who + "audit journal fails Verify: " +
                                  report.error);
    }
    if (cell.degraded() || cell.outbox_pending() != 0) {
      r->check_failures.push_back(who + "left degraded with " +
                                  std::to_string(cell.outbox_pending()) +
                                  " queued pushes");
    }
    if (!updates) continue;
    for (size_t d = 0; d < plans[c].preload_docs; ++d) {
      auto got = cell.FetchDocument(env.doc_ids[c][d]);
      if (!got.ok() || *got != plans[c].payloads[env.doc_payload[c][d]]) {
        ++r->mismatched;
        if (r->check_failures.size() < 8) {
          r->check_failures.push_back(
              who + "document " + std::to_string(d) +
              " does not read back as its last committed bytes");
        }
      }
    }
    auto version = env.cloud.LatestBlobVersion(ManifestBlobId(cell.owner()));
    const uint64_t after = version.ok() ? *version : 0;
    if (after != manifest_before[c] + updates_ok[c]) {
      r->check_failures.push_back(
          who + "manifest at version " + std::to_string(after) +
          ", expected " + std::to_string(manifest_before[c]) + " + " +
          std::to_string(updates_ok[c]) + " committed updates");
    }
  }
}

void AppendSpans(const std::vector<Worker>& workers, std::string* out) {
  std::ostringstream os;
  for (const Worker& w : workers) {
    for (const Span& s : w.trace.spans) {
      os << "{\"trace\":" << s.trace_id << ",\"span\":" << s.span_id
         << ",\"parent\":" << s.parent_id << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << "}\n";
    }
  }
  *out += os.str();
}

}  // namespace

double PercentileUs(std::vector<uint64_t> samples_ns, double p) {
  if (samples_ns.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * samples_ns.size()));
  rank = std::clamp<size_t>(rank, 1, samples_ns.size());
  std::nth_element(samples_ns.begin(), samples_ns.begin() + (rank - 1),
                   samples_ns.end());
  return samples_ns[rank - 1] / 1000.0;
}

void RoundResult::Merge(const RoundResult& o) {
  if (rounds == 0) {
    *this = o;
    return;
  }
  rounds += o.rounds;
  ran = ran && o.ran;
  setup_s.insert(setup_s.end(), o.setup_s.begin(), o.setup_s.end());
  attempted += o.attempted;
  failed_status += o.failed_status;
  mismatched += o.mismatched;
  check_failures.insert(check_failures.end(), o.check_failures.begin(),
                        o.check_failures.end());
  for (const std::string& e : o.first_errors) {
    if (first_errors.size() < 5) first_errors.push_back(e);
  }
  wall_s += o.wall_s;
  cpu_s += o.cpu_s;
  jiffies += o.jiffies;
  steal_jiffies += o.steal_jiffies;
  provider_bytes += o.provider_bytes;
  user_bytes += o.user_bytes;
  peak_rss_mb = std::max(peak_rss_mb, o.peak_rss_mb);
  for (size_t t = 0; t < kOpTypes; ++t) {
    latency_ns[t].insert(latency_ns[t].end(), o.latency_ns[t].begin(),
                         o.latency_ns[t].end());
    per_type[t].Add(o.per_type[t]);
  }
  transport_call_ns.insert(transport_call_ns.end(),
                           o.transport_call_ns.begin(),
                           o.transport_call_ns.end());
  window.Add(o.window);
  bool same = cells.size() == o.cells.size();
  for (size_t c = 0; same && c < cells.size(); ++c) {
    same = cells[c].counts.v == o.cells[c].counts.v;
  }
  counts_repeat = counts_repeat && o.counts_repeat && same;
}

RoundResult RunRound(const RoundOptions& options,
                     const std::vector<CellPlan>& plans, std::string* spans) {
  const WorkloadSpec& spec = *options.spec;
  const bool traced = options.traced || options.serialize_ops;
  tc::obs::SetEnabled(traced);

  RoundResult r;
  r.rounds = 1;
  ResetPeakRss();
  std::unique_ptr<Env> env;
  const uint64_t setup_start = NowNs();
  Status built = BuildEnv(options, plans, traced, &env);
  r.setup_s.push_back((NowNs() - setup_start) / 1e9);
  if (!built.ok()) {
    r.check_failures.push_back("set-up failed: " + built.ToString());
    return r;
  }
  r.ran = true;
  r.page_size = env->cells.front()->store().device()->geometry().page_size;

  std::vector<uint64_t> manifest_before(plans.size(), 0);
  for (size_t c = 0; c < plans.size(); ++c) {
    auto v = env->cloud.LatestBlobVersion(ManifestBlobId(plans[c].owner));
    if (v.ok()) manifest_before[c] = *v;
  }

  CountReader reader(env.get());
  Serializer serializer;
  serializer.reader = &reader;
  serializer.wire = spec.wire;
  std::vector<Worker> workers(plans.size());
  std::latch ready(static_cast<std::ptrdiff_t>(plans.size()));
  std::latch go(1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back(RunCell, std::ref(*env), c, std::cref(plans[c]),
                         traced,
                         options.serialize_ops ? &serializer : nullptr,
                         std::ref(ready), std::ref(go), &workers[c]);
  }
  ready.wait();
  const LayerCounts counts_before = reader.Read();
  serializer.pool_runs = counts_before[kPoolRunN];
  std::vector<LayerCounts> cells_before;
  for (const auto& cell : env->cells) {
    cells_before.push_back(CountReader::ReadCell(*cell));
  }
  const uint64_t provider_before = env->cloud.blob_store().total_bytes();
  const CpuTimes cpu_times_before = ReadCpuTimes();
  const double cpu_before = ProcessCpuSeconds();
  const uint64_t wall_before = NowNs();
  go.count_down();
  for (std::thread& t : threads) t.join();
  const uint64_t wall_after = NowNs();
  const double cpu_after = ProcessCpuSeconds();
  const CpuTimes cpu_times_after = ReadCpuTimes();
  r.provider_bytes = env->cloud.blob_store().total_bytes() - provider_before;
  r.window = reader.Read().Minus(counts_before);

  r.wall_s = (wall_after - wall_before) / 1e9;
  r.cpu_s = cpu_after - cpu_before;
  r.jiffies = cpu_times_after.total - cpu_times_before.total;
  r.steal_jiffies = cpu_times_after.steal - cpu_times_before.steal;

  std::vector<uint64_t> updates_ok(plans.size(), 0);
  for (size_t c = 0; c < plans.size(); ++c) {
    Worker& w = workers[c];
    r.attempted += plans[c].ops.size();
    r.failed_status += w.failed_status;
    r.mismatched += w.mismatched;
    r.user_bytes += w.user_bytes;
    for (const std::string& e : w.errors) {
      if (r.first_errors.size() < 5) r.first_errors.push_back(e);
    }
    for (size_t t = 0; t < kOpTypes; ++t) {
      r.latency_ns[t].insert(r.latency_ns[t].end(), w.latency_ns[t].begin(),
                             w.latency_ns[t].end());
      r.per_type[t].Add(w.per_type[t]);
    }
    for (const Span& s : w.trace.spans) {
      if (s.parent_id == 0) {
        ++r.window[kOps];
        r.window[kOpNs] += s.end_ns - s.start_ns;
      } else {
        ++r.window[kTransportCalls];
        r.window[kTransportNs] += s.end_ns - s.start_ns;
        r.transport_call_ns.push_back(s.end_ns - s.start_ns);
      }
    }
    if (w.quiesce_timeout) {
      r.check_failures.push_back(
          "attribution pass: server tasks did not finish within 2 s");
    }
    updates_ok[c] = spec.updates ? plans[c].ops.size() - w.failed_status : 0;
    r.cells.push_back(CellCounts{
        env->cells[c]->id(),
        CountReader::ReadCell(*env->cells[c]).Minus(cells_before[c])});
  }
  r.peak_rss_mb = PeakRssMb();
  if (spans != nullptr && options.traced) AppendSpans(workers, spans);
  CheckOutputs(*env, plans, manifest_before, updates_ok, spec.updates, &r);
  tc::obs::SetEnabled(false);
  return r;
}

}  // namespace cellbench
