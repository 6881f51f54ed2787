#ifndef TC_OBS_TELEMETRY_H_
#define TC_OBS_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tc/common/bytes.h"
#include "tc/common/codec.h"
#include "tc/common/result.h"
#include "tc/obs/metrics.h"

namespace tc::obs {

// ---------------------------------------------------------------------------
// Mergeable telemetry deltas
// ---------------------------------------------------------------------------
//
// The fleet telemetry plane ships *deltas*, not absolute registries: each
// cell keeps a baseline snapshot and periodically emits the difference since
// the last acknowledged frame. Deltas are mergeable — counters and histogram
// buckets add, gauges report the source's latest absolute value — so the hub
// can fold any number of per-cell deltas into one fleet-wide registry and
// the result equals what a single shared registry would have recorded
// (the merge property, proven by telemetry_test).
//
// Frames are sequence-numbered per source and retried byte-identical until
// acknowledged; the hub's per-source dedup table (the PR 5 idempotency
// pattern) makes redelivery harmless, so the lossy wire (drops, duplicates,
// reordering from the fault injector) can never double-count.

/// a + b clamped at UINT64_MAX. Merges saturate instead of wrapping so an
/// adversarial (or merely ancient) source cannot roll a fleet counter back
/// past zero.
inline uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  return s < a ? ~0ull : s;
}

/// Sparse histogram delta: only the buckets that changed since the baseline.
/// `count` is implied (sum of bucket counts), mirroring Histogram itself.
struct HistogramDelta {
  uint64_t sum = 0;
  uint64_t max = 0;  ///< Source-lifetime max (max cannot be un-merged).
  /// (bucket index, count added) pairs, index ascending, counts non-zero.
  std::vector<std::pair<uint32_t, uint64_t>> buckets;

  uint64_t Count() const;
  bool empty() const { return buckets.empty() && sum == 0; }
};

/// One source's mergeable metric delta. Counters and histograms carry
/// increments since the baseline; gauges carry the source's latest absolute
/// value (a gauge is state, not a flow — fleet aggregation sums the latest
/// value per source).
struct TelemetryDelta {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramDelta> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// current - baseline, field-wise. Unchanged metrics are omitted (the empty
/// delta is the merge identity). Gauges are included when their value
/// differs from the baseline's (or the baseline never saw them).
TelemetryDelta DeltaSince(const RegistrySnapshot& current,
                          const RegistrySnapshot& baseline);

/// Folds `delta` into `into` (saturating adds for counters and histogram
/// buckets/sums; gauges overwrite — callers aggregating across sources keep
/// per-source maps and sum those instead).
void MergeDelta(TelemetryDelta* into, const TelemetryDelta& delta);

/// Materializes an accumulated delta as a RegistrySnapshot (histogram
/// deltas expand to dense 256-bucket snapshots with derived counts) so the
/// hub's fleet-wide aggregate supports the same percentile/export machinery
/// as a local registry.
RegistrySnapshot DeltaToSnapshot(const TelemetryDelta& delta);

/// A sequence-numbered telemetry frame from one source. `seq` starts at 1
/// and increments once per *acknowledged* frame — a retry reships the same
/// seq with identical bytes, which is what makes the hub's dedup exact.
struct TelemetryFrame {
  std::string source;
  uint64_t seq = 0;
  TelemetryDelta delta;
};

/// Compact binary frame codec (BinaryWriter/BinaryReader). The decoder
/// validates every embedded count against the bytes present and every
/// bucket index against Histogram::kBucketCount; it never over-reads.
Bytes EncodeTelemetryFrame(const TelemetryFrame& frame);
Result<TelemetryFrame> DecodeTelemetryFrame(const Bytes& payload);

/// Gauge names the hub folds into the per-window degraded-cell and
/// outbox-backlog aggregates (cells publish them; fleet sims mirror them).
inline constexpr char kDegradedGaugeName[] = "cell.degraded";
inline constexpr char kOutboxDepthGaugeName[] = "cell.outbox_depth";

// ---------------------------------------------------------------------------
// TelemetryShipper — the cell-side half
// ---------------------------------------------------------------------------

/// Builds sequence-numbered delta frames from a registry. Transport
/// agnostic: the owner encodes/sends the frame however it likes and calls
/// Acked() once the hub acknowledged it; until then BuildFrame() returns
/// the *same* pending frame (same seq, same contents) so every retry is
/// byte-identical — the contract the hub's dedup table relies on.
///
/// Not thread-safe: one shipper belongs to one cell loop, like
/// ResilientChannel.
class TelemetryShipper {
 public:
  TelemetryShipper(const MetricRegistry* registry, std::string source);

  /// Fills `*frame` with the frame to ship next: the unacknowledged pending
  /// frame if there is one, else a fresh delta against the baseline.
  /// Returns false (and leaves `*frame` alone) when there is nothing to
  /// ship — no pending frame and an empty delta.
  bool BuildFrame(TelemetryFrame* frame);

  /// The pending frame's encoded bytes, cut once at build time and
  /// returned verbatim until Acked — retries are byte-identical
  /// without re-encoding (or copying the frame). Returns nullptr when
  /// there is nothing to ship; the pointer stays valid until the next
  /// BuildFrame/BuildEncoded/Acked call. `seq_out`, when non-null,
  /// receives the pending sequence number (what Acked expects).
  const Bytes* BuildEncoded(uint64_t* seq_out);

  /// The hub acknowledged `seq` (applied or deduplicated — both advance).
  /// Acks for any other seq are ignored.
  void Acked(uint64_t seq);

  bool pending() const { return pending_; }
  uint64_t frames_built() const { return frames_built_; }
  uint64_t frames_acked() const { return frames_acked_; }
  const std::string& source() const { return source_; }

 private:
  /// Cuts a fresh pending frame if none is outstanding. False = nothing
  /// to ship.
  bool EnsurePending();

  const MetricRegistry* registry_;
  std::string source_;
  RegistrySnapshot baseline_;
  bool pending_ = false;
  TelemetryFrame pending_frame_;
  Bytes pending_encoded_;  ///< Lazily-cut wire bytes of the pending frame.
  /// Snapshot the pending frame was cut at; becomes the baseline on ack.
  RegistrySnapshot pending_snapshot_;
  /// Dead snapshot buffers rotated through SnapshotInto so the steady
  /// state allocates nothing (baseline_/pending_snapshot_/scratch_ cycle).
  RegistrySnapshot scratch_;
  uint64_t next_seq_ = 1;
  uint64_t frames_built_ = 0;
  uint64_t frames_acked_ = 0;
};

// ---------------------------------------------------------------------------
// TimeSeriesRing — fixed-capacity window history
// ---------------------------------------------------------------------------

/// One sealed aggregation window: the fleet-wide delta accumulated between
/// two AdvanceWindow() calls, with per-histogram percentiles extractable
/// from the merged buckets and the gauge aggregates sampled at seal time.
struct TelemetryWindow {
  uint64_t window_id = 0;  ///< Monotone from 1.
  uint64_t t_start_us = 0;
  uint64_t t_end_us = 0;
  uint64_t reports = 0;  ///< Frames applied during the window.
  std::map<std::string, uint64_t> counters;  ///< Window increments.
  std::map<std::string, HistogramSnapshot> histograms;  ///< Window deltas.
  /// Fleet gauge aggregates at seal time: sum over sources of each gauge's
  /// latest value. cell.degraded sums to the degraded-cell count;
  /// cell.outbox_depth sums to the fleet outbox backlog.
  std::map<std::string, int64_t> gauges;
  int64_t degraded_cells = 0;
  int64_t outbox_depth = 0;
};

/// Fixed-capacity ring of sealed windows, oldest evicted first. Externally
/// synchronized (the hub holds its lock across Push/Snapshot).
class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(size_t capacity);

  void Push(TelemetryWindow window);
  /// Retained windows, oldest first.
  std::vector<TelemetryWindow> Snapshot() const;
  /// Up to `n` most recent windows, oldest first.
  std::vector<TelemetryWindow> Last(size_t n) const;
  size_t size() const { return size_; }
  size_t capacity() const { return ring_.size(); }
  uint64_t pushed() const { return pushed_; }

 private:
  std::vector<TelemetryWindow> ring_;
  size_t next_ = 0;   ///< Slot the next Push writes.
  size_t size_ = 0;   ///< Occupied slots (<= capacity).
  uint64_t pushed_ = 0;
};

// ---------------------------------------------------------------------------
// SLO burn-rate monitoring
// ---------------------------------------------------------------------------

/// One service-level objective evaluated over the trailing window history.
/// Two shapes:
///   * latency: `histogram` + `target_us` + `quantile` — the error budget
///     is (1 - quantile); a sample is bad when its bucket lies entirely
///     above the target.
///   * availability: `good_counter` / `total_counter` + `availability` —
///     the budget is (1 - availability); bad = total - good.
/// The burn rate is bad_fraction / budget over the last `windows` sealed
/// windows; >= `burn_threshold` starts firing, and the rising edge triggers
/// the FlightRecorder with the offending window's merged snapshot.
struct SloConfig {
  std::string name;
  // Latency shape.
  std::string histogram;
  double quantile = 0.99;
  uint64_t target_us = 0;
  // Availability shape.
  std::string good_counter;
  std::string total_counter;
  double availability = 0.0;
  // Evaluation.
  size_t windows = 6;
  double burn_threshold = 2.0;

  bool latency() const { return !histogram.empty(); }
};

struct SloStatus {
  std::string name;
  double burn_rate = 0.0;
  bool firing = false;
  uint64_t samples = 0;   ///< Total samples in the evaluated windows.
  uint64_t bad = 0;       ///< Budget-consuming samples among them.
  uint64_t fires = 0;     ///< Rising edges so far (FlightRecorder triggers).
};

/// Fraction of a window histogram's samples whose bucket lies entirely
/// above `target` (conservative: a bucket straddling the target counts as
/// good). Exposed for the SLO tests.
uint64_t CountAbove(const HistogramSnapshot& h, uint64_t target);

// ---------------------------------------------------------------------------
// TelemetryHub — the provider-side half
// ---------------------------------------------------------------------------

/// Fleet-wide telemetry aggregation point, owned by CloudInfrastructure.
/// Report() folds an incoming frame into the lifetime aggregate and the
/// current accumulation window after consulting the per-source dedup table;
/// AdvanceWindow() seals the window into the TimeSeriesRing and evaluates
/// the configured SLOs; ScrapeJson()/FleetReportText() export the whole
/// plane. All methods are thread-safe (one internal mutex — report and
/// scrape race freely, which the TSan lane exercises).
class TelemetryHub {
 public:
  struct Options {
    size_t ring_capacity = 256;
  };

  struct ReportOutcome {
    Status status;          ///< ok unless the frame failed to decode.
    bool applied = false;   ///< Frame was fresh and merged.
    bool duplicate = false; ///< seq <= last acknowledged; dropped, re-acked.
    uint64_t last_seq = 0;  ///< Highest seq acknowledged for the source.
  };

  struct Stats {
    uint64_t reports = 0;        ///< Frames offered (decoded OK).
    uint64_t applied = 0;
    uint64_t duplicates = 0;
    uint64_t decode_errors = 0;
    uint64_t seq_gaps = 0;       ///< Frames that skipped ahead (lost peers).
    uint64_t sources = 0;
    uint64_t windows_sealed = 0;
    uint64_t slo_fires = 0;
  };

  TelemetryHub() : TelemetryHub(Options()) {}
  explicit TelemetryHub(const Options& options);

  ReportOutcome Report(const TelemetryFrame& frame);
  /// Decode + Report. A frame that does not decode yields a kCorruption
  /// outcome (definitive: retrying identical bytes cannot succeed).
  ReportOutcome ReportEncoded(const Bytes& frame);

  void AddSlo(const SloConfig& config);

  /// Seals the current accumulation window (even if empty) into the ring,
  /// stamps it [window start, now_us), evaluates every SLO over the
  /// trailing history and fires the FlightRecorder on rising edges.
  /// Returns the sealed window.
  TelemetryWindow AdvanceWindow(uint64_t now_us);

  /// Fleet-lifetime aggregate: every applied delta merged, gauges summed
  /// across sources.
  RegistrySnapshot Aggregate() const;
  std::vector<TelemetryWindow> Windows() const;
  std::vector<SloStatus> SloStatuses() const;
  /// Last acknowledged sequence number per source (the dedup table).
  std::map<std::string, uint64_t> SourceSeqs() const;
  Stats stats() const;

  /// Whole-plane JSON export (see DESIGN.md for the schema): stats, the
  /// per-source seq table, the lifetime aggregate with percentiles, the
  /// retained windows and the SLO statuses. Parseable no matter what the
  /// shipped metric names contain (AppendJsonEscaped).
  std::string ScrapeJson() const;
  /// Human-readable fleet summary for reports/benches.
  std::string FleetReportText() const;

 private:
  TelemetryWindow SealWindowLocked(uint64_t now_us);
  void EvaluateSlosLocked(const TelemetryWindow& sealed);
  RegistrySnapshot AggregateLocked() const;
  void AppendAggregateJsonLocked(std::string* out) const;

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> last_seq_;  ///< Dedup table.
  /// Latest absolute gauge values per source (fleet gauges sum these).
  std::map<std::string, std::map<std::string, int64_t>> source_gauges_;
  /// Flows of every SEALED window; the open window_ folds in at seal time
  /// so Report pays for one merge (scrapes reassemble total_ + window_).
  TelemetryDelta total_;
  TelemetryDelta window_;   ///< Current accumulation window.
  uint64_t window_reports_ = 0;
  uint64_t window_start_us_ = 0;
  uint64_t next_window_id_ = 1;
  TimeSeriesRing ring_;
  std::vector<SloConfig> slo_configs_;
  std::vector<SloStatus> slo_state_;
  Stats stats_;
};

/// A report's answer on the wire, a field list in the one codec.
void Put(BinaryWriter& w, const TelemetryHub::ReportOutcome& v);
Status Get(BinaryReader& r, TelemetryHub::ReportOutcome* v);

}  // namespace tc::obs

#endif  // TC_OBS_TELEMETRY_H_
