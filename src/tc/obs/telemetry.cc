#include "tc/obs/telemetry.h"

#include <algorithm>
#include <sstream>

#include "tc/common/codec.h"
#include "tc/obs/flight_recorder.h"

namespace tc::obs {

namespace {

constexpr uint8_t kTelemetryFrameVersion = 1;

Status CheckExhausted(const BinaryReader& r) {
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after telemetry frame");
  }
  return Status::OK();
}

/// Counters + histograms of `delta` folded into `into` — the flow half of
/// MergeDelta, shared with the hub (which routes gauges through its
/// per-source table instead of overwriting).
void MergeFlows(TelemetryDelta* into, const TelemetryDelta& delta) {
  for (const auto& [name, value] : delta.counters) {
    uint64_t& slot = into->counters[name];
    slot = SaturatingAdd(slot, value);
  }
  for (const auto& [name, h] : delta.histograms) {
    HistogramDelta& slot = into->histograms[name];
    slot.sum = SaturatingAdd(slot.sum, h.sum);
    slot.max = std::max(slot.max, h.max);
    if (slot.buckets.empty()) {
      slot.buckets = h.buckets;
      continue;
    }
    // Merge two index-ascending sparse bucket lists.
    std::vector<std::pair<uint32_t, uint64_t>> merged;
    merged.reserve(slot.buckets.size() + h.buckets.size());
    size_t i = 0, j = 0;
    while (i < slot.buckets.size() || j < h.buckets.size()) {
      if (j == h.buckets.size() ||
          (i < slot.buckets.size() &&
           slot.buckets[i].first < h.buckets[j].first)) {
        merged.push_back(slot.buckets[i++]);
      } else if (i == slot.buckets.size() ||
                 slot.buckets[i].first > h.buckets[j].first) {
        merged.push_back(h.buckets[j++]);
      } else {
        merged.emplace_back(
            slot.buckets[i].first,
            SaturatingAdd(slot.buckets[i].second, h.buckets[j].second));
        ++i;
        ++j;
      }
    }
    slot.buckets = std::move(merged);
  }
}

void AppendHistStatsJson(std::string* out, const HistogramSnapshot& h) {
  std::ostringstream s;
  s << "{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"max\":" << h.max
    << ",\"p50\":" << h.Percentile(0.50) << ",\"p95\":" << h.Percentile(0.95)
    << ",\"p99\":" << h.Percentile(0.99) << '}';
  out->append(s.str());
}

void AppendWindowJson(std::string* out, const TelemetryWindow& w) {
  std::ostringstream s;
  s << "{\"id\":" << w.window_id << ",\"t_start_us\":" << w.t_start_us
    << ",\"t_end_us\":" << w.t_end_us << ",\"reports\":" << w.reports
    << ",\"degraded_cells\":" << w.degraded_cells
    << ",\"outbox_depth\":" << w.outbox_depth;
  out->append(s.str());
  out->append(",\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : w.counters) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    AppendJsonEscaped(out, name);
    out->append("\":");
    out->append(std::to_string(value));
  }
  out->append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : w.gauges) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    AppendJsonEscaped(out, name);
    out->append("\":");
    out->append(std::to_string(value));
  }
  out->append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : w.histograms) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    AppendJsonEscaped(out, name);
    out->append("\":");
    AppendHistStatsJson(out, h);
  }
  out->append("}}");
}

}  // namespace

// ---------------------------------------------------------------------------
// Delta math
// ---------------------------------------------------------------------------

uint64_t HistogramDelta::Count() const {
  uint64_t n = 0;
  for (const auto& [index, count] : buckets) n = SaturatingAdd(n, count);
  return n;
}

TelemetryDelta DeltaSince(const RegistrySnapshot& current,
                          const RegistrySnapshot& baseline) {
  TelemetryDelta delta;
  for (const auto& [name, value] : current.counters) {
    auto it = baseline.counters.find(name);
    uint64_t base = it == baseline.counters.end() ? 0 : it->second;
    // A counter below its baseline means Reset() ran mid-stream; ship the
    // absolute value rather than a wrapped difference.
    uint64_t d = value >= base ? value - base : value;
    if (d != 0) delta.counters[name] = d;
  }
  for (const auto& [name, value] : current.gauges) {
    auto it = baseline.gauges.find(name);
    if (it == baseline.gauges.end() || it->second != value) {
      delta.gauges[name] = value;
    }
  }
  for (const auto& [name, h] : current.histograms) {
    auto it = baseline.histograms.find(name);
    const HistogramSnapshot* base =
        it == baseline.histograms.end() ? nullptr : &it->second;
    // Sparse diff straight from the dense snapshots — no intermediate
    // Minus() copy; this runs once per shipped frame.
    HistogramDelta hd;
    hd.max = h.max;
    const uint64_t base_sum = base == nullptr ? 0 : base->sum;
    hd.sum = h.sum >= base_sum ? h.sum - base_sum : 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      uint64_t b = (base != nullptr && i < base->buckets.size())
                       ? base->buckets[i]
                       : 0;
      if (h.buckets[i] > b) {
        hd.buckets.emplace_back(static_cast<uint32_t>(i), h.buckets[i] - b);
      }
    }
    if (hd.buckets.empty() && hd.sum == 0) continue;
    delta.histograms[name] = std::move(hd);
  }
  return delta;
}

void MergeDelta(TelemetryDelta* into, const TelemetryDelta& delta) {
  MergeFlows(into, delta);
  // Gauges are absolute: within one source's delta stream, later wins.
  for (const auto& [name, value] : delta.gauges) into->gauges[name] = value;
}

RegistrySnapshot DeltaToSnapshot(const TelemetryDelta& delta) {
  RegistrySnapshot snap;
  snap.counters = delta.counters;
  snap.gauges = delta.gauges;
  for (const auto& [name, hd] : delta.histograms) {
    HistogramSnapshot h;
    h.buckets.resize(Histogram::kBucketCount, 0);
    for (const auto& [index, count] : hd.buckets) {
      if (index < h.buckets.size()) {
        h.buckets[index] = SaturatingAdd(h.buckets[index], count);
      }
      h.count = SaturatingAdd(h.count, count);
    }
    h.sum = hd.sum;
    h.max = hd.max;
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

TelemetryDelta MetricRegistry::Delta(const RegistrySnapshot& baseline) const {
  return DeltaSince(Snapshot(), baseline);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

Bytes EncodeTelemetryFrame(const TelemetryFrame& frame) {
  BinaryWriter w;
  w.PutU8(kTelemetryFrameVersion);
  w.PutString(frame.source);
  w.PutU64(frame.seq);
  w.PutVarint(frame.delta.counters.size());
  for (const auto& [name, value] : frame.delta.counters) {
    w.PutString(name);
    w.PutVarint(value);
  }
  w.PutVarint(frame.delta.gauges.size());
  for (const auto& [name, value] : frame.delta.gauges) {
    w.PutString(name);
    w.PutI64(value);
  }
  w.PutVarint(frame.delta.histograms.size());
  for (const auto& [name, h] : frame.delta.histograms) {
    w.PutString(name);
    w.PutVarint(h.sum);
    w.PutVarint(h.max);
    w.PutVarint(h.buckets.size());
    for (const auto& [index, count] : h.buckets) {
      w.PutVarint(index);
      w.PutVarint(count);
    }
  }
  return w.Take();
}

Result<TelemetryFrame> DecodeTelemetryFrame(const Bytes& payload) {
  BinaryReader r(payload);
  TC_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kTelemetryFrameVersion) {
    return Status::Unimplemented("telemetry frame version mismatch");
  }
  TelemetryFrame frame;
  TC_ASSIGN_OR_RETURN(frame.source, r.GetString());
  if (frame.source.empty()) {
    return Status::Corruption("telemetry frame without source");
  }
  TC_ASSIGN_OR_RETURN(frame.seq, r.GetU64());
  if (frame.seq == 0) {
    return Status::Corruption("telemetry seq must start at 1");
  }

  TC_ASSIGN_OR_RETURN(uint64_t n_counters, r.GetVarint());
  TC_RETURN_IF_ERROR(CheckCount(r, n_counters, 2));
  for (uint64_t i = 0; i < n_counters; ++i) {
    TC_ASSIGN_OR_RETURN(std::string name, r.GetString());
    TC_ASSIGN_OR_RETURN(uint64_t value, r.GetVarint());
    frame.delta.counters[std::move(name)] = value;
  }

  TC_ASSIGN_OR_RETURN(uint64_t n_gauges, r.GetVarint());
  TC_RETURN_IF_ERROR(CheckCount(r, n_gauges, 2));
  for (uint64_t i = 0; i < n_gauges; ++i) {
    TC_ASSIGN_OR_RETURN(std::string name, r.GetString());
    TC_ASSIGN_OR_RETURN(int64_t value, r.GetI64());
    frame.delta.gauges[std::move(name)] = value;
  }

  TC_ASSIGN_OR_RETURN(uint64_t n_hists, r.GetVarint());
  TC_RETURN_IF_ERROR(CheckCount(r, n_hists, 4));
  for (uint64_t i = 0; i < n_hists; ++i) {
    TC_ASSIGN_OR_RETURN(std::string name, r.GetString());
    HistogramDelta h;
    TC_ASSIGN_OR_RETURN(h.sum, r.GetVarint());
    TC_ASSIGN_OR_RETURN(h.max, r.GetVarint());
    TC_ASSIGN_OR_RETURN(uint64_t n_buckets, r.GetVarint());
    TC_RETURN_IF_ERROR(CheckCount(r, n_buckets, 2));
    h.buckets.reserve(n_buckets);
    uint64_t prev_index = 0;
    for (uint64_t b = 0; b < n_buckets; ++b) {
      TC_ASSIGN_OR_RETURN(uint64_t index, r.GetVarint());
      TC_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
      if (index >= Histogram::kBucketCount) {
        return Status::Corruption("telemetry bucket index out of range");
      }
      if (b > 0 && index <= prev_index) {
        return Status::Corruption("telemetry buckets not index-ascending");
      }
      if (count == 0) {
        return Status::Corruption("telemetry bucket with zero count");
      }
      prev_index = index;
      h.buckets.emplace_back(static_cast<uint32_t>(index), count);
    }
    frame.delta.histograms[std::move(name)] = std::move(h);
  }
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return frame;
}

// ---------------------------------------------------------------------------
// TelemetryShipper
// ---------------------------------------------------------------------------

TelemetryShipper::TelemetryShipper(const MetricRegistry* registry,
                                   std::string source)
    : registry_(registry), source_(std::move(source)) {
  baseline_ = registry_->Snapshot();
}

bool TelemetryShipper::EnsurePending() {
  if (pending_) return true;
  // scratch_ holds a dead earlier snapshot (or is empty on first use):
  // SnapshotInto reuses its map nodes and bucket vectors, so the steady
  // state builds frames without reallocating the dense snapshots.
  registry_->SnapshotInto(&scratch_);
  TelemetryDelta delta = DeltaSince(scratch_, baseline_);
  if (delta.empty()) return false;
  pending_frame_.source = source_;
  pending_frame_.seq = next_seq_;
  pending_frame_.delta = std::move(delta);
  std::swap(pending_snapshot_, scratch_);
  pending_ = true;
  ++frames_built_;
  return true;
}

bool TelemetryShipper::BuildFrame(TelemetryFrame* frame) {
  if (!EnsurePending()) return false;
  *frame = pending_frame_;  // Retries re-copy the identical pending frame.
  return true;
}

const Bytes* TelemetryShipper::BuildEncoded(uint64_t* seq_out) {
  if (!EnsurePending()) return nullptr;
  if (pending_encoded_.empty()) {
    pending_encoded_ = EncodeTelemetryFrame(pending_frame_);
  }
  if (seq_out != nullptr) *seq_out = pending_frame_.seq;
  return &pending_encoded_;
}

void TelemetryShipper::Acked(uint64_t seq) {
  if (!pending_ || seq != pending_frame_.seq) return;
  // The acked snapshot becomes the baseline; the old baseline's buffers
  // become the next BuildFrame's scratch.
  std::swap(baseline_, pending_snapshot_);
  std::swap(scratch_, pending_snapshot_);
  pending_frame_ = TelemetryFrame{};
  pending_encoded_.clear();  // Keeps capacity for the next encode.
  pending_ = false;
  ++next_seq_;
  ++frames_acked_;
}

// ---------------------------------------------------------------------------
// TimeSeriesRing
// ---------------------------------------------------------------------------

TimeSeriesRing::TimeSeriesRing(size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void TimeSeriesRing::Push(TelemetryWindow window) {
  ring_[next_] = std::move(window);
  next_ = (next_ + 1) % ring_.size();
  size_ = std::min(size_ + 1, ring_.size());
  ++pushed_;
}

std::vector<TelemetryWindow> TimeSeriesRing::Snapshot() const {
  return Last(size_);
}

std::vector<TelemetryWindow> TimeSeriesRing::Last(size_t n) const {
  n = std::min(n, size_);
  std::vector<TelemetryWindow> out;
  out.reserve(n);
  // Oldest of the n requested sits n slots behind the next write.
  size_t start = (next_ + ring_.size() - n) % ring_.size();
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// SLO burn rate
// ---------------------------------------------------------------------------

uint64_t CountAbove(const HistogramSnapshot& h, uint64_t target) {
  uint64_t bad = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] != 0 && Histogram::BucketLowerBound(i) > target) {
      bad = SaturatingAdd(bad, h.buckets[i]);
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------------

TelemetryHub::TelemetryHub(const Options& options)
    : options_(options), ring_(options.ring_capacity) {}

TelemetryHub::ReportOutcome TelemetryHub::Report(const TelemetryFrame& frame) {
  ReportOutcome out;
  out.status = Status::OK();
  if (frame.source.empty() || frame.seq == 0) {
    out.status = Status::InvalidArgument("telemetry frame missing source/seq");
    return out;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.reports;
  auto [it, inserted] = last_seq_.try_emplace(frame.source, 0);
  if (inserted) ++stats_.sources;
  if (frame.seq <= it->second) {
    // Redelivery of an already-applied frame (network duplicate or a retry
    // whose ack we lost): acknowledge again, apply nothing.
    ++stats_.duplicates;
    out.duplicate = true;
    out.last_seq = it->second;
    return out;
  }
  if (frame.seq != it->second + 1) ++stats_.seq_gaps;
  it->second = frame.seq;
  // One merge on the report hot path: flows land in the open window only,
  // and SealWindowLocked folds the whole window into the lifetime total in
  // one batch. The scrape paths reassemble total_ + window_ on demand.
  MergeFlows(&window_, frame.delta);
  ++window_reports_;
  auto& gauges = source_gauges_[frame.source];
  for (const auto& [name, value] : frame.delta.gauges) gauges[name] = value;
  ++stats_.applied;
  out.applied = true;
  out.last_seq = frame.seq;
  return out;
}

TelemetryHub::ReportOutcome TelemetryHub::ReportEncoded(const Bytes& frame) {
  Result<TelemetryFrame> decoded = DecodeTelemetryFrame(frame);
  if (!decoded.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.decode_errors;
    ReportOutcome out;
    out.status = decoded.status();
    return out;
  }
  return Report(decoded.value());
}

void TelemetryHub::AddSlo(const SloConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  slo_configs_.push_back(config);
  SloStatus status;
  status.name = config.name;
  slo_state_.push_back(std::move(status));
}

TelemetryWindow TelemetryHub::SealWindowLocked(uint64_t now_us) {
  TelemetryWindow w;
  w.window_id = next_window_id_++;
  w.t_start_us = window_start_us_;
  w.t_end_us = now_us;
  w.reports = window_reports_;
  w.counters = window_.counters;
  RegistrySnapshot expanded = DeltaToSnapshot(window_);
  w.histograms = std::move(expanded.histograms);
  for (const auto& [source, gauges] : source_gauges_) {
    for (const auto& [name, value] : gauges) w.gauges[name] += value;
  }
  auto degraded = w.gauges.find(kDegradedGaugeName);
  if (degraded != w.gauges.end()) w.degraded_cells = degraded->second;
  auto outbox = w.gauges.find(kOutboxDepthGaugeName);
  if (outbox != w.gauges.end()) w.outbox_depth = outbox->second;
  // The deferred half of the report path's single-merge contract.
  MergeFlows(&total_, window_);
  window_ = TelemetryDelta{};
  window_reports_ = 0;
  window_start_us_ = now_us;
  ++stats_.windows_sealed;
  return w;
}

void TelemetryHub::EvaluateSlosLocked(const TelemetryWindow& sealed) {
  for (size_t i = 0; i < slo_configs_.size(); ++i) {
    const SloConfig& cfg = slo_configs_[i];
    SloStatus& state = slo_state_[i];
    double budget =
        cfg.latency() ? 1.0 - cfg.quantile : 1.0 - cfg.availability;
    if (budget <= 0.0) continue;
    uint64_t samples = 0;
    uint64_t bad = 0;
    for (const TelemetryWindow& w : ring_.Last(cfg.windows)) {
      if (cfg.latency()) {
        auto it = w.histograms.find(cfg.histogram);
        if (it == w.histograms.end()) continue;
        samples = SaturatingAdd(samples, it->second.count);
        bad = SaturatingAdd(bad, CountAbove(it->second, cfg.target_us));
      } else {
        auto total = w.counters.find(cfg.total_counter);
        if (total == w.counters.end()) continue;
        auto good = w.counters.find(cfg.good_counter);
        uint64_t good_n = good == w.counters.end() ? 0 : good->second;
        samples = SaturatingAdd(samples, total->second);
        bad = SaturatingAdd(
            bad, total->second > good_n ? total->second - good_n : 0);
      }
    }
    state.samples = samples;
    state.bad = bad;
    state.burn_rate =
        samples == 0 ? 0.0
                     : (static_cast<double>(bad) / samples) / budget;
    bool firing = samples > 0 && state.burn_rate >= cfg.burn_threshold;
    if (firing && !state.firing) {
      ++state.fires;
      ++stats_.slo_fires;
      std::string detail;
      detail.reserve(256);
      detail.append("{\"slo\":\"");
      AppendJsonEscaped(&detail, cfg.name);
      std::ostringstream burn;
      burn << "\",\"burn_rate\":" << state.burn_rate
           << ",\"samples\":" << samples << ",\"bad\":" << bad
           << ",\"window\":";
      detail.append(burn.str());
      AppendWindowJson(&detail, sealed);
      detail.push_back('}');
      FlightRecorder::Global().Trigger("slo:" + cfg.name, detail);
    }
    state.firing = firing;
  }
}

TelemetryWindow TelemetryHub::AdvanceWindow(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  TelemetryWindow w = SealWindowLocked(now_us);
  ring_.Push(w);
  EvaluateSlosLocked(w);
  return w;
}

RegistrySnapshot TelemetryHub::AggregateLocked() const {
  // Lifetime flows = the sealed windows (total_) plus the open window.
  TelemetryDelta combined = total_;
  MergeFlows(&combined, window_);
  RegistrySnapshot snap = DeltaToSnapshot(combined);
  for (const auto& [source, gauges] : source_gauges_) {
    for (const auto& [name, value] : gauges) snap.gauges[name] += value;
  }
  return snap;
}

RegistrySnapshot TelemetryHub::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return AggregateLocked();
}

std::vector<TelemetryWindow> TelemetryHub::Windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.Snapshot();
}

std::vector<SloStatus> TelemetryHub::SloStatuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slo_state_;
}

std::map<std::string, uint64_t> TelemetryHub::SourceSeqs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_seq_;
}

TelemetryHub::Stats TelemetryHub::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TelemetryHub::AppendAggregateJsonLocked(std::string* out) const {
  out->append(ToJson(AggregateLocked()));
}

std::string TelemetryHub::ScrapeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);
  std::ostringstream head;
  head << "{\"stats\":{\"reports\":" << stats_.reports
       << ",\"applied\":" << stats_.applied
       << ",\"duplicates\":" << stats_.duplicates
       << ",\"decode_errors\":" << stats_.decode_errors
       << ",\"seq_gaps\":" << stats_.seq_gaps
       << ",\"sources\":" << stats_.sources
       << ",\"windows_sealed\":" << stats_.windows_sealed
       << ",\"slo_fires\":" << stats_.slo_fires << '}';
  out.append(head.str());
  out.append(",\"seqs\":{");
  bool first = true;
  for (const auto& [source, seq] : last_seq_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, source);
    out.append("\":");
    out.append(std::to_string(seq));
  }
  out.append("},\"aggregate\":");
  AppendAggregateJsonLocked(&out);
  out.append(",\"windows\":[");
  first = true;
  for (const TelemetryWindow& w : ring_.Snapshot()) {
    if (!first) out.push_back(',');
    first = false;
    AppendWindowJson(&out, w);
  }
  out.append("],\"slos\":[");
  first = true;
  for (const SloStatus& s : slo_state_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, s.name);
    std::ostringstream body;
    body << "\",\"burn_rate\":" << s.burn_rate
         << ",\"firing\":" << (s.firing ? "true" : "false")
         << ",\"samples\":" << s.samples << ",\"bad\":" << s.bad
         << ",\"fires\":" << s.fires << '}';
    out.append(body.str());
  }
  out.append("]}");
  return out;
}

std::string TelemetryHub::FleetReportText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "telemetry: sources=" << stats_.sources
      << " reports=" << stats_.reports << " applied=" << stats_.applied
      << " dup=" << stats_.duplicates << " gaps=" << stats_.seq_gaps
      << " decode_err=" << stats_.decode_errors
      << " windows=" << stats_.windows_sealed
      << " slo_fires=" << stats_.slo_fires << '\n';
  RegistrySnapshot agg = DeltaToSnapshot(total_);
  for (const auto& [name, h] : agg.histograms) {
    out << "  " << name << ": n=" << h.count << " p50=" << h.Percentile(0.50)
        << " p95=" << h.Percentile(0.95) << " p99=" << h.Percentile(0.99)
        << " max=" << h.max << '\n';
  }
  for (size_t i = 0; i < slo_state_.size(); ++i) {
    const SloStatus& s = slo_state_[i];
    out << "  slo " << s.name << ": burn=" << s.burn_rate
        << (s.firing ? " FIRING" : " ok") << " (" << s.bad << '/' << s.samples
        << " bad)\n";
  }
  return out.str();
}

void Put(BinaryWriter& w, const TelemetryHub::ReportOutcome& v) {
  PutFields(w, v.status, v.applied, v.duplicate, v.last_seq);
}

Status Get(BinaryReader& r, TelemetryHub::ReportOutcome* v) {
  return GetFields(r, &v->status, &v->applied, &v->duplicate, &v->last_seq);
}

}  // namespace tc::obs
