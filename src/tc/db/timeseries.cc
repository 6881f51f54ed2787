#include "tc/db/timeseries.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "tc/common/codec.h"

namespace tc::db {
namespace {

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(storage::LogStore* store, size_t chunk_size)
    : store_(store), chunk_size_(chunk_size) {}

std::string TimeSeriesStore::ChunkKey(const std::string& series,
                                      uint64_t chunk_no) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, chunk_no);
  return "s/" + series + "/" + buf;
}

Bytes TimeSeriesStore::EncodeChunk(const std::vector<Reading>& readings) {
  BinaryWriter w;
  w.PutVarint(readings.size());
  if (readings.empty()) return w.Take();
  w.PutI64(readings.front().time);
  w.PutI64(readings.front().value);
  Timestamp prev_t = readings.front().time;
  int64_t prev_v = readings.front().value;
  for (size_t i = 1; i < readings.size(); ++i) {
    w.PutVarint(static_cast<uint64_t>(readings[i].time - prev_t));
    w.PutVarint(ZigZagEncode(readings[i].value - prev_v));
    prev_t = readings[i].time;
    prev_v = readings[i].value;
  }
  return w.Take();
}

Result<std::vector<Reading>> TimeSeriesStore::DecodeChunk(const Bytes& data) {
  BinaryReader r(data);
  TC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  // The first reading takes 16 bytes, each later one two varints.
  TC_RETURN_IF_ERROR(CheckCount(r, n, 2));
  std::vector<Reading> readings;
  readings.reserve(n);
  if (n == 0) return readings;
  Reading first;
  TC_ASSIGN_OR_RETURN(first.time, r.GetI64());
  TC_ASSIGN_OR_RETURN(first.value, r.GetI64());
  readings.push_back(first);
  for (uint64_t i = 1; i < n; ++i) {
    TC_ASSIGN_OR_RETURN(uint64_t dt, r.GetVarint());
    TC_ASSIGN_OR_RETURN(uint64_t dv, r.GetVarint());
    readings.push_back(Reading{readings.back().time + static_cast<int64_t>(dt),
                               readings.back().value + ZigZagDecode(dv)});
  }
  return readings;
}

Status TimeSeriesStore::Append(const std::string& series, Timestamp t,
                               int64_t value) {
  SeriesState& state = series_[series];
  if (t < state.last_time) {
    return Status::InvalidArgument("out-of-order append to series " + series);
  }
  state.last_time = t;
  state.buffer.push_back(Reading{t, value});
  if (state.buffer.size() >= chunk_size_) {
    return PersistBuffer(series, state);
  }
  return Status::OK();
}

Status TimeSeriesStore::PersistBuffer(const std::string& series,
                                      SeriesState& state) {
  if (state.buffer.empty()) return Status::OK();
  uint64_t chunk_no = state.next_chunk_no++;
  Bytes encoded = EncodeChunk(state.buffer);
  TC_RETURN_IF_ERROR(store_->Put(ChunkKey(series, chunk_no), encoded));
  state.chunks.push_back(ChunkInfo{chunk_no, state.buffer.front().time,
                                   state.buffer.back().time,
                                   static_cast<uint32_t>(state.buffer.size())});
  state.persisted_count += state.buffer.size();
  state.buffer.clear();
  return Status::OK();
}

Status TimeSeriesStore::Flush(const std::string& series) {
  auto it = series_.find(series);
  if (it == series_.end()) return Status::OK();
  return PersistBuffer(series, it->second);
}

Status TimeSeriesStore::FlushAll() {
  for (auto& [name, state] : series_) {
    TC_RETURN_IF_ERROR(PersistBuffer(name, state));
  }
  return Status::OK();
}

Result<std::vector<Reading>> TimeSeriesStore::Range(const std::string& series,
                                                    Timestamp t0,
                                                    Timestamp t1) {
  std::vector<Reading> out;
  auto it = series_.find(series);
  if (it == series_.end()) return out;
  const SeriesState& state = it->second;
  for (const ChunkInfo& chunk : state.chunks) {
    if (chunk.last < t0 || chunk.first >= t1) continue;
    TC_ASSIGN_OR_RETURN(Bytes data,
                        store_->Get(ChunkKey(series, chunk.chunk_no)));
    TC_ASSIGN_OR_RETURN(std::vector<Reading> readings, DecodeChunk(data));
    for (const Reading& r : readings) {
      if (r.time >= t0 && r.time < t1) out.push_back(r);
    }
  }
  for (const Reading& r : state.buffer) {
    if (r.time >= t0 && r.time < t1) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const Reading& a, const Reading& b) { return a.time < b.time; });
  return out;
}

Result<std::vector<WindowAggregate>> TimeSeriesStore::Windowed(
    const std::string& series, Timestamp t0, Timestamp t1,
    Timestamp window_seconds) {
  if (window_seconds <= 0) {
    return Status::InvalidArgument("window must be positive");
  }
  TC_ASSIGN_OR_RETURN(std::vector<Reading> readings, Range(series, t0, t1));
  std::vector<WindowAggregate> out;
  for (const Reading& r : readings) {
    Timestamp start = WindowStart(r.time, window_seconds);
    if (out.empty() || out.back().window_start != start) {
      WindowAggregate agg;
      agg.window_start = start;
      agg.min = r.value;
      agg.max = r.value;
      out.push_back(agg);
    }
    WindowAggregate& agg = out.back();
    ++agg.count;
    agg.sum += static_cast<double>(r.value);
    agg.min = std::min(agg.min, r.value);
    agg.max = std::max(agg.max, r.value);
  }
  for (WindowAggregate& agg : out) {
    agg.mean = agg.sum / static_cast<double>(agg.count);
  }
  return out;
}

uint64_t TimeSeriesStore::Count(const std::string& series) const {
  auto it = series_.find(series);
  if (it == series_.end()) return 0;
  return it->second.persisted_count + it->second.buffer.size();
}

std::vector<std::string> TimeSeriesStore::ListSeries() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, state] : series_) names.push_back(name);
  return names;
}

Status TimeSeriesStore::RestoreChunk(const std::string& key,
                                     const Bytes& data) {
  // key = "s/<series>/<16-hex chunk>".
  if (key.size() < 2 + 1 + 16 + 1 || key.compare(0, 2, "s/") != 0) {
    return Status::InvalidArgument("not a chunk key");
  }
  size_t slash = key.rfind('/');
  std::string series = key.substr(2, slash - 2);
  uint64_t chunk_no = 0;
  for (size_t i = slash + 1; i < key.size(); ++i) {
    char c = key[i];
    int v = (c >= '0' && c <= '9') ? c - '0'
            : (c >= 'a' && c <= 'f') ? c - 'a' + 10
                                     : -1;
    if (v < 0) return Status::InvalidArgument("malformed chunk number");
    chunk_no = (chunk_no << 4) | static_cast<uint64_t>(v);
  }
  TC_ASSIGN_OR_RETURN(std::vector<Reading> readings, DecodeChunk(data));
  if (readings.empty()) return Status::OK();

  SeriesState& state = series_[series];
  state.chunks.push_back(ChunkInfo{chunk_no, readings.front().time,
                                   readings.back().time,
                                   static_cast<uint32_t>(readings.size())});
  std::sort(state.chunks.begin(), state.chunks.end(),
            [](const ChunkInfo& a, const ChunkInfo& b) {
              return a.chunk_no < b.chunk_no;
            });
  state.next_chunk_no = std::max(state.next_chunk_no, chunk_no + 1);
  state.last_time = std::max(state.last_time, readings.back().time);
  state.persisted_count += readings.size();
  return Status::OK();
}

}  // namespace tc::db
