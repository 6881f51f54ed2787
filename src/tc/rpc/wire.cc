#include "tc/rpc/wire.h"

#include <cstring>

namespace tc::rpc {

namespace {

constexpr uint8_t kMaxKnownOp = static_cast<uint8_t>(RpcOp::kScrapeTelemetry);
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kAborted);

Status CheckExhausted(const BinaryReader& r) {
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after payload");
  }
  return Status::OK();
}

}  // namespace

const char* RpcOpName(RpcOp op) {
  switch (op) {
    case RpcOp::kPing:
      return "ping";
    case RpcOp::kPutBlobBatch:
      return "put_blob_batch";
    case RpcOp::kGetBlob:
      return "get_blob";
    case RpcOp::kGetSnapshot:
      return "get_snapshot";
    case RpcOp::kGetAtSnapshot:
      return "get_at_snapshot";
    case RpcOp::kCommitTxn:
      return "commit_txn";
    case RpcOp::kReportTelemetry:
      return "report_telemetry";
    case RpcOp::kScrapeTelemetry:
      return "scrape_telemetry";
  }
  return "unknown";
}

bool RpcOpKnown(uint8_t op) { return op <= kMaxKnownOp; }

Bytes EncodeFrameHeader(const FrameHeader& header) {
  BinaryWriter w;
  w.PutU32(kWireMagic);
  w.PutU16(header.version);
  w.PutU8(static_cast<uint8_t>(header.op));
  w.PutU8(header.flags);
  w.PutU64(header.request_id);
  w.PutU64(header.trace.trace_id);
  w.PutU64(header.trace.span_id);
  w.PutU64(header.trace.parent_id);
  w.PutU32(header.payload_size);
  w.PutU32(header.budget_us);
  Bytes out = w.Take();
  TC_CHECK(out.size() == kFrameHeaderBytes);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes) {
    return Status::Corruption("short frame header");
  }
  Bytes buf(data, data + kFrameHeaderBytes);
  BinaryReader r(buf);
  auto magic = r.GetU32();
  if (!magic.ok() || magic.value() != kWireMagic) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader h;
  h.version = r.GetU16().value();
  uint8_t op = r.GetU8().value();
  h.flags = r.GetU8().value();
  h.request_id = r.GetU64().value();
  h.trace.trace_id = r.GetU64().value();
  h.trace.span_id = r.GetU64().value();
  h.trace.parent_id = r.GetU64().value();
  h.payload_size = r.GetU32().value();
  h.budget_us = r.GetU32().value();
  if (h.version != kWireVersion) {
    return Status::Unimplemented("wire version mismatch");
  }
  if (!RpcOpKnown(op)) {
    return Status::Corruption("unknown rpc op");
  }
  h.op = static_cast<RpcOp>(op);
  // Criticality bit pattern 3 names no class — reject it as corruption
  // rather than letting a garbage frame pick a band by accident.
  if (((h.flags & kFlagCriticalityMask) >> kFlagCriticalityShift) >
      static_cast<uint8_t>(Criticality::kBackground)) {
    return Status::Corruption("unknown criticality class in frame flags");
  }
  if (h.payload_size > kMaxPayloadBytes) {
    return Status::Corruption("frame payload exceeds cap");
  }
  return h;
}

void WriteStatus(BinaryWriter& w, const Status& status) {
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
}

Status ReadStatus(BinaryReader& r, Status* out) {
  auto code = r.GetU8();
  if (!code.ok()) return code.status();
  if (code.value() > kMaxStatusCode) {
    return Status::Corruption("unknown status code on wire");
  }
  auto msg = r.GetString();
  if (!msg.ok()) return msg.status();
  *out = Status(static_cast<StatusCode>(code.value()),
                std::move(msg).value());
  return Status::OK();
}

void WriteSnapshot(BinaryWriter& w, const cloud::SnapshotDescriptor& snap) {
  w.PutU64(snap.base_seq);
  w.PutVarint(snap.extra_seqs.size());
  for (uint64_t s : snap.extra_seqs) w.PutU64(s);
  w.PutVarint(snap.shard_high.size());
  for (uint64_t s : snap.shard_high) w.PutU64(s);
}

Result<cloud::SnapshotDescriptor> ReadSnapshot(BinaryReader& r) {
  cloud::SnapshotDescriptor snap;
  auto base = r.GetU64();
  if (!base.ok()) return base.status();
  snap.base_seq = base.value();
  auto n_extra = r.GetVarint();
  if (!n_extra.ok()) return n_extra.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_extra.value(), 8));
  snap.extra_seqs.reserve(n_extra.value());
  for (uint64_t i = 0; i < n_extra.value(); ++i) {
    auto s = r.GetU64();
    if (!s.ok()) return s.status();
    snap.extra_seqs.push_back(s.value());
  }
  auto n_shard = r.GetVarint();
  if (!n_shard.ok()) return n_shard.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_shard.value(), 8));
  snap.shard_high.reserve(n_shard.value());
  for (uint64_t i = 0; i < n_shard.value(); ++i) {
    auto s = r.GetU64();
    if (!s.ok()) return s.status();
    snap.shard_high.push_back(s.value());
  }
  return snap;
}

Bytes EncodePutBatchRequest(
    const std::vector<std::pair<std::string, Bytes>>& items,
    const std::vector<std::string>& tokens) {
  BinaryWriter w;
  w.PutVarint(items.size());
  for (const auto& [id, data] : items) {
    w.PutString(id);
    w.PutBytes(data);
  }
  w.PutVarint(tokens.size());
  for (const auto& t : tokens) w.PutString(t);
  return w.Take();
}

Result<PutBatchRequest> DecodePutBatchRequest(const Bytes& payload) {
  BinaryReader r(payload);
  PutBatchRequest req;
  auto n_items = r.GetVarint();
  if (!n_items.ok()) return n_items.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_items.value(), 2));
  req.items.reserve(n_items.value());
  for (uint64_t i = 0; i < n_items.value(); ++i) {
    auto id = r.GetString();
    if (!id.ok()) return id.status();
    auto data = r.GetBytes();
    if (!data.ok()) return data.status();
    req.items.emplace_back(std::move(id).value(), std::move(data).value());
  }
  auto n_tokens = r.GetVarint();
  if (!n_tokens.ok()) return n_tokens.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_tokens.value(), 1));
  req.tokens.reserve(n_tokens.value());
  for (uint64_t i = 0; i < n_tokens.value(); ++i) {
    auto t = r.GetString();
    if (!t.ok()) return t.status();
    req.tokens.push_back(std::move(t).value());
  }
  // Tokens are per-item; a mismatched count would desync the provider's
  // idempotency table, so it is a protocol error, not the server's guess.
  if (!req.tokens.empty() && req.tokens.size() != req.items.size()) {
    return Status::Corruption("token count != item count");
  }
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return req;
}

Bytes EncodePutBatchResponse(
    const cloud::CloudInfrastructure::BatchPutOutcome& outcome) {
  BinaryWriter w;
  WriteStatus(w, outcome.status);
  w.PutVarint(outcome.versions.size());
  for (uint64_t v : outcome.versions) w.PutU64(v);
  w.PutVarint(outcome.acked.size());
  for (uint8_t a : outcome.acked) w.PutU8(a);
  w.PutU32(outcome.delay_us);
  w.PutU64(outcome.fault_ordinal);
  return w.Take();
}

Result<cloud::CloudInfrastructure::BatchPutOutcome> DecodePutBatchResponse(
    const Bytes& payload) {
  BinaryReader r(payload);
  cloud::CloudInfrastructure::BatchPutOutcome out;
  TC_RETURN_IF_ERROR(ReadStatus(r, &out.status));
  auto n_versions = r.GetVarint();
  if (!n_versions.ok()) return n_versions.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_versions.value(), 8));
  out.versions.reserve(n_versions.value());
  for (uint64_t i = 0; i < n_versions.value(); ++i) {
    auto v = r.GetU64();
    if (!v.ok()) return v.status();
    out.versions.push_back(v.value());
  }
  auto n_acked = r.GetVarint();
  if (!n_acked.ok()) return n_acked.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_acked.value(), 1));
  out.acked.reserve(n_acked.value());
  for (uint64_t i = 0; i < n_acked.value(); ++i) {
    auto a = r.GetU8();
    if (!a.ok()) return a.status();
    out.acked.push_back(a.value());
  }
  auto delay = r.GetU32();
  if (!delay.ok()) return delay.status();
  out.delay_us = delay.value();
  auto ordinal = r.GetU64();
  if (!ordinal.ok()) return ordinal.status();
  out.fault_ordinal = ordinal.value();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return out;
}

Bytes EncodeGetBlobRequest(const std::string& id) {
  BinaryWriter w;
  w.PutString(id);
  return w.Take();
}

Result<std::string> DecodeGetBlobRequest(const Bytes& payload) {
  BinaryReader r(payload);
  auto id = r.GetString();
  if (!id.ok()) return id.status();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return std::move(id).value();
}

Bytes EncodeGetBlobResponse(const GetBlobResponse& response) {
  BinaryWriter w;
  WriteStatus(w, response.status);
  w.PutBytes(response.data);
  w.PutU32(response.delay_us);
  return w.Take();
}

Result<GetBlobResponse> DecodeGetBlobResponse(const Bytes& payload) {
  BinaryReader r(payload);
  GetBlobResponse out;
  TC_RETURN_IF_ERROR(ReadStatus(r, &out.status));
  auto data = r.GetBytes();
  if (!data.ok()) return data.status();
  out.data = std::move(data).value();
  auto delay = r.GetU32();
  if (!delay.ok()) return delay.status();
  out.delay_us = delay.value();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return out;
}

Bytes EncodeGetSnapshotResponse(const GetSnapshotResponse& response) {
  BinaryWriter w;
  WriteStatus(w, response.status);
  WriteSnapshot(w, response.snapshot);
  w.PutU32(response.delay_us);
  return w.Take();
}

Result<GetSnapshotResponse> DecodeGetSnapshotResponse(const Bytes& payload) {
  BinaryReader r(payload);
  GetSnapshotResponse out;
  TC_RETURN_IF_ERROR(ReadStatus(r, &out.status));
  auto snap = ReadSnapshot(r);
  if (!snap.ok()) return snap.status();
  out.snapshot = std::move(snap).value();
  auto delay = r.GetU32();
  if (!delay.ok()) return delay.status();
  out.delay_us = delay.value();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return out;
}

Bytes EncodeGetAtSnapshotRequest(const GetAtSnapshotRequest& request) {
  BinaryWriter w;
  w.PutString(request.id);
  WriteSnapshot(w, request.snapshot);
  return w.Take();
}

Result<GetAtSnapshotRequest> DecodeGetAtSnapshotRequest(
    const Bytes& payload) {
  BinaryReader r(payload);
  GetAtSnapshotRequest out;
  auto id = r.GetString();
  if (!id.ok()) return id.status();
  out.id = std::move(id).value();
  auto snap = ReadSnapshot(r);
  if (!snap.ok()) return snap.status();
  out.snapshot = std::move(snap).value();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return out;
}

Bytes EncodeGetAtSnapshotResponse(const GetAtSnapshotResponse& response) {
  BinaryWriter w;
  WriteStatus(w, response.status);
  w.PutBytes(response.read.data);
  w.PutU64(response.read.version);
  w.PutU64(response.read.commit_seq);
  w.PutU32(response.delay_us);
  return w.Take();
}

Result<GetAtSnapshotResponse> DecodeGetAtSnapshotResponse(
    const Bytes& payload) {
  BinaryReader r(payload);
  GetAtSnapshotResponse out;
  TC_RETURN_IF_ERROR(ReadStatus(r, &out.status));
  auto data = r.GetBytes();
  if (!data.ok()) return data.status();
  out.read.data = std::move(data).value();
  auto version = r.GetU64();
  if (!version.ok()) return version.status();
  out.read.version = version.value();
  auto seq = r.GetU64();
  if (!seq.ok()) return seq.status();
  out.read.commit_seq = seq.value();
  auto delay = r.GetU32();
  if (!delay.ok()) return delay.status();
  out.delay_us = delay.value();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return out;
}

Bytes EncodeReportTelemetryResponse(const ReportTelemetryResponse& response) {
  BinaryWriter w;
  WriteStatus(w, response.status);
  w.PutBool(response.applied);
  w.PutBool(response.duplicate);
  w.PutU64(response.last_seq);
  w.PutU32(response.delay_us);
  return w.Take();
}

Result<ReportTelemetryResponse> DecodeReportTelemetryResponse(
    const Bytes& payload) {
  BinaryReader r(payload);
  ReportTelemetryResponse out;
  TC_RETURN_IF_ERROR(ReadStatus(r, &out.status));
  auto applied = r.GetBool();
  if (!applied.ok()) return applied.status();
  out.applied = applied.value();
  auto duplicate = r.GetBool();
  if (!duplicate.ok()) return duplicate.status();
  out.duplicate = duplicate.value();
  auto last_seq = r.GetU64();
  if (!last_seq.ok()) return last_seq.status();
  out.last_seq = last_seq.value();
  auto delay = r.GetU32();
  if (!delay.ok()) return delay.status();
  out.delay_us = delay.value();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return out;
}

Bytes EncodeScrapeTelemetryResponse(const ScrapeTelemetryResponse& response) {
  BinaryWriter w;
  WriteStatus(w, response.status);
  w.PutString(response.json);
  w.PutU32(response.delay_us);
  return w.Take();
}

Result<ScrapeTelemetryResponse> DecodeScrapeTelemetryResponse(
    const Bytes& payload) {
  BinaryReader r(payload);
  ScrapeTelemetryResponse out;
  TC_RETURN_IF_ERROR(ReadStatus(r, &out.status));
  auto json = r.GetString();
  if (!json.ok()) return json.status();
  out.json = std::move(json).value();
  auto delay = r.GetU32();
  if (!delay.ok()) return delay.status();
  out.delay_us = delay.value();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return out;
}

Bytes EncodeTxnRequest(const cloud::TxnRequest& request) {
  BinaryWriter w;
  w.PutString(request.token);
  WriteSnapshot(w, request.snapshot);
  w.PutVarint(request.reads.size());
  for (const auto& rd : request.reads) {
    w.PutString(rd.id);
    w.PutU64(rd.version);
  }
  w.PutVarint(request.writes.size());
  for (const auto& wr : request.writes) {
    w.PutString(wr.id);
    w.PutBytes(wr.data);
    w.PutU64(wr.base_version);
  }
  return w.Take();
}

Result<cloud::TxnRequest> DecodeTxnRequest(const Bytes& payload) {
  BinaryReader r(payload);
  cloud::TxnRequest req;
  auto token = r.GetString();
  if (!token.ok()) return token.status();
  req.token = std::move(token).value();
  auto snap = ReadSnapshot(r);
  if (!snap.ok()) return snap.status();
  req.snapshot = std::move(snap).value();
  auto n_reads = r.GetVarint();
  if (!n_reads.ok()) return n_reads.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_reads.value(), 9));
  req.reads.reserve(n_reads.value());
  for (uint64_t i = 0; i < n_reads.value(); ++i) {
    cloud::TxnRead rd;
    auto id = r.GetString();
    if (!id.ok()) return id.status();
    rd.id = std::move(id).value();
    auto v = r.GetU64();
    if (!v.ok()) return v.status();
    rd.version = v.value();
    req.reads.push_back(std::move(rd));
  }
  auto n_writes = r.GetVarint();
  if (!n_writes.ok()) return n_writes.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_writes.value(), 10));
  req.writes.reserve(n_writes.value());
  for (uint64_t i = 0; i < n_writes.value(); ++i) {
    cloud::TxnWrite wr;
    auto id = r.GetString();
    if (!id.ok()) return id.status();
    wr.id = std::move(id).value();
    auto data = r.GetBytes();
    if (!data.ok()) return data.status();
    wr.data = std::move(data).value();
    auto base = r.GetU64();
    if (!base.ok()) return base.status();
    wr.base_version = base.value();
    req.writes.push_back(std::move(wr));
  }
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return req;
}

Bytes EncodeTxnOutcome(const cloud::TxnOutcome& outcome) {
  BinaryWriter w;
  WriteStatus(w, outcome.status);
  w.PutBool(outcome.committed);
  w.PutBool(outcome.replayed);
  w.PutU64(outcome.commit_seq);
  w.PutVarint(outcome.versions.size());
  for (uint64_t v : outcome.versions) w.PutU64(v);
  w.PutString(outcome.conflict_id);
  w.PutU32(outcome.delay_us);
  w.PutU64(outcome.fault_ordinal);
  return w.Take();
}

Result<cloud::TxnOutcome> DecodeTxnOutcome(const Bytes& payload) {
  BinaryReader r(payload);
  cloud::TxnOutcome out;
  TC_RETURN_IF_ERROR(ReadStatus(r, &out.status));
  auto committed = r.GetBool();
  if (!committed.ok()) return committed.status();
  out.committed = committed.value();
  auto replayed = r.GetBool();
  if (!replayed.ok()) return replayed.status();
  out.replayed = replayed.value();
  auto seq = r.GetU64();
  if (!seq.ok()) return seq.status();
  out.commit_seq = seq.value();
  auto n_versions = r.GetVarint();
  if (!n_versions.ok()) return n_versions.status();
  TC_RETURN_IF_ERROR(CheckCount(r, n_versions.value(), 8));
  out.versions.reserve(n_versions.value());
  for (uint64_t i = 0; i < n_versions.value(); ++i) {
    auto v = r.GetU64();
    if (!v.ok()) return v.status();
    out.versions.push_back(v.value());
  }
  auto conflict = r.GetString();
  if (!conflict.ok()) return conflict.status();
  out.conflict_id = std::move(conflict).value();
  auto delay = r.GetU32();
  if (!delay.ok()) return delay.status();
  out.delay_us = delay.value();
  auto ordinal = r.GetU64();
  if (!ordinal.ok()) return ordinal.status();
  out.fault_ordinal = ordinal.value();
  TC_RETURN_IF_ERROR(CheckExhausted(r));
  return out;
}

Bytes EncodeStatusOnlyResponse(RpcOp op, const Status& status) {
  switch (op) {
    case RpcOp::kPing:
      return Bytes();
    case RpcOp::kPutBlobBatch: {
      cloud::CloudInfrastructure::BatchPutOutcome outcome;
      outcome.status = status;
      return EncodePutBatchResponse(outcome);
    }
    case RpcOp::kGetBlob: {
      GetBlobResponse response;
      response.status = status;
      return EncodeGetBlobResponse(response);
    }
    case RpcOp::kGetSnapshot: {
      GetSnapshotResponse response;
      response.status = status;
      return EncodeGetSnapshotResponse(response);
    }
    case RpcOp::kGetAtSnapshot: {
      GetAtSnapshotResponse response;
      response.status = status;
      return EncodeGetAtSnapshotResponse(response);
    }
    case RpcOp::kCommitTxn: {
      cloud::TxnOutcome outcome;
      outcome.status = status;
      return EncodeTxnOutcome(outcome);
    }
    case RpcOp::kReportTelemetry: {
      ReportTelemetryResponse response;
      response.status = status;
      return EncodeReportTelemetryResponse(response);
    }
    case RpcOp::kScrapeTelemetry: {
      ScrapeTelemetryResponse response;
      response.status = status;
      return EncodeScrapeTelemetryResponse(response);
    }
  }
  return Bytes();
}

}  // namespace tc::rpc
