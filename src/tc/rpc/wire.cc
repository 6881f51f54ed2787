#include "tc/rpc/wire.h"

#include <sys/socket.h>

#include <cerrno>

namespace tc::rpc {

namespace {

constexpr uint8_t kMaxKnownOp = static_cast<uint8_t>(RpcOp::kScrapeTelemetry);
/// Op code 1, the retired put_blob_batch, is never reused.
constexpr uint8_t kRetiredOp = 1;
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kAborted);

template <typename T>
Status Take(Result<T> got, T* out) {
  if (!got.ok()) return got.status();
  *out = std::move(got).value();
  return Status::OK();
}

/// A struct's fields, in declaration order.
template <typename... Fields>
void PutFields(BinaryWriter& w, const Fields&... fields) {
  (Put(w, fields), ...);
}

/// Stops at the first field that fails.
template <typename... Fields>
Status GetFields(BinaryReader& r, Fields*... fields) {
  Status status;
  (void)((status = Get(r, fields)).ok() && ...);
  return status;
}

}  // namespace

const char* RpcOpName(RpcOp op) {
  switch (op) {
    case RpcOp::kPing:
      return "ping";
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

bool RpcOpKnown(uint8_t op) {
  return op <= kMaxKnownOp && op != kRetiredOp;
}

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

Status FrameReader::Next(FrameHeader* header, Bytes* payload) {
  constexpr size_t kReadChunk = 64 * 1024;
  for (;;) {
    const size_t buffered = buf_.size() - pos_;
    if (buffered >= kFrameHeaderBytes) {
      TC_ASSIGN_OR_RETURN(
          FrameHeader h, DecodeFrameHeader(buf_.data() + pos_, buffered));
      if (h.response() != responses_) {
        return Status::Corruption("frame sent in the wrong direction");
      }
      const size_t need = kFrameHeaderBytes + h.payload_size;
      if (buffered >= need) {
        payload->assign(buf_.begin() + pos_ + kFrameHeaderBytes,
                        buf_.begin() + pos_ + need);
        pos_ += need;
        *header = h;
        return Status::OK();
      }
    }
    // Frame still arriving: drop what was consumed, then read more.
    if (pos_ > 0) {
      buf_.erase(buf_.begin(), buf_.begin() + pos_);
      pos_ = 0;
    }
    const size_t old_size = buf_.size();
    buf_.resize(old_size + kReadChunk);
    const ssize_t r = ::recv(fd_, buf_.data() + old_size, kReadChunk, 0);
    const bool interrupted = r < 0 && errno == EINTR;
    buf_.resize(old_size + (r > 0 ? static_cast<size_t>(r) : 0));
    if (r <= 0 && !interrupted) {
      return Status::Unavailable("connection closed");  // EOF or reset.
    }
  }
}

bool WriteFull(int fd, const Bytes& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that vanished must surface as EPIPE, not kill
    // the process with SIGPIPE.
    const ssize_t r =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void Put(BinaryWriter& w, bool v) { w.PutBool(v); }
void Put(BinaryWriter& w, uint8_t v) { w.PutU8(v); }
void Put(BinaryWriter& w, uint32_t v) { w.PutU32(v); }
void Put(BinaryWriter& w, uint64_t v) { w.PutU64(v); }
void Put(BinaryWriter& w, const std::string& v) { w.PutString(v); }
void Put(BinaryWriter& w, const Bytes& v) { w.PutBytes(v); }

void Put(BinaryWriter& w, const Status& v) {
  PutFields(w, static_cast<uint8_t>(v.code()), v.message());
}

void Put(BinaryWriter& w, const cloud::SnapshotDescriptor& v) {
  PutFields(w, v.base_seq, v.extra_seqs, v.shard_high);
}

void Put(BinaryWriter& w, const cloud::SnapshotRead& v) {
  PutFields(w, v.data, v.version, v.commit_seq);
}

void Put(BinaryWriter& w, const cloud::TxnRead& v) {
  PutFields(w, v.id, v.version);
}

void Put(BinaryWriter& w, const cloud::TxnWrite& v) {
  PutFields(w, v.id, v.data, v.base_version);
}

void Put(BinaryWriter& w, const cloud::TxnRequest& v) {
  PutFields(w, v.token, v.snapshot, v.reads, v.writes);
}

void Put(BinaryWriter& w, const cloud::TxnOutcome& v) {
  PutFields(w, v.status, v.committed, v.replayed, v.commit_seq, v.versions,
            v.conflict_id, v.delay_us, v.fault_ordinal);
}

void Put(BinaryWriter& w, const obs::TelemetryHub::ReportOutcome& v) {
  PutFields(w, v.status, v.applied, v.duplicate, v.last_seq);
}

Status Get(BinaryReader& r, bool* v) { return Take(r.GetBool(), v); }
Status Get(BinaryReader& r, uint8_t* v) { return Take(r.GetU8(), v); }
Status Get(BinaryReader& r, uint32_t* v) { return Take(r.GetU32(), v); }
Status Get(BinaryReader& r, uint64_t* v) { return Take(r.GetU64(), v); }
Status Get(BinaryReader& r, std::string* v) { return Take(r.GetString(), v); }
Status Get(BinaryReader& r, Bytes* v) { return Take(r.GetBytes(), v); }

Status Get(BinaryReader& r, Status* v) {
  uint8_t code = 0;
  TC_RETURN_IF_ERROR(Get(r, &code));
  if (code > kMaxStatusCode) {
    return Status::Corruption("unknown status code on wire");
  }
  std::string message;
  TC_RETURN_IF_ERROR(Get(r, &message));
  *v = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

Status Get(BinaryReader& r, cloud::SnapshotDescriptor* v) {
  return GetFields(r, &v->base_seq, &v->extra_seqs, &v->shard_high);
}

Status Get(BinaryReader& r, cloud::SnapshotRead* v) {
  return GetFields(r, &v->data, &v->version, &v->commit_seq);
}

Status Get(BinaryReader& r, cloud::TxnRead* v) {
  return GetFields(r, &v->id, &v->version);
}

Status Get(BinaryReader& r, cloud::TxnWrite* v) {
  return GetFields(r, &v->id, &v->data, &v->base_version);
}

Status Get(BinaryReader& r, cloud::TxnRequest* v) {
  return GetFields(r, &v->token, &v->snapshot, &v->reads, &v->writes);
}

Status Get(BinaryReader& r, cloud::TxnOutcome* v) {
  return GetFields(r, &v->status, &v->committed, &v->replayed,
                   &v->commit_seq, &v->versions, &v->conflict_id,
                   &v->delay_us, &v->fault_ordinal);
}

Status Get(BinaryReader& r, obs::TelemetryHub::ReportOutcome* v) {
  return GetFields(r, &v->status, &v->applied, &v->duplicate, &v->last_seq);
}

Bytes EncodeStatusOnlyResponse(RpcOp op, const Status& status) {
  // A Result<T> that is not OK is its status and T(), so (status, T())
  // writes the same bytes.
  constexpr uint32_t kNoDelay = 0;
  switch (op) {
    case RpcOp::kPing:
      return Bytes();
    case RpcOp::kGetBlob:
      return Encode(status, Bytes(), kNoDelay);
    case RpcOp::kGetSnapshot:
      return Encode(status, cloud::SnapshotDescriptor(), kNoDelay);
    case RpcOp::kGetAtSnapshot:
      return Encode(status, cloud::SnapshotRead(), kNoDelay);
    case RpcOp::kCommitTxn:
      return Encode(StatusOnly<cloud::TxnOutcome>(status));
    case RpcOp::kReportTelemetry:
      return Encode(StatusOnly<obs::TelemetryHub::ReportOutcome>(status),
                    kNoDelay);
    case RpcOp::kScrapeTelemetry:
      return Encode(status, std::string(), kNoDelay);
  }
  return Bytes();
}

}  // namespace tc::rpc
